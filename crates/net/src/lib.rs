//! Networks of ambient nodes: topology, routing and lifetime simulation.
//!
//! "Ambient intelligent functions are realized by a *network* of these
//! devices" — this crate evaluates such networks of µW-class nodes
//! reporting to a mains-powered sink:
//!
//! * [`Topology`] — grid, uniform-random and star node layouts;
//! * [`RoutingStrategy`] — direct-to-sink versus minimum-energy multi-hop
//!   (Dijkstra on the first-order radio energy metric);
//! * [`GatherSession`] — round-based data gathering that charges every
//!   transmit, relay and idle-listening joule against each node's
//!   energy budget and reports delivered information, network lifetime
//!   and the energy cost per delivered bit (experiments F6/A3). Every
//!   round tries the aggregated kernel of [`agg`] and falls back to the
//!   hop walk only when its budget margins say so;
//! * [`LossySession`] — gathering over lossy links with stop-and-wait
//!   ARQ (experiment F13). One round kernel serves every region count:
//!   regions of the node id space walk their sources on worker threads
//!   and one commit folds them in ascending id order, so results are
//!   bit-identical on 1..N regions ([`LossySession::run_regions`]).
//!   Packets commute because each draws its own counter stream
//!   ([`ami_sim::rng::packet_rng`]) and the model has no energy budgets,
//!   so no rollback is needed;
//! * [`replicate_gathering_faulted_observed_threads`] — a gathering
//!   study over seeded random fields on the parallel runner, with the
//!   replication ledgers merged in seed order.
//!
//! A session keeps its routes warm across runs (and nothing else); a
//! one-shot run is a session used once. Both sessions take an exogenous
//! [`ami_sim::fault::FaultSchedule`] (node death, outages, link outages,
//! capacity fade) and any [`ami_sim::obs::Recorder`] — an energy ledger
//! and packet counters for manifests, or [`ami_sim::obs::NullRecorder`]
//! at zero cost. Routing re-resolves around downed nodes one round late
//! and fault losses are attributed to the `dropped_fault` counter
//! cause; both kernels chase routes through the route cache's packed
//! next-hop table.
//!
//! The remaining `simulate_*`/`replicate_*` functions are one-line
//! delegates to these, kept with fixed signatures for callers outside
//! the workspace: [`simulate_gathering_faulted_observed`] and its
//! `_par` twin, [`simulate_lossy_gathering_faulted`] and
//! [`simulate_lossy_gathering_faulted_par`] (which takes one region
//! below a nodes-per-worker floor, where the barrier cannot pay), and
//! [`replicate_gathering_observed_threads`].
//!
//! # Example
//!
//! ```
//! use ami_net::{GatherSession, LossyConfig, LossySession, NetworkConfig, RoutingStrategy, Topology};
//! use ami_sim::fault::FaultSchedule;
//! use ami_sim::obs::LedgerRecorder;
//! use ami_units::Length;
//!
//! let topo = Topology::grid(4, Length::from_meters(20.0));
//! let config = NetworkConfig::sensor_default();
//! let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
//! let report = session.run(100);
//! assert_eq!(report.delivered_packets, 100 * (topo.len() as u64 - 1));
//!
//! // A second run on the same session reuses its routes; a ledger
//! // recorder attributes every joule.
//! let mut ledger = LedgerRecorder::with_nodes(topo.len());
//! let again = session.run_faulted_with(100, &FaultSchedule::empty(), &mut ledger);
//! assert_eq!(again, report);
//! assert_eq!(ledger.packets.delivered, report.delivered_packets);
//!
//! // Lossy links: the same report on one region or two.
//! let lossy = LossyConfig::bruised_channel();
//! let mut session = LossySession::new(&topo, &lossy);
//! let one = session.run(20, 7);
//! let two = session.run_regions(20, 7, &FaultSchedule::empty(), 2, &mut ami_sim::obs::NullRecorder);
//! assert_eq!(one, two);
//! ```

pub mod agg;
pub mod aggregate;
pub mod cluster;
pub mod csr;
pub mod gather;
pub mod lossy;
pub mod replicate;
pub mod routing;
pub mod topology;

pub use agg::{agg_engaged_count, agg_fallback_count};
pub use aggregate::{analyze_aggregation, AggregationReport};
pub use cluster::{simulate_clustered, ClusterConfig, ClusterReport};
pub use csr::CsrAdjacency;
pub use gather::{
    simulate_gathering_faulted_observed, simulate_gathering_faulted_observed_par, GatherSession,
    NetworkConfig, NetworkReport,
};
pub use lossy::{
    par_engaged_count, par_serial_fallback_count, simulate_lossy_gathering_faulted,
    simulate_lossy_gathering_faulted_par, LossyConfig, LossyReport, LossySession,
    PAR_MIN_NODES_PER_WORKER,
};
pub use replicate::{
    replicate_gathering_faulted_observed_threads, replicate_gathering_observed_threads,
    summarize_reports,
};
pub use routing::{build_routes, build_routes_over, RouteCache, RoutingStrategy};
pub use topology::{NodeId, Position, Topology};
