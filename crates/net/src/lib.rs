//! Networks of ambient nodes: topology, routing and lifetime simulation.
//!
//! "Ambient intelligent functions are realized by a *network* of these
//! devices" — this crate evaluates such networks of µW-class nodes
//! reporting to a mains-powered sink:
//!
//! * [`Topology`] — grid, uniform-random and star node layouts;
//! * [`RoutingStrategy`] — direct-to-sink versus minimum-energy multi-hop
//!   (Dijkstra on the first-order radio energy metric);
//! * [`simulate_gathering`] — round-based data gathering that charges
//!   every transmit, relay and idle-listening joule against each node's
//!   energy budget and reports delivered information, network lifetime
//!   and the energy cost per delivered bit (experiments F6/A3);
//! * [`simulate_gathering_faulted`] and
//!   [`simulate_lossy_gathering_faulted`] — the same runs under an
//!   exogenous [`ami_sim::fault::FaultSchedule`] (node death, outages,
//!   link outages, capacity fade); routing re-resolves around downed
//!   nodes one round late and fault losses are attributed to the
//!   `dropped_fault` counter cause. Both kernels run every round inside
//!   one fault-lagged route epoch, and both chase routes through the
//!   route cache's packed next-hop table;
//! * [`simulate_gathering_faulted_observed`] — a gathering run with an
//!   [`ami_sim::obs`] energy ledger and packet counters attached, for
//!   per-category energy attribution and run manifests
//!   ([`simulate_lossy_gathering_faulted_with`] takes any recorder);
//! * [`simulate_lossy_gathering`] — gathering over lossy links with
//!   stop-and-wait ARQ (experiment F13). One round kernel serves every
//!   thread count: regions of the node id space walk their sources on
//!   worker threads and one commit folds them in ascending id order, so
//!   results are bit-identical on 1..N regions. Packets commute because
//!   each draws its own counter stream ([`ami_sim::rng::packet_rng`])
//!   and the model has no energy budgets, so no rollback is needed;
//!   [`simulate_lossy_gathering_faulted_par`] falls back to one region
//!   below a nodes-per-worker floor, where the barrier cannot pay.
//!   Gathering runs take the one serial kernel at every thread count:
//!   every round tries the aggregated kernel and falls back to the hop
//!   walk only when its budget margins say so;
//! * [`GatherSession`] and [`LossySession`] — keep routes warm across
//!   runs (and nothing else); every one-shot entry point is a session
//!   used once.
//!
//! # Example
//!
//! ```
//! use ami_net::{simulate_gathering, NetworkConfig, RoutingStrategy, Topology};
//! use ami_units::Length;
//!
//! let topo = Topology::grid(4, Length::from_meters(20.0));
//! let report = simulate_gathering(
//!     &topo, RoutingStrategy::MinimumEnergy, &NetworkConfig::sensor_default(), 100,
//! );
//! assert_eq!(report.delivered_packets, 100 * (topo.len() as u64 - 1));
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
    simulate_gathering, simulate_gathering_faulted, simulate_gathering_faulted_observed,
    simulate_gathering_faulted_observed_par, GatherSession, NetworkConfig, NetworkReport,
};
pub use lossy::{
    par_engaged_count, par_serial_fallback_count, simulate_lossy_gathering,
    simulate_lossy_gathering_faulted, simulate_lossy_gathering_faulted_par,
    simulate_lossy_gathering_faulted_with, LossyConfig, LossyReport, LossySession,
    PAR_MIN_NODES_PER_WORKER,
};
pub use replicate::{
    replicate_gathering, replicate_gathering_faulted_observed,
    replicate_gathering_faulted_observed_threads, replicate_gathering_observed,
    replicate_gathering_observed_threads, replicate_gathering_threads, summarize_reports,
};
pub use routing::{build_routes, build_routes_over, RouteCache, RoutingStrategy};
pub use topology::{NeighborsWithin, NodeId, Position, Topology};
