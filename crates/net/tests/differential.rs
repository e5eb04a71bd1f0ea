//! The differential-oracle layer pinning the city-scale fast paths to
//! their retired reference implementations:
//!
//! * spatial-grid CSR construction ≡ the all-pairs scan
//!   (`CsrAdjacency::build_scan`),
//! * heap Dijkstra ≡ the O(N²) linear-scan Dijkstra,
//! * masked routing ≡ the compact-subtopology rebuild,
//! * incremental route repair ≡ full rebuild per transition —
//!   tables, connectivity, transmit costs, whole-simulation reports,
//!   energy ledgers and rendered manifests, across random topologies ×
//!   random fault schedules, with failures delta-debugged down to a
//!   1-minimal schedule before reporting,
//! * **the lossy kernel on 1, 2, 3 and 8 regions ≡ the hop-by-hop
//!   serial reference round** (`common::oracle::lossy_reference_run`) —
//!   report, ledger and rendered manifest across random fault
//!   schedules (the per-packet counter streams are what make this
//!   possible at all; the retired sequential-stream kernel is pinned
//!   separately by its frozen golden in `seqstream_oracle.rs`).
//!
//! Everything here asserts *bit* equality (ids and float bits), not
//! approximate equality: the optimizations are only admissible because
//! they change nothing.

mod common;

use ami_net::routing::{
    route_build_count, route_repair_count, set_route_repair_enabled, RouteCache,
};
use ami_net::{
    build_routes, build_routes_over, simulate_gathering_faulted_observed, CsrAdjacency,
    GatherSession, LossyConfig, LossyReport, LossySession, NetworkConfig, NetworkReport, NodeId,
    RoutingStrategy, Topology,
};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::{FaultEvent, FaultModel, FaultSchedule, FaultSpec};
use ami_sim::obs::{LedgerRecorder, NullRecorder, RunManifest};
use ami_units::{Energy, Length};
use common::oracle::{dijkstra_reference_scan, lossy_reference_run, rebuild_over_usable};
use common::schedule::{fault_schedule, minimize_failing_schedule};
use proptest::prelude::*;

fn radio() -> RadioEnergyModel {
    RadioEnergyModel::short_range_2003()
}

/// Restores the thread-local repair toggle on drop, so a failing
/// assertion cannot leak oracle mode into later tests on the thread.
struct RepairMode(bool);

impl RepairMode {
    fn set(enabled: bool) -> Self {
        Self(set_route_repair_enabled(enabled))
    }
}

impl Drop for RepairMode {
    fn drop(&mut self) {
        set_route_repair_enabled(self.0);
    }
}

#[test]
fn grid_csr_build_matches_the_scan_oracle_bitwise() {
    // Random fields, an exact grid (equidistant ties), a degenerate
    // single-cell layout (all nodes coincident) — at tiny, typical and
    // effectively-unbounded ranges. `PartialEq` on `CsrAdjacency`
    // compares offsets, targets and raw distance floats.
    let mut layouts: Vec<Topology> = (0..6u64)
        .map(|seed| Topology::random(120, Length::from_meters(400.0), seed))
        .collect();
    layouts.push(Topology::grid(9, Length::from_meters(25.0)));
    layouts.push(Topology::new(vec![ami_net::Position::new(3.0, 4.0); 40]));
    for (k, topo) in layouts.iter().enumerate() {
        let positions: Vec<ami_net::Position> = topo.ids().map(|id| topo.position(id)).collect();
        for range_m in [0.5, 8.0, 25.0, 45.0, 120.0, 1e6] {
            let range = Length::from_meters(range_m);
            let grid = CsrAdjacency::build(&positions, range);
            let scan = CsrAdjacency::build_scan(&positions, range);
            assert_eq!(grid, scan, "layout {k} range {range_m}");
        }
    }
}

#[test]
fn heap_dijkstra_matches_the_reference_scan_exactly() {
    for seed in 0..20u64 {
        let topo = Topology::random(60, Length::from_meters(160.0), seed);
        for range_m in [30.0, 45.0, 70.0] {
            let range = Length::from_meters(range_m);
            let fast = build_routes(&topo, RoutingStrategy::MinimumEnergy, &radio(), range);
            let slow = dijkstra_reference_scan(&topo, &radio(), range);
            assert_eq!(fast, slow, "seed {seed} range {range_m}");
        }
    }
}

#[test]
fn masked_routing_matches_the_compact_rebuild_exactly() {
    // The id-order-preserving map between the compact topology and the
    // masked full topology must make the two approaches agree
    // bit-for-bit, whatever the usable mask.
    let config = NetworkConfig::sensor_default();
    for seed in 0..10u64 {
        let topo = Topology::random(40, Length::from_meters(130.0), seed);
        // A deterministic, seed-varied mask (sink always usable).
        let mut usable: Vec<bool> = (0..topo.len())
            .map(|id| id == 0 || !(id as u64).wrapping_mul(seed + 3).is_multiple_of(5))
            .collect();
        usable[0] = true;
        for strategy in [
            RoutingStrategy::DirectToSink,
            RoutingStrategy::MinimumEnergy,
        ] {
            let compact =
                rebuild_over_usable(&topo, strategy, &config.radio, config.max_hop, &usable);
            let masked = build_routes_over(&topo, strategy, &config.radio, config.max_hop, &usable);
            assert_eq!(masked, compact, "seed {seed} strategy {strategy}");
        }
    }
}

/// Drives a repair-enabled cache and an oracle (full-rebuild) cache
/// through `schedule`'s usable-set sequence with the simulators'
/// one-round lag, returning the first divergence as a message. Also
/// cross-checks both caches against a from-scratch `build_routes_over`
/// every round, so a bug shared by both cache paths cannot hide.
fn first_cache_divergence(
    topo: &Topology,
    schedule: &FaultSchedule,
    rounds: u64,
) -> Option<String> {
    let n = topo.len();
    let config = NetworkConfig::sensor_default();
    let bits = config.packet.total_bits();
    let mut repaired = RouteCache::new(n);
    let mut oracle = RouteCache::new(n);
    let mut usable = vec![true; n];
    let mut down_prev = vec![false; n];
    for round in 0..rounds {
        for (id, flag) in usable.iter_mut().enumerate() {
            *flag = id == 0 || !down_prev[id];
        }
        {
            let _mode = RepairMode::set(true);
            repaired.ensure(
                topo,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                bits,
                &usable,
            );
        }
        {
            let _mode = RepairMode::set(false);
            oracle.ensure(
                topo,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                bits,
                &usable,
            );
        }
        let fresh = build_routes_over(
            topo,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
            &usable,
        );
        for (id, &fresh_hop) in fresh.iter().enumerate() {
            let node = NodeId(id);
            if oracle.next_hop(node) != fresh_hop {
                return Some(format!(
                    "round {round} node {id}: oracle cache ≠ fresh build"
                ));
            }
            if repaired.next_hop(node) != oracle.next_hop(node) {
                return Some(format!(
                    "round {round} node {id}: repaired next hop {:?} ≠ oracle {:?}",
                    repaired.next_hop(node),
                    oracle.next_hop(node)
                ));
            }
            if repaired.is_connected(node) != oracle.is_connected(node) {
                return Some(format!("round {round} node {id}: connectivity diverged"));
            }
            if repaired.tx_cost(node).to_bits() != oracle.tx_cost(node).to_bits() {
                return Some(format!("round {round} node {id}: tx cost bits diverged"));
            }
        }
        for (id, down) in down_prev.iter_mut().enumerate() {
            *down = id != 0 && schedule.node_down(id, round);
        }
    }
    // Both caches saw the same transitions; repairs replace builds
    // one-for-one.
    if repaired.builds() + repaired.repairs() != oracle.builds() {
        return Some(format!(
            "transition accounting diverged: {} builds + {} repairs ≠ {} oracle builds",
            repaired.builds(),
            repaired.repairs(),
            oracle.builds()
        ));
    }
    None
}

proptest! {
    /// Tentpole contract, table level: incremental repair must be
    /// bit-indistinguishable from a full rebuild on every round of every
    /// schedule. Failures are minimized to a 1-minimal schedule before
    /// panicking.
    #[test]
    fn incremental_repair_matches_full_rebuild_tables(
        seed in 0u64..120,
        schedule in fault_schedule(32, 30, 12),
    ) {
        let topo = Topology::random(32, Length::from_meters(120.0), seed);
        if let Some(message) = first_cache_divergence(&topo, &schedule, 30) {
            let minimized = minimize_failing_schedule(schedule.events(), |s| {
                first_cache_divergence(&topo, s, 30).is_some()
            });
            panic!(
                "repair ≠ rebuild (seed {seed}): {message}\nminimized schedule: {:?}",
                minimized.events()
            );
        }
    }
}

/// One faulted, observed gathering run with repair forced on or off,
/// plus its rendered manifest — the three artifacts the tentpole
/// promises are identical across the two paths.
fn observed_run(
    topo: &Topology,
    config: &NetworkConfig,
    schedule: &FaultSchedule,
    rounds: u64,
    repair: bool,
) -> (NetworkReport, LedgerRecorder, String) {
    let _mode = RepairMode::set(repair);
    let (report, obs) = simulate_gathering_faulted_observed(
        topo,
        RoutingStrategy::MinimumEnergy,
        config,
        rounds,
        schedule,
    );
    let manifest = RunManifest::new("differential")
        .field("rounds", &rounds)
        .field("report", &report)
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
        .runner()
        .to_json();
    (report, obs, manifest)
}

proptest! {
    /// Tentpole contract, simulation level: a faulted gathering run —
    /// delivery counts, energy ledger, packet-counter tree, rendered
    /// manifest — is byte-identical whether transitions repair or
    /// rebuild. Endogenous budget deaths are provoked alongside the
    /// exogenous schedule so mixed usable-set diffs get exercised.
    #[test]
    fn faulted_gathering_is_identical_under_repair(
        seed in 0u64..40,
        schedule in fault_schedule(24, 25, 10),
    ) {
        let topo = Topology::random(24, Length::from_meters(110.0), seed);
        let mut config = NetworkConfig::sensor_default();
        // ~12 rounds of idle budget: energy deaths mid-run, on top of
        // the exogenous faults.
        config.node_energy = Energy::from_joules(0.015);
        let differs = |s: &FaultSchedule| {
            observed_run(&topo, &config, s, 25, true) != observed_run(&topo, &config, s, 25, false)
        };
        if differs(&schedule) {
            let minimized =
                minimize_failing_schedule(schedule.events(), |s| differs(s));
            let (report_r, _, manifest_r) = observed_run(&topo, &config, &minimized, 25, true);
            let (report_f, _, manifest_f) = observed_run(&topo, &config, &minimized, 25, false);
            panic!(
                "faulted run diverged under repair (seed {seed})\n\
                 minimized schedule: {:?}\nrepair report: {report_r:?}\n\
                 full report: {report_f:?}\nmanifests equal: {}",
                minimized.events(),
                manifest_r == manifest_f,
            );
        }
    }
}

/// Region counts every lossy differential runs the kernel at.
const REGIONS: [usize; 4] = [1, 2, 3, 8];

/// One faulted, observed lossy/ARQ run on `regions` regions (`None` =
/// the hop-by-hop serial reference round), plus its rendered manifest —
/// the three artifacts the lossy kernel must reproduce.
fn lossy_observed_run(
    topo: &Topology,
    config: &LossyConfig,
    schedule: &FaultSchedule,
    rounds: u64,
    seed: u64,
    regions: Option<usize>,
) -> (LossyReport, LedgerRecorder, String) {
    let mut obs = LedgerRecorder::with_nodes(topo.len());
    let report = match regions {
        Some(regions) => {
            LossySession::new(topo, config).run_regions(rounds, seed, schedule, regions, &mut obs)
        }
        None => lossy_reference_run(topo, config, rounds, seed, schedule, &mut obs),
    };
    let manifest = RunManifest::new("differential-lossy")
        .field("rounds", &rounds)
        .field("report", &report)
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
        .runner()
        .to_json();
    (report, obs, manifest)
}

/// Asserts the kernel at every count in [`REGIONS`] reproduces the
/// reference round's report, ledger and manifest bit for bit.
fn assert_lossy_matches_reference(
    topo: &Topology,
    config: &LossyConfig,
    schedule: &FaultSchedule,
    rounds: u64,
    seed: u64,
) -> LossyReport {
    let reference = lossy_observed_run(topo, config, schedule, rounds, seed, None);
    for regions in REGIONS {
        let run = lossy_observed_run(topo, config, schedule, rounds, seed, Some(regions));
        assert_eq!(run.0, reference.0, "report at {regions} regions");
        assert_eq!(run.1, reference.1, "ledger at {regions} regions");
        assert_eq!(run.2, reference.2, "manifest at {regions} regions");
    }
    reference.0
}

proptest! {
    /// Lossy kernel contract: on 1, 2, 3 and 8 regions the kernel is
    /// byte-identical to the hop-by-hop serial reference round —
    /// report, ledger, rendered manifest — under random fault schedules
    /// (downed relays and links burning full ARQ budgets mid-route),
    /// with ddmin minimization on failure.
    #[test]
    fn region_parallel_lossy_rounds_match_the_serial_kernel(
        seed in 0u64..40,
        schedule in fault_schedule(24, 25, 10),
    ) {
        let topo = Topology::random(24, Length::from_meters(110.0), seed);
        let config = LossyConfig::bruised_channel();
        let diverges = |s: &FaultSchedule| {
            let reference = lossy_observed_run(&topo, &config, s, 25, seed, None);
            REGIONS
                .iter()
                .any(|&r| lossy_observed_run(&topo, &config, s, 25, seed, Some(r)) != reference)
        };
        if diverges(&schedule) {
            let minimized =
                minimize_failing_schedule(schedule.events(), |s| diverges(s));
            let reference = lossy_observed_run(&topo, &config, &minimized, 25, seed, None);
            let par = lossy_observed_run(&topo, &config, &minimized, 25, seed, Some(8));
            panic!(
                "lossy kernel diverged from the reference round (seed {seed})\n\
                 minimized schedule: {:?}\nreference report: {:?}\n\
                 8-region report: {:?}\nmanifests equal: {}",
                minimized.events(),
                reference.0,
                par.0,
                reference.2 == par.2,
            );
        }
    }
}

#[test]
fn healthy_lossy_grid_matches_serial_at_every_thread_count() {
    let topo = Topology::grid(6, Length::from_meters(30.0));
    let config = LossyConfig::bruised_channel();
    let report = assert_lossy_matches_reference(&topo, &config, &FaultSchedule::empty(), 80, 2003);
    assert!(report.delivered > 0 && report.delivered < report.offered);
}

#[test]
fn faulted_lossy_observed_run_matches_serial_ledger_bitwise() {
    let topo = Topology::grid(5, Length::from_meters(30.0));
    let config = LossyConfig::bruised_channel();
    let model = FaultModel {
        death_rate: 0.2,
        outage_rate: 0.3,
        outage_rounds: 10,
        link_outage_rate: 0.2,
        link_outage_rounds: 8,
        fade_rate: 0.0,
        fade_factor: 1.0,
    };
    let faults = model.schedule(5, topo.len(), 80);
    let report = assert_lossy_matches_reference(&topo, &config, &faults, 80, 9);
    assert!(report.dropped_fault > 0, "fixture must fault");
}

#[test]
fn lossy_fault_schedule_matches_serial_report() {
    let topo = Topology::grid(4, Length::from_meters(30.0));
    let config = LossyConfig::bruised_channel();
    let faults = FaultSchedule::new(vec![
        FaultEvent::NodeDeath { node: 5, round: 10 },
        FaultEvent::LinkOutage {
            a: 3,
            b: 0,
            from: 4,
            until: 20,
        },
    ]);
    let report = assert_lossy_matches_reference(&topo, &config, &faults, 40, 7);
    assert!(report.dropped_fault > 0, "fixture must fault");
}

#[test]
fn region_parallel_lossy_matches_serial_at_n1600_under_the_bench_fault_mix() {
    // Acceptance-scale spot check for the lossy kernel: one n=1600
    // faulted ARQ run on 1/2/3/8 regions against the reference round,
    // bit-identical reports, ledgers and manifests. (The n=100k check
    // lives in `scale_smoke_lossy` behind `--ignored`.)
    let n = 1600;
    let side = Length::from_meters(25.0 * (n as f64).sqrt());
    let spec = FaultSpec::parse("death=0.1,outage=0.2:10,link=0.1:8").expect("bench fault mix");
    let config = LossyConfig::bruised_channel();
    let topo = Topology::random(n, side, 2003);
    let faults = spec.schedule_for(2003, n, 30);
    let report = assert_lossy_matches_reference(&topo, &config, &faults, 30, 2003);
    assert!(
        report.delivered > 0 && report.delivered < report.offered,
        "the bruised channel delivers imperfectly"
    );
}

#[test]
fn faulted_replication_at_n1600_repairs_instead_of_rebuilding() {
    // Acceptance criterion: at n=1600 under the bench fault mix, every
    // replication performs exactly one full build (round 0) — all later
    // transitions are incremental repairs.
    let n = 1600;
    let side = Length::from_meters(25.0 * (n as f64).sqrt());
    let spec = FaultSpec::parse("death=0.1,outage=0.2:10,link=0.1:8").expect("bench fault mix");
    let config = NetworkConfig::sensor_default();
    let replications = 3u64;
    let (builds, repairs) = (route_build_count(), route_repair_count());
    let mut delivered = 0u64;
    for rep in 0..replications {
        let seed = 2003 + rep;
        let topo = Topology::random(n, side, seed);
        let faults = spec.schedule_for(seed, n, 30);
        let report = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
            .run_faulted_with(30, &faults, &mut NullRecorder);
        delivered += report.delivered_packets;
    }
    assert_eq!(
        route_build_count() - builds,
        replications,
        "one full build per replication (round 0) and no more"
    );
    assert!(
        route_repair_count() - repairs >= replications,
        "fault transitions must be absorbed by repairs"
    );
    assert!(delivered > 0, "the faulted network still delivers");
}
