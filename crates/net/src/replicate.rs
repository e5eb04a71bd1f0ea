//! Multi-seed replication of gathering simulations over random
//! topologies, on the parallel runner.
//!
//! A single random field says little: the keynote's network-level claims
//! (multi-hop savings, the energy hole, delivery under loss) need
//! confidence intervals over topology draws. This module replicates a
//! [`GatherSession`](crate::GatherSession) run across `base_seed + k`
//! topologies with the same seed-partitioning scheme as
//! `ami_sim::replicate` — replication `k` always sees seed
//! `base_seed + k`, and reports come back in seed order, so the
//! parallel path is bit-exact with a serial loop at any worker count
//! (enforced by `tests/determinism.rs`).
//!
//! Each replication inherits the gather core's hot-path machinery
//! (CSR adjacency, epoch-cached routing, allocation-free rounds — see
//! DESIGN.md "Performance"): route tables rebuild only when a fault
//! or death changes the usable set, and since every replication draws
//! a fresh [`Topology`], the per-topology CSR is built once per
//! replication, never shared nor rebuilt across rounds. The
//! `faulted_replication` group of `expt_bench_snapshot` /
//! `BENCH_NET.json` tracks this path end-to-end.

use crate::gather::{simulate_gathering_faulted_observed, NetworkConfig, NetworkReport};
use crate::routing::RoutingStrategy;
use crate::topology::Topology;
use ami_sim::fault::FaultSchedule;
use ami_sim::obs::LedgerRecorder;
use ami_sim::summarize;
use ami_sim::Summary;

/// [`replicate_gathering_faulted_observed_threads`] with every
/// replication fault-free.
///
/// # Panics
///
/// Panics if `threads`, `replications` or `rounds` is zero.
pub fn replicate_gathering_observed_threads(
    threads: usize,
    replications: usize,
    base_seed: u64,
    topology: impl Fn(u64) -> Topology + Sync,
    strategy: RoutingStrategy,
    config: &NetworkConfig,
    rounds: u64,
) -> (Vec<NetworkReport>, LedgerRecorder) {
    replicate_gathering_faulted_observed_threads(
        threads,
        replications,
        base_seed,
        topology,
        |_| FaultSchedule::empty(),
        strategy,
        config,
        rounds,
    )
}

/// Replicates a gathering study across seeded random topologies on
/// `threads` workers (1 = serial loop): replication `k` runs
/// [`simulate_gathering_faulted_observed`] over
/// `topology(base_seed + k)` under `faults(base_seed + k)`. Returns one report per seed, in seed order,
/// plus one [`LedgerRecorder`] merged over all replications in seed
/// order, so reports, ledger and counters are bit-identical at any
/// thread count.
///
/// `topology` builds the field for a seed — typically
/// `|seed| Topology::random(n, field, seed)`, but any deterministic
/// seed-to-field map works (e.g. jittered grids). `faults` maps the
/// seed to its [`FaultSchedule`] — typically
/// `|seed| spec.schedule_for(seed, nodes, rounds)`, or
/// `|_| FaultSchedule::empty()` for fault-free runs. Both must be pure
/// functions of the seed: the runner may call them from any worker.
/// Callers that want only the reports drop the ledger.
///
/// # Panics
///
/// Panics if `threads`, `replications` or `rounds` is zero.
#[allow(clippy::too_many_arguments)]
pub fn replicate_gathering_faulted_observed_threads(
    threads: usize,
    replications: usize,
    base_seed: u64,
    topology: impl Fn(u64) -> Topology + Sync,
    faults: impl Fn(u64) -> FaultSchedule + Sync,
    strategy: RoutingStrategy,
    config: &NetworkConfig,
    rounds: u64,
) -> (Vec<NetworkReport>, LedgerRecorder) {
    assert!(replications > 0, "at least one replication");
    let seeds: Vec<u64> = (0..replications)
        .map(|k| base_seed.wrapping_add(k as u64))
        .collect();
    let observed = ami_sim::runner::par_map_indexed_threads(threads, &seeds, |_, &seed| {
        simulate_gathering_faulted_observed(
            &topology(seed),
            strategy,
            config,
            rounds,
            &faults(seed),
        )
    });
    // par_map returns results in seed order, so this serial fold is the
    // deterministic index-order merge.
    let mut merged = LedgerRecorder::with_nodes(0);
    let mut reports = Vec::with_capacity(observed.len());
    for (report, recorder) in observed {
        merged.merge(&recorder);
        reports.push(report);
    }
    (reports, merged)
}

/// Summarizes one scalar observable over replicated reports — the
/// confidence-interval companion to
/// [`replicate_gathering_faulted_observed_threads`].
///
/// # Example
///
/// ```
/// use ami_net::{replicate_gathering_faulted_observed_threads, summarize_reports,
///     NetworkConfig, RoutingStrategy, Topology};
/// use ami_sim::fault::FaultSchedule;
/// use ami_units::Length;
///
/// let (reports, _ledger) = replicate_gathering_faulted_observed_threads(
///     2, 8, 42,
///     |seed| Topology::random(12, Length::from_meters(80.0), seed),
///     |_| FaultSchedule::empty(),
///     RoutingStrategy::MinimumEnergy,
///     &NetworkConfig::sensor_default(),
///     20,
/// );
/// let delivered = summarize_reports(&reports, |r| r.delivered_packets as f64);
/// assert_eq!(delivered.n, 8);
/// assert!(delivered.mean > 0.0);
/// ```
///
/// # Panics
///
/// Panics if `reports` is empty or the observable is non-finite.
pub fn summarize_reports(
    reports: &[NetworkReport],
    observable: impl Fn(&NetworkReport) -> f64,
) -> Summary {
    let values: Vec<f64> = reports.iter().map(observable).collect();
    summarize(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::GatherSession;
    use ami_units::Length;

    fn field(seed: u64) -> Topology {
        Topology::random(10, Length::from_meters(70.0), seed)
    }

    #[test]
    fn reports_come_back_in_seed_order() {
        let config = NetworkConfig::sensor_default();
        let replicated = replicate_gathering_faulted_observed_threads(
            ami_sim::runner::thread_count(),
            4,
            7,
            field,
            |_| FaultSchedule::empty(),
            RoutingStrategy::MinimumEnergy,
            &config,
            10,
        )
        .0;
        for (k, report) in replicated.iter().enumerate() {
            let solo = GatherSession::new(
                &field(7 + k as u64),
                RoutingStrategy::MinimumEnergy,
                &config,
            )
            .run(10);
            assert_eq!(*report, solo, "replication {k}");
        }
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let config = NetworkConfig::sensor_default();
        let serial = replicate_gathering_faulted_observed_threads(
            1,
            6,
            99,
            field,
            |_| FaultSchedule::empty(),
            RoutingStrategy::MinimumEnergy,
            &config,
            15,
        )
        .0;
        for threads in [2, 4, 8] {
            let parallel = replicate_gathering_faulted_observed_threads(
                threads,
                6,
                99,
                field,
                |_| FaultSchedule::empty(),
                RoutingStrategy::MinimumEnergy,
                &config,
                15,
            )
            .0;
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn summary_matches_hand_fold() {
        let config = NetworkConfig::sensor_default();
        let reports = replicate_gathering_faulted_observed_threads(
            ami_sim::runner::thread_count(),
            5,
            1,
            field,
            |_| FaultSchedule::empty(),
            RoutingStrategy::DirectToSink,
            &config,
            5,
        )
        .0;
        let summary = summarize_reports(&reports, |r| r.delivered_packets as f64);
        let mean = reports
            .iter()
            .map(|r| r.delivered_packets as f64)
            .sum::<f64>()
            / reports.len() as f64;
        assert_eq!(summary.n, 5);
        assert!((summary.mean - mean).abs() < 1e-12);
    }

    #[test]
    fn observed_replication_merges_in_seed_order() {
        let config = NetworkConfig::sensor_default();
        let (reports, merged) = replicate_gathering_observed_threads(
            1,
            5,
            42,
            field,
            RoutingStrategy::MinimumEnergy,
            &config,
            10,
        );
        // Merged counters equal the sum over per-seed runs.
        let mut expect = ami_sim::obs::LedgerRecorder::with_nodes(0);
        for k in 0..5u64 {
            let (_, solo) = simulate_gathering_faulted_observed(
                &field(42 + k),
                RoutingStrategy::MinimumEnergy,
                &config,
                10,
                &FaultSchedule::empty(),
            );
            expect.merge(&solo);
        }
        assert_eq!(merged, expect);
        assert_eq!(
            merged.packets.delivered,
            reports.iter().map(|r| r.delivered_packets).sum::<u64>()
        );

        // And the merge is bit-identical at any worker count.
        for threads in [2, 4, 8] {
            let (par_reports, par_merged) = replicate_gathering_observed_threads(
                threads,
                5,
                42,
                field,
                RoutingStrategy::MinimumEnergy,
                &config,
                10,
            );
            assert_eq!(reports, par_reports, "threads = {threads}");
            assert_eq!(merged, par_merged, "threads = {threads}");
        }
    }

    #[test]
    fn faulted_replication_is_thread_invariant() {
        use ami_sim::fault::FaultModel;
        let config = NetworkConfig::sensor_default();
        let model = FaultModel {
            death_rate: 0.15,
            outage_rate: 0.2,
            outage_rounds: 5,
            link_outage_rate: 0.1,
            link_outage_rounds: 4,
            fade_rate: 0.2,
            fade_factor: 0.5,
        };
        let schedule = |seed: u64| model.schedule(seed, 10, 12);
        let (serial, serial_obs) = replicate_gathering_faulted_observed_threads(
            1,
            6,
            77,
            field,
            schedule,
            RoutingStrategy::MinimumEnergy,
            &config,
            12,
        );
        assert!(serial_obs.packets.is_conserved());
        assert!(
            serial_obs.packets.dropped_fault > 0,
            "this fault mix must cost packets somewhere in 6 replications"
        );
        for threads in [2, 8] {
            let (parallel, parallel_obs) = replicate_gathering_faulted_observed_threads(
                threads,
                6,
                77,
                field,
                schedule,
                RoutingStrategy::MinimumEnergy,
                &config,
                12,
            );
            assert_eq!(serial, parallel, "threads = {threads}");
            assert_eq!(serial_obs, parallel_obs, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = replicate_gathering_faulted_observed_threads(
            ami_sim::runner::thread_count(),
            0,
            0,
            field,
            |_| FaultSchedule::empty(),
            RoutingStrategy::DirectToSink,
            &NetworkConfig::sensor_default(),
            1,
        )
        .0;
    }
}
