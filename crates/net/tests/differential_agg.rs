//! Differential layer for the traffic-aggregation charge kernel: the
//! production gathering kernel ≡ an independent hop-by-hop reference
//! round, at report, ledger and rendered-manifest level.
//!
//! The aggregated kernel replaces the serial round's per-packet budget
//! walk with one reverse-topological sweep plus a per-cell replay, and
//! is only admissible because it changes *nothing*: the S1/S2 energy
//! margins prove, per round, that the serial kernel would have seen no
//! mid-round budget death, and every f64 fold replays the serial charge
//! order. These tests pin that contract against
//! `common::oracle::gather_reference_run` — built only from public
//! routing and fault pieces, so it shares no code with either
//! production path — the same way the repair and lossy-region layers
//! are pinned: random topologies × random fault schedules with budget
//! deaths provoked mid-run, bit equality on all artifacts, failures
//! delta-debugged to a 1-minimal schedule — plus targeted regressions
//! for the fallback machinery itself (death rounds must route through
//! the in-crate hop-walk fallback and be counted).

mod common;

use ami_net::{
    agg_engaged_count, agg_fallback_count, simulate_gathering_faulted_observed, GatherSession,
    NetworkConfig, NetworkReport, RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultEvent, FaultSchedule};
use ami_sim::obs::{LedgerRecorder, NullRecorder, RunManifest};
use ami_units::{Energy, Length};
use common::oracle::gather_reference_run;
use common::schedule::{fault_schedule, minimize_failing_schedule};
use proptest::prelude::*;

/// The three artifacts the aggregation contract pins: report, ledger
/// and rendered manifest.
type Artifacts = (NetworkReport, LedgerRecorder, String);

/// One faulted, observed gathering run through the production kernel.
fn production_run(
    topo: &Topology,
    config: &NetworkConfig,
    schedule: &FaultSchedule,
    rounds: u64,
) -> Artifacts {
    let (report, obs) = simulate_gathering_faulted_observed(
        topo,
        RoutingStrategy::MinimumEnergy,
        config,
        rounds,
        schedule,
    );
    let manifest = manifest_of(rounds, &report, &obs);
    (report, obs, manifest)
}

/// The same run through the hop-by-hop reference round.
fn reference_run(
    topo: &Topology,
    config: &NetworkConfig,
    schedule: &FaultSchedule,
    rounds: u64,
) -> Artifacts {
    let mut obs = LedgerRecorder::with_nodes(topo.len());
    let report = gather_reference_run(
        topo,
        RoutingStrategy::MinimumEnergy,
        config,
        rounds,
        schedule,
        &mut obs,
    );
    let manifest = manifest_of(rounds, &report, &obs);
    (report, obs, manifest)
}

/// A fault-free reference run recording nothing.
fn reference_report(topo: &Topology, config: &NetworkConfig, rounds: u64) -> NetworkReport {
    gather_reference_run(
        topo,
        RoutingStrategy::MinimumEnergy,
        config,
        rounds,
        &FaultSchedule::empty(),
        &mut NullRecorder,
    )
}

/// Renders the manifest artifact the aggregation contract pins.
fn manifest_of(rounds: u64, report: &NetworkReport, obs: &LedgerRecorder) -> String {
    RunManifest::new("differential-agg")
        .field("rounds", &rounds)
        .field("report", report)
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
        .runner()
        .to_json()
}

proptest! {
    /// Tentpole contract: a faulted gathering run — delivery counts,
    /// energy ledger, packet-counter tree, rendered manifest — is
    /// byte-identical to the hop-by-hop reference round. Budgets are
    /// cut to ~12 idle rounds so energy deaths arrive mid-run and the
    /// margin-check fallback path executes alongside clean rounds.
    #[test]
    fn production_rounds_match_the_reference_round(
        seed in 0u64..40,
        schedule in fault_schedule(24, 25, 10),
    ) {
        let topo = Topology::random(24, Length::from_meters(110.0), seed);
        let mut config = NetworkConfig::sensor_default();
        config.node_energy = Energy::from_joules(0.015);
        let differs = |s: &FaultSchedule| {
            production_run(&topo, &config, s, 25) != reference_run(&topo, &config, s, 25)
        };
        if differs(&schedule) {
            let minimized =
                minimize_failing_schedule(schedule.events(), |s| differs(s));
            let (report_p, _, manifest_p) = production_run(&topo, &config, &minimized, 25);
            let (report_r, _, manifest_r) = reference_run(&topo, &config, &minimized, 25);
            panic!(
                "production run diverged from the reference round (seed {seed})\n\
                 minimized schedule: {:?}\nproduction report: {report_p:?}\n\
                 reference report: {report_r:?}\nmanifests equal: {}",
                minimized.events(),
                manifest_p == manifest_r,
            );
        }
    }
}

#[test]
fn death_rounds_fall_back_to_the_hop_walk_and_are_counted() {
    // ~6 idle rounds of budget: relays die mid-run, so some rounds must
    // fail the S1/S2 margin and route through the retained oracle. The
    // engaged/fallback counters let CI and tests assert the fast path
    // actually ran, not just that results matched.
    let topo = Topology::random(64, Length::from_meters(180.0), 7);
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(0.008);
    let (engaged, fallbacks) = (agg_engaged_count(), agg_fallback_count());
    let agg = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run(30);
    let engaged = agg_engaged_count() - engaged;
    let fallbacks = agg_fallback_count() - fallbacks;
    assert!(
        engaged > 0,
        "healthy early rounds must take the aggregated path"
    );
    assert!(
        fallbacks > 0,
        "budget-death rounds must fall back to the hop walk"
    );
    assert_eq!(
        engaged + fallbacks,
        30,
        "every round takes exactly one path"
    );
    assert!(
        agg.first_death_round.is_some(),
        "the scenario must actually exhaust a node"
    );

    let oracle = reference_report(&topo, &config, 30);
    assert_eq!(
        agg, oracle,
        "mixed engaged/fallback run must stay bit-exact"
    );
}

#[test]
fn mid_round_death_at_the_packet_boundary_is_exact() {
    // A 3-node chain (sink — relay — leaf) with the relay's budget
    // trimmed so it dies *during* a round, partway through the charge
    // sequence: the relay still pays for packets that transited before
    // exhaustion, and the S2 margin must catch the round (an
    // all-positive replay would misstate the post-death charges).
    // 40 m spacing under the 45 m default hop range: the leaf reaches
    // only the relay, so the chain is forced.
    let topo = Topology::new(vec![
        ami_net::Position::new(0.0, 0.0),
        ami_net::Position::new(40.0, 0.0),
        ami_net::Position::new(80.0, 0.0),
    ]);
    // Measure one healthy round's relay spend to place the death
    // mid-round: give the relay one full round plus half its round-2
    // outlay, so it crosses zero between two charge events of round 2.
    let (_, probe, _) = reference_run(
        &topo,
        &NetworkConfig::sensor_default(),
        &FaultSchedule::empty(),
        1,
    );
    let relay_round = probe.ledger.node_total(1).as_joules();
    assert!(relay_round > 0.0, "the relay must spend in a healthy round");

    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(relay_round * 1.5);
    let oracle = reference_report(&topo, &config, 6);
    let fallbacks = agg_fallback_count();
    let agg = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run(6);
    assert_eq!(agg, oracle, "mid-round death must be bit-exact");
    assert!(
        agg_fallback_count() - fallbacks > 0,
        "the death round must fail the margin check"
    );
    // `first_death_round` counts completed rounds: a mid-round-2 death
    // reports as 2.
    assert_eq!(
        oracle.first_death_round,
        Some(2),
        "death lands in round 2 by construction"
    );
}

#[test]
fn sessions_reuse_routes_without_changing_results() {
    // The session API amortizes the route build across runs; every run
    // must still be bit-identical to a fresh session used once, and the
    // kernel must stay engaged (no fallbacks on a healthy network).
    let topo = Topology::random(400, Length::from_meters(500.0), 11);
    let config = NetworkConfig::sensor_default();
    let one_shot = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run(8);
    let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
    let (engaged, fallbacks) = (agg_engaged_count(), agg_fallback_count());
    for trial in 0..3 {
        let run = session.run(8);
        assert_eq!(run, one_shot, "session trial {trial}");
    }
    assert_eq!(
        agg_engaged_count() - engaged,
        24,
        "all session rounds aggregate"
    );
    assert_eq!(
        agg_fallback_count() - fallbacks,
        0,
        "healthy rounds never fall back"
    );
}

#[test]
fn session_faulted_runs_match_the_one_shot_entry_point() {
    // A fault-free session run memoizes the round image for the warm
    // route epoch; a faulted run on the *same* session must not replay
    // it. Link-only outages and a round-0 outage are the sharp cases:
    // neither moves the route epoch in the faulted rounds it covers
    // (routing sees faults one round late, and link faults never change
    // the usable set), so only the run-boundary invalidation and the
    // fault-free replay guard keep those rounds off the stale image.
    // 40 m spacing under the 45 m default hop range forces the
    // sink — relay — leaf chain, so both faults sit on a used route.
    let topo = Topology::new(vec![
        ami_net::Position::new(0.0, 0.0),
        ami_net::Position::new(40.0, 0.0),
        ami_net::Position::new(80.0, 0.0),
    ]);
    let config = NetworkConfig::sensor_default();
    let rounds = 6;
    let link_only = FaultSchedule::new(vec![FaultEvent::LinkOutage {
        a: 1,
        b: 2,
        from: 1,
        until: 4,
    }]);
    let round0_outage = FaultSchedule::new(vec![FaultEvent::NodeOutage {
        node: 1,
        from: 0,
        until: 3,
    }]);
    let clean = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run(rounds);

    for (label, schedule) in [
        ("link-only", &link_only),
        ("round-0 outage", &round0_outage),
    ] {
        let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
        // Warm the session: this memoizes the fault-free round image.
        assert_eq!(session.run(rounds), clean, "warm-up run ({label})");

        let mut obs = LedgerRecorder::with_nodes(topo.len());
        let report = session.run_faulted_with(rounds, schedule, &mut obs);
        let (one_report, one_obs) = simulate_gathering_faulted_observed(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &config,
            rounds,
            schedule,
        );
        assert_eq!(report, one_report, "faulted report ({label})");
        assert_eq!(obs, one_obs, "faulted ledger ({label})");
        assert_eq!(
            manifest_of(rounds, &report, &obs),
            manifest_of(rounds, &one_report, &one_obs),
            "faulted manifest ({label})"
        );

        // The faulted run's truncated walks must not leak into a later
        // fault-free run on the same session either (stale hop counts
        // would mis-gate stream memoization).
        assert_eq!(session.run(rounds), clean, "post-fault run ({label})");
    }
}
