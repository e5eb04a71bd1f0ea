//! The bounded [`RingRecorder`] driven through the production kernels,
//! against the full [`LedgerRecorder`] on the same runs.
//!
//! Both recorders see the identical call sequence, so the packet
//! counters must agree exactly, the ring's residual summary must agree
//! with the report it summarizes (its sum bit for bit, because the
//! kernels record residuals in ascending id), and its scalar charge
//! total must agree with the ledger's per-cell total to rounding.

use ami_net::{
    agg_engaged_count, agg_fallback_count, GatherSession, LossyConfig, LossySession, NetworkConfig,
    RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultModel, FaultSchedule};
use ami_sim::obs::{LedgerRecorder, RingRecorder};
use ami_units::{Energy, Length};

fn fault_mix(seed: u64, nodes: usize, rounds: u64) -> FaultSchedule {
    FaultModel {
        death_rate: 0.1,
        outage_rate: 0.2,
        outage_rounds: 6,
        link_outage_rate: 0.1,
        link_outage_rounds: 5,
        fade_rate: 0.2,
        fade_factor: 0.7,
    }
    .schedule(seed, nodes, rounds)
}

fn assert_charged_matches_ledger(ring: &RingRecorder, ledger: &LedgerRecorder) {
    let total = ledger.ledger.total().as_joules();
    assert!(total > 0.0, "the run must charge something");
    assert!(
        (ring.charged - total).abs() <= 1e-9 * total,
        "ring charged {} vs ledger total {total}",
        ring.charged
    );
}

#[test]
fn ring_recorder_matches_the_ledger_through_the_gathering_kernel() {
    // Budgets small enough that nodes die mid-run: healthy early rounds
    // take the aggregated kernel, death rounds fall back to the hop walk.
    let topo = Topology::random(64, Length::from_meters(180.0), 7);
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(0.008);
    let rounds = 30;
    let faults = fault_mix(11, topo.len(), rounds);

    let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
    let mut ledger = LedgerRecorder::with_nodes(topo.len());
    let (engaged, fallbacks) = (agg_engaged_count(), agg_fallback_count());
    let report = session.run_faulted_with(rounds, &faults, &mut ledger);
    assert!(agg_engaged_count() > engaged, "no aggregated round ran");
    assert!(agg_fallback_count() > fallbacks, "no hop-walk round ran");
    assert!(report.first_death_round.is_some(), "no node died mid-run");

    let mut ring = RingRecorder::with_capacity(16);
    let ring_report = session.run_faulted_with(rounds, &faults, &mut ring);
    assert_eq!(ring_report, report, "the recorder changed the run");

    assert_eq!(ring.packets, ledger.packets);
    assert!(ring.packets.is_conserved());
    assert!(
        ring.packets.dropped_fault > 0,
        "the fault mix must cost packets"
    );
    assert!(
        ring.packets.dropped_disconnected > 0,
        "deaths must strand nodes"
    );

    let residuals: Vec<f64> = report
        .residual_energy
        .iter()
        .map(|e| e.as_joules())
        .collect();
    let stats = ring.stats();
    assert_eq!(stats.count, residuals.len() as u64);
    assert_eq!(
        stats.min,
        residuals.iter().copied().fold(f64::INFINITY, f64::min)
    );
    assert_eq!(
        stats.max,
        residuals.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );
    assert_eq!(
        stats.overdrawn,
        residuals.iter().filter(|&&r| r < 0.0).count() as u64
    );
    let ascending = residuals.iter().fold(0.0f64, |sum, &r| sum + r);
    assert_eq!(stats.sum.to_bits(), ascending.to_bits());
    assert_charged_matches_ledger(&ring, &ledger);
}

#[test]
fn ring_recorder_matches_the_ledger_through_the_lossy_kernel() {
    let topo = Topology::random(80, Length::from_meters(200.0), 5);
    let config = LossyConfig::bruised_channel();
    let rounds = 25;
    let faults = fault_mix(3, topo.len(), rounds);
    for regions in [1, 3] {
        let mut ledger = LedgerRecorder::with_nodes(topo.len());
        let report =
            LossySession::new(&topo, &config).run_regions(rounds, 9, &faults, regions, &mut ledger);
        let mut ring = RingRecorder::with_capacity(16);
        let ring_report =
            LossySession::new(&topo, &config).run_regions(rounds, 9, &faults, regions, &mut ring);
        assert_eq!(ring_report, report, "the recorder changed the run");

        assert_eq!(ring.packets, ledger.packets, "{regions} regions");
        assert_eq!(ring.packets.offered, report.offered);
        assert_eq!(ring.packets.delivered, report.delivered);
        assert_eq!(ring.packets.dropped_fault, report.dropped_fault);
        assert!(report.dropped_fault > 0, "the fault mix must cost packets");
        // The lossy model has no budgets, so no residuals to record.
        assert_eq!(ring.stats().count, 0);
        assert_charged_matches_ledger(&ring, &ledger);
    }
}
