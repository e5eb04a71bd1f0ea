//! The retired sequential-stream lossy kernel and its frozen golden.
//!
//! Before the counter-RNG kernel, every ARQ attempt drew from **one
//! sequential `StdRng` stream**, so a hop's retry count decided which
//! values the next hop saw — correct, but permanently serial. The
//! kernel is kept here verbatim, with the golden it produced, so the
//! pre-migration lossy baselines stay reproducible. It is test code:
//! no production path dispatches to it.

use ami_net::{
    simulate_lossy_gathering, LossyConfig, LossyReport, RouteCache, RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultSchedule, FaultSpec, FaultTimeline};
use ami_sim::sim_rng;
use ami_units::{Energy, Length};
use rand::rngs::StdRng;
use rand::RngExt;

fn topo() -> Topology {
    Topology::grid(4, Length::from_meters(30.0))
}

/// The retired sequential-stream lossy kernel, kept verbatim as a
/// pinned oracle: every ARQ attempt draws from **one** `StdRng` stream
/// in execution order, so a hop's retry count decides which values the
/// next hop sees. This is the kernel that produced every pre-migration
/// lossy baseline; its own frozen golden pins it, and it must never be
/// edited. New work uses `simulate_lossy_gathering_faulted`, whose
/// per-packet counter streams make results order-independent.
///
/// # Panics
///
/// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
fn simulate_lossy_gathering_seqstream(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
    faults: &FaultSchedule,
) -> LossyReport {
    assert!(rounds > 0, "simulate at least one round");
    assert!(
        (0.0..=0.5).contains(&config.ber),
        "BER must lie in [0, 0.5]"
    );
    let n = topology.len();
    let sink = topology.sink();
    let p_hop = config.packet.delivery_probability(config.ber);
    let bits = config.packet.total_bits();
    let attempts = u64::from(config.arq.max_transmissions);
    let rx = config.radio.receive_energy(bits).as_joules();
    let faults_active = !faults.is_empty();
    let mut timeline = FaultTimeline::compile(faults, n);
    let mut rng = sim_rng(seed);
    let mut offered = 0u64;
    let mut delivered = 0u64;
    let mut transmissions = 0u64;
    let mut dropped_fault = 0u64;
    let mut energy = 0.0f64;

    let mut down_now = vec![false; n];
    let mut down_prev = vec![false; n];
    let mut usable = vec![true; n];
    let mut cache = RouteCache::new(n);
    let mut routes_dirty = true;

    for round in 0..rounds {
        if faults_active {
            timeline.advance_to(round);
            for (id, down) in down_now.iter_mut().enumerate() {
                *down = id != sink.0 && timeline.node_down(id);
            }
        }
        if routes_dirty {
            for (id, flag) in usable.iter_mut().enumerate() {
                *flag = id == sink.0 || !down_prev[id];
            }
            cache.ensure(
                topology,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                bits,
                &usable,
            );
            routes_dirty = false;
        }

        for id in topology.sensor_ids() {
            if down_now[id.0] {
                continue;
            }
            if !cache.is_connected(id) {
                continue;
            }
            offered += 1;
            let mut from = id;
            let mut alive = true;
            let mut faulted = false;
            while alive && from != sink {
                let hop = cache
                    .next_hop(from)
                    .expect("connected route reaches the sink");
                let tx = cache.tx_cost(from);
                if hop != sink && down_now[hop.0] {
                    transmissions += attempts;
                    energy += attempts as f64 * tx;
                    faulted = true;
                    break;
                }
                if timeline.link_down(from.0, hop.0) {
                    transmissions += attempts;
                    energy += attempts as f64 * (tx + rx);
                    faulted = true;
                    break;
                }
                let mut hop_ok = false;
                for _attempt in 0..config.arq.max_transmissions {
                    transmissions += 1;
                    energy += tx;
                    energy += rx;
                    if bernoulli(&mut rng, p_hop) {
                        hop_ok = true;
                        break;
                    }
                }
                if !hop_ok {
                    alive = false;
                }
                from = hop;
            }
            if faulted {
                dropped_fault += 1;
            } else if alive {
                delivered += 1;
            }
        }
        if faults_active && down_now != down_prev {
            routes_dirty = true;
        }
        std::mem::swap(&mut down_prev, &mut down_now);
    }

    LossyReport {
        offered,
        delivered,
        transmissions,
        total_energy: Energy::from_joules(energy),
        dropped_fault,
    }
}

fn bernoulli(rng: &mut StdRng, p: f64) -> bool {
    rng.random::<f64>() < p
}

/// The oracle's own frozen golden, captured on the F13 fixture
/// (5×5 grid at 30 m, bruised channel, 300 rounds, seed 2003)
/// at the moment the counter kernel replaced it. These are the
/// exact numbers the pre-migration F13 goldens carried — the
/// faulted row *is* the retired
/// `golden/f13_faulted_manifest.json` — so any edit to the
/// retired kernel (or to `sim_rng`'s stream) trips this test.
#[test]
fn seqstream_oracle_matches_its_frozen_golden() {
    let topo = Topology::grid(5, Length::from_meters(30.0));
    let config = LossyConfig::bruised_channel();
    let plain =
        simulate_lossy_gathering_seqstream(&topo, &config, 300, 2003, &FaultSchedule::empty());
    assert_eq!(
        (
            plain.offered,
            plain.delivered,
            plain.transmissions,
            plain.dropped_fault
        ),
        (7200, 7150, 26483, 0)
    );
    assert_eq!(
        plain.total_energy.as_joules().to_bits(),
        0x3ff7_4335_08f6_45aa,
        "plain energy drifted from 1.453907999999823 J"
    );

    let spec = FaultSpec::parse("death=0.12,outage=0.2:40,link=0.15:30")
        .expect("the F13 fault spec parses");
    let faults = spec.schedule_for(2003, topo.len(), 300);
    let faulted = simulate_lossy_gathering_seqstream(&topo, &config, 300, 2003, &faults);
    assert_eq!(
        (
            faulted.offered,
            faulted.delivered,
            faulted.transmissions,
            faulted.dropped_fault
        ),
        (6842, 6787, 25003, 6)
    );
    assert_eq!(
        faulted.total_energy.as_joules().to_bits(),
        0x3ff6_2e20_a4bb_339f,
        "faulted energy drifted from 1.3862615999998764 J"
    );
}

#[test]
fn seqstream_oracle_is_deterministic_and_diverges_from_counter_kernel() {
    let config = LossyConfig::bruised_channel();
    let a = simulate_lossy_gathering_seqstream(&topo(), &config, 100, 9, &FaultSchedule::empty());
    let b = simulate_lossy_gathering_seqstream(&topo(), &config, 100, 9, &FaultSchedule::empty());
    assert_eq!(a, b);
    // The two kernels draw different streams by design; the
    // statistics agree but the exact trajectories must not —
    // if they did, the oracle would not be pinning anything.
    let counter = simulate_lossy_gathering(&topo(), &config, 100, 9);
    assert_eq!(counter.offered, a.offered);
    assert_ne!(
        (a.delivered, a.transmissions),
        (counter.delivered, counter.transmissions)
    );
}
