//! Cluster-head rotation: balancing the energy hole.
//!
//! Minimum-energy trees kill the sink-adjacent relays first (F6). The
//! classic counter-measure rotates the relaying burden: each epoch a
//! fraction `p` of nodes self-elect as cluster heads, members send their
//! (fused) reports to the nearest head, and heads forward one aggregate
//! each straight to the sink. Rotation equalizes residual energy at the
//! cost of heads transmitting over long distances.

use crate::topology::{NodeId, Topology};
use ami_radio::RadioEnergyModel;
use ami_sim::sim_rng;
use ami_units::{DataVolume, Energy, TimeSpan};
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Parameters of the rotating-cluster protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Fraction of live nodes electing themselves head each epoch.
    pub head_fraction: f64,
    /// Rounds per epoch (heads rotate between epochs).
    pub rounds_per_epoch: u64,
    /// Payload per report.
    pub payload: DataVolume,
    /// Framing bits per transmission.
    pub framing: DataVolume,
    /// Fusion factor applied at heads (0 = full aggregation).
    pub fusion: f64,
}

impl ClusterConfig {
    /// The classic setup: 10 % heads, 20-round epochs, sensor payloads,
    /// full aggregation at the heads.
    pub fn classic() -> Self {
        Self {
            head_fraction: 0.1,
            rounds_per_epoch: 20,
            payload: DataVolume::from_bytes(16.0),
            framing: DataVolume::from_bits(112.0),
            fusion: 0.0,
        }
    }
}

/// Outcome of a clustered-gathering simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Rounds until the first node died (None = survived the horizon).
    pub first_death_round: Option<u64>,
    /// Rounds simulated.
    pub rounds: u64,
    /// Total radio energy spent.
    pub total_energy: Energy,
    /// Residual energy per sensor node (index = id − 1).
    pub residual_energy: Vec<Energy>,
    /// Coefficient of variation of residual energy (lower = better
    /// balanced) at the end of the run.
    pub residual_cv: f64,
}

impl ClusterReport {
    /// Lifetime given the round interval.
    pub fn lifetime(&self, interval: TimeSpan) -> Option<TimeSpan> {
        self.first_death_round
            .map(|r| TimeSpan::new(interval.as_seconds() * r as f64))
    }
}

/// Simulates `rounds` of rotating-cluster gathering, deterministic in
/// `seed`. Every live node reports once per round; election happens at
/// epoch boundaries among live nodes (at least one head is forced).
///
/// # Panics
///
/// Panics if `rounds` is zero, `head_fraction` outside `(0, 1]`, or
/// `fusion` outside `[0, 1]`.
pub fn simulate_clustered(
    topology: &Topology,
    radio: &RadioEnergyModel,
    config: &ClusterConfig,
    node_energy: Energy,
    rounds: u64,
    seed: u64,
) -> ClusterReport {
    assert!(rounds > 0, "simulate at least one round");
    assert!(
        config.head_fraction > 0.0 && config.head_fraction <= 1.0,
        "head fraction must lie in (0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&config.fusion),
        "fusion factor must lie in [0, 1]"
    );
    let n = topology.len();
    let mut rng = sim_rng(seed);
    let mut budget = vec![node_energy.as_joules(); n];
    let mut alive = vec![true; n];
    let mut heads: Vec<NodeId> = Vec::new();
    let mut spent = 0.0;
    let mut first_death = None;

    for round in 0..rounds {
        // (Re-)elect heads at epoch boundaries.
        if round % config.rounds_per_epoch == 0 {
            heads = topology
                .sensor_ids()
                .filter(|id| alive[id.0] && rng.random::<f64>() < config.head_fraction)
                .collect();
            if heads.is_empty() {
                if let Some(any) = topology.sensor_ids().find(|id| alive[id.0]) {
                    heads.push(any);
                }
            }
        }
        heads.retain(|id| alive[id.0]);
        if heads.is_empty() {
            break;
        }

        // Members send to the nearest head; heads accumulate.
        let mut head_load = vec![0.0f64; n]; // received payload bits per head
        for id in topology.sensor_ids() {
            if !alive[id.0] || heads.contains(&id) {
                continue;
            }
            let head = *heads
                .iter()
                .min_by(|&&a, &&b| {
                    topology
                        .distance(id, a)
                        .total_cmp(&topology.distance(id, b))
                })
                .expect("heads non-empty");
            let frame = DataVolume::from_bits(config.payload.as_bits() + config.framing.as_bits());
            let tx = radio
                .transmit_energy(frame, topology.distance(id, head))
                .as_joules();
            let rx = radio.receive_energy(frame).as_joules();
            budget[id.0] -= tx;
            budget[head.0] -= rx;
            spent += tx + rx;
            head_load[head.0] += config.payload.as_bits();
        }
        // Heads forward their aggregate to the sink.
        for &head in &heads {
            // The head's own payload plus whatever of its members'
            // payloads survives fusion (0 = fully summarized).
            let bits = config.payload.as_bits() + config.fusion * head_load[head.0];
            let frame = DataVolume::from_bits(bits + config.framing.as_bits());
            let tx = radio
                .transmit_energy(frame, topology.distance(head, topology.sink()))
                .as_joules();
            budget[head.0] -= tx;
            spent += tx;
        }

        for id in topology.sensor_ids() {
            if alive[id.0] && budget[id.0] <= 0.0 {
                alive[id.0] = false;
                first_death.get_or_insert(round + 1);
            }
        }
    }

    let residual: Vec<f64> = budget.iter().skip(1).map(|&j| j.max(0.0)).collect();
    let mean = residual.iter().sum::<f64>() / residual.len() as f64;
    let var = residual.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / residual.len() as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

    ClusterReport {
        first_death_round: first_death,
        rounds,
        total_energy: Energy::from_joules(spent),
        residual_energy: residual.into_iter().map(Energy::from_joules).collect(),
        residual_cv: cv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::{GatherSession, NetworkConfig};
    use crate::routing::RoutingStrategy;
    use ami_units::{Length, Power};

    fn topo() -> Topology {
        Topology::grid(5, Length::from_meters(30.0))
    }

    fn radio() -> RadioEnergyModel {
        RadioEnergyModel::short_range_2003()
    }

    #[test]
    fn survives_with_generous_budgets() {
        let report = simulate_clustered(
            &topo(),
            &radio(),
            &ClusterConfig::classic(),
            Energy::from_joules(50.0),
            500,
            1,
        );
        assert!(report.first_death_round.is_none());
        assert!(report.total_energy.as_joules() > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let run = |seed| {
            simulate_clustered(
                &topo(),
                &radio(),
                &ClusterConfig::classic(),
                Energy::from_joules(1.0),
                2000,
                seed,
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).residual_energy, run(6).residual_energy);
    }

    #[test]
    fn rotation_balances_residual_energy_vs_static_tree() {
        // The headline: clustering's residual-energy spread (CV) is tighter
        // than the static minimum-energy tree's after the same traffic.
        let mut tree_config = NetworkConfig::sensor_default();
        tree_config.idle_power = Power::ZERO;
        tree_config.node_energy = Energy::from_joules(2.0);
        let tree =
            GatherSession::new(&topo(), RoutingStrategy::MinimumEnergy, &tree_config).run(3000);
        let tree_res: Vec<f64> = tree.residual_energy.iter().map(|e| e.as_joules()).collect();
        let mean = tree_res.iter().sum::<f64>() / tree_res.len() as f64;
        let var = tree_res.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / tree_res.len() as f64;
        let tree_cv = var.sqrt() / mean;

        let clustered = simulate_clustered(
            &topo(),
            &radio(),
            &ClusterConfig::classic(),
            Energy::from_joules(2.0),
            3000,
            7,
        );
        assert!(
            clustered.residual_cv < tree_cv,
            "clustering must balance: CV {:.3} vs tree {:.3}",
            clustered.residual_cv,
            tree_cv
        );
    }

    #[test]
    fn everyone_dead_ends_early() {
        let report = simulate_clustered(
            &topo(),
            &radio(),
            &ClusterConfig::classic(),
            Energy::from_millijoules(1.0),
            100_000,
            3,
        );
        assert!(report.first_death_round.is_some());
        assert!(report.residual_energy.iter().all(|e| e.as_joules() >= 0.0));
    }

    #[test]
    #[should_panic(expected = "head fraction")]
    fn zero_head_fraction_rejected() {
        let mut config = ClusterConfig::classic();
        config.head_fraction = 0.0;
        let _ = simulate_clustered(&topo(), &radio(), &config, Energy::from_joules(1.0), 10, 0);
    }
}
