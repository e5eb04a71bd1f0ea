//! Shape assertions for the extension experiments (F8–F12, A4–A6),
//! mirroring `experiment_shapes.rs` for the core set.

use ambience::arch::{ArchitectureClass, Interconnect, Processor};
use ambience::core::case_studies::cs1::Cs1Config;
use ambience::core::design_space::{cs1_frontier, explore_cs1};
use ambience::dvs::{
    simulate_taskset, simulate_taskset_with_levels, DvsPolicy, FrequencyLadder, TaskSet,
};
use ambience::net::{
    analyze_aggregation, simulate_clustered, ClusterConfig, GatherSession, NetworkConfig,
    RoutingStrategy, Topology,
};
use ambience::radio::{
    analyze_reliability, FecScheme, Packet, RadioEnergyModel, SharedChannel, StopAndWaitArq,
};
use ambience::tech::{intrinsic_energy_per_op, TechnologyNode, VariationModel};
use ambience::units::{Area, DataVolume, Energy, Frequency, Length, Power, Temperature, TimeSpan};

/// F8: the FEC winner ladder — uncoded on clean channels, Hamming in the
/// middle, repetition on dirty ones.
#[test]
fn f8_fec_crossover_ladder() {
    let radio = RadioEnergyModel::short_range_2003();
    let packet = Packet::sensor_report();
    let arq = StopAndWaitArq::new(8);
    let d = Length::from_meters(20.0);
    let winner = |ber: f64| {
        FecScheme::all()
            .into_iter()
            .min_by(|&a, &b| {
                let ea =
                    analyze_reliability(&packet, a, arq, ber, d, &radio).energy_per_delivered_bit;
                let eb =
                    analyze_reliability(&packet, b, arq, ber, d, &radio).energy_per_delivered_bit;
                ea.total_cmp(&eb)
            })
            .unwrap()
    };
    assert_eq!(winner(1e-6), FecScheme::None);
    assert_eq!(winner(1e-2), FecScheme::Hamming74);
    assert_eq!(winner(3e-2), FecScheme::Repetition3);
}

/// F9: sensor-rate density is thousands; audio-rate density is < 1.
#[test]
fn f9_density_split() {
    let sensor = SharedChannel::sensor_default();
    assert!(sensor.max_nodes(TimeSpan::from_minutes(5.0)) > 5_000.0);
    let audio = SharedChannel::new(
        ambience::units::DataRate::from_kilobits_per_second(50.0),
        Packet::audio_frame(),
    );
    assert!(audio.max_nodes(TimeSpan::from_millis(24.0)) < 1.0);
}

/// F10: the wire/op ratio crosses 1.0 within the 2003 roadmap window.
#[test]
fn f10_wire_op_crossover() {
    let ratio = |node: &TechnologyNode| {
        let fabric = Interconnect::typical_soc(node.clone());
        fabric
            .wire_energy_per_bit(Length::from_millimeters(10.0))
            .as_joules()
            / intrinsic_energy_per_op(node, node.vdd_nominal()).as_joules_per_op()
    };
    assert!(ratio(&TechnologyNode::n250()) < 1.0);
    assert!(ratio(&TechnologyNode::n65()) > 1.0);
}

/// F11: clustering balances residual energy and extends first death.
#[test]
fn f11_clustering_beats_tree_on_lifetime() {
    let topo = Topology::grid(5, Length::from_meters(30.0));
    let radio = RadioEnergyModel::short_range_2003();
    let budget = Energy::from_joules(1.0);
    let mut tree_config = NetworkConfig::sensor_default();
    tree_config.idle_power = Power::ZERO;
    tree_config.node_energy = budget;
    let tree = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &tree_config).run(20_000);
    let clustered = simulate_clustered(&topo, &radio, &ClusterConfig::classic(), budget, 20_000, 7);
    let tree_death = tree.first_death_round.expect("tree must die");
    let cluster_death = clustered.first_death_round.expect("cluster must die");
    assert!(
        cluster_death > tree_death,
        "clustering must extend lifetime: {cluster_death} vs {tree_death}"
    );
}

/// F12: the design-space frontier is monotone (patience substitutes for
/// area).
#[test]
fn f12_frontier_monotone() {
    let areas: Vec<Area> = [2.0, 8.0, 32.0]
        .iter()
        .map(|&c| Area::from_square_centimeters(c))
        .collect();
    let intervals: Vec<TimeSpan> = [0.25, 2.0, 8.0]
        .iter()
        .map(|&s| TimeSpan::from_seconds(s))
        .collect();
    let cells = explore_cs1(&Cs1Config::default(), &areas, &intervals);
    let frontier = cs1_frontier(&cells);
    let mut last: Option<Area> = None;
    for (_, area) in frontier {
        if let (Some(prev), Some(current)) = (last, area) {
            assert!(current <= prev, "frontier must tighten with patience");
        }
        if area.is_some() {
            last = area;
        }
    }
}

/// A4: ladder coarseness costs energy monotonically, deadlines held.
#[test]
fn a4_ladder_ordering() {
    let dsp = Processor::new("dsp", ArchitectureClass::Dsp, TechnologyNode::n130());
    let tasks = TaskSet::personal_audio();
    let horizon = TimeSpan::from_seconds(5.0);
    let cont = simulate_taskset(&dsp, &tasks, DvsPolicy::WorstCaseStretch, horizon, 1);
    let four = simulate_taskset_with_levels(
        &dsp,
        &tasks,
        DvsPolicy::WorstCaseStretch,
        &FrequencyLadder::four_point(),
        horizon,
        1,
    );
    let two = simulate_taskset_with_levels(
        &dsp,
        &tasks,
        DvsPolicy::WorstCaseStretch,
        &FrequencyLadder::two_point(),
        horizon,
        1,
    );
    assert_eq!(four.deadline_misses + two.deadline_misses, 0);
    assert!(cont.busy_energy <= four.busy_energy);
    assert!(four.busy_energy <= two.busy_energy);
}

/// A5: fusion monotonically reduces gathering energy.
#[test]
fn a5_fusion_monotone() {
    let topo = Topology::grid(5, Length::from_meters(30.0));
    let radio = RadioEnergyModel::short_range_2003();
    let energy = |fusion: f64| {
        analyze_aggregation(
            &topo,
            &radio,
            Length::from_meters(45.0),
            DataVolume::from_bytes(16.0),
            DataVolume::from_bits(112.0),
            fusion,
        )
        .round_energy
    };
    let mut last = Energy::from_joules(f64::MAX / 2.0);
    for fusion in [1.0, 0.5, 0.0] {
        let e = energy(fusion);
        assert!(e <= last);
        last = e;
    }
}

/// A6: joint yield collapses as constraints tighten, and fast dies leak.
#[test]
fn a6_yield_collapse() {
    let model = VariationModel::typical_2003();
    let node = TechnologyNode::n90();
    let yield_at = |f_ghz: f64, p_mw: f64| {
        model.parametric_yield(
            &node,
            100e3,
            Temperature::ROOM,
            Frequency::from_gigahertz(f_ghz),
            Power::from_milliwatts(p_mw),
            2000,
            7,
        )
    };
    let loose = yield_at(0.9, 100.0);
    let tight = yield_at(1.12, 5.0);
    assert!(loose > 0.95);
    assert!(tight < 0.5);
    assert!(tight < loose);
}
