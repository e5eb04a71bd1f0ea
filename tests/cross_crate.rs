//! Cross-crate integration tests: flows that thread several `ami-*`
//! crates together through the `ambience` facade.

use ambience::arch::{ArchitectureClass, Processor, SocBuilder};
use ambience::core::case_studies::cs1::{run_cs1, Cs1Config};
use ambience::core::case_studies::cs2::{run_cs2, Cs2Config};
use ambience::core::{ambient_room, AmbientDevice, EnergySource};
use ambience::dvs::{simulate_taskset, DvsPolicy, TaskSet};
use ambience::energy::{Battery, BatteryModel, Chemistry};
use ambience::net::{GatherSession, NetworkConfig, RoutingStrategy, Topology};
use ambience::power::{DeviceKind, PowerClass};
use ambience::tech::TechnologyNode;
use ambience::units::{ComputeRate, DataRate, Energy, Length, Power, TimeSpan};

#[test]
fn cs1_budget_feeds_network_simulation_consistently() {
    // The CS1 node budget (energy + radio + arch crates) plugged into the
    // network simulator (net crate) as the idle baseline must let a small
    // office network survive a simulated week.
    let cs1 = run_cs1(&Cs1Config::default());
    let mut config = NetworkConfig::sensor_default();
    config.idle_power = cs1.budget.total();
    config.node_energy = Energy::from_joules(100.0);
    let topo = Topology::grid(3, Length::from_meters(20.0));
    let rounds = 7 * 24 * 60; // one week of 1-minute rounds
    let report = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run(rounds);
    assert!(report.first_death_round.is_none(), "{report:?}");
    assert_eq!(report.delivered_packets, rounds * 8);
}

#[test]
fn cs2_device_is_class_consistent_and_portable() {
    let cs2 = run_cs2(&Cs2Config::default());
    let device = AmbientDevice::new(
        cs2.budget,
        EnergySource::Battery(Battery::new(Chemistry::AlkalineAa, BatteryModel::Peukert)),
        DataRate::from_kilobits_per_second(192.0),
        DeviceKind::Computation,
    );
    assert_eq!(device.class(), PowerClass::MilliWatt);
    assert!(device.class_consistent());
    let life = device.battery_life().expect("battery device");
    assert!(life.as_hours() > 10.0);
}

#[test]
fn dvs_savings_survive_the_battery_model() {
    // tech → arch → dvs → energy: the DVS energy saving must translate
    // into battery life under every discharge model.
    let dsp = Processor::new("dsp", ArchitectureClass::Dsp, TechnologyNode::n130());
    let tasks = TaskSet::personal_audio();
    let horizon = TimeSpan::from_seconds(5.0);
    let none = simulate_taskset(&dsp, &tasks, DvsPolicy::None, horizon, 9);
    let dvs = simulate_taskset(&dsp, &tasks, DvsPolicy::WorstCaseStretch, horizon, 9);
    for model in [
        BatteryModel::Linear,
        BatteryModel::Peukert,
        BatteryModel::RateCapacity,
    ] {
        let battery = Battery::new(Chemistry::LiIon, model);
        let life_none = battery.lifetime_under(none.average_power());
        let life_dvs = battery.lifetime_under(dvs.average_power());
        assert!(
            life_dvs > life_none,
            "{model:?}: DVS must extend life ({life_dvs:?} vs {life_none:?})"
        );
    }
}

#[test]
fn room_graph_spans_five_decades_of_power() {
    let room = ambient_room(10);
    let graph = room.graph();
    let powers: Vec<f64> = graph
        .points()
        .iter()
        .map(|p| p.power().as_watts())
        .collect();
    let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = powers.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min > 1e4,
        "the ambient room must span >4 decades, got {:.1e}",
        max / min
    );
}

#[test]
fn processor_power_is_consistent_with_tech_model() {
    // arch's ASIC at full tilt must equal the tech model's prediction for
    // the same switched capacitance (modulo leakage).
    let node = TechnologyNode::n130();
    let asic = Processor::new("a", ArchitectureClass::Asic, node.clone());
    let throughput = ComputeRate::from_mops(100.0);
    let power = asic.power_at(throughput, node.vdd_nominal());
    let expected_dynamic = asic.energy_per_op_nominal().as_joules_per_op() * 100e6;
    assert!(power.as_watts() >= expected_dynamic);
    assert!(
        power.as_watts() < expected_dynamic * 1.5,
        "leakage should be a minor add-on here"
    );
}

#[test]
fn facade_reexports_are_usable_together() {
    // Compile-level integration: build a small budget from facade paths.
    let soc = SocBuilder::new("facade check")
        .component("a", Power::from_milliwatts(1.0))
        .component("b", Power::from_microwatts(500.0))
        .build();
    assert_eq!(PowerClass::of(soc.total()), PowerClass::MilliWatt);
}
