//! An ambient room end-to-end: a network of µW sensor nodes, a personal
//! mW player and a W-class media hub — the keynote's device taxonomy as a
//! running system.
//!
//! Run with: `cargo run --example smart_home`

use ambience::core::ambient_room;
use ambience::core::challenges::{audit, report};
use ambience::net::{GatherSession, NetworkConfig, RoutingStrategy, Topology};
use ambience::units::Length;

fn main() {
    // Twelve harvesting sensors, one audio player, one hub.
    let room = ambient_room(12);
    let [micro, milli, watt] = room.class_census();
    println!(
        "'{}' hosts {} devices: {} µW-nodes, {} mW-node(s), {} W-node(s).",
        room.name(),
        room.devices().len(),
        micro,
        milli,
        watt
    );
    println!(
        "Total average power of the environment: {}",
        room.total_power()
    );
    println!(
        "Every device matches its energy source class: {}",
        room.all_class_consistent()
    );

    println!("\nThe room on the power-information graph:\n");
    print!("{}", room.graph().table());

    // Now run the sensor network itself: a 4x3-ish random field reporting
    // to the hub for a simulated day.
    println!("\nSimulating the sensor network for one day (1-minute rounds):");
    let field = Topology::random(13, Length::from_meters(60.0), 2003);
    let config = NetworkConfig::sensor_default();
    let report = GatherSession::new(&field, RoutingStrategy::MinimumEnergy, &config).run(24 * 60);
    println!(
        "  delivered {} reports ({:.1} kbit of ambient information)",
        report.delivered_packets,
        report.delivered_volume.as_kilobits()
    );
    println!(
        "  network energy {} -> {:.2} mJ per delivered report",
        report.total_energy,
        report.total_energy.as_joules() * 1e3 / report.delivered_packets as f64
    );
    println!(
        "  nodes alive after a day: {}/{}",
        report.alive_nodes,
        field.len() - 1
    );
    match report.first_death_round {
        Some(round) => println!("  first node died in round {round}"),
        None => println!("  no node died — the µW design holds"),
    }

    // Finally, audit every device against its class contract.
    println!("\nDesign-challenge audit of the room's device archetypes:");
    let mut audited = std::collections::HashSet::new();
    for device in room.devices() {
        let archetype = device
            .name()
            .trim_end_matches(|c: char| c.is_ascii_digit() || c == ' ');
        if !audited.insert(archetype.to_owned()) {
            continue;
        }
        println!("\n[{}]", device.name());
        print!("{}", self::report_text(device));
    }
}

fn report_text(device: &ambience::core::AmbientDevice) -> String {
    report(&audit(device))
}
