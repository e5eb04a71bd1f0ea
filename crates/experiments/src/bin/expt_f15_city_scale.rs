//! F15 — city-scale routing: the spatial-grid neighbor index and
//! incremental route repair that keep the network simulator linear-ish
//! as node counts climb toward ambient-intelligence densities.
//!
//! Expected shape: the grid CSR build visits ~9 cells per node instead
//! of all N, yet produces the scan's adjacency bit for bit; under a
//! churn mix every usable-set transition after round 0 is absorbed by
//! an incremental repair (never a full rebuild), and the repaired run
//! is report-identical to the retired full-rebuild oracle. Both sides
//! run the one gathering kernel, which is serial at any worker count,
//! so the output is byte-stable at any `AMBIENCE_THREADS`.
//!
//! The sizes, density, seed, rounds and churn mix load from the
//! checked-in `scenarios/f15_city_scale.scenario.json` through the
//! scenario engine (override with `AMBIENCE_SCENARIO`); the output is
//! byte-identical to the former hard-coded constants.

use ami_experiments::{banner, print_table, section};
use ami_net::routing::{route_build_count, route_repair_count, set_route_repair_enabled};
use ami_net::{
    CsrAdjacency, GatherSession, NetworkConfig, NetworkReport, Position, RoutingStrategy, Topology,
};
use ami_scenario::ScenarioSpec;
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::NullRecorder;
use ami_units::Length;

const SCENARIO: &str = "crates/experiments/scenarios/f15_city_scale.scenario.json";

/// Pulls a single-valued axis out of the scenario.
fn scalar_axis(scenario: &ScenarioSpec, name: &str) -> f64 {
    let values = scenario
        .axis(name)
        .unwrap_or_else(|| panic!("scenario is missing the {name} axis"));
    assert_eq!(values.len(), 1, "{name} must carry exactly one value");
    values[0]
}

/// Constant-density random field (side `density`·√n m), as in the bench
/// sweep.
fn field(n: usize, density: f64, seed: u64) -> Topology {
    Topology::random(n, Length::from_meters(density * (n as f64).sqrt()), seed)
}

/// One faulted run, returning the report plus the (build, repair)
/// counter deltas it cost.
fn faulted_run(
    topo: &Topology,
    config: &NetworkConfig,
    faults: &FaultSchedule,
    rounds: u64,
) -> (NetworkReport, u64, u64) {
    let (builds, repairs) = (route_build_count(), route_repair_count());
    let mut session = GatherSession::new(topo, RoutingStrategy::MinimumEnergy, config);
    let report = session.run_faulted_with(rounds, faults, &mut NullRecorder);
    (
        report,
        route_build_count() - builds,
        route_repair_count() - repairs,
    )
}

fn main() {
    let scenario = ami_scenario::load_for_binary(SCENARIO).unwrap_or_else(|err| panic!("{err}"));
    let fault_mix = scenario
        .faults
        .clone()
        .expect("F15 scenario carries a fault mix");
    let rounds = scenario.rounds;
    let seed = scenario.seed;
    let density = scalar_axis(&scenario, "field_m_per_sqrt_n");
    let sizes = scenario.axis_usize("nodes").expect("integral nodes axis");

    banner("F15", "city-scale routing: grid neighbors + route repair");
    let config = scenario.network.to_network_config();
    let spec = FaultSpec::parse(&fault_mix).expect("frozen fault mix parses");

    section("spatial-grid CSR vs the all-pairs scan (pinned oracle)");
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&n| {
            let topo = field(n, density, seed);
            let positions: Vec<Position> = topo.ids().map(|id| topo.position(id)).collect();
            let grid = CsrAdjacency::build(&positions, config.max_hop);
            let scan = CsrAdjacency::build_scan(&positions, config.max_hop);
            vec![
                n.to_string(),
                grid.edge_count().to_string(),
                format!("{:.1}", grid.edge_count() as f64 / n as f64),
                if grid == scan { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    print_table(&["n", "edges", "avg degree", "grid == scan"], &rows);

    section(format!("churn mix [{fault_mix}], {rounds} rounds: repairs, not rebuilds").as_str());
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&n| {
            let topo = field(n, density, seed);
            let faults = spec.schedule_for(seed, n, rounds);

            // Oracle first: the retired full-rebuild-per-transition
            // path. The repaired run then takes incremental repairs.
            set_route_repair_enabled(false);
            let (oracle_report, oracle_builds, _) = faulted_run(&topo, &config, &faults, rounds);
            set_route_repair_enabled(true);
            let (report, builds, repairs) = faulted_run(&topo, &config, &faults, rounds);

            let offered = rounds * (n as u64 - 1);
            vec![
                n.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * report.delivered_packets as f64 / offered as f64
                ),
                report.alive_nodes.to_string(),
                format!("{oracle_builds}"),
                format!("{builds}+{repairs}"),
                if report == oracle_report { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    print_table(
        &[
            "n",
            "delivered",
            "alive",
            "oracle builds",
            "builds+repairs",
            "identical",
        ],
        &rows,
    );
    println!();
    println!("Every transition after round 0 is an incremental repair (builds stay at 1),");
    println!("and the repaired runs reproduce the full-rebuild oracle bit for bit.");
}
