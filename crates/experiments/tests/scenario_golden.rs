//! Every experiment binary must reproduce its checked-in stdout, and
//! every manifest a binary emits its checked-in manifest, byte for byte
//! at 1, 2 and 8 worker threads (only the `[runner: N worker
//! thread(s)]` line may differ). The checked-in `.scenario.json` files
//! must also stay pinned to the frozen constants the manifests in
//! `ami_experiments::manifests` still hard-code, so the scenario-driven
//! binaries moved the *source* of their numbers without moving the
//! numbers.
//!
//! F6 and F15 take seconds per run in a debug build, so their golden
//! check is ignored there and runs in release
//! (`cargo test -p ami-experiments --release --test scenario_golden`).
//! `sh crates/experiments/regenerate_goldens.sh` rewrites every golden
//! this file checks; see the golden-regeneration policy in DESIGN.md.

use std::path::{Path, PathBuf};
use std::process::Command;

use ami_experiments::manifests::{F13_FAULT_SPEC, F6_FAULT_SPEC};
use ami_net::{LossyConfig, NetworkConfig};
use ami_scenario::{CompiledScenario, ScenarioSpec, TopologySpec, WorkloadSpec};
use ami_units::Energy;

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scenario_path(file: &str) -> PathBuf {
    crate_dir().join("scenarios").join(file)
}

fn load_scenario(file: &str) -> ScenarioSpec {
    ScenarioSpec::load(scenario_path(file)).expect("checked-in scenario loads")
}

/// One golden check: a binary, the environment it runs under, and the
/// files its output must match byte for byte.
struct GoldenRun {
    /// Path of the built `expt_*` binary.
    exe: &'static str,
    /// `golden/<stdout>` pins the binary's stdout.
    stdout: &'static str,
    /// `AMBIENCE_FAULTS` for this run, if any.
    faults: Option<&'static str>,
    /// `golden/<manifest>` pins the `AMBIENCE_MANIFEST` output, if the
    /// binary emits one.
    manifest: Option<&'static str>,
}

/// Shorthand for a run with no fault mix.
const fn run(exe: &'static str, stdout: &'static str, manifest: Option<&'static str>) -> GoldenRun {
    GoldenRun {
        exe,
        stdout,
        faults: None,
        manifest,
    }
}

/// Every experiment binary that runs in a few seconds in a debug build.
const FAST: &[GoldenRun] = &[
    run(
        env!("CARGO_BIN_EXE_expt_a1_leakage_ablation"),
        "a1_leakage_ablation.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_a2_battery_models"),
        "a2_battery_models.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_a3_storage_sizing"),
        "a3_storage_sizing.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_a4_dvs_levels"),
        "a4_dvs_levels.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_a5_aggregation"),
        "a5_aggregation.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_a6_process_variation"),
        "a6_process_variation.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f1_power_info_graph"),
        "f1_power_info_graph.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f2_efficiency_scaling"),
        "f2_efficiency_scaling.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f3_cs1_duty_cycle"),
        "f3_cs1_duty_cycle.stdout.txt",
        Some("f3_manifest.json"),
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f4_cs2_battery_life"),
        "f4_cs2_battery_life.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f5_cs3_flexibility"),
        "f5_cs3_flexibility.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f7_adc_fom"),
        "f7_adc_fom.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f8_arq_fec"),
        "f8_arq_fec.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f9_channel_density"),
        "f9_channel_density.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f10_interconnect"),
        "f10_interconnect.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f11_clustering"),
        "f11_clustering.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f12_design_space"),
        "f12_design_space.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f13_lossy_network"),
        "f13_lossy_network.stdout.txt",
        Some("f13_manifest.json"),
    ),
    // The fault mix reaches only the manifest; stdout is unchanged.
    GoldenRun {
        exe: env!("CARGO_BIN_EXE_expt_f13_lossy_network"),
        stdout: "f13_lossy_network.stdout.txt",
        faults: Some(F13_FAULT_SPEC),
        manifest: Some("f13_faulted_manifest.json"),
    },
    run(
        env!("CARGO_BIN_EXE_expt_f14_context_awareness"),
        "f14_context_awareness.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_t1_device_classes"),
        "t1_device_classes.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_t2_cs2_budget"),
        "t2_cs2_budget.stdout.txt",
        None,
    ),
    run(
        env!("CARGO_BIN_EXE_expt_t3_mac_comparison"),
        "t3_mac_comparison.stdout.txt",
        Some("t3_manifest.json"),
    ),
];

/// The binaries that take seconds each in a debug build.
const SLOW: &[GoldenRun] = &[
    run(
        env!("CARGO_BIN_EXE_expt_f6_network_scaling"),
        "f6_network_scaling.stdout.txt",
        Some("f6_manifest.json"),
    ),
    run(
        env!("CARGO_BIN_EXE_expt_f15_city_scale"),
        "f15_city_scale.stdout.txt",
        None,
    ),
];

/// The worker counts every golden is checked at: the output must not
/// depend on them.
const THREADS: [usize; 3] = [1, 2, 8];

/// Rewrites the one thread-dependent line, `[runner: N worker
/// thread(s)]`, to a fixed form; every other byte passes through.
fn mask_runner_line(text: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(text);
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        let is_runner = line
            .strip_prefix("[runner: ")
            .and_then(|rest| {
                rest.trim_end_matches('\n')
                    .strip_suffix(" worker thread(s)]")
            })
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
        out.push_str(if is_runner {
            "[runner: N worker thread(s)]\n"
        } else {
            line
        });
    }
    out.into_bytes()
}

fn read_golden(name: &str) -> Vec<u8> {
    std::fs::read(crate_dir().join("golden").join(name))
        .unwrap_or_else(|err| panic!("golden/{name}: {err}"))
}

/// Runs `golden.exe` at `threads` workers with no manifest, fault or
/// scenario override inherited from the test runner, and compares its
/// stdout (runner line masked) and its manifest, if pinned, byte for
/// byte against the checked-in goldens.
fn check(golden: &GoldenRun, threads: usize) {
    let mut command = Command::new(golden.exe);
    command
        .env("AMBIENCE_THREADS", threads.to_string())
        .env_remove("AMBIENCE_FAULTS")
        .env_remove("AMBIENCE_MANIFEST")
        .env_remove("AMBIENCE_SCENARIO");
    if let Some(faults) = golden.faults {
        command.env("AMBIENCE_FAULTS", faults);
    }
    let manifest_out = golden.manifest.map(|name| {
        let path = std::env::temp_dir().join(format!(
            "ambience-golden-{}-t{threads}-{name}",
            std::process::id()
        ));
        command.env("AMBIENCE_MANIFEST", &path);
        (name, path)
    });
    let output = command.output().expect("experiment binary runs");
    let label = format!(
        "{} at AMBIENCE_THREADS={threads}{}",
        golden.exe,
        golden
            .faults
            .map(|f| format!(" AMBIENCE_FAULTS={f}"))
            .unwrap_or_default()
    );
    assert!(
        output.status.success(),
        "{label} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        mask_runner_line(&output.stdout) == mask_runner_line(&read_golden(golden.stdout)),
        "{label}: stdout drifted from golden/{}; {REGENERATE}",
        golden.stdout
    );
    if let Some((name, path)) = manifest_out {
        let got = std::fs::read(&path).unwrap_or_else(|err| panic!("{label}: manifest: {err}"));
        std::fs::remove_file(&path).ok();
        assert!(
            got == read_golden(name),
            "{label}: manifest drifted from golden/{name}; {REGENERATE}"
        );
    }
}

/// What a drift message tells the reader to do.
const REGENERATE: &str = "if the drift is an intended contract change, regenerate \
    every golden with `sh crates/experiments/regenerate_goldens.sh` and follow \
    the golden-regeneration policy in DESIGN.md";

#[test]
fn fast_binaries_match_their_goldens() {
    for golden in FAST {
        for threads in THREADS {
            check(golden, threads);
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds per run in debug; CI runs it in release with --include-ignored"
)]
fn slow_binaries_match_their_goldens() {
    for golden in SLOW {
        for threads in THREADS {
            check(golden, threads);
        }
    }
}

/// The table is complete: every experiment binary except the bench
/// snapshot (whose output is wall-clock timings) has a stdout golden.
#[test]
fn every_experiment_binary_has_a_golden() {
    let pinned: Vec<&str> = FAST.iter().chain(SLOW).map(|g| g.stdout).collect();
    let mut seen = 0usize;
    for entry in std::fs::read_dir(crate_dir().join("src/bin")).expect("src/bin exists") {
        let file = entry.expect("dir entry").file_name();
        let file = file.to_string_lossy();
        let Some(stem) = file
            .strip_prefix("expt_")
            .and_then(|f| f.strip_suffix(".rs"))
        else {
            continue;
        };
        if stem == "bench_snapshot" {
            continue;
        }
        let want = format!("{stem}.stdout.txt");
        assert!(
            pinned.contains(&want.as_str()),
            "expt_{stem} has no entry in the golden table"
        );
        seen += 1;
    }
    assert_eq!(seen, 24, "24 experiment binaries are pinned");
}

#[test]
fn runner_mask_rewrites_only_the_worker_count_line() {
    let text = b"a\n[runner: 8 worker thread(s)]\n[runner: x worker thread(s)]\n";
    assert_eq!(
        mask_runner_line(text),
        b"a\n[runner: N worker thread(s)]\n[runner: x worker thread(s)]\n".to_vec()
    );
}

/// Every checked-in scenario parses, validates and compiles; a file
/// that drifts out of grammar fails here before any binary runs it.
#[test]
fn all_checked_in_scenarios_validate_and_compile() {
    let dir = crate_dir().join("scenarios");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("dir entry").path();
        if path.to_string_lossy().ends_with(".scenario.json") {
            let spec =
                ScenarioSpec::load(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            CompiledScenario::compile(&spec)
                .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            seen += 1;
        }
    }
    assert_eq!(seen, 4, "F3, F6, F13 and F15 scenarios are checked in");
}

/// F3's scenario pins the same ledger span and check-interval sweep the
/// frozen `f3_manifest` hard-codes.
#[test]
fn f3_scenario_pins_the_manifest_constants() {
    let spec = load_scenario("f3_cs1_duty_cycle.scenario.json");
    let WorkloadSpec::Cs1DutyCycle { ledger_days } = spec.workload else {
        panic!("F3 is a cs1_duty_cycle scenario");
    };
    assert_eq!(ledger_days, 3.0, "f3_manifest ledgers 3 days");
    assert_eq!(
        spec.axis("check_interval_s").expect("sweep axis"),
        &[0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        "f3_manifest sweeps these intervals"
    );
}

/// F6's scenario pins the same field, budget, seed and fault mix the
/// frozen `f6_manifest_threads` / `f6_faulted_manifest_threads`
/// hard-code.
#[test]
fn f6_scenario_pins_the_manifest_constants() {
    let spec = load_scenario("f6_network_scaling.scenario.json");
    assert_eq!(spec.seed, 2003);
    assert_eq!(spec.rounds, 500);
    assert_eq!(spec.replications, 32);
    assert_eq!(
        spec.topology,
        Some(TopologySpec::Random {
            nodes: 40,
            field_m: 400.0
        })
    );
    assert_eq!(spec.faults.as_deref(), Some(F6_FAULT_SPEC));
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(20.0);
    assert_eq!(spec.network.to_network_config(), config);
}

/// F13's scenario compiles to exactly the bruised channel the frozen
/// `f13_manifest` hard-codes, on the same 5x5/30 m grid, seed and span.
#[test]
fn f13_scenario_pins_the_manifest_constants() {
    let spec = load_scenario("f13_lossy_network.scenario.json");
    assert_eq!(spec.seed, 2003);
    assert_eq!(spec.rounds, 300);
    assert_eq!(
        spec.topology,
        Some(TopologySpec::Grid {
            side: 5,
            spacing_m: 30.0
        })
    );
    let compiled = CompiledScenario::compile(&spec).expect("F13 compiles");
    assert_eq!(
        compiled.lossy_config(),
        Some(&LossyConfig::bruised_channel()),
        "the scenario's channel is f13_manifest's bruised channel"
    );
}

/// The retired lossy `parallel_rounds` knob is an unknown field like
/// any typo (the region engine's own nodes-per-worker floor decides
/// execution), and the checked-in F13 scenario never spelled it, so its
/// canonical form — and hence its compile-cache hash — is unchanged.
#[test]
fn lossy_scenario_rejects_the_retired_parallel_rounds_field() {
    let base = load_scenario("f13_lossy_network.scenario.json");
    assert!(
        !base.canonical_json().contains("parallel_rounds"),
        "the checked-in F13 spec must stay knob-free (hash stability)"
    );
    for forced in [true, false] {
        let doc = format!(
            r#"{{
                "name": "f13-knob",
                "seed": 2003,
                "rounds": 30,
                "topology": {{"kind": "grid", "side": 5, "spacing_m": 30.0}},
                "workload": {{"kind": "lossy", "ber": 0.001, "arq_attempts": 4,
                              "parallel_rounds": {forced}}}
            }}"#
        );
        let err = ScenarioSpec::from_json_str(&doc).expect_err("retired knob rejected");
        let message = err.to_string();
        assert!(
            message.contains("unknown field") && message.contains("parallel_rounds"),
            "{message}"
        );
    }
}

/// F15's scenario pins the bench-snapshot churn mix and the
/// constant-density field family the bench sweep uses.
#[test]
fn f15_scenario_pins_the_bench_constants() {
    let spec = load_scenario("f15_city_scale.scenario.json");
    assert_eq!(spec.seed, 2003);
    assert_eq!(spec.rounds, 30);
    assert_eq!(
        spec.faults.as_deref(),
        Some("death=0.1,outage=0.2:10,link=0.1:8"),
        "the bench-snapshot fault mix, frozen in expt_bench_snapshot"
    );
    assert_eq!(
        spec.axis_usize("nodes").expect("integral nodes axis"),
        vec![400, 1600, 4096]
    );
    assert_eq!(spec.axis("field_m_per_sqrt_n"), Some(&[25.0][..]));
    // The declared topology is the smallest sweep point, so the spec
    // stays self-consistent: 25·√400 = 500 m.
    assert_eq!(
        spec.topology,
        Some(TopologySpec::Random {
            nodes: 400,
            field_m: 500.0
        })
    );
}
