//! Manifest acceptance: the checked-in golden F3, F6 and F13 manifests
//! must match a fresh rebuild byte-for-byte, and the F3 ledger must reproduce
//! the keynote's headline split — the radio's channel checks eating
//! ~82 % of the CS1 node's budget — with every category accounted for.

use ambience::core::case_studies::cs1::{cs1_energy_ledger, Cs1Config};
use ambience::sim::obs::EnergyCategory;
use ambience::units::TimeSpan;
use ami_experiments::manifests::{
    f13_faulted_manifest, f13_manifest, f3_manifest, f6_faulted_manifest_threads,
    f6_manifest_threads, t3_manifest, F13_FAULT_SPEC,
};

/// The golden manifest frozen in the repo; the golden table in
/// `crates/experiments/tests/scenario_golden.rs` also diffs the binary's
/// `AMBIENCE_MANIFEST` output against this same file.
const GOLDEN_F3: &str = include_str!("../crates/experiments/golden/f3_manifest.json");

/// The frozen faulted-F13 run: the same grid and seed as F13 under the
/// [`F13_FAULT_SPEC`] mix. The golden table also runs the F13 binary
/// with `AMBIENCE_FAULTS` set to that spec and diffs its manifest.
const GOLDEN_F13_FAULTED: &str =
    include_str!("../crates/experiments/golden/f13_faulted_manifest.json");

/// The frozen F6 gathering run: 32 replicated random fields, with the
/// merged energy ledger and the packet-fate counter tree. The golden
/// table also diffs the F6 binary's `AMBIENCE_MANIFEST` output at 1, 2
/// and 8 threads against it.
const GOLDEN_F6: &str = include_str!("../crates/experiments/golden/f6_manifest.json");

/// The frozen faulted F6 run: the same fields under the F6 fault mix, so
/// the disconnected and fault drop causes are pinned as well.
const GOLDEN_F6_FAULTED: &str =
    include_str!("../crates/experiments/golden/f6_faulted_manifest.json");

#[test]
fn f3_manifest_matches_the_checked_in_golden() {
    assert_eq!(
        f3_manifest().to_json(),
        GOLDEN_F3,
        "f3_manifest() drifted from crates/experiments/golden/f3_manifest.json; \
         if the change is intentional, regenerate the golden with \
         AMBIENCE_MANIFEST=crates/experiments/golden/f3_manifest.json \
         cargo run -p ami-experiments --bin expt_f3_cs1_duty_cycle"
    );
}

#[test]
fn f3_ledger_reproduces_the_radio_dominance_figure() {
    let ledger = cs1_energy_ledger(&Cs1Config::default(), TimeSpan::from_days(3.0));
    // The keynote's figure: idle listening (LPL channel checks) takes
    // ~82 % of the budget on the default duty-cycled node.
    let idle = ledger.fraction(EnergyCategory::Idle);
    assert!(
        (0.80..0.85).contains(&idle),
        "idle fraction {idle} outside the 82% band"
    );
    // The categories partition the total: attribution loses nothing.
    let by_category: f64 = EnergyCategory::ALL
        .into_iter()
        .map(|c| ledger.category_total(c).as_joules())
        .sum();
    let total = ledger.total().as_joules();
    assert!(
        (by_category - total).abs() <= 1e-9 * total,
        "categories sum to {by_category}, ledger total {total}"
    );
}

#[test]
fn f13_faulted_manifest_matches_the_checked_in_golden() {
    assert_eq!(
        f13_faulted_manifest().to_json(),
        GOLDEN_F13_FAULTED,
        "f13_faulted_manifest() drifted from \
         crates/experiments/golden/f13_faulted_manifest.json; if the change \
         is intentional, regenerate the golden with \
         AMBIENCE_FAULTS='{F13_FAULT_SPEC}' \
         AMBIENCE_MANIFEST=crates/experiments/golden/f13_faulted_manifest.json \
         cargo run -p ami-experiments --bin expt_f13_lossy_network"
    );
}

#[test]
fn f6_manifest_matches_the_checked_in_golden() {
    assert_eq!(
        f6_manifest_threads(1).to_json(),
        GOLDEN_F6,
        "f6_manifest_threads(1) drifted from crates/experiments/golden/f6_manifest.json; \
         if the change is intentional, regenerate the golden with \
         AMBIENCE_THREADS=1 AMBIENCE_MANIFEST=crates/experiments/golden/f6_manifest.json \
         cargo run -p ami-experiments --bin expt_f6_network_scaling"
    );
}

#[test]
fn f6_faulted_manifest_matches_the_checked_in_golden() {
    assert_eq!(
        f6_faulted_manifest_threads(1).to_json(),
        GOLDEN_F6_FAULTED,
        "f6_faulted_manifest_threads(1) drifted from \
         crates/experiments/golden/f6_faulted_manifest.json; if the change is \
         intentional, regenerate the golden by writing \
         f6_faulted_manifest_threads(1).to_json() to that file"
    );
}

#[test]
fn f13_faulted_manifest_attributes_fault_losses_separately() {
    let json = f13_faulted_manifest().to_json();
    assert!(json.contains("\"experiment\": \"F13-faulted\""));
    assert!(json.contains("\"fault_model\":"));
    // Channel and fault losses are separate causes in the counter tree.
    assert!(json.contains("\"dropped\":{\"channel\":"));
    assert!(json.contains("\"fault\":"));
}

#[test]
fn manifests_render_every_experiment_without_panicking() {
    for (manifest, tag) in [
        (f3_manifest(), "\"experiment\": \"F3\""),
        (f13_manifest(), "\"experiment\": \"F13\""),
        (f13_faulted_manifest(), "\"experiment\": \"F13-faulted\""),
        (t3_manifest(), "\"experiment\": \"T3\""),
    ] {
        let json = manifest.to_json();
        assert!(json.contains(tag));
        assert!(json.ends_with("}\n"));
    }
}
