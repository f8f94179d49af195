//! Source scan: no new mode switches, no build features.
//!
//! Every on/off switch doubles the configurations the tests and the
//! benchmark have to cover, and an optimization's off-switch outlives
//! its purpose quietly: the scheduler carried three priority levels
//! behind a setter no syscall, config or bench ever called, and a cargo
//! feature gated a six-byte thread-local check that every debug build
//! can afford. So non-test code under `crates/*/src` (outside
//! `crates/bench`) may declare no `pub fn set_*(.., bool)` and no
//! `pub fn enable_*`, and no manifest a `[features]` entry — beyond the
//! switches in [`ALLOWED`], each of which names the callers that need
//! both positions. A behaviour with one caller-visible value is a
//! constant, not a switch.

mod common;

use std::fs;
use std::path::Path;

use common::normalize;

/// The switches that stay, and who needs them.
const ALLOWED: [(&str, &str); 4] = [
    (
        "set_batch",
        "the per-page VM body is the refinement reference of tests/refinement_fuzz.rs \
         and the baseline of repro-vm-batch",
    ),
    (
        "enable_nr",
        "bench-e2e has a workload on each side: smp-readmix replicates, the other six do not",
    ),
    (
        "enable_incremental_audit",
        "bench-e2e has a workload on each side: checked-fuzz audits, the other six do not",
    ),
    (
        "set_audit_recording",
        "auditor state, not a mode: the auditor pauses recording around its own rebaseline",
    ),
];

/// The parameter list that opens at the first `(` of `rest`.
fn parameter_list(rest: &str) -> &str {
    let open = rest.find('(').map_or(rest.len(), |i| i + 1);
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' if depth == 0 => return &rest[open..open + i],
            ')' | ']' | '>' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    &rest[open..]
}

/// Names of the `pub` (or `pub(..)`) functions `code` declares that are
/// switches: `enable_*`, or `set_*` with a `bool` parameter.
fn switches(code: &str) -> Vec<String> {
    let text = normalize(code);
    let mut found = Vec::new();
    for (at, _) in text.match_indices("fn ") {
        let before = text[..at].trim_end();
        let vis = before.rsplit(' ').next().unwrap_or("");
        if !(vis == "pub" || vis.starts_with("pub(")) {
            continue;
        }
        let rest = &text[at + 3..];
        let name = rest.split(['(', '<']).next().unwrap_or(rest);
        let takes_bool = || {
            parameter_list(rest)
                .split(',')
                .any(|p| p.trim().ends_with(": bool"))
        };
        if name.starts_with("enable_") || (name.starts_with("set_") && takes_bool()) {
            found.push(name.to_string());
        }
    }
    found
}

/// The keys of `manifest`'s `[features]` table.
fn features(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or(l).trim())
        .skip_while(|l| *l != "[features]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(key, _)| key.trim().to_string())
        .collect()
}

#[test]
fn no_mode_switch_and_no_feature_beyond_the_allowlist() {
    let mut hits = Vec::new();
    for (file, code) in common::non_test_sources() {
        if file.components().any(|c| c.as_os_str() == "bench") {
            continue;
        }
        for name in switches(&code) {
            if !ALLOWED.iter().any(|(allowed, _)| *allowed == name) {
                hits.push(format!("{}: declares switch `{name}`", file.display()));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        manifests.push(entry.expect("directory entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 10, "scanned only {manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        for feature in features(&text) {
            hits.push(format!("{}: feature `{feature}`", manifest.display()));
        }
    }
    assert!(
        hits.is_empty(),
        "one behaviour, one configuration — make it the default, derive it from the \
         input, or delete the path nothing selects:\n{}",
        hits.join("\n")
    );
}

#[test]
fn the_scanner_sees_the_shapes_it_is_for() {
    for (bad, name) in [
        ("pub fn set_demote(&mut self, on: bool) {", "set_demote"),
        (
            "pub fn set_mode(\n    &mut self,\n    cache: Vec<(u8, u8)>,\n    on: bool,\n) {",
            "set_mode",
        ),
        ("pub(crate) fn set_fast(on: bool) {}", "set_fast"),
        ("pub fn enable_turbo(&self) {", "enable_turbo"),
    ] {
        assert_eq!(switches(bad), [name], "missed: {bad}");
    }
    for fine in [
        "pub fn set_len(&mut self, len: usize) {",
        "pub fn set_weight(&mut self, cntr: CtnrPtr, weight: u32) -> Vec<(ThrdPtr, bool)> {",
        "fn set_private(on: bool) {}",
        "// pub fn set_demote(&mut self, on: bool)",
        "pub fn reset_all(&mut self, hard: bool) {}",
    ] {
        assert_eq!(switches(fine), Vec::<String>::new(), "{fine}");
    }
    let manifest = "[package]\nname = \"x\"\n\n[features]\n# why\norder-checks = []\n\
                    fast = [\"dep/fast\"]\n\n[dependencies]\natmo-spec.workspace = true\n";
    assert_eq!(features(manifest), ["order-checks", "fast"]);
    assert!(features("[package]\nname = \"x\"\n").is_empty());
}
