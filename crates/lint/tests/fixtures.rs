//! Fixture tests: every rule demonstrated by a firing tree, a clean
//! tree, and (where the rule has one) an escape-hatch tree, plus a
//! lexer-torture tree proving that tokens inside comments and strings
//! never fire, and a self-test pinning the real repository lint-clean.

use std::path::PathBuf;

use nob_lint::{run, Config, Report, Rule};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint(name: &str) -> Report {
    run(&Config::new(fixture(name))).expect("fixture tree scans")
}

/// Asserts the report's findings are exactly `want`, given as
/// `(rule, file, line)` triples in the report's sort order.
fn assert_findings(report: &Report, want: &[(Rule, &str, usize)]) {
    let got: Vec<(Rule, &str, usize)> =
        report.findings.iter().map(|f| (f.rule, f.file.as_str(), f.line)).collect();
    assert_eq!(got, want, "findings:\n{}", render(report));
}

fn render(report: &Report) -> String {
    report.findings.iter().map(|f| format!("  {f}\n")).collect()
}

// --- NL001 no-panic ---------------------------------------------------

#[test]
fn no_panic_fires_after_a_test_module() {
    let r = lint("no_panic/firing");
    let f = "crates/machine/src/engine.rs";
    assert_findings(
        &r,
        &[
            (Rule::NoPanic, f, 15), // .unwrap()
            (Rule::NoPanic, f, 16), // .expect(
            (Rule::NoPanic, f, 17), // bare assert!
            (Rule::NoPanic, f, 19), // panic!
            (Rule::NoPanic, f, 21), // assert_eq!
            (Rule::NoPanic, f, 22), // assert_ne!
        ],
    );
}

#[test]
fn no_panic_ignores_comments_strings_tests_and_benign_macros() {
    assert_findings(&lint("no_panic/clean"), &[]);
}

#[test]
fn no_panic_escape_hatch_silences() {
    assert_findings(&lint("no_panic/escape"), &[]);
}

// --- NL002 no-saturating ----------------------------------------------

#[test]
fn no_saturating_fires_on_engine_arithmetic() {
    let r = lint("no_saturating/firing");
    assert_findings(&r, &[(Rule::NoSaturating, "crates/machine/src/counts.rs", 2)]);
}

#[test]
fn no_saturating_clean_tree() {
    assert_findings(&lint("no_saturating/clean"), &[]);
}

#[test]
fn no_saturating_escape_hatch_silences() {
    assert_findings(&lint("no_saturating/escape"), &[]);
}

// --- NL003 unsafe-safety ----------------------------------------------

#[test]
fn unsafe_safety_fires_on_undocumented_unsafe() {
    let r = lint("unsafe_safety/firing");
    let f = "crates/machine/src/m.rs";
    // The fixture baseline records both occurrences, so only NL003 fires.
    assert_findings(&r, &[(Rule::UnsafeSafety, f, 1), (Rule::UnsafeSafety, f, 2)]);
}

#[test]
fn unsafe_safety_clean_tree() {
    assert_findings(&lint("unsafe_safety/clean"), &[]);
}

#[test]
fn unsafe_safety_accepts_block_headers_and_rustdoc_sections() {
    // Multi-line `// SAFETY:` block whose header sits >3 lines up, a
    // rustdoc `# Safety` section, and a plain same-window comment.
    assert_findings(&lint("unsafe_safety/escape"), &[]);
}

// --- NL004 unsafe-inventory -------------------------------------------

#[test]
fn unsafe_inventory_flags_new_surface_and_stale_entries() {
    let r = lint("unsafe_inventory/firing");
    assert_findings(
        &r,
        &[
            (Rule::UnsafeInventory, "crates/machine/src/gone.rs", 0), // stale
            (Rule::UnsafeInventory, "crates/machine/src/m.rs", 0),    // new surface
        ],
    );
}

#[test]
fn unsafe_inventory_clean_when_baseline_matches() {
    let r = lint("unsafe_inventory/clean");
    assert_findings(&r, &[]);
    assert_eq!(r.inventory.get("crates/machine/src/m.rs"), Some(&1));
}

#[test]
fn unsafe_inventory_update_baseline_roundtrips() {
    let root = fixture("unsafe_inventory/workflow");
    let baseline = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("workflow_baseline.txt");

    // First pass: the file has unsafe surface but no baseline yet.
    let mut config = Config::new(&root);
    config.baseline = baseline.clone();
    let _ = std::fs::remove_file(&baseline);
    let before = run(&config).expect("scan");
    assert_eq!(before.findings.len(), 1, "missing baseline flags the new surface");
    assert_eq!(before.findings[0].rule, Rule::UnsafeInventory);

    // `--update-baseline` records the tree …
    config.update_baseline = true;
    let during = run(&config).expect("update");
    assert!(during.ok(), "update pass reports nothing");

    // … and the next normal run is clean.
    config.update_baseline = false;
    let after = run(&config).expect("rescan");
    assert!(after.ok(), "findings after update:\n{}", render(&after));

    let text = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.contains("crates/machine/src/m.rs 1"), "baseline body: {text}");
}

// --- NL005 ordering-justified -------------------------------------------

#[test]
fn ordering_fires_on_bare_seqcst() {
    let r = lint("ordering/firing");
    assert_findings(&r, &[(Rule::OrderingJustified, "crates/machine/src/sync.rs", 4)]);
}

#[test]
fn ordering_ignores_weaker_orderings_and_tests() {
    assert_findings(&lint("ordering/clean"), &[]);
}

#[test]
fn ordering_justification_comment_silences() {
    assert_findings(&lint("ordering/escape"), &[]);
}

// --- NL006 site-coverage ----------------------------------------------

#[test]
fn site_coverage_flags_uninstrumented_and_untested_sites() {
    let r = lint("site_coverage/firing");
    let tele = "crates/core/src/telemetry.rs";
    let eng = "crates/machine/src/engine.rs";
    assert_findings(
        &r,
        &[
            (Rule::SiteCoverage, tele, 5), // Uninstrumented: no executor call site
            (Rule::SiteCoverage, tele, 6), // Untested: never under tests/
            (Rule::SiteCoverage, eng, 2),  // FAULT_UNCHECKED: declared, never checked
            (Rule::SiteCoverage, eng, 2),  // FAULT_UNCHECKED: never under tests/
            (Rule::SiteCoverage, eng, 3),  // FAULT_UNTESTED: never under tests/
        ],
    );
}

#[test]
fn site_coverage_clean_via_code_paths_and_name_strings() {
    // Coverage counts through either mechanism: a `Site::X` path in test
    // code or the site's wire string in a test string literal.
    assert_findings(&lint("site_coverage/clean"), &[]);
}

// --- NL007 instant-gate -----------------------------------------------

#[test]
fn instant_gate_fires_on_unguarded_clock_reads() {
    let r = lint("instant_gate/firing");
    assert_findings(&r, &[(Rule::InstantGate, "crates/machine/src/engine.rs", 4)]);
}

#[test]
fn instant_gate_accepts_armed_guards_and_tests() {
    assert_findings(&lint("instant_gate/clean"), &[]);
}

#[test]
fn instant_gate_escape_hatch_silences() {
    assert_findings(&lint("instant_gate/escape"), &[]);
}

// --- Lexer false positives ----------------------------------------------

#[test]
fn lexer_never_fires_on_comments_strings_or_char_literals() {
    // Every rule's tokens appear in doc comments, nested block comments,
    // plain/raw/byte/raw-byte strings, and around char literals and
    // lifetimes — none of it is code, so nothing fires.
    let r = lint("lexer_torture/clean");
    assert_findings(&r, &[]);
    assert!(r.inventory.is_empty(), "no unsafe surface in the torture file");
}

// --- Self-test ----------------------------------------------------------

#[test]
fn the_real_tree_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = run(&Config::new(root)).expect("repo scans");
    assert!(r.ok(), "the repository must stay lint-clean:\n{}", render(&r));
    assert!(r.files_scanned > 20, "scanned {} files — scan roots moved?", r.files_scanned);
}
