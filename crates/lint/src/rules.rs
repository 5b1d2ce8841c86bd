//! The engine-invariant rules.
//!
//! Every rule works on the [`crate::lexer::Lexed`] views of the
//! scanned tree: token searches run on the blanked *code* view (so a
//! `panic!` inside a doc comment or a format string never fires),
//! justification markers are looked up in the *comment* view (so a marker
//! inside a string cannot silence a rule), and site-string searches in
//! test files run on the *string* view (a chaos test names its failpoint
//! as `"shard:prepare"`). Non-test scoping is module-granular: a
//! `#[cfg(test)]` item is skipped by brace matching, not by truncating
//! the file at its first occurrence.

use std::collections::BTreeMap;

use crate::lexer::Lexed;
use crate::{Finding, Rule};

/// How many lines above an occurrence a justification comment may sit
/// (same window the old awk gate used for `allow-panic:`).
const JUSTIFY_WINDOW: usize = 3;

/// One scanned source file.
pub struct SourceFile {
    /// Root-relative path with forward slashes (stable across hosts).
    pub path: String,
    pub lex: Lexed,
}

impl SourceFile {
    fn is_engine_src(&self) -> bool {
        self.path.starts_with("crates/machine/src/")
    }

    /// The panic-freedom contract extends to the core runtime files the
    /// executors call on their hot/fault paths.
    fn is_guarded_core(&self) -> bool {
        matches!(
            self.path.as_str(),
            "crates/core/src/fault.rs" | "crates/core/src/telemetry.rs" | "crates/core/src/metrics.rs"
        )
    }

    fn is_core_src(&self) -> bool {
        self.path.starts_with("crates/core/src/")
    }

    /// Integration-test trees: workspace `tests/` and any crate's
    /// `tests/` directory.
    pub fn is_test_file(&self) -> bool {
        self.path.starts_with("tests/") || self.path.contains("/tests/")
    }
}

/// Whether `line[at..]` starts token `tok` on identifier boundaries.
/// Each boundary check only applies where the token edge is itself an
/// identifier character: `.unwrap()` is legitimately preceded by an
/// identifier (the `.` delimits), `saturating_` is a prefix so its tail
/// is open, but `unsafe` must not match inside `unsafely`.
fn token_at(line: &str, at: usize, tok: &str) -> bool {
    if !line[at..].starts_with(tok) {
        return false;
    }
    if at > 0 && tok.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_') {
        let prev = line[..at].chars().next_back().unwrap_or(' ');
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    if tok.chars().next_back().is_some_and(|c| c.is_alphanumeric()) {
        let next = line[at + tok.len()..].chars().next().unwrap_or(' ');
        if next.is_alphanumeric() || next == '_' {
            return false;
        }
    }
    true
}

/// All boundary-checked occurrences of `tok` in `line`.
fn find_token(line: &str, tok: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(tok) {
        let at = from + pos;
        if token_at(line, at, tok) {
            hits.push(at);
        }
        from = at + tok.len();
    }
    hits
}

/// How far up a contiguous comment/attribute block is searched for a
/// marker before giving up (bounds pathological comment walls).
const BLOCK_WALK_CAP: usize = 25;

/// Whether a comment containing any of `markers` justifies an occurrence
/// on `line`: on the same line, within [`JUSTIFY_WINDOW`] lines above
/// (parity with the old awk gate, which tolerated a couple of code lines
/// between marker and occurrence), or anywhere in the contiguous
/// comment/attribute block immediately above (so a multi-line
/// `// SAFETY: …` block whose header sits 5 lines up still counts).
fn justified_any(lex: &Lexed, line: usize, markers: &[&str]) -> bool {
    let hit = |l: usize| lex.comments.get(l).is_some_and(|c| markers.iter().any(|m| c.contains(m)));
    let lo = line.saturating_sub(JUSTIFY_WINDOW);
    if (lo..=line).any(hit) {
        return true;
    }
    // Walk the contiguous comment block above: pure-comment lines, blank
    // lines, and attribute lines (`#[inline]` between doc and item) are
    // transparent; the first real code line ends the block.
    let mut l = line;
    let mut steps = 0;
    while l > 0 && steps < BLOCK_WALK_CAP {
        l -= 1;
        steps += 1;
        if hit(l) {
            return true;
        }
        let code = lex.code.get(l).map(|c| c.trim()).unwrap_or("");
        if !code.is_empty() && !code.starts_with("#[") && !code.starts_with("#![") {
            return false; // a real code line ends the block
        }
    }
    false
}

fn justified(lex: &Lexed, line: usize, marker: &str) -> bool {
    justified_any(lex, line, &[marker])
}

/// NL001 `no-panic`: non-test engine code must surface failures as
/// structured `ModelError`s — `unwrap()` / `expect(` / `panic!` /
/// `assert!` / `assert_eq!` / `assert_ne!` need an `allow-panic:`
/// justification.
pub fn no_panic(files: &[SourceFile], out: &mut Vec<Finding>) {
    const TOKENS: [&str; 6] =
        [".unwrap()", ".expect(", "panic!", "assert!", "assert_eq!", "assert_ne!"];
    for f in files.iter().filter(|f| f.is_engine_src() || f.is_guarded_core()) {
        for (li, line) in f.lex.code.iter().enumerate() {
            if f.lex.test[li] {
                continue;
            }
            for tok in TOKENS {
                // The boundary check rejects the `debug_` forms of all
                // three assert macros: those vanish from release builds.
                for _ in find_token(line, tok) {
                    if !justified(&f.lex, li, "allow-panic:") {
                        out.push(Finding::new(
                            Rule::NoPanic,
                            &f.path,
                            li + 1,
                            format!(
                                "`{tok}` in non-test engine code: return a ModelError or \
                                 justify with an `allow-panic:` comment within {JUSTIFY_WINDOW} lines"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// NL002 `no-saturating`: per-destination counts feed the unsafe
/// counting-sort scatters; a silently capped count corrupts prefix-sum
/// offsets, so the engine must use checked adds.
pub fn no_saturating(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| f.is_engine_src()) {
        for (li, line) in f.lex.code.iter().enumerate() {
            if f.lex.test[li] || find_token(line, "saturating_").is_empty() {
                continue;
            }
            if !justified(&f.lex, li, "allow-saturating:") {
                out.push(Finding::new(
                    Rule::NoSaturating,
                    &f.path,
                    li + 1,
                    format!(
                        "`saturating_*` arithmetic in engine code: use a checked add \
                         (ModelError on overflow) or justify with an `allow-saturating:` \
                         comment within {JUSTIFY_WINDOW} lines"
                    ),
                ));
            }
        }
    }
}

/// NL003 `unsafe-safety`: every `unsafe` keyword (block, fn, impl) in
/// non-test engine/core code must carry a `// SAFETY:` comment within
/// `JUSTIFY_WINDOW` lines above (or on the same line).
pub fn unsafe_safety(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| f.is_engine_src() || f.is_core_src()) {
        for (li, line) in f.lex.code.iter().enumerate() {
            if f.lex.test[li] {
                continue;
            }
            for _ in find_token(line, "unsafe") {
                // Either comment convention documents the obligation:
                // `// SAFETY:` on blocks/impls, or a rustdoc `# Safety`
                // section on an `unsafe fn`.
                if !justified_any(&f.lex, li, &["SAFETY:", "# Safety"]) {
                    out.push(Finding::new(
                        Rule::UnsafeSafety,
                        &f.path,
                        li + 1,
                        format!(
                            "`unsafe` without a `// SAFETY:` comment within \
                             {JUSTIFY_WINDOW} lines above"
                        ),
                    ));
                }
            }
        }
    }
}

/// Per-file count of non-test `unsafe` keyword occurrences — the
/// quantity the NL004 baseline pins.
pub fn unsafe_counts(files: &[SourceFile]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for f in files.iter().filter(|f| f.is_engine_src() || f.is_core_src()) {
        let n: usize = f
            .lex
            .code
            .iter()
            .enumerate()
            .filter(|(li, _)| !f.lex.test[*li])
            .map(|(_, line)| find_token(line, "unsafe").len())
            .sum();
        if n > 0 {
            counts.insert(f.path.clone(), n);
        }
    }
    counts
}

/// NL004 `unsafe-inventory`: the scanned tree's per-file unsafe counts
/// must match the checked-in baseline, so growing the unsafe surface
/// requires an explicit baseline edit in the same diff.
pub fn unsafe_inventory(
    actual: &BTreeMap<String, usize>,
    baseline: &BTreeMap<String, usize>,
    baseline_path: &str,
    out: &mut Vec<Finding>,
) {
    for (path, &n) in actual {
        match baseline.get(path) {
            Some(&b) if b == n => {}
            Some(&b) if n > b => out.push(Finding::new(
                Rule::UnsafeInventory,
                path,
                0,
                format!(
                    "unsafe surface grew: {n} occurrences vs {b} in the baseline — \
                     document each with // SAFETY: and update {baseline_path}"
                ),
            )),
            Some(&b) => out.push(Finding::new(
                Rule::UnsafeInventory,
                path,
                0,
                format!("stale baseline: {n} unsafe occurrences vs {b} recorded — update {baseline_path}"),
            )),
            None => out.push(Finding::new(
                Rule::UnsafeInventory,
                path,
                0,
                format!(
                    "new unsafe surface: {n} occurrences in a file absent from the \
                     baseline — document each with // SAFETY: and update {baseline_path}"
                ),
            )),
        }
    }
    for (path, &b) in baseline {
        if !actual.contains_key(path) {
            out.push(Finding::new(
                Rule::UnsafeInventory,
                path,
                0,
                format!("stale baseline: records {b} unsafe occurrences but the file has none — update {baseline_path}"),
            ));
        }
    }
}

/// NL005 `ordering-justified`: `Ordering::SeqCst` is the strongest (and
/// slowest) fence; every non-test use in engine/core code must either be
/// downgraded or carry an `// ordering:` comment saying why sequential
/// consistency is required.
pub fn ordering_justified(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| f.is_engine_src() || f.is_core_src()) {
        for (li, line) in f.lex.code.iter().enumerate() {
            if f.lex.test[li] || !line.contains("Ordering::SeqCst") {
                continue;
            }
            if !justified(&f.lex, li, "ordering:") {
                out.push(Finding::new(
                    Rule::OrderingJustified,
                    &f.path,
                    li + 1,
                    format!(
                        "`Ordering::SeqCst` without an `// ordering:` justification \
                         within {JUSTIFY_WINDOW} lines: downgrade or say why a total \
                         order is required"
                    ),
                ));
            }
        }
    }
}

/// NL007 `instant-gate`: the telemetry zero-cost contract — engine
/// sources may only read the clock behind an armed-sink guard
/// (`tele.map(…)`, `telemetry.is_some()…`) or a span helper built from
/// one, so a disarmed run never pays for `Instant::now`.
pub fn instant_gate(files: &[SourceFile], out: &mut Vec<Finding>) {
    const GUARDS: [&str; 4] = ["telemetry.map(", "tele.map(", "telemetry.is_some()", "tele.is_some()"];
    for f in files.iter().filter(|f| f.is_engine_src()) {
        for (li, line) in f.lex.code.iter().enumerate() {
            if f.lex.test[li] || !line.contains("Instant::now") {
                continue;
            }
            let lo = li.saturating_sub(JUSTIFY_WINDOW);
            let guarded = (lo..=li).any(|l| {
                f.lex.code.get(l).is_some_and(|c| GUARDS.iter().any(|g| c.contains(g)))
            });
            if !guarded && !justified(&f.lex, li, "instant-ok:") {
                out.push(Finding::new(
                    Rule::InstantGate,
                    &f.path,
                    li + 1,
                    format!(
                        "`Instant::now` outside an armed-telemetry guard \
                         (`tele.map(`/`telemetry.is_some()` within {JUSTIFY_WINDOW} \
                         lines): disarmed runs must not read the clock — gate it or \
                         justify with `instant-ok:`"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// NL006 site-coverage: static reachability mirror of the chaos sweep.
// ---------------------------------------------------------------------

/// A telemetry `Site` variant with, when the `name()` match is found,
/// its wire string.
struct TelemetrySite {
    variant: String,
    name: Option<String>,
    line: usize,
}

/// A `const FAULT_*: &str = "…"` failpoint declaration.
struct FaultSite {
    const_name: String,
    site: String,
    file: String,
    line: usize,
}

/// NL006 `site-coverage`: every telemetry `Site` and every failpoint
/// string must appear at ≥1 instrumentation call site in the executors
/// and ≥1 time under a `tests/` tree — an uninstrumented or untested
/// site is dead observability surface.
pub fn site_coverage(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(tele) = files.iter().find(|f| f.path == "crates/core/src/telemetry.rs") else {
        return; // fixture trees without a telemetry module skip the rule
    };
    let tele_path = tele.path.clone();
    let sites = parse_site_enum(tele);
    let faults = parse_fault_consts(files);

    let exec: Vec<&SourceFile> = files
        .iter()
        .filter(|f| {
            matches!(
                f.path.as_str(),
                "crates/machine/src/engine.rs"
                    | "crates/machine/src/shard.rs"
                    | "crates/machine/src/server.rs"
                    | "crates/machine/src/mailbox.rs"
            )
        })
        .collect();
    let tests: Vec<&SourceFile> = files.iter().filter(|f| f.is_test_file()).collect();

    for s in &sites {
        let qualified = format!("Site::{}", s.variant);
        let instrumented = exec
            .iter()
            .any(|f| f.lex.code.iter().any(|l| code_path_used(l, &qualified)));
        if !instrumented {
            out.push(Finding::new(
                Rule::SiteCoverage,
                &tele_path,
                s.line + 1,
                format!("telemetry site `{qualified}` has no instrumentation call site in the executors"),
            ));
        }
        let tested = tests.iter().any(|f| {
            f.lex.code.iter().any(|l| code_path_used(l, &qualified))
                || s.name.as_deref().is_some_and(|n| f.lex.strings.iter().any(|l| l.contains(n)))
        });
        if !tested {
            out.push(Finding::new(
                Rule::SiteCoverage,
                &tele_path,
                s.line + 1,
                format!(
                    "telemetry site `{qualified}` never appears under tests/ (by path or by \
                     its `{}` string)",
                    s.name.as_deref().unwrap_or("?")
                ),
            ));
        }
    }

    for fs in &faults {
        let used = files
            .iter()
            .filter(|f| f.is_engine_src())
            .flat_map(|f| f.lex.code.iter().enumerate().map(move |(li, l)| (f, li, l)))
            .any(|(f, li, l)| {
                (f.path != fs.file || li + 1 != fs.line) && !find_token(l, &fs.const_name).is_empty()
            });
        if !used {
            out.push(Finding::new(
                Rule::SiteCoverage,
                &fs.file,
                fs.line,
                format!("failpoint `{}` (`{}`) is declared but never checked", fs.const_name, fs.site),
            ));
        }
        let tested = tests.iter().any(|f| f.lex.strings.iter().any(|l| l.contains(&fs.site)));
        if !tested {
            out.push(Finding::new(
                Rule::SiteCoverage,
                &fs.file,
                fs.line,
                format!(
                    "failpoint `{}` never appears under tests/ — the chaos sweep cannot reach it",
                    fs.site
                ),
            ));
        }
    }
}

/// Whether `line` uses path `q` (e.g. `Site::ShardPrepare`) on an
/// identifier boundary on both sides (`Site::ShardExec` must not match
/// `Site::ShardExecPlanned`).
fn code_path_used(line: &str, q: &str) -> bool {
    !find_token(line, q).is_empty()
}

/// Extracts the `Site` enum's variants from the telemetry module, and
/// each variant's wire string from the `fn name` match arms
/// (`Site::X => "shard:x"`).
fn parse_site_enum(tele: &SourceFile) -> Vec<TelemetrySite> {
    let mut sites = Vec::new();
    let Some(start) = tele.lex.code.iter().position(|l| l.contains("enum Site")) else {
        return sites;
    };
    let mut depth = 0usize;
    for (li, line) in tele.lex.code.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    if depth <= 1 {
                        finish_site_names(tele, &mut sites);
                        return sites;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        if depth == 1 && li > start {
            let t = line.trim().trim_end_matches(',');
            if !t.is_empty()
                && t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && t.chars().all(|c| c.is_alphanumeric() || c == '_')
            {
                sites.push(TelemetrySite { variant: t.to_string(), name: None, line: li });
            }
        }
    }
    finish_site_names(tele, &mut sites);
    sites
}

/// Fills each parsed variant's wire string from a `Site::X =>` match arm
/// whose line carries exactly one string literal.
fn finish_site_names(tele: &SourceFile, sites: &mut [TelemetrySite]) {
    for s in sites.iter_mut() {
        let arm = format!("Site::{} =>", s.variant);
        for (li, line) in tele.lex.code.iter().enumerate() {
            if line.contains(&arm) {
                let lit = tele.lex.strings[li].trim();
                if !lit.is_empty() {
                    s.name = Some(lit.to_string());
                    break;
                }
            }
        }
    }
}

/// Collects every `const FAULT_*: &str = "…"` declaration in the engine
/// sources.
fn parse_fault_consts(files: &[SourceFile]) -> Vec<FaultSite> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| f.is_engine_src()) {
        for (li, line) in f.lex.code.iter().enumerate() {
            let Some(at) = line.find("const FAULT_") else { continue };
            if !line.contains(": &str") {
                continue;
            }
            let ident: String = line[at + "const ".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let site = f.lex.strings[li].trim().to_string();
            if !ident.is_empty() && !site.is_empty() {
                out.push(FaultSite { const_name: ident, site, file: f.path.clone(), line: li + 1 });
            }
        }
    }
    out
}
