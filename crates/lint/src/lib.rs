//! `nob-lint`: the engine's invariant checker.
//!
//! An offline, zero-dependency static analyzer for the contracts no
//! compiler checks but the engine's correctness story rests on:
//!
//! | id    | rule                 | invariant |
//! |-------|----------------------|-----------|
//! | NL001 | `no-panic`           | non-test engine code surfaces failures as `ModelError`s, never `unwrap`/`expect`/`panic!`/`assert!`/`assert_eq!`/`assert_ne!` (escape: `allow-panic:`) |
//! | NL002 | `no-saturating`      | counts feeding the unsafe counting-sort scatters are checked, never silently capped (escape: `allow-saturating:`) |
//! | NL003 | `unsafe-safety`      | every `unsafe` block/fn/impl carries a `// SAFETY:` comment within 3 lines |
//! | NL004 | `unsafe-inventory`   | per-file unsafe counts match the checked-in baseline — new unsafe surface requires an explicit baseline edit |
//! | NL005 | `ordering-justified` | every `Ordering::SeqCst` outside tests carries an `// ordering:` justification |
//! | NL006 | `site-coverage`      | every telemetry `Site` and failpoint string is instrumented in the executors and reachable from a test |
//! | NL007 | `instant-gate`       | `Instant::now` in engine sources only behind an armed-telemetry guard (escape: `instant-ok:`) |
//!
//! The scanner ([`lexer`]) is comment/string/attribute-aware, so a
//! `panic!` in a doc comment never fires and a marker inside a string
//! never silences a rule; `#[cfg(test)]` items are skipped by brace
//! matching at module granularity, not by truncating the file at the
//! first occurrence (both false-positive/false-negative classes of the
//! awk/grep gates this tool replaced).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;

use rules::SourceFile;

/// Stable rule identifiers (the JSON report keys scripts may diff on).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    NoPanic,
    NoSaturating,
    UnsafeSafety,
    UnsafeInventory,
    OrderingJustified,
    SiteCoverage,
    InstantGate,
}

impl Rule {
    pub const ALL: [Rule; 7] = [
        Rule::NoPanic,
        Rule::NoSaturating,
        Rule::UnsafeSafety,
        Rule::UnsafeInventory,
        Rule::OrderingJustified,
        Rule::SiteCoverage,
        Rule::InstantGate,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "NL001",
            Rule::NoSaturating => "NL002",
            Rule::UnsafeSafety => "NL003",
            Rule::UnsafeInventory => "NL004",
            Rule::OrderingJustified => "NL005",
            Rule::SiteCoverage => "NL006",
            Rule::InstantGate => "NL007",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NoSaturating => "no-saturating",
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::UnsafeInventory => "unsafe-inventory",
            Rule::OrderingJustified => "ordering-justified",
            Rule::SiteCoverage => "site-coverage",
            Rule::InstantGate => "instant-gate",
        }
    }
}

/// One lint violation, printed as `file:line: rule: message`.
#[derive(Debug)]
pub struct Finding {
    pub rule: Rule,
    /// Root-relative path, forward slashes.
    pub file: String,
    /// 1-based; 0 for whole-file findings (inventory drift).
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(rule: Rule, file: &str, line: usize, message: String) -> Self {
        Finding { rule, file: file.to_string(), line, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.file, self.rule.name(), self.message)
        } else {
            write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule.name(), self.message)
        }
    }
}

/// What to lint and against which unsafe baseline.
pub struct Config {
    /// Repository root (the directory holding `crates/`).
    pub root: PathBuf,
    /// The unsafe-inventory baseline file.
    pub baseline: PathBuf,
    /// Rewrite the baseline from the scanned tree instead of diffing
    /// against it (NL004 then reports nothing).
    pub update_baseline: bool,
}

impl Config {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let baseline = root.join("crates/lint/unsafe_inventory.txt");
        Config { root, baseline, update_baseline: false }
    }
}

/// The full result of a lint run.
pub struct Report {
    /// Sorted by (file, line, rule id).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Per-file non-test `unsafe` occurrence counts of the scanned tree.
    pub inventory: BTreeMap<String, usize>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable report (`nob-lint-v1`): stable key order, no
    /// timestamps — byte-identical across runs on an identical tree, so
    /// it can be checked in and diffed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"schema\": \"nob-lint-v1\",\n");
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"rules\": [\n");
        for (i, r) in Rule::ALL.iter().enumerate() {
            let n = self.findings.iter().filter(|f| f.rule == *r).count();
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"name\": \"{}\", \"findings\": {}}}{}\n",
                r.id(),
                r.name(),
                n,
                if i + 1 < Rule::ALL.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
                f.rule.id(),
                f.rule.name(),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"unsafe_inventory\": {\n");
        for (i, (path, n)) in self.inventory.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(path),
                n,
                if i + 1 < self.inventory.len() { "," } else { "" }
            ));
        }
        s.push_str("  }\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The directories scanned, relative to the root. Fixture trees mirror
/// this layout, so the whole pipeline is testable end to end.
const SCAN_ROOTS: [&str; 5] =
    ["crates/machine/src", "crates/machine/tests", "crates/core/src", "crates/core/tests", "tests"];

/// Runs every rule over the tree under `config.root`.
pub fn run(config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    for rel in SCAN_ROOTS {
        collect_rs(&config.root, &config.root.join(rel), &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));

    let mut findings = Vec::new();
    rules::no_panic(&files, &mut findings);
    rules::no_saturating(&files, &mut findings);
    rules::unsafe_safety(&files, &mut findings);
    rules::ordering_justified(&files, &mut findings);
    rules::site_coverage(&files, &mut findings);
    rules::instant_gate(&files, &mut findings);

    let inventory = rules::unsafe_counts(&files);
    if config.update_baseline {
        fs::write(&config.baseline, render_baseline(&inventory))?;
    } else {
        let baseline = load_baseline(&config.baseline)?;
        let shown = config
            .baseline
            .strip_prefix(&config.root)
            .unwrap_or(&config.baseline)
            .to_string_lossy()
            .replace('\\', "/");
        rules::unsafe_inventory(&inventory, &baseline, &shown, &mut findings);
    }

    findings.sort_by(|a, b| (a.file.as_str(), a.line, a.rule.id()).cmp(&(b.file.as_str(), b.line, b.rule.id())));
    Ok(Report { findings, files_scanned: files.len(), inventory })
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(()); // optional scan root (e.g. crates/core/tests)
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            out.push(SourceFile { path: rel, lex: lexer::lex(&src) });
        }
    }
    Ok(())
}

/// Baseline format: `# comment` lines, then `path count` per line,
/// sorted by path.
pub fn render_baseline(inventory: &BTreeMap<String, usize>) -> String {
    let mut s = String::from(
        "# nob-lint unsafe inventory baseline (rule NL004).\n\
         # One `path count` line per file with non-test `unsafe` occurrences.\n\
         # Regenerate after an intentional change with:\n\
         #   cargo run --release -p nob-lint -- --update-baseline\n",
    );
    for (path, n) in inventory {
        s.push_str(&format!("{path} {n}\n"));
    }
    s
}

fn load_baseline(path: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut map = BTreeMap::new();
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        // Missing baseline = empty baseline: every unsafe occurrence is
        // "new surface" until one is checked in.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(map),
        Err(e) => return Err(e),
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((path, n)) = line.rsplit_once(' ') {
            if let Ok(n) = n.parse::<usize>() {
                map.insert(path.trim().to_string(), n);
            }
        }
    }
    Ok(map)
}
