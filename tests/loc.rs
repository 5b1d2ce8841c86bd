//! The code-size count's own behaviour (`scripts/loc.sh`).
//!
//! Hermetic, like `text_delta.rs`: each case plants a fixture tree with the
//! three crate source directories the script reads, so nothing of this
//! repository is counted. What is pinned: blank lines, `//`, `///`, `//!`
//! and `/* … */` lines and a `#[cfg(test)]` module (nested braces included)
//! are not code; code with a trailing comment and code after the test
//! module are. A bare `pub` item counts toward the API size; `pub(crate)`,
//! `pub(super)`, `pub` fields, commented-out items and test-module items
//! do not.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One file with every kind of line the count must tell apart; the
/// trailing `code`/`api` notes say what each line adds.
const MACHINE: &str = r#"//! Crate docs.

/// A documented item.
pub struct Shape { // code, api
    pub width: u32, // code
} // code

pub(crate) fn helper() {} // code
pub(super) fn up() {} // code
pub const fn area() -> u32 { // code, api
    0 // code
} // code
pub use std::fmt; // code, api
/* a one-line block comment */
/*
 * pub fn hidden() {}
 */
    // an indented comment
pub const LIMIT: u32 = 4; // code, api

#[cfg(test)]
mod tests {
    pub fn inner() {
        if true {
            let _ = { 1 };
        }
    }
}

pub fn after_tests() {} // code, api
"#;

/// A tree whose `crates/{core,machine,algos}/src` hold the given files.
fn sandbox(case: &str, files: [(&str, &str); 3]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("loc").join(case);
    let _ = fs::remove_dir_all(&root);
    for (krate, text) in files {
        let src = root.join("crates").join(krate).join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(src.join("lib.rs"), text).unwrap();
    }
    root
}

/// The script's rows, each split into its fields.
fn loc(root: &Path) -> Vec<Vec<String>> {
    let out = Command::new("bash")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/loc.sh"))
        .arg(root)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|row| row.split_whitespace().map(str::to_string).collect())
        .collect()
}

#[test]
fn counts_code_lines_and_public_items() {
    let root = sandbox(
        "fixture",
        [
            ("core", "pub mod shapes;\nfn private() {}\n\n// pub fn commented() {}\n"),
            ("machine", MACHINE),
            ("algos", "pub(crate) struct Inner;\n/// pub fn documented() {}\n"),
        ],
    );
    let rows = loc(&root);
    let want: Vec<Vec<&str>> = vec![
        vec!["core", "2"],
        vec!["machine", "11"],
        vec!["algos", "1"],
        vec!["total", "14"],
        vec!["api", "core", "1"],
        vec!["api", "machine", "5"],
        vec!["api", "algos", "0"],
    ];
    assert_eq!(rows, want, "rows of the fixture tree");
}
