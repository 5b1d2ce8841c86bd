//! The code-size count's own behaviour (`scripts/loc.sh`).
//!
//! Hermetic, like `text_delta.rs`: each case plants a fixture tree with the
//! three crate source directories the script reads and an `unsafe`
//! inventory, so nothing of this repository is counted. What is pinned:
//! blank lines, `//`, `///`, `//!` and `/* … */` lines and a `#[cfg(test)]`
//! module (nested braces included) are not code; code with a trailing
//! comment and code after the test module are. A bare `pub` item counts
//! toward the API size; `pub(crate)`, `pub(super)`, `pub` fields,
//! commented-out items and test-module items do not. The `unsafe` row sums
//! the inventory's `path count` lines and skips its comments. An `options`
//! row counts the bare `pub` fields of `RunOptions`, `JobOptions` and
//! `ServerConfig`, and nothing of a struct whose name only starts like one,
//! of a field that is `pub(crate)`, private or commented out, or of a tree
//! without the struct.

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

/// An `unsafe` inventory in the baseline's format: 7 + 4 = 11.
const INVENTORY: &str = "# nob-lint unsafe inventory baseline (rule NL004).
# crates/machine/src/ignored.rs 100
crates/machine/src/mailbox.rs 7
crates/machine/src/shard.rs 4
";

/// A tree whose `crates/{core,machine,algos}/src` hold the given files,
/// plus [`INVENTORY`].
fn sandbox(case: &str, files: [(&str, &str); 3]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("loc").join(case);
    let _ = fs::remove_dir_all(&root);
    for (krate, text) in files {
        let src = root.join("crates").join(krate).join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(src.join("lib.rs"), text).unwrap();
    }
    let lint = root.join("crates").join("lint");
    fs::create_dir_all(&lint).unwrap();
    fs::write(lint.join("unsafe_inventory.txt"), INVENTORY).unwrap();
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
        vec!["unsafe", "11"],
        vec!["options", "RunOptions", "0"],
        vec!["options", "JobOptions", "0"],
        vec!["options", "ServerConfig", "0"],
    ];
    assert_eq!(rows, want, "rows of the fixture tree");
}

/// Configuration structs with every kind of field line the option count
/// must tell apart; the trailing notes say which ones count.
const OPTIONS: &str = r#"/// Engine options.
pub struct RunOptions {
    /// A documented field.
    pub parallel: bool, // counts
    pub(crate) hidden: u32,
    private: u8,
    // pub commented: u8,
    pub workers: Option<usize>, // counts
}

pub struct JobOptions {
    pub validate: bool, // counts
}

/// Starts like `ServerConfig`, is not it.
pub struct ServerConfigBuilder {
    pub n_shards: usize,
}

struct Other {
    pub width: u32,
}
"#;

#[test]
fn counts_public_option_fields() {
    let root = sandbox("options", [("core", ""), ("machine", OPTIONS), ("algos", "")]);
    let rows: Vec<Vec<String>> = loc(&root).into_iter().filter(|row| row[0] == "options").collect();
    let want: Vec<Vec<&str>> = vec![
        vec!["options", "RunOptions", "2"],
        vec!["options", "JobOptions", "1"],
        vec!["options", "ServerConfig", "0"],
    ];
    assert_eq!(rows, want, "option rows of the fixture tree");
}
