//! # nob-bench — paper-experiment regenerators
//!
//! One `exp_*` binary per paper result (each binary's module docs name the
//! theorem or figure it regenerates); each prints its measured-vs-theory
//! tables to stdout. This library holds the shared workload generators and
//! the table printer. Performance is not measured here: the repo benchmark
//! is the stand-alone `benchmark/` crate, and its exact per-layer counts are
//! gated by `scripts/exact_gate.sh`.

#![forbid(unsafe_code)]

use nob_algos::fft::Complex;
use nob_algos::mm::MmInput;
use nob_algos::semiring::{Matrix, WrapU64};

/// Deterministic xorshift stream for workload generation.
pub fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random integer n-MM instance (side √n).
pub fn random_mm(n: usize, seed: u64) -> MmInput<WrapU64> {
    let s = (n as f64).sqrt() as usize;
    assert_eq!(s * s, n);
    let mut rng = xorshift(seed);
    let a = Matrix::from_fn(s, |_, _| WrapU64(rng() % 1000));
    let b = Matrix::from_fn(s, |_, _| WrapU64(rng() % 1000));
    MmInput::new(a, b)
}

/// A deterministic multi-tone test signal.
pub fn test_signal(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|t| {
            let th = 2.0 * std::f64::consts::PI * t as f64 / n as f64;
            Complex::new((3.0 * th).cos() + 0.5 * (17.0 * th).cos(), 0.25 * (5.0 * th).sin())
        })
        .collect()
}

/// Random sort keys.
pub fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = xorshift(seed);
    (0..n).map(|_| rng()).collect()
}

/// Random stencil input row.
pub fn stencil_input(n: usize) -> Vec<u64> {
    (0..n as u64).map(|x| x.wrapping_mul(0x9e37_79b9) % 1009).collect()
}

/// Markdown table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
        self
    }

    /// Prints the table in GitHub-flavoured markdown.
    pub fn print(&self, title: &str) {
        println!("\n### {title}\n");
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows.iter().map(|r| r[i].len()).chain([h.len()]).max().unwrap_or(4)
            })
            .collect();
        let line = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", body.join(" | "));
        };
        line(&self.headers);
        println!(
            "|{}|",
            widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
        );
        for r in &self.rows {
            line(r);
        }
    }
}

/// Formats a float compactly for table cells.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.2}")
    }
}
