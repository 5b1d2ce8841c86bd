//! 2D heat diffusion with the (n,2)-stencil octahedron/tetrahedron algorithm
//! (Section 4.4.2) on M(n²): a hot corner spreading across a plate.
//!
//! Run with: `cargo run --example heat_plate`

use network_oblivious::algos::stencil2::{
    stencil2_reference, NaiveStencil2, OctaStencil, Stencil2Op,
};
use network_oblivious::core::machines;
use network_oblivious::machine::{execute, RunOptions};

/// Nine-point averaging rule (missing neighbours drop out at the borders).
#[derive(Debug, Clone, Copy, Default)]
struct Heat2;

impl Stencil2Op for Heat2 {
    type V = f64;
    fn apply(neigh: &[[Option<&f64>; 3]; 3]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0.0;
        for row in neigh {
            for v in row.iter().flatten() {
                sum += **v;
                count += 1.0;
            }
        }
        sum / count
    }
}

fn main() {
    let n = 16usize;
    let input: Vec<f64> = (0..n * n)
        .map(|k| {
            let (x, y) = (k / n, k % n);
            if x < 3 && y < 3 {
                100.0
            } else {
                0.0
            }
        })
        .collect();

    let (plate, t_octa) =
        execute(&OctaStencil::<Heat2>::default(), n, &input[..], &RunOptions::default()).unwrap();
    let reference = stencil2_reference::<Heat2>(&input, n);
    for (a, b) in plate.iter().zip(&reference) {
        assert!((a - b).abs() < 1e-9);
    }
    let (_, t_naive) =
        execute(&NaiveStencil2::<Heat2>::default(), n, &input[..], &RunOptions::default()).unwrap();

    println!("plate after {n} steps (temperature, one char per cell):");
    let max = plate.iter().cloned().fold(1e-12f64, f64::max);
    for x in 0..n {
        let row: String = (0..n)
            .map(|y| {
                let lvl = (plate[x * n + y] / max * 9.0).round() as u32;
                char::from_digit(lvl, 10).unwrap_or('9')
            })
            .collect();
        println!("  {row}");
    }

    println!("\ncosts on machine presets (v = n² = {}):", n * n);
    println!("{:<24} {:>12} {:>12}", "machine", "D_octa", "D_naive");
    for m in machines::standard_suite(16) {
        println!("{:<24} {:>12.0} {:>12.0}", m.name, t_octa.comm_time(&m), t_naive.comm_time(&m));
    }
}
