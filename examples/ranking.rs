//! Distributed ranking with recursive Columnsort (Section 4.3): sort
//! composite records by key on M(n), one record per virtual processor, and
//! read off each record's rank from its final position.
//!
//! Run with: `cargo run --example ranking`

use network_oblivious::algos::sort::{columnsort_seq, BitonicSort, ColumnSort};
use network_oblivious::core::machines;
use network_oblivious::machine::{execute, RunOptions};

fn main() {
    let n = 4096usize;
    // Records: (score, id) — sorted by score, ties by id.
    let mut rng = {
        let mut state = 0xdead_beefu64;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    };
    let records: Vec<(u64, u64)> = (0..n as u64).map(|id| (rng() % 100_000, id)).collect();

    let (ranked, t_col) = execute(
        &ColumnSort::<(u64, u64)>::default(),
        n,
        &records[..],
        &RunOptions::default(),
    )
    .unwrap();

    // Verify against the sequential reference and std sort.
    let mut seq = records.clone();
    columnsort_seq(&mut seq);
    assert_eq!(ranked, seq);
    let mut want = records.clone();
    want.sort();
    assert_eq!(ranked, want);

    println!("top-5 records (rank, score, id):");
    for (rank, (score, id)) in ranked.iter().take(5).enumerate() {
        println!("  #{rank}: score {score}, id {id}");
    }

    let (_, t_bit) = execute(
        &BitonicSort::<(u64, u64)>::default(),
        n,
        &records[..],
        &RunOptions::default(),
    )
    .unwrap();
    println!("\ncommunication on a 64-node mesh vs the bitonic baseline:");
    let mesh = machines::mesh2d(64);
    println!("  columnsort D = {:.0}", t_col.comm_time(&mesh));
    println!("  bitonic    D = {:.0}", t_bit.comm_time(&mesh));
    println!("(bitonic's constants win at this n; the schedule-level crossover");
    println!(" sits at n = 2^14 — see the `columnsort_bitonic_crossover` test.)");
}
