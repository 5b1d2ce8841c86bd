//! The counting allocator counts what it should: needs its own process
//! (one global allocator per binary), hence an integration test.

use nob_benchmark::alloc_count::{snapshot, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn counts_calls_and_bytes_across_threads() {
    // One test in this binary, so no other test thread allocates meanwhile.
    let (a0, b0) = snapshot();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(100));
    let (a1, b1) = snapshot();
    assert_eq!((a1 - a0, b1 - b0), (1, 800));
    drop(v);
    assert_eq!(snapshot(), (a1, b1), "dealloc is not counted");

    // A worker thread's allocations land in the same counters.
    let before = snapshot().1;
    std::thread::scope(|s| {
        s.spawn(|| drop(std::hint::black_box(vec![0u8; 4096])));
    });
    assert!(snapshot().1 - before >= 4096);
}
