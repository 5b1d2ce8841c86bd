//! The traced-run binary: same command line as `bench`, with the counting
//! allocator installed so per-job allocation counts can be read.

use nob_benchmark::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    nob_benchmark::cli::main(true)
}
