//! The end-to-end benchmark binary: system allocator, telemetry disarmed.
//! `--trace 1` hands over to the sibling `bench_traced` binary.

fn main() -> std::process::ExitCode {
    nob_benchmark::cli::main(false)
}
