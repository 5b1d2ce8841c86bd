//! Both kinds of run, every phase, at toy size: a 256-point FFT for a
//! fraction of a second. Timings are not asserted — only that every declared
//! metric is reported, the exact counts are right, and the files appear.

use nob_benchmark::drive::end_to_end;
use nob_benchmark::layers::traced;
use nob_benchmark::manifest::{END_TO_END, PER_LAYER};
use nob_benchmark::workloads::{Driver, FftCase};
use std::path::PathBuf;

const DRIVERS: [(&str, Driver); 3] = [
    ("toy_serial", Driver::Direct { workers: 1 }),
    ("toy_sharded", Driver::Direct { workers: 2 }),
    ("toy_served", Driver::Served { shards: 2 }),
];

#[test]
fn end_to_end_run_reports_the_declared_metrics() {
    for (name, driver) in DRIVERS {
        let r = end_to_end(&FftCase { n: 256, driver }, 7, 0.3);
        assert!(r.correct, "{name}: {:?}", r.error);
        assert!(r.attempted > 0 && r.failed == 0, "{name}");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0), "{name}");
        assert!(
            r.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{name}: {:?}",
            r.metrics
        );
    }
}

#[test]
fn traced_run_reports_every_layer_and_writes_its_files() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for (name, driver) in DRIVERS {
        let r = traced(&FftCase { n: 256, driver }, name, 7, 0.5, &out);
        assert!(r.correct, "{name}: {:?}", r.error);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0), "{name}");
        assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        let get = |metric: &str| r.metrics.iter().find(|m| m.name == metric).expect(metric).value;

        // Exact counts of a 256-point binary-exchange FFT: 8 butterfly
        // rounds of 256 messages, plus the finalising superstep.
        assert_eq!(get("metrics.msgs_per_job"), 2048.0, "{name}");
        assert_eq!(get("metrics.supersteps_per_job"), 9.0, "{name}");
        assert_eq!(get("program.steps"), 9.0, "{name}");
        assert_eq!(get("plan.planned_steps"), 9.0, "{name}");
        assert_eq!(get("mailbox.allocs_job_spread"), 0.0, "{name}");
        match driver {
            Driver::Direct { workers: 1 } => {
                assert_eq!(get("shard.rounds_per_job"), 0.0, "{name}");
                assert!(get("engine.serial_planned_frac") > 0.0, "{name}");
            }
            Driver::Direct { .. } => {
                assert!(get("shard.rounds_per_job") >= 1.0, "{name}");
                assert!(get("shard.span_coverage_frac") > 0.0, "{name}");
                assert_eq!(get("server.new_us"), 0.0, "{name}");
            }
            Driver::Served { .. } => {
                assert!(get("shard.rounds_per_job") >= 1.0, "{name}");
                assert_eq!(get("server.cache_hit_frac"), 1.0, "{name}");
                assert_eq!(get("server.pool_reuse_frac"), 1.0, "{name}");
                assert!(get("server.cold_job_us") > 0.0 && get("server.new_us") > 0.0, "{name}");
            }
        }

        let layers =
            std::fs::read_to_string(out.join(name).join("layers.json")).expect("layers.json");
        assert!(layers.contains("\"schema\":\"nob-benchmark-layers-v1\""));
        assert!(layers.contains("\"drive.job_p50_us\""));
        assert!(layers.contains("\"schema\":\"nob-telemetry-v1\""));
        let trace = std::fs::read_to_string(out.join(name).join("trace.json")).expect("trace.json");
        for span in ["\"setup\"", "\"init\"", "\"first_job\"", "\"job\"", "\"fold\"", "\"eval\""] {
            assert!(trace.contains(span), "{name}: no {span} span");
        }
        let job_children =
            if matches!(driver, Driver::Served { .. }) { "\"wait\"" } else { "\"run\"" };
        assert!(trace.contains(job_children), "{name}: no {job_children} span");
    }
}
