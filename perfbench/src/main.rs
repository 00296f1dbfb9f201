//! End-to-end pipeline benchmark for the selective-deletion ledger.
//!
//! ```text
//! perfbench --workload <ingest|erase|audit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a leader and a replica ledger on `FileStore` under
//! `.bench_build/perfbench-stores/` in the working directory, brings them
//! to steady state, runs one closed-loop client for `--seconds` of op time,
//! checks the results, and prints one JSON object
//! as the last line of standard output. See `README.md` next to this
//! crate for the workloads and metrics.

mod pipeline;
mod report;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use report::{median, percentile, Json};
use trace::Tracer;
use workload::{Outcome, Shape, Slot};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Removes the run's store directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A full run: `setups` set-ups (the last one is kept), the timed phase
/// (`seconds` of op time, or exactly `ops` ops when given) and the checks.
pub fn run_workload(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    ops: Option<u64>,
    traced: bool,
    setups: usize,
    root: &Path,
) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::default();
    let mut setup_s = Vec::new();
    let mut runner = None;
    for round in 0..setups {
        drop(runner.take());
        let dir = root.join(format!("setup-{round}"));
        if round > 0 {
            let _ = std::fs::remove_dir_all(root.join(format!("setup-{}", round - 1)));
        }
        tracer.set_on(traced);
        let t0 = Instant::now();
        runner = Some(workload::setup(shape, seed, &dir, &mut tracer)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        tracer.set_on(false);
    }
    tracer.keep_only("crypto.");
    let runner = runner.ok_or("at least one set-up")?;
    let mut outcome = runner.run(seconds, ops, traced, &mut tracer)?;
    outcome.setup_s = setup_s;
    Ok((outcome, tracer))
}

fn end_to_end(out: &Outcome) -> Json {
    let op_ms: Vec<f64> = out.ops.iter().map(|o| o.ms).collect();
    let erase_ms: Vec<f64> = out.erasures.iter().map(|e| e.0).collect();
    let erase_blocks: Vec<f64> = out.erasures.iter().map(|e| e.1).collect();
    let ops_per_s = op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3);
    let disk_ratio = out.disk_bytes as f64 / out.live_bytes as f64;
    let mut m = Json::default();
    m.metric("setup_s", median(&out.setup_s), "s")
        .metric("ops_per_s", ops_per_s, "1/s")
        .metric("op_ms_p50", percentile(&op_ms, 50.0), "ms")
        .metric("op_ms_p99", percentile(&op_ms, 99.0), "ms")
        .metric("erase_ms_p50", percentile(&erase_ms, 50.0), "ms")
        .metric("erase_ms_p99", percentile(&erase_ms, 99.0), "ms")
        .metric(
            "erase_blocks_p50",
            percentile(&erase_blocks, 50.0),
            "blocks",
        )
        .metric("disk_bytes_per_live_byte", disk_ratio, "ratio")
        .metric("peak_rss_mb", report::peak_rss_mib(), "MiB");
    m
}

fn per_layer(out: &Outcome, tracer: &Tracer) -> Json {
    let mut m = Json::default();
    // (metric, timed call, percentile, ns per unit, unit)
    let timings = [
        ("crypto.sign_us_p50", "crypto.sign", 50.0, 1e3, "us"),
        ("crypto.verify_us_p50", "crypto.verify", 50.0, 1e3, "us"),
        ("ledger.submit_us_p50", "ledger.submit", 50.0, 1e3, "us"),
        ("ledger.submit_us_p99", "ledger.submit", 99.0, 1e3, "us"),
        ("ledger.seal_us_p50", "ledger.seal", 50.0, 1e3, "us"),
        (
            "ledger.sigma_seal_ms_p50",
            "ledger.sigma_seal",
            50.0,
            1e6,
            "ms",
        ),
        (
            "ledger.sigma_seal_ms_p99",
            "ledger.sigma_seal",
            99.0,
            1e6,
            "ms",
        ),
        (
            "ledger.commit_durable_us_p50",
            "ledger.commit_durable",
            50.0,
            1e3,
            "us",
        ),
        ("ledger.apply_us_p50", "ledger.apply", 50.0, 1e3, "us"),
        (
            "ledger.apply_sigma_ms_p50",
            "ledger.apply_sigma",
            50.0,
            1e6,
            "ms",
        ),
        ("chain.locate_us_p50", "chain.locate", 50.0, 1e3, "us"),
        (
            "proof.prove_live_us_p50",
            "proof.prove_live",
            50.0,
            1e3,
            "us",
        ),
        ("proof.verify_us_p50", "proof.verify", 50.0, 1e3, "us"),
        (
            "proof.prove_deleted_ms_p50",
            "proof.prove_deleted",
            50.0,
            1e6,
            "ms",
        ),
    ];
    for (metric, call, p, scale, unit) in timings {
        let value = tracer
            .layers()
            .get(call)
            .map_or(0.0, |l| l.pct_ns(p) / scale);
        m.metric(metric, value, unit);
    }
    m.metric(
        "ledger.sigma_carried_records",
        median(&out.carried),
        "count",
    )
    .metric(
        "ledger.retired_blocks_per_sigma",
        median(&out.retired),
        "blocks",
    )
    .metric(
        "ledger.deletions_executed",
        out.deletions_executed as f64,
        "count",
    )
    .metric(
        "ledger.deletions_ineffective",
        out.deletions_ineffective as f64,
        "count",
    );
    let ops = out.ops.len() as f64;
    let lookups = (out.cache_hits + out.cache_misses) as f64;
    let user_bytes = out.timed_user_bytes as f64;
    m.metric(
        "fstore.cache_hit_ratio",
        out.cache_hits as f64 / lookups.max(1.0),
        "ratio",
    )
    .metric(
        "fstore.page_ins_per_op",
        out.cache_misses as f64 / ops,
        "count",
    )
    .metric(
        "fstore.tail_fsyncs_per_op",
        out.tail_fsyncs as f64 / ops,
        "count",
    )
    .metric(
        "fstore.write_bytes_per_user_byte",
        out.write_chars / user_bytes,
        "ratio",
    )
    .metric("fstore.open_s", out.open_s, "s");

    // Accounting over the traced windows: how much of the op time the
    // timed layer calls explain, and what tracing itself costs.
    let traced: Vec<f64> = out.ops.iter().filter(|o| o.traced).map(|o| o.ms).collect();
    let plain: Vec<f64> = out.ops.iter().filter(|o| !o.traced).map(|o| o.ms).collect();
    let traced_ms: f64 = traced.iter().sum();
    let attributed_ms = tracer.busy_ns_of(&["ledger.", "chain.", "proof."]) as f64 / 1e6;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let unattributed = (traced_ms - attributed_ms) / traced.len().max(1) as f64;
    m.metric("trace.attributed_share", attributed_ms / traced_ms, "ratio")
        .metric("trace.unattributed_ms_per_op", unattributed, "ms")
        .metric(
            "trace.overhead_share",
            mean(&traced) / mean(&plain) - 1.0,
            "ratio",
        );
    m
}

fn info_line(args: &Args, shape: &Shape, out: &Outcome, tracer: &Tracer, root: &Path) -> String {
    let mut params = Json::default();
    params
        .int("authors", workload::AUTHORS as u64)
        .num("zipf_s", workload::ZIPF_S)
        .int("sequence_length", workload::SEQUENCE_LENGTH)
        .int("l_max", shape.l_max)
        .str("ttl_blocks", &format!("{:?}", shape.ttl_blocks))
        .str("data_per_op", &format!("{:?}", shape.data_per_op))
        .str("erasures_per_op", &format!("{:?}", shape.erasures))
        .str("target", &format!("{:?}", shape.target))
        .str("reads_per_op", &format!("{:?}", shape.reads_per_op))
        .int("population_blocks", shape.population_blocks)
        .int("warmup_ops", shape.warmup_ops)
        .int("cache", shape.cache as u64)
        .str("reopen_cache", &format!("{:?}", shape.reopen_cache))
        .int("schedule_len", shape.schedule.len() as u64)
        .num("record_bytes_p50", out.record_bytes);
    let count = |keep: &dyn Fn(&workload::OpSample) -> bool| {
        out.ops.iter().filter(|o| keep(o)).count() as u64
    };
    let mut ops = Json::default();
    ops.int("write", count(&|o| o.slot == Slot::Write))
        .int("read_prove", count(&|o| o.slot == Slot::ReadProve))
        .int("prove_deleted", count(&|o| o.slot == Slot::ProveDeleted))
        .int("sigma", count(&|o| o.sigma))
        .int("drain", out.drain_ops);
    let pair = |a: u64, b: u64| format!("[{a}, {b}]");
    let mut checks = Json::default();
    for (name, ok) in &out.checks {
        checks.raw(name, ok.to_string());
    }
    let mut layers = Json::default();
    for (name, layer) in tracer.layers() {
        let mut l = Json::default();
        l.int("count", layer.samples.len() as u64)
            .num("busy_ms", layer.busy_ns() as f64 / 1e6)
            .num("p50_us", layer.pct_ns(50.0) / 1e3)
            .num("p99_us", layer.pct_ns(99.0) / 1e3)
            .int("failures", layer.failures);
        layers.raw(name, l.render());
    }
    let setups: Vec<String> = out.setup_s.iter().map(|&s| report::json_num(s)).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut info = Json::default();
    info.str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .raw("trace", args.trace.to_string())
        .str("filesystem", &report::filesystem_of(root))
        .int("nproc", nproc as u64)
        .raw("params", params.render())
        .raw("ops", ops.render())
        .int("erasures", out.erasures.len() as u64)
        .raw("setup_s", format!("[{}]", setups.join(", ")))
        .num("client_sign_s", out.client_sign_s)
        .raw("live_records", pair(out.live_start.0, out.live_end.0))
        .raw("live_blocks", pair(out.live_start.1, out.live_end.1))
        .raw("sigma_tombstones", pair(out.live_start.2, out.live_end.2))
        .raw("checks", checks.render())
        .raw("layers", layers.render());
    let mut line = Json::default();
    line.raw("info", info.render());
    line.render()
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if std::env::var_os("SELDEL_TELEMETRY").is_some() {
        eprintln!("perfbench: unset SELDEL_TELEMETRY; the library's own telemetry stays off");
        std::process::exit(2);
    }
    let Some(shape) = Shape::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let cwd = std::env::current_dir().expect("the working directory is readable");
    let root = cwd
        .join(".bench_build")
        .join("perfbench-stores")
        .join(format!(
            "{}-{}-{}",
            shape.name,
            args.seed,
            std::process::id()
        ));
    let _ = std::fs::remove_dir_all(&root);
    let guard = RunDir(root.clone());
    let setups = if args.trace { 1 } else { SETUPS };
    let result = run_workload(
        &shape,
        args.seed,
        args.seconds,
        None,
        args.trace,
        setups,
        &root,
    );
    let (out, tracer) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            drop(guard);
            std::process::exit(1);
        }
    };
    println!("{}", info_line(&args, &shape, &out, &tracer, &root));
    drop(guard);

    let drift = (out.live_end.0 as f64 - out.live_start.0 as f64).abs() / out.live_start.0 as f64;
    let stationary = drift <= workload::STATIONARITY_BOUND;
    let correct = out.failed == 0 && stationary && out.checks.iter().all(|(_, ok)| *ok);
    let metrics = if args.trace {
        per_layer(&out, &tracer)
    } else {
        end_to_end(&out)
    };
    let mut result = Json::default();
    result
        .raw("correct", correct.to_string())
        .int("attempted", out.attempted)
        .int("failed", out.failed)
        .raw("metrics", metrics.render());
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact-count metrics of a run of `ops` ops.
    fn exact_counts(name: &str, seed: u64, ops: u64) -> Vec<String> {
        let shape = Shape::named(name).expect("a known workload");
        let root = std::env::current_dir()
            .expect("the working directory is readable")
            .join(".bench_build")
            .join("perfbench-stores")
            .join(format!("selftest-{name}-{seed}-{}", std::process::id()));
        let _guard = RunDir(root.clone());
        let (out, _) =
            run_workload(&shape, seed, 0.0, Some(ops), false, 1, &root).expect("the run completes");
        assert_eq!(out.failed, 0, "{name}: {:?}", out.checks);
        let n = out.ops.len() as f64;
        let erase_blocks: Vec<f64> = out.erasures.iter().map(|e| e.1).collect();
        vec![
            format!("fsyncs per op {}", out.tail_fsyncs as f64 / n),
            format!(
                "write bytes per user byte {}",
                out.write_chars / out.timed_user_bytes as f64
            ),
            format!("page-ins per op {}", out.cache_misses as f64 / n),
            format!("carried records {:?}", out.carried),
            format!("erase_blocks_p50 {}", percentile(&erase_blocks, 50.0)),
        ]
    }

    /// One test, so no other test writes while `/proc/self/io` is read.
    #[test]
    fn exact_counts_repeat_for_a_seed_and_differ_across_seeds() {
        for (name, ops) in [("ingest", 90), ("erase", 90), ("audit", 500)] {
            let first = exact_counts(name, 7, ops);
            let again = exact_counts(name, 7, ops);
            let other = exact_counts(name, 8, ops);
            eprintln!("{name}: seed 7 {first:?}, seed 8 {other:?}");
            assert_eq!(first, again, "{name}: exact counts repeat for one seed");
            assert_ne!(first, other, "{name}: exact counts depend on the seed");
        }
    }
}
