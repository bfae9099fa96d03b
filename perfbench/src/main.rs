//! The LightTrader benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics of an untraced run; `--trace 1` adds a traced run
//! and reports the per-layer metrics. Every output check runs in both
//! modes; a failed check makes the run exit with code 1. See README.md
//! for the workloads, the metrics and the method.

mod grid;
mod multi;
mod replay;
mod single;
mod speed;
mod stats;
mod trace;

use stats::Spread;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Weight seed of the served models. A deployed model is fixed; only the
/// market data follows `--seed`.
pub const MODEL_SEED: u64 = 7;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("deadline_hit_rate", "ratio"),
    ("throughput_ticks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics. A layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("pipeline.parser.ingest_ns_p50", "ns"),
    ("pipeline.parser.ingest_ns_p99", "ns"),
    ("pipeline.parser.rejected", "count"),
    ("pipeline.local_book.apply_ns_p50", "ns"),
    ("pipeline.offload.stage_ns_p50", "ns"),
    ("pipeline.multi_offload.stage_ns_p50", "ns"),
    ("dnn.forward_ns_p50", "ns"),
    ("dnn.forward_ns_p99", "ns"),
    ("dnn.forward_batch_ns_per_query_p50", "ns"),
    ("dnn.batch_size_mean", "count"),
    ("dnn.batched_query_share", "ratio"),
    ("pipeline.trading.decide_ns_p50", "ns"),
    ("pipeline.trading.orders_per_inference", "ratio"),
    ("protocol.ilink.encode_ns_p50", "ns"),
    ("replay.queue_wait_us_p50", "us"),
    ("replay.queue_wait_us_p99", "us"),
    ("replay.busy_frac", "ratio"),
    ("feed.session_build_ms", "ms"),
    ("sim.cell_ms_p50", "ms"),
    ("sim.cell_ms_p99", "ms"),
    ("sim.ns_per_tick.baseline", "ns"),
    ("sim.ns_per_tick.ws", "ns"),
    ("sim.ns_per_tick.ds", "ns"),
    ("sim.ns_per_tick.ws_ds", "ns"),
    ("sim.ns_per_tick.tiered", "ns"),
    ("sim.ns_per_tick.multi", "ns"),
    ("sim.execution.fills", "count"),
    ("farm.parallel_efficiency", "ratio"),
    ("farm.cells_failed", "count"),
    ("trace.reconcile_share", "ratio"),
    ("trace.overhead_ns_per_tick", "ns"),
    ("pipeline.parser.self_share", "ratio"),
    ("pipeline.local_book.self_share", "ratio"),
    ("pipeline.offload.self_share", "ratio"),
    ("pipeline.multi_offload.self_share", "ratio"),
    ("dnn.forward.self_share", "ratio"),
    ("dnn.forward_batch.self_share", "ratio"),
    ("pipeline.trading.self_share", "ratio"),
    ("protocol.ilink.self_share", "ratio"),
    ("feed.self_share", "ratio"),
    ("sim.self_share", "ratio"),
    ("error_rate", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Units of work attempted (post-warm-up ticks, or grid cells).
    pub attempted: u64,
    /// Units that failed: parser rejects, offload drops, undecided
    /// ticks, failed cells.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median and quartiles over the run's windows, per metric.
    pub spreads: BTreeMap<&'static str, Spread>,
    /// Every output check, by name, and whether it held.
    pub checks: Vec<(&'static str, bool)>,
    /// Method and host facts recorded with the result.
    pub method: BTreeMap<&'static str, String>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Option<trace::Spans>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool) {
        if !ok {
            eprintln!("output check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Records a window spread and its median as the metric.
    pub fn spread(&mut self, name: &'static str, spread: Spread) {
        self.metrics.insert(name, spread.median);
        self.spreads.insert(name, spread);
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let args = Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs the set-up `f` five times, records `setup_s` as the median time
/// and returns the last result. Set-up is timed several times so one slow
/// build cannot move it, and each time is rescaled to the reference
/// kernel's nominal speed, timed just before and just after it, so a slow
/// spell of the host cannot either. The wall-clock median goes to the
/// method line.
pub fn timed_setup<T>(out: &mut Outcome, mut f: impl FnMut() -> T) -> T {
    let mut reference = speed::Reference::default();
    let (mut secs, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..5 {
        let before = reference.factor(SETUP_REFERENCE_CALLS);
        let start = Instant::now();
        last = Some(f());
        let s = start.elapsed().as_secs_f64();
        let after = reference.factor(SETUP_REFERENCE_CALLS);
        secs.push(s * (before + after) / 2.0);
        wall.push(s);
    }
    out.spread("setup_s", Spread::of(&secs));
    out.method
        .insert("wall_setup_s", format!("{:.6}", Spread::of(&wall).median));
    last.expect("set-up ran")
}

/// Reference calls timed on each side of a set-up.
const SETUP_REFERENCE_CALLS: usize = 25;

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Threads the benchmark may use: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "t2t_single_deeplob" => single::run(&args),
        "t2t_multi8_translob" => multi::run(&args),
        "backtest_storm_grid" => grid::run(&args),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    out.metrics.insert("peak_rss_mb", peak_rss_mb());

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut finite = true;
    for &(name, unit) in catalogue {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        finite &= value.is_finite();
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    out.check("every metric is a finite number", finite);
    let correct = out.checks.iter().all(|c| c.1);

    // The method and host, recorded with every result.
    let mut method = out.method.clone();
    method.insert("workload", args.workload.clone());
    method.insert("seed", args.seed.to_string());
    method.insert("seconds", args.seconds.to_string());
    method.insert("trace", (args.trace as u8).to_string());
    method.insert("commit", command_line("git", &["rev-parse", "HEAD"]));
    method.insert("rustc", env!("PERFBENCH_RUSTC").to_string());
    method.insert("cpu", cpu_model());
    method.insert("nproc", nproc().to_string());
    let mut record = String::from("{");
    for (k, v) in &method {
        let _ = write!(record, "{}: {}, ", json_str(k), json_str(v));
    }
    record.push_str("\"spreads\": {");
    let spreads: Vec<String> = out
        .spreads
        .iter()
        .map(|(k, s)| {
            format!(
                "{}: {{\"q1\": {}, \"median\": {}, \"q3\": {}, \"windows\": {}}}",
                json_str(k),
                json_num(s.q1),
                json_num(s.median),
                json_num(s.q3),
                s.n
            )
        })
        .collect();
    record.push_str(&spreads.join(", "));
    record.push_str("}, \"checks\": {");
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(k, ok)| format!("{}: {ok}", json_str(k)))
        .collect();
    record.push_str(&checks.join(", "));
    record.push_str("}}");
    println!("method {record}");

    if let Some(spans) = &out.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, spans.to_tsv()));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", file.display());
        }
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the metrics the program reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let named = json.matches("\"name\":").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in [
            "t2t_single_deeplob",
            "t2t_multi8_translob",
            "backtest_storm_grid",
        ] {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        assert_eq!(named, END_TO_END.len() + PER_LAYER.len() + 3);
    }
}
