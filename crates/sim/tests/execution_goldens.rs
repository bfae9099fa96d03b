//! Execution goldens: fills and P&L pinned across commits.
//!
//! The latency goldens (`golden_parity`) pin outcomes and the
//! tick-to-trade stream but not what the orders *traded*; the
//! `execution` suite compares two runs of one build. This file pins the
//! serialized [`ExecutionStats`] (plus the four drop/defer counters) of
//! a burst-storm matrix that exercises every way a query leaves the
//! offload queue — full-queue drops, stale drops, Algorithm 1 defers,
//! deadline-tier sheds, and batches settling out of order across 4 and
//! 16 accelerators — so a change to how orders follow their queries
//! shows up as a byte diff here.
//!
//! Regenerate (only after an *intentional* change to fills or outcome
//! accounting, explained in CHANGES.md):
//!
//! ```text
//! cargo test -p lt-sim --release --test execution_goldens -- --ignored
//! ```

use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_sched::Policy;
use lt_sim::traffic::{burst_storm_trace, multi_evaluation_session, scheduling_deadline_for};
use lt_sim::{
    run_lighttrader, run_multi, BacktestConfig, BacktestMetrics, ExecutionConfig, ExecutionStats,
    FaultRates, IngressFaults, SignalConfig,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Storm seed shared with `bench_fills`.
const STORM_SEED: u64 = 70_823;
/// The tiered scheduler's per-tick budget, capped at the horizon.
const TIER_BUDGET: Duration = Duration::from_micros(450);

fn exec_configs() -> [(&'static str, ExecutionConfig); 3] {
    [
        ("real", ExecutionConfig::realistic()),
        ("assume", ExecutionConfig::assume_fill()),
        ("kill", ExecutionConfig::realistic().with_kill_floor(-3)),
    ]
}

/// The four fixed policies plus the deadline-tiered scheduler.
fn policies(base: BacktestConfig) -> Vec<(&'static str, BacktestConfig)> {
    let mut out: Vec<_> = Policy::ALL
        .iter()
        .map(|&p| (p.label(), base.with_policy(p)))
        .collect();
    out.push((
        "tiered",
        base.with_deadline_tiered(Some(TIER_BUDGET.min(base.t_avail))),
    ));
    out
}

fn exec_json(e: &ExecutionStats) -> String {
    serde_json::to_string(e).expect("execution stats serialize")
}

fn row(out: &mut String, name: &str, m: &BacktestMetrics) {
    let exec = m.execution.expect("trading run reports stats");
    writeln!(
        out,
        "{name} full={} stale={} deadline={} deferred={} exec={}",
        m.dropped_full,
        m.dropped_stale,
        m.dropped_deadline,
        m.deferred,
        exec_json(&exec)
    )
    .unwrap();
}

/// Runs the whole matrix and renders one line per run (and one per
/// symbol of every multi-symbol run).
fn render() -> String {
    let mut out = String::new();
    let trace = burst_storm_trace(3.0, STORM_SEED);
    for kind in ModelKind::ALL {
        for n in [1usize, 4, 16] {
            for condition in [PowerCondition::Sufficient, PowerCondition::Limited] {
                let base = BacktestConfig::new(kind, n, condition)
                    .with_t_avail(scheduling_deadline_for(kind));
                for (policy, cfg) in policies(base) {
                    for (exec_name, exec) in exec_configs() {
                        let m = run_lighttrader(&trace, &cfg.with_execution(exec));
                        let name = format!("storm_{kind:?}_{n}_{condition:?}_{policy}_{exec_name}");
                        row(&mut out, &name, &m);
                    }
                }
            }
        }
    }

    let lossy = IngressFaults {
        feed_a: FaultRates {
            drop: 0.05,
            ..FaultRates::lossless()
        },
        feed_b: FaultRates::lossless(),
        seed: 11,
    };
    let cfg = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Limited)
        .with_policy(Policy::Both)
        .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob))
        .with_faults(lossy)
        .with_execution(ExecutionConfig::realistic());
    row(
        &mut out,
        "storm_feed_a_loss",
        &run_lighttrader(&trace, &cfg),
    );

    for symbols in [2usize, 4, 8] {
        let session = multi_evaluation_session(2.0, 42, symbols, 1.5);
        let base = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Limited)
            .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob))
            .with_symbols(symbols, 1.5);
        let runs = [
            ("baseline", base.with_policy(Policy::Baseline)),
            ("both", base.with_policy(Policy::Both)),
            (
                "tiered",
                base.with_deadline_tiered(Some(TIER_BUDGET.min(base.t_avail))),
            ),
        ];
        for (policy, cfg) in runs {
            // The default window and signal horizon (100 ticks each)
            // leave the Zipf tail symbols untraded; a 10-tick variant
            // makes every shard's orders show up in its own row.
            let mut short =
                cfg.with_execution(ExecutionConfig::realistic().with_signal(SignalConfig {
                    horizon_ticks: 10,
                    ..SignalConfig::default()
                }));
            short.window = 10;
            let variants = exec_configs()
                .map(|(name, exec)| (name, cfg.with_execution(exec)))
                .into_iter()
                .chain([("short", short)]);
            for (exec_name, cfg) in variants {
                let m = run_multi(&session, &cfg);
                let name = format!("multi{symbols}_{policy}_{exec_name}");
                row(&mut out, &name, &m.aggregate);
                for (i, s) in m.per_symbol.iter().enumerate() {
                    let e = s.execution.expect("per-symbol stats present");
                    writeln!(out, "{name}/sym{i} exec={}", exec_json(&e)).unwrap();
                }
            }
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/execution_matrix.golden")
}

#[test]
fn execution_matches_goldens() {
    let want = std::fs::read_to_string(golden_path()).expect("missing execution golden");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "execution golden diverged at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "execution golden row count changed"
    );
}

/// The matrix must actually reach every queue-removal path it claims to
/// pin, or the goldens would guard nothing.
#[test]
fn matrix_covers_every_queue_removal() {
    let want = std::fs::read_to_string(golden_path()).expect("missing execution golden");
    let count = |key: &str| {
        want.lines()
            .filter(|l| {
                l.split(' ')
                    .any(|f| f.starts_with(key) && !f.ends_with("=0") && f.contains('='))
            })
            .count()
    };
    assert!(count("full=") > 0, "no full-queue drops");
    assert!(count("stale=") > 0, "no stale drops");
    assert!(count("deadline=") > 0, "no deadline sheds");
    assert!(count("deferred=") > 0, "no defers");
}

/// Rewrites the golden from the current implementation. Run only when a
/// semantic change is intended; the diff is the review artifact.
#[test]
#[ignore = "regenerates the execution golden from the current implementation"]
fn regenerate_execution_golden() {
    std::fs::write(golden_path(), render()).unwrap();
}
