//! `backtest_storm_grid`: the back-test farm over a sweep grid.
//!
//! `FarmRunner`, with a fresh `TraceCache` each time, runs a grid on
//! burst-storm traffic crossing all three models, {1, 4, 16}
//! accelerators, both power conditions, every fixed policy plus
//! `DeadlineTiered` (450 µs budget), {1, 4} symbols and four session
//! seeds, with realistic execution; serial passes replay the same cells
//! one by one. The simulator, the schedulers, the execution layer and
//! the farm pool do all the work; no real DNN runs.

use crate::speed::Reference;
use crate::stats::{percentile, Spread};
use crate::trace::{self, Layer, Off, Spans, Tracer};
use crate::{nproc, timed_setup, Args, Outcome};
use lighttrader::accel::PowerCondition;
use lighttrader::dnn::ModelKind;
use lighttrader::feed::{SessionArtifact, TraceCache};
use lighttrader::sched::Policy;
use lighttrader::sim::farm::{CellSummary, FarmCell, FarmResults, GridDeadline};
use lighttrader::sim::{
    run_lighttrader, run_multi_merged, traffic, BacktestMetrics, ExecutionConfig, FarmRunner,
    SweepGrid,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated seconds per session.
const SESSION_SECS: f64 = 2.0;
/// Session seeds per grid. Four short sessions rather than two of 4 s:
/// the p99 over cells is set by a handful of cells, and with two sessions
/// it moved with the seed (IQR over median 0.19 across five seeds, 0.06
/// with four sessions).
const SESSION_SEEDS: u64 = 4;
/// Reference calls timed before each cell of a serial pass.
const CELL_REFERENCE_CALLS: usize = 3;
/// Cells on each side of a cell whose reference timings make up its
/// factor. A cell takes about 6 ms.
const AROUND: usize = 4;

fn grid(seed: u64) -> SweepGrid {
    let base = seed.wrapping_mul(SESSION_SEEDS);
    SweepGrid::evaluation(SESSION_SECS)
        .traffic(
            traffic::evaluation_hawkes(),
            Some(traffic::burst_storm_flash()),
        )
        .models(ModelKind::ALL)
        .accel_counts([1, 4, 16])
        .conditions([PowerCondition::Sufficient, PowerCondition::Limited])
        .policies(Policy::ALL.into_iter().chain([Policy::DeadlineTiered]))
        .tier_budget(Some(Duration::from_micros(450)))
        .symbols([(1, 0.0), (4, 1.0)])
        .seeds((0..SESSION_SEEDS).map(|s| base.wrapping_add(s)))
        .deadline(GridDeadline::Scheduling)
        .execution(ExecutionConfig::realistic())
}

/// Builds every distinct session of `cells` into a fresh cache, one
/// `feed` span each.
fn build_sessions<T: Tracer>(t: &mut T, cells: &[FarmCell]) -> TraceCache {
    let cache = TraceCache::new();
    for cell in cells {
        if cache.get(&cell.spec).is_none() {
            t.request(cell.index as u64);
            t.span(Layer::Feed, || cache.get_or_build(&cell.spec));
        }
    }
    cache
}

/// Replays one cell the way the farm does: single-symbol sessions
/// through `run_lighttrader`, multi-symbol ones through the sharded
/// engine on the precomputed merge.
fn run_cell(cell: &FarmCell, artifact: &SessionArtifact) -> BacktestMetrics {
    match artifact {
        SessionArtifact::Single(session) => run_lighttrader(&session.trace, &cell.config),
        SessionArtifact::Multi {
            session,
            merged,
            shards,
        } => run_multi_merged(session, merged, shards, &cell.config).aggregate,
    }
}

/// One serial pass over every cell: the cell's summary, its wall ns and
/// the host-speed factor (1 without `reference`). The reference is timed
/// between cells; a cell's factor is the median of the timings from
/// [`AROUND`] cells before it to [`AROUND`] cells after it, so it follows
/// the host over some 50 ms on both sides of the cell.
fn serial<T: Tracer>(
    t: &mut T,
    cells: &[FarmCell],
    cache: &TraceCache,
    mut reference: Option<&mut Reference>,
) -> Vec<(CellSummary, f64, f64)> {
    let mut timed = Vec::with_capacity(cells.len() + 1);
    let mut factors = Vec::with_capacity(cells.len() + 1);
    let mut time_reference = |factors: &mut Vec<f64>| {
        if let Some(r) = reference.as_deref_mut() {
            factors.push(r.factor(CELL_REFERENCE_CALLS));
        }
    };
    for cell in cells {
        let artifact = cache.get_or_build(&cell.spec);
        time_reference(&mut factors);
        t.request(cell.index as u64);
        let start = Instant::now();
        let metrics = t.span(Layer::Sim, || run_cell(cell, &artifact));
        let ns = start.elapsed().as_nanos() as f64;
        timed.push((CellSummary::from_metrics(&metrics), ns));
    }
    time_reference(&mut factors);
    timed
        .into_iter()
        .enumerate()
        .map(|(i, (summary, ns))| (summary, ns, factor_of_cell(&factors, i)))
        .collect()
}

/// Cell `i`'s factor from the reference timings taken between cells
/// (`factors[i]` just before it, `factors[i + 1]` just after): the median
/// of those from [`AROUND`] cells before it to [`AROUND`] after it, or 1
/// with no timings.
fn factor_of_cell(factors: &[f64], i: usize) -> f64 {
    if factors.is_empty() {
        return 1.0;
    }
    let to = (i + AROUND + 2).min(factors.len());
    Spread::of(&factors[i.saturating_sub(AROUND)..to]).median
}

fn policy_metric(policy: Policy) -> &'static str {
    match policy {
        Policy::Baseline => "sim.ns_per_tick.baseline",
        Policy::WorkloadScheduling => "sim.ns_per_tick.ws",
        Policy::DvfsScheduling => "sim.ns_per_tick.ds",
        Policy::Both => "sim.ns_per_tick.ws_ds",
        Policy::DeadlineTiered => "sim.ns_per_tick.tiered",
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    let mut setup_spans = Spans::new();
    let (grid, cells, cache) = timed_setup(&mut out, || {
        let grid = grid(args.seed);
        let cells = grid.expand();
        setup_spans.spans.clear();
        let cache = if args.trace {
            build_sessions(&mut setup_spans, &cells)
        } else {
            build_sessions(&mut Off, &cells)
        };
        (grid, cells, cache)
    });
    let ticks: Vec<usize> = cells
        .iter()
        .map(|c| cache.get_or_build(&c.spec).trace().len())
        .collect();
    let grid_ticks: usize = ticks.iter().sum();

    // Farm runs, each with a fresh trace cache, take turns with serial
    // passes over the prebuilt sessions until the run's time is up.
    //
    // A serial pass times the reference kernel between cells and rescales
    // each cell's time to the nominal speed by the timings around it; a
    // cell's latency is its median time per simulated tick over the
    // passes. Burst-storm
    // sessions of one length vary widely in tick count from seed to seed,
    // and the cost of each tick is what the code under test decides.
    //
    // The throughput is that of the passes too: simulated ticks per
    // second of rescaled simulation time over the whole grid, the median
    // pass. The farm runs' wall-clock throughput goes to the method line
    // and `farm.parallel_efficiency`: the farm spreads over both cores,
    // which swing in speed independently of each other, and neither the
    // passes' reference timings nor the kernel timed on every core around
    // a farm run tracked it (across runs it spread 0.15–0.31, IQR over
    // median, rescaled or not).
    let budget = Duration::from_secs_f64(args.seconds as f64);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut farm: Option<FarmResults> = None;
    let mut failed_cells = 0usize;
    let mut stable_json = true;
    let mut passes = Vec::new();
    let mut pass_factor = Vec::new();
    let mut reference = Reference::default();
    while walls.len() < 3 || started.elapsed() < budget {
        let runner = FarmRunner::new()
            .workers(workers)
            .cache(Arc::new(TraceCache::new()));
        let start = Instant::now();
        let result = runner.try_run(&grid);
        walls.push(start.elapsed().as_secs_f64());
        match result {
            Ok(results) => {
                if let Some(first) = &farm {
                    stable_json &= first.to_grid_json() == results.to_grid_json();
                }
                farm.get_or_insert(results);
            }
            Err(failures) => {
                eprintln!("{failures}");
                failed_cells = failed_cells.max(failures.failures.len());
            }
        }
        let pass = serial(&mut Off, &cells, &cache, Some(&mut reference));
        let factors: Vec<f64> = pass.iter().map(|c| c.2).collect();
        pass_factor.push(Spread::of(&factors).median);
        passes.push(pass);
    }
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| grid_ticks as f64 / (p.iter().map(|c| c.1 * c.2).sum::<f64>() / 1e9))
        .collect();
    out.spread("throughput_ticks_per_s", Spread::of(&throughput));
    let farm_throughput: Vec<f64> = walls.iter().map(|w| grid_ticks as f64 / w).collect();
    out.spreads
        .insert("farm_throughput_ticks_per_s", Spread::of(&farm_throughput));
    out.spreads.insert("speed_factor", Spread::of(&pass_factor));
    let farm_wall = Spread::of(&walls).median;

    let mut cell_us: Vec<f64> = (0..cells.len())
        .map(|i| {
            let ns: Vec<f64> = passes.iter().map(|p| p[i].1 * p[i].2).collect();
            Spread::of(&ns).median / 1e3 / ticks[i] as f64
        })
        .collect();
    let p50 = percentile(&mut cell_us, 0.50).expect("a grid has cells");
    let p99 = percentile(&mut cell_us, 0.99).expect("a grid has cells");
    out.metrics.insert("latency_p50_us", p50.value);
    out.metrics.insert("latency_p99_us", p99.value);
    let untraced_pass_ns: f64 = passes[0].iter().map(|(_, ns, _)| ns).sum();

    out.check("every cell ran", failed_cells == 0 && farm.is_some());
    out.check("farm runs render byte-identical grid JSON", stable_json);
    let summaries: Vec<CellSummary> = passes[0].iter().map(|(s, _, _)| *s).collect();
    if let Some(farm) = &farm {
        let same = (0..farm.len()).all(|i| farm.summary(i) == summaries[i]);
        out.check(
            "farm grid equals the serial run cell for cell",
            farm.len() == cells.len() && same,
        );
    }
    let (responded, total) = summaries
        .iter()
        .fold((0u64, 0u64), |(r, t), s| (r + s.responded, t + s.total()));
    out.metrics
        .insert("deadline_hit_rate", responded as f64 / total.max(1) as f64);
    out.metrics.insert(
        "sim.execution.fills",
        summaries.iter().map(|s| s.filled).sum::<u64>() as f64,
    );
    out.metrics.insert("farm.cells_failed", failed_cells as f64);
    out.attempted = cells.len() as u64;
    out.failed = failed_cells as u64;
    out.metrics
        .insert("error_rate", out.failed as f64 / out.attempted as f64);
    out.method.insert(
        "runs",
        format!(
            "{} farm runs, {} serial passes, {} cells, {grid_ticks} ticks",
            walls.len(),
            passes.len(),
            cells.len()
        ),
    );
    out.method.insert("farm_workers", workers.to_string());
    let raw_us: Vec<f64> = passes[0]
        .iter()
        .zip(&ticks)
        .map(|((_, ns, _), &t)| ns / 1e3 / t as f64)
        .collect();
    out.method.insert(
        "wall",
        format!(
            "latency_p50_us_first_pass {:.4}, farm_throughput_ticks_per_s {:.1}",
            Spread::of(&raw_us).median,
            grid_ticks as f64 / farm_wall
        ),
    );
    out.method.insert("samples", p50.n.to_string());

    if args.trace {
        let mut spans = Spans::new();
        let start = Instant::now();
        let traced = serial(&mut spans, &cells, &cache, None);
        let traced_ns = start.elapsed().as_nanos() as f64;
        out.check(
            "traced serial run equals the farm grid",
            traced
                .iter()
                .map(|(s, _, _)| *s)
                .eq(summaries.iter().copied()),
        );
        let m = &mut out.metrics;
        m.insert("sim.cell_ms_p50", spans.pct_ns(Layer::Sim, 0.50) / 1e6);
        m.insert("sim.cell_ms_p99", spans.pct_ns(Layer::Sim, 0.99) / 1e6);
        let build_ms: Vec<f64> = setup_spans
            .self_ns(Layer::Feed)
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        m.insert("feed.session_build_ms", Spread::of(&build_ms).median);
        let sim_ns = spans.self_ns(Layer::Sim);
        for policy in Policy::ALL.into_iter().chain([Policy::DeadlineTiered]) {
            let pick = |c: &FarmCell| c.config.symbols == 1 && c.config.policy == policy;
            m.insert(
                policy_metric(policy),
                ns_per_tick(&cells, &ticks, &sim_ns, pick),
            );
        }
        let multi = ns_per_tick(&cells, &ticks, &sim_ns, |c| c.config.symbols > 1);
        m.insert("sim.ns_per_tick.multi", multi);
        let serial_work: f64 = build_ms.iter().sum::<f64>() * 1e6 + sim_ns.iter().sum::<f64>();
        m.insert(
            "farm.parallel_efficiency",
            serial_work / 1e9 / (workers as f64 * farm_wall),
        );
        trace::reconcile(
            &mut out,
            &spans,
            traced_ns,
            untraced_pass_ns,
            grid_ticks as u64,
        );
        spans.spans.extend(setup_spans.spans);
        out.spans = Some(spans);
    }
    out
}

/// Wall ns per simulated tick over the cells `pick` selects.
fn ns_per_tick(
    cells: &[FarmCell],
    ticks: &[usize],
    sim_ns: &[f64],
    pick: impl Fn(&FarmCell) -> bool,
) -> f64 {
    let (ns, n) = cells
        .iter()
        .zip(ticks)
        .zip(sim_ns)
        .filter(|((c, _), _)| pick(c))
        .fold((0.0, 0usize), |(ns, n), ((_, &t), &s)| (ns + s, n + t));
    ns / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_takes_the_median_factor_of_the_timings_around_it() {
        // Timings between 12 cells: the host slows to half speed after
        // cell 5, and one timing before cell 2 is an outlier.
        let mut factors = vec![1.0; 6];
        factors.extend([0.5; 7]);
        factors[2] = 9.0;
        // Cell 0 sees timings 0..=5; the outlier is outvoted.
        assert_eq!(factor_of_cell(&factors, 0), 1.0);
        // Cell 11 sees timings 7..=12, all after the change.
        assert_eq!(factor_of_cell(&factors, 11), 0.5);
        // Cell 5 sees timings 1..=10: five before the change, five after.
        assert_eq!(factor_of_cell(&factors, 5), 0.75);
        // A pass timed without the reference keeps its wall time.
        assert_eq!(factor_of_cell(&[], 3), 1.0);
    }
}
