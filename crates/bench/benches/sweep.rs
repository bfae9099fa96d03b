//! Back-test farm benchmarks: grid expansion and cached vs rebuilt
//! session handling.
//!
//! For the machine-readable throughput report (and the 2x farm-vs-naive
//! speedup floor on a 216-cell grid) see the `bench_sweep` binary,
//! which emits `BENCH_sweep.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use lighttrader::dnn::ModelKind;
use lighttrader::prelude::*;
use lighttrader::sim::farm::GridDeadline;
use std::hint::black_box;

const SECS: f64 = 0.25;

/// A small grid: 24 cells over 2 sessions.
fn grid() -> SweepGrid {
    SweepGrid::evaluation(SECS)
        .models([ModelKind::VanillaCnn, ModelKind::DeepLob])
        .accel_counts([1, 2])
        .policies([Policy::Baseline, Policy::WorkloadScheduling, Policy::Both])
        .deadline(GridDeadline::Scheduling)
        .seeds([7, 8])
}

fn bench_expand(c: &mut Criterion) {
    let g = grid();
    c.bench_function("farm/expand_24_cells", |b| b.iter(|| black_box(g.expand())));
}

fn bench_farm_cached(c: &mut Criterion) {
    let g = grid();
    c.bench_function("farm/run_24_cells_cached", |b| {
        b.iter(|| black_box(FarmRunner::new().run(&g)))
    });
}

fn bench_farm_naive(c: &mut Criterion) {
    let g = grid();
    c.bench_function("farm/run_24_cells_naive_rebuild", |b| {
        b.iter(|| black_box(FarmRunner::new().without_trace_reuse().run(&g)))
    });
}

criterion_group!(benches, bench_expand, bench_farm_cached, bench_farm_naive);
criterion_main!(benches);
