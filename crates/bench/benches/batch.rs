//! Batched-inference benchmarks: for each benchmark model and batch
//! size, the packed batched forward (`forward_batch_scratch` over
//! prepacked weight panels) against looping the naive
//! `forward_reference` per query. Both paths are bit-identical per
//! sample (pinned by `lt-dnn/tests/batch_equivalence.rs`), so the delta
//! is pure throughput.
//!
//! For the machine-readable speedup report with the enforced DeepLOB
//! batch-16 floor see the `bench_batch` binary, which emits
//! `BENCH_batch.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::{Model, Prediction, ScratchPad, Tensor};

fn sweep(
    c: &mut Criterion,
    name: &str,
    model: &dyn Model,
    reference: impl Fn(&Tensor) -> Prediction,
) {
    let packed = model.pack_weights();
    let mut g = c.benchmark_group(format!("batch/{name}"));
    for batch in [1usize, 4, 16] {
        let inputs: Vec<Tensor> = (0..batch)
            .map(|i| Tensor::random(&[model.window(), model.features()], 1.0, 90 + i as u64))
            .collect();
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_with_input(BenchmarkId::new("looped", batch), &inputs, |b, inputs| {
            b.iter(|| inputs.iter().map(&reference).collect::<Vec<_>>())
        });
        let mut pad = ScratchPad::new();
        let mut out: Vec<Prediction> = Vec::new();
        g.bench_with_input(BenchmarkId::new("batched", batch), &inputs, |b, inputs| {
            b.iter(|| model.forward_batch_scratch(inputs, &packed, &mut pad, &mut out))
        });
    }
    g.finish();
}

fn bench_batch_models(c: &mut Criterion) {
    let vanilla = CnnSpec::tiny().build(3);
    sweep(c, "vanilla_cnn", &vanilla, |x| vanilla.forward_reference(x));
    let deeplob = DeepLobSpec::tiny().build(3);
    sweep(c, "deeplob", &deeplob, |x| deeplob.forward_reference(x));
    let translob = TransLobSpec::tiny().build(3);
    sweep(c, "translob", &translob, |x| translob.forward_reference(x));
}

criterion_group!(batch, bench_batch_models);
criterion_main!(batch);
