//! Packed-vs-naive kernel benchmarks: each group times a layer's naive
//! `forward_reference` against its packed `forward_batch_packed` path
//! at batch 1 (with a reused scratch pad, the steady-state regime),
//! plus the three benchmark models' full forwards, where the fast side
//! is a batch-1 `forward_batch_scratch` on a held pack.
//!
//! For the machine-readable speedup report see the `bench_kernels`
//! binary, which emits `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::ops::{Conv2d, Linear, Lstm, MultiHeadAttention};
use lighttrader::dnn::{Model, Prediction, ScratchPad, Tensor};

fn bench_conv2d(c: &mut Criterion) {
    // DeepLOB-trunk-shaped: temporal k=4 over a 16-channel map.
    let conv = Conv2d::new(16, 16, (4, 1), (1, 1), (0, 0), 1);
    let packed = conv.pack();
    let x = Tensor::random(&[16, 64, 10], 1.0, 2);
    let mut out = vec![0.0f32; conv.forward_reference(&x).len()];
    let mut g = c.benchmark_group("kernels/conv2d");
    g.bench_function("naive", |b| b.iter(|| conv.forward_reference(&x)));
    let mut pad = ScratchPad::new();
    g.bench_function("fast", |b| {
        b.iter(|| conv.forward_batch_packed(x.data(), 1, 64, 10, &packed, 1, &mut pad, &mut out))
    });
    g.finish();
}

fn bench_linear(c: &mut Criterion) {
    let layer = Linear::new(256, 128, 1);
    let packed = layer.pack();
    let x = Tensor::random(&[256], 1.0, 2);
    let mut out = vec![0.0f32; 128];
    let mut g = c.benchmark_group("kernels/linear");
    g.bench_function("naive", |b| b.iter(|| layer.forward_reference(&x)));
    g.bench_function("fast", |b| {
        b.iter(|| layer.forward_batch_packed(x.data(), 1, &packed, &mut out))
    });
    g.finish();
}

fn bench_lstm(c: &mut Criterion) {
    let lstm = Lstm::new(48, 64, 1);
    let (wx, wh) = (lstm.pack_wx(), lstm.pack_wh());
    let x = Tensor::random(&[16, 48], 1.0, 2);
    let mut out = vec![0.0f32; 64];
    let mut g = c.benchmark_group("kernels/lstm");
    g.bench_function("naive", |b| b.iter(|| lstm.forward_reference(&x)));
    let mut pad = ScratchPad::new();
    g.bench_function("fast", |b| {
        b.iter(|| lstm.last_hidden_batch_packed(x.data(), 1, 16, &wx, &wh, &mut pad, &mut out))
    });
    g.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mha = MultiHeadAttention::new(64, 4, 1);
    let packed = mha.pack();
    let x = Tensor::random(&[32, 64], 1.0, 2);
    let mut out = vec![0.0f32; x.len()];
    let mut g = c.benchmark_group("kernels/attention");
    g.bench_function("naive", |b| b.iter(|| mha.forward_reference(&x)));
    let mut pad = ScratchPad::new();
    g.bench_function("fast", |b| {
        b.iter(|| {
            mha.forward_batch_packed(x.data(), 1, 32, packed.each_ref(), 1, &mut pad, &mut out)
        })
    });
    g.finish();
}

/// One model group: the naive reference against a batch-1 packed
/// forward on a held pack and pad.
fn bench_model(
    c: &mut Criterion,
    name: &str,
    model: &dyn Model,
    reference: impl Fn(&Tensor) -> Prediction,
    x: &Tensor,
) {
    let packed = model.pack_weights();
    let mut g = c.benchmark_group(format!("models/{name}"));
    g.bench_function("naive", |b| b.iter(|| reference(x)));
    let mut pad = ScratchPad::new();
    let mut out = Vec::with_capacity(1);
    g.bench_function("fast", |b| {
        b.iter(|| model.forward_batch_scratch(std::slice::from_ref(x), &packed, &mut pad, &mut out))
    });
    g.finish();
}

fn bench_models(c: &mut Criterion) {
    let vanilla = CnnSpec::tiny().build(3);
    let deeplob = DeepLobSpec::tiny().build(3);
    let translob = TransLobSpec::tiny().build(3);
    let x20 = Tensor::random(&[20, 40], 1.0, 5);
    let x24 = Tensor::random(&[24, 40], 1.0, 5);
    let x16 = Tensor::random(&[16, 40], 1.0, 5);
    bench_model(
        c,
        "vanilla_cnn",
        &vanilla,
        |x| vanilla.forward_reference(x),
        &x20,
    );
    bench_model(
        c,
        "deeplob",
        &deeplob,
        |x| deeplob.forward_reference(x),
        &x24,
    );
    bench_model(
        c,
        "translob",
        &translob,
        |x| translob.forward_reference(x),
        &x16,
    );
}

criterion_group!(
    kernels,
    bench_conv2d,
    bench_linear,
    bench_lstm,
    bench_attention,
    bench_models
);
criterion_main!(kernels);
