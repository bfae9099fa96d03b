//! Kernel-regression benchmark: times every naive `forward_reference`
//! against its packed counterpart — each op's `forward_batch_packed`
//! and each model's `forward_batch_scratch`, all at batch 1 — and emits
//! a machine-readable `BENCH_kernels.json` in the current directory.
//!
//! ```text
//! cargo run --release -p lt-bench --bin bench_kernels
//! ```
//!
//! Each side is the median of interleaved timed repeats
//! ([`median_pair_ns`]). Exits nonzero if the DeepLOB full-forward
//! speedup falls below the 5x regression floor, so CI catches
//! fast-path regressions.

use lighttrader::dnn::kernels::{
    gemm_bt_bias_rows_bf16, gemm_packed_bt_bias_rows_bf16, pack_bt_panels,
};
use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::ops::{Conv2d, Linear, Lstm, MultiHeadAttention};
use lighttrader::dnn::{Model, Prediction, ScratchPad, Tensor};
use lt_bench::{median_pair_ns, REPEATS};
use std::hint::black_box;

/// Minimum acceptable DeepLOB full-forward speedup (batch-1 packed vs
/// naive reference).
const DEEPLOB_SPEEDUP_FLOOR: f64 = 5.0;

struct Row {
    name: &'static str,
    naive_ns: f64,
    fast_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.fast_ns
    }

    fn json(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"naive_ns\": {:.1}, \"fast_ns\": {:.1}, \"speedup\": {:.2}}}",
            self.name,
            self.naive_ns,
            self.fast_ns,
            self.speedup()
        )
    }
}

fn measure(name: &'static str, naive: impl FnMut(), fast: impl FnMut()) -> Row {
    let (naive_ns, fast_ns) = median_pair_ns(naive, fast);
    let row = Row {
        name,
        naive_ns,
        fast_ns,
    };
    println!(
        "{:<16} naive {:>12.0} ns   fast {:>12.0} ns   speedup {:>6.2}x",
        name,
        naive_ns,
        fast_ns,
        row.speedup()
    );
    row
}

/// A model row: the naive reference against one batch-1 packed forward
/// on a held pack and pad (the steady state `ModelRegistry` serves).
fn measure_model(
    name: &'static str,
    model: &dyn Model,
    reference: impl Fn(&Tensor) -> Prediction,
    x: &Tensor,
) -> Row {
    let packed = model.pack_weights();
    let mut pad = ScratchPad::new();
    let mut out = Vec::with_capacity(1);
    measure(
        name,
        || {
            black_box(reference(x));
        },
        || model.forward_batch_scratch(std::slice::from_ref(x), &packed, &mut pad, &mut out),
    )
}

fn main() {
    let mut kernels = Vec::new();

    let conv = Conv2d::new(16, 16, (4, 1), (1, 1), (0, 0), 1);
    let conv_packed = conv.pack();
    let xc = Tensor::random(&[16, 64, 10], 1.0, 2);
    let mut out_c = vec![0.0f32; conv.forward_reference(&xc).len()];
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "conv2d",
        || {
            black_box(conv.forward_reference(&xc));
        },
        || conv.forward_batch_packed(xc.data(), 1, 64, 10, &conv_packed, 1, &mut pad, &mut out_c),
    ));

    let linear = Linear::new(256, 128, 1);
    let linear_packed = linear.pack();
    let xl = Tensor::random(&[256], 1.0, 2);
    let mut out_l = vec![0.0f32; 128];
    kernels.push(measure(
        "linear",
        || {
            black_box(linear.forward_reference(&xl));
        },
        || linear.forward_batch_packed(xl.data(), 1, &linear_packed, &mut out_l),
    ));

    let lstm = Lstm::new(48, 64, 1);
    let (wx, wh) = (lstm.pack_wx(), lstm.pack_wh());
    let xs = Tensor::random(&[16, 48], 1.0, 2);
    let mut out_s = vec![0.0f32; 64];
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "lstm",
        || {
            black_box(lstm.forward_reference(&xs));
        },
        || lstm.last_hidden_batch_packed(xs.data(), 1, 16, &wx, &wh, &mut pad, &mut out_s),
    ));

    let mha = MultiHeadAttention::new(64, 4, 1);
    let mha_packed = mha.pack();
    let xa = Tensor::random(&[32, 64], 1.0, 2);
    let mut out_a = vec![0.0f32; xa.len()];
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "attention",
        || {
            black_box(mha.forward_reference(&xa));
        },
        || {
            mha.forward_batch_packed(
                xa.data(),
                1,
                32,
                mha_packed.each_ref(),
                1,
                &mut pad,
                &mut out_a,
            )
        },
    ));

    // Batch sweep: the packed-panel GEMM against the row-major GEMM on
    // a batch-stacked output (DeepLOB trunk geometry: 16 output
    // channels over k=64, 24 positions per sample, n = batch x 24).
    for (name, batch) in [
        ("gemm_packed_b1", 1usize),
        ("gemm_packed_b4", 4),
        ("gemm_packed_b16", 16),
    ] {
        let (m, k, positions) = (16usize, 64usize, 24usize);
        let n = batch * positions;
        let a = Tensor::random(&[m, k], 1.0, 7);
        let b = Tensor::random(&[n, k], 1.0, 8);
        let bias = vec![0.1f32; m];
        let mut packed = Vec::new();
        pack_bt_panels(a.data(), m, k, &mut packed);
        let mut out_naive = vec![0.0f32; m * n];
        let mut out_fast = vec![0.0f32; m * n];
        kernels.push(measure(
            name,
            || gemm_bt_bias_rows_bf16(a.data(), b.data(), &bias, m, n, k, &mut out_naive),
            || gemm_packed_bt_bias_rows_bf16(&packed, b.data(), &bias, m, n, k, &mut out_fast),
        ));
    }

    let vanilla = CnnSpec::tiny().build(3);
    let deeplob = DeepLobSpec::tiny().build(3);
    let translob = TransLobSpec::tiny().build(3);
    let x20 = Tensor::random(&[20, 40], 1.0, 5);
    let x24 = Tensor::random(&[24, 40], 1.0, 5);
    let x16 = Tensor::random(&[16, 40], 1.0, 5);
    let models = [
        measure_model(
            "vanilla_cnn",
            &vanilla,
            |x| vanilla.forward_reference(x),
            &x20,
        ),
        measure_model("deeplob", &deeplob, |x| deeplob.forward_reference(x), &x24),
        measure_model(
            "translob",
            &translob,
            |x| translob.forward_reference(x),
            &x16,
        ),
    ];

    let deeplob_speedup = models
        .iter()
        .find(|r| r.name == "deeplob")
        .map(|r| r.speedup())
        .unwrap_or(0.0);

    let kernel_rows: Vec<String> = kernels.iter().map(Row::json).collect();
    let model_rows: Vec<String> = models.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"method\": \"per side: median of {} interleaved timed repeats\",\n  \
         \"kernels\": [\n{}\n  ],\n  \"models\": [\n{}\n  ],\n  \
         \"deeplob_speedup\": {:.2},\n  \"deeplob_speedup_floor\": {:.1}\n}}\n",
        REPEATS,
        kernel_rows.join(",\n"),
        model_rows.join(",\n"),
        deeplob_speedup,
        DEEPLOB_SPEEDUP_FLOOR,
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");

    if deeplob_speedup < DEEPLOB_SPEEDUP_FLOOR {
        eprintln!(
            "REGRESSION: DeepLOB speedup {deeplob_speedup:.2}x below the \
             {DEEPLOB_SPEEDUP_FLOOR:.1}x floor"
        );
        std::process::exit(1);
    }
}
