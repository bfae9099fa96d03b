//! Batched-inference regression benchmark: times the packed batched
//! forward (`forward_batch_scratch` over prepacked weight panels, each
//! model's one fast path) against looping the naive `forward_reference`
//! per query, across every benchmark model and a batch-size sweep, and
//! emits a machine-readable `BENCH_batch.json` in the current directory.
//!
//! ```text
//! cargo run --release -p lt-bench --bin bench_batch
//! ```
//!
//! Each side is the median of interleaved timed repeats
//! ([`median_pair_ns`]). Exits nonzero if the DeepLOB per-query speedup
//! at batch 16 falls below the regression floor, so CI catches
//! batched-path regressions. Both paths produce bit-identical
//! predictions (pinned by `lt-dnn/tests/batch_equivalence.rs`), so this
//! measures pure throughput.

use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::{Model, Prediction, ScratchPad, Tensor};
use lt_bench::{median_pair_ns, REPEATS};

/// Minimum acceptable DeepLOB per-query speedup over the looped
/// reference at batch 16.
///
/// The gate used to be 2.0x over a looped single-sample fast path that
/// no longer exists. Measured before that path was deleted (2-vCPU
/// x86-64 VM, [`median_pair_ns`], nine runs), the looped reference took
/// a median 6.27x (range 5.80-8.85x) as long per query as that path at
/// batch 16. So 2.0 x 6.27 = 12.54, rounded up to 12.6, trips at the
/// same absolute batched time as the old gate.
const DEEPLOB_BATCH16_FLOOR: f64 = 12.6;
/// Batch sizes swept per model.
const BATCHES: [usize; 3] = [1, 4, 16];

struct Row {
    model: &'static str,
    batch: usize,
    reference_ns_per_query: f64,
    batched_ns_per_query: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_ns_per_query / self.batched_ns_per_query
    }

    fn json(&self) -> String {
        format!(
            "    {{\"model\": \"{}\", \"batch\": {}, \"reference_ns_per_query\": {:.1}, \
             \"batched_ns_per_query\": {:.1}, \"speedup\": {:.2}}}",
            self.model,
            self.batch,
            self.reference_ns_per_query,
            self.batched_ns_per_query,
            self.speedup()
        )
    }
}

fn sweep(
    model: &dyn Model,
    reference: impl Fn(&Tensor) -> Prediction,
    name: &'static str,
    rows: &mut Vec<Row>,
) {
    let packed = model.pack_weights();
    for batch in BATCHES {
        let inputs: Vec<Tensor> = (0..batch)
            .map(|i| {
                Tensor::random(
                    &[model.window(), model.features()],
                    1.0,
                    17 + batch as u64 * 100 + i as u64,
                )
            })
            .collect();
        let mut pad = ScratchPad::new();
        let mut out: Vec<Prediction> = Vec::new();
        let (looped, batched) = median_pair_ns(
            || {
                for input in &inputs {
                    std::hint::black_box(reference(input));
                }
            },
            || model.forward_batch_scratch(&inputs, &packed, &mut pad, &mut out),
        );
        let row = Row {
            model: name,
            batch,
            reference_ns_per_query: looped / batch as f64,
            batched_ns_per_query: batched / batch as f64,
        };
        println!(
            "{:<12} b={:<3} reference {:>10.0} ns/q   batched {:>10.0} ns/q   speedup {:>6.2}x",
            name,
            batch,
            row.reference_ns_per_query,
            row.batched_ns_per_query,
            row.speedup()
        );
        rows.push(row);
    }
}

fn main() {
    let mut rows = Vec::new();
    let vanilla = CnnSpec::tiny().build(3);
    sweep(
        &vanilla,
        |x| vanilla.forward_reference(x),
        "vanilla_cnn",
        &mut rows,
    );
    let deeplob = DeepLobSpec::tiny().build(3);
    sweep(
        &deeplob,
        |x| deeplob.forward_reference(x),
        "deeplob",
        &mut rows,
    );
    let translob = TransLobSpec::tiny().build(3);
    sweep(
        &translob,
        |x| translob.forward_reference(x),
        "translob",
        &mut rows,
    );

    let deeplob16 = rows
        .iter()
        .find(|r| r.model == "deeplob" && r.batch == 16)
        .map(Row::speedup)
        .unwrap_or(0.0);
    let floor_met = deeplob16 >= DEEPLOB_BATCH16_FLOOR;

    let row_json: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"method\": \"per side: median of {} interleaved timed repeats\",\n  \
         \"rows\": [\n{}\n  ],\n  \"deeplob_batch16_speedup\": {:.2},\n  \
         \"deeplob_batch16_floor\": {:.1},\n  \"floor_met\": {}\n}}\n",
        REPEATS,
        row_json.join(",\n"),
        deeplob16,
        DEEPLOB_BATCH16_FLOOR,
        floor_met,
    );
    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
    println!("\nwrote BENCH_batch.json");

    if !floor_met {
        eprintln!(
            "REGRESSION: DeepLOB batch-16 per-query speedup {deeplob16:.2}x below the \
             {DEEPLOB_BATCH16_FLOOR:.1}x floor"
        );
        std::process::exit(1);
    }
}
