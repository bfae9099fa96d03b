//! The one-forward-path contract: `Model::forward_batch_scratch` over
//! prepacked weight panels is **bit-identical**, per sample, to the
//! model's naive `forward_reference` — packing permutes operand layout
//! and batching stacks GEMM output dimensions, neither touches any `k`
//! accumulation chain — at every batch size (a single query is a batch
//! of one) and every thread count. Also pins the packed/batched kernels
//! at degenerate shapes.

use lt_dnn::kernels::{
    gemm_bt_bias_rows_bf16, gemm_packed_bt_bias_rows_bf16, im2col_batch, matvec_packed_bias_bf16,
    pack_bt_panels,
};
use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::{Model, PackedWeights, Prediction, ScratchPad, Tensor};
use proptest::prelude::*;

/// Random `[window, features]` inputs for `model`, one per sample.
fn random_batch(model: &dyn Model, batch: usize, seed: u64) -> Vec<Tensor> {
    (0..batch)
        .map(|i| {
            Tensor::random(
                &[model.window(), model.features()],
                1.0,
                seed.wrapping_mul(1000).wrapping_add(i as u64),
            )
        })
        .collect()
}

/// Asserts batched == per-sample reference, bit for bit, and returns
/// the predictions.
fn assert_batch_matches_reference(
    name: &str,
    model: &dyn Model,
    reference: impl Fn(&Tensor) -> Prediction,
    packed: &PackedWeights,
    inputs: &[Tensor],
) -> Vec<Prediction> {
    let mut pad = ScratchPad::new();
    let mut batched = Vec::new();
    model.forward_batch_scratch(inputs, packed, &mut pad, &mut batched);
    assert_eq!(batched.len(), inputs.len(), "{name}: prediction count");
    for (s, (b, input)) in batched.iter().zip(inputs).enumerate() {
        let r = reference(input);
        assert_eq!(
            b.probs.map(f32::to_bits),
            r.probs.map(f32::to_bits),
            "{name}: sample {s} diverged (batched {:?} vs reference {:?})",
            b.probs,
            r.probs
        );
    }
    batched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// VanillaCnn: packed path == looped reference, any batch size,
    /// serial and threaded.
    #[test]
    fn vanilla_batch_matches_loop(seed in 0u64..500, batch in 0usize..6, threads in 2usize..5) {
        let model = CnnSpec::tiny().build(seed);
        let inputs = random_batch(&model, batch, seed);
        for packed in [model.pack_weights(), model.pack_weights().with_threads(threads)] {
            assert_batch_matches_reference(
                "VanillaCnn", &model, |x| model.forward_reference(x), &packed, &inputs,
            );
        }
    }

    /// TransLob: packed path (conv stack, projections over all token
    /// rows, per-sample attention) == looped reference.
    #[test]
    fn translob_batch_matches_loop(seed in 0u64..500, batch in 0usize..6, threads in 2usize..5) {
        let model = TransLobSpec::tiny().build(seed);
        let inputs = random_batch(&model, batch, seed);
        for packed in [model.pack_weights(), model.pack_weights().with_threads(threads)] {
            assert_batch_matches_reference(
                "TransLob", &model, |x| model.forward_reference(x), &packed, &inputs,
            );
        }
    }

    /// DeepLob: packed path == looped reference.
    #[test]
    fn deeplob_batch_matches_loop(seed in 0u64..500, batch in 0usize..6, threads in 2usize..5) {
        let model = DeepLobSpec::tiny().build(seed);
        let inputs = random_batch(&model, batch, seed);
        for packed in [model.pack_weights(), model.pack_weights().with_threads(threads)] {
            assert_batch_matches_reference(
                "DeepLob", &model, |x| model.forward_reference(x), &packed, &inputs,
            );
        }
    }

    /// Thread scatter only re-times work: multi-threaded batched
    /// forwards are bit-identical to the serial batched forward.
    #[test]
    fn parallel_batch_matches_serial(seed in 0u64..500, threads in 2usize..5) {
        let model = DeepLobSpec::tiny().build(seed);
        let serial = model.pack_weights();
        let parallel = model.pack_weights().with_threads(threads);
        let inputs = random_batch(&model, 5, seed);
        let reference = |x: &Tensor| model.forward_reference(x);
        let a = assert_batch_matches_reference("DeepLob serial", &model, reference, &serial, &inputs);
        let b = assert_batch_matches_reference(
            "DeepLob parallel", &model, reference, &parallel, &inputs,
        );
        prop_assert_eq!(a, b);
    }
}

/// Results land in input order and `out` is cleared between calls.
#[test]
fn batch_output_order_and_reuse() {
    let model = CnnSpec::tiny().build(4);
    let packed = model.pack_weights();
    let inputs = random_batch(&model, 4, 9);
    let mut pad = ScratchPad::new();
    let mut out = vec![Prediction::new([1.0, 0.0, 0.0]); 7];
    model.forward_batch_scratch(&inputs, &packed, &mut pad, &mut out);
    assert_eq!(out.len(), 4);
    for (s, input) in inputs.iter().enumerate() {
        let single = model.forward_reference(input);
        assert_eq!(
            out[s].probs.map(f32::to_bits),
            single.probs.map(f32::to_bits)
        );
    }
    // Reversing the inputs reverses the outputs.
    let rev: Vec<Tensor> = inputs.iter().rev().cloned().collect();
    let mut out_rev = Vec::new();
    model.forward_batch_scratch(&rev, &packed, &mut pad, &mut out_rev);
    for (a, b) in out.iter().zip(out_rev.iter().rev()) {
        assert_eq!(a.probs.map(f32::to_bits), b.probs.map(f32::to_bits));
    }
}

// ---- degenerate kernel shapes ---------------------------------------

/// k = 0: the GEMM reduces over nothing, so outputs are the
/// BF16-rounded biases — packed and unpacked agree.
#[test]
fn gemm_with_zero_k_emits_bias() {
    let (m, n) = (5, 3);
    let bias = [1.5f32, -2.0, 0.25, 7.0, 0.0];
    let mut packed = Vec::new();
    pack_bt_panels(&[], m, 0, &mut packed);
    assert!(packed.is_empty());
    let mut a_out = vec![f32::NAN; m * n];
    gemm_bt_bias_rows_bf16(&[], &[], &bias, m, n, 0, &mut a_out);
    let mut b_out = vec![f32::NAN; m * n];
    gemm_packed_bt_bias_rows_bf16(&packed, &[], &bias, m, n, 0, &mut b_out);
    assert_eq!(a_out, b_out);
    for i in 0..m {
        for j in 0..n {
            assert_eq!(a_out[i * n + j], bias[i]);
        }
    }
}

/// m = 0 and n = 0 are no-ops for both GEMM layouts and the matvec.
#[test]
fn gemm_with_zero_rows_or_cols_is_noop() {
    let mut packed = Vec::new();
    pack_bt_panels(&[], 0, 4, &mut packed);
    gemm_packed_bt_bias_rows_bf16(&packed, &[1.0, 2.0, 3.0, 4.0], &[], 0, 1, 4, &mut []);
    gemm_bt_bias_rows_bf16(&[], &[1.0, 2.0, 3.0, 4.0], &[], 0, 1, 4, &mut []);
    let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    pack_bt_panels(&a, 2, 4, &mut packed);
    gemm_packed_bt_bias_rows_bf16(&packed, &[], &[0.5, -0.5], 2, 0, 4, &mut []);
    matvec_packed_bias_bf16(
        &packed,
        &[0.5, -0.5],
        &[1.0, 0.0, 0.0, 0.0],
        2,
        4,
        &mut [0.0; 2],
    );
}

/// Batched im2col at batch 0 and batch 1; batch 1 equals plain im2col.
#[test]
fn batched_im2col_degenerate_batches() {
    im2col_batch(&[], 0, 2, 3, 4, 2, 2, (1, 1), (0, 0), 2, 3, &mut []);
    let x: Vec<f32> = (0..2 * 3 * 4).map(|i| i as f32 * 0.5).collect();
    let (oh, ow) = (2, 3);
    let k = 2 * 2 * 2;
    let mut single = vec![0.0f32; oh * ow * k];
    lt_dnn::kernels::im2col(&x, 2, 3, 4, 2, 2, (1, 1), (0, 0), oh, ow, &mut single);
    let mut batched = vec![f32::NAN; oh * ow * k];
    im2col_batch(&x, 1, 2, 3, 4, 2, 2, (1, 1), (0, 0), oh, ow, &mut batched);
    assert_eq!(single, batched);
}

/// Packing then multiplying at MR/NB boundary sizes (m = 4/5, n = 63/
/// 64/65 around the n cache block) matches the unpacked GEMM bit for
/// bit — the blocking seams introduce no reordering.
#[test]
fn packed_gemm_boundary_shapes_match_unpacked() {
    for m in [4usize, 5] {
        for n in [63usize, 64, 65, 128] {
            let k = 9;
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 23) as f32) - 11.0).collect();
            let b: Vec<f32> = (0..n * k).map(|i| ((i * 13 % 31) as f32) * 0.25).collect();
            let bias: Vec<f32> = (0..m).map(|i| i as f32 - 1.0).collect();
            let mut reference = vec![0.0f32; m * n];
            gemm_bt_bias_rows_bf16(&a, &b, &bias, m, n, k, &mut reference);
            let mut packed = Vec::new();
            pack_bt_panels(&a, m, k, &mut packed);
            let mut fast = vec![0.0f32; m * n];
            gemm_packed_bt_bias_rows_bf16(&packed, &b, &bias, m, n, k, &mut fast);
            assert_eq!(reference, fast, "m={m} n={n}");
        }
    }
}
