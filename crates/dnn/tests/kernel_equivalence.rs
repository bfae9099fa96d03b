//! Bit-exactness property tests: every packed op path (im2col /
//! prepacked-panel GEMM / register-tiled kernels) and every model's
//! batch-1 `forward_batch_scratch` must produce **bit-identical** output
//! to its naive `forward_reference` counterpart, across randomized
//! shapes, strides, paddings, and batch sizes.
//!
//! Equality is asserted elementwise with f32 `==`, so even a one-ulp
//! accumulation-order difference fails. Every property runs each packed
//! path twice with the same [`ScratchPad`] so pooled-buffer reuse (the
//! steady-state regime) is covered too.

use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::ops::{Conv2d, LayerNorm, Linear, Lstm, MultiHeadAttention};
use lt_dnn::{Model, Prediction, ScratchPad, Tensor};
use proptest::prelude::*;

/// `batch` random tensors of `shape`, plus their sample-major
/// concatenation (the flat layout the packed paths consume).
fn random_samples(shape: &[usize], batch: usize, seed: u64) -> (Vec<Tensor>, Vec<f32>) {
    let samples: Vec<Tensor> = (0..batch)
        .map(|s| Tensor::random(shape, 1.0, seed.wrapping_add(s as u64)))
        .collect();
    let flat = samples.iter().flat_map(|t| t.data().to_vec()).collect();
    (samples, flat)
}

/// Asserts sample `s` of a flat sample-major output equals `want`.
fn assert_sample(out: &[f32], s: usize, want: &[f32]) {
    let n = want.len();
    assert_eq!(&out[s * n..(s + 1) * n], want, "sample {s}");
}

proptest! {
    /// Conv2d: packed im2col + GEMM (or the direct width-1 kernel) ==
    /// naive sliding window, across channel counts, kernel sizes,
    /// strides, and paddings (including padding > 0, which exercises the
    /// zero-filled im2col edge rows), at batch 1 and batch 3.
    #[test]
    fn conv_fast_matches_reference(
        (in_c, out_c, kh, kw) in (1usize..=3, 1usize..=4, 1usize..=3, 1usize..=3),
        (extra_h, extra_w, sh, sw) in (0usize..=4, 0usize..=4, 1usize..=2, 1usize..=2),
        (ph, pw, seed) in (0usize..=2, 0usize..=2, 0u64..1000),
    ) {
        let (h, w) = (kh + extra_h, kw + extra_w);
        let conv = Conv2d::new(in_c, out_c, (kh, kw), (sh, sw), (ph, pw), seed);
        let packed = conv.pack();
        let mut pad = ScratchPad::new();
        for batch in [1usize, 3] {
            let (samples, x) = random_samples(&[in_c, h, w], batch, seed.wrapping_add(1));
            let refs: Vec<Tensor> = samples.iter().map(|t| conv.forward_reference(t)).collect();
            let mut out = vec![f32::NAN; batch * refs[0].len()];
            // Second pass reuses pooled buffers; must still be identical.
            for _ in 0..2 {
                conv.forward_batch_packed(&x, batch, h, w, &packed, 1, &mut pad, &mut out);
                for (s, r) in refs.iter().enumerate() {
                    assert_sample(&out, s, r.data());
                }
            }
        }
    }

    /// Linear: packed matvec over several rows == naive loop.
    #[test]
    fn linear_fast_matches_reference(
        (input, output, rows, seed) in (1usize..=33, 1usize..=17, 1usize..=5, 0u64..1000),
    ) {
        let layer = Linear::new(input, output, seed);
        let packed = layer.pack();
        let x = Tensor::random(&[rows, input], 1.0, seed.wrapping_add(2));
        let reference = layer.forward_reference(&x);
        let mut out = vec![f32::NAN; rows * output];
        layer.forward_batch_packed(x.data(), rows, &packed, &mut out);
        prop_assert_eq!(&out[..], reference.data());
        // A single row is the rank-1 reference.
        let x1 = Tensor::random(&[input], 1.0, seed.wrapping_add(1));
        let mut out1 = vec![f32::NAN; output];
        layer.forward_batch_packed(x1.data(), 1, &packed, &mut out1);
        prop_assert_eq!(&out1[..], layer.forward_reference(&x1).data());
    }

    /// LSTM: the batched packed-gate recurrence's final hidden state ==
    /// the last row of the naive per-gate loops, for every sequence.
    #[test]
    fn lstm_fast_matches_reference(
        (input, hidden, steps, seed) in (1usize..=9, 1usize..=9, 1usize..=6, 0u64..1000),
        batch in 1usize..=3,
    ) {
        let lstm = Lstm::new(input, hidden, seed);
        let (wx, wh) = (lstm.pack_wx(), lstm.pack_wh());
        let (samples, x) = random_samples(&[steps, input], batch, seed.wrapping_add(1));
        let mut out = vec![f32::NAN; batch * hidden];
        let mut pad = ScratchPad::new();
        for _ in 0..2 {
            lstm.last_hidden_batch_packed(&x, batch, steps, &wx, &wh, &mut pad, &mut out);
            for (s, sample) in samples.iter().enumerate() {
                let all = lstm.forward_reference(sample);
                assert_sample(&out, s, all.row(steps - 1));
            }
        }
    }

    /// Attention: packed projections over all token rows + per-sample
    /// tiled score/context kernels == naive `at`-indexed loops.
    #[test]
    fn attention_fast_matches_reference(
        (heads, d_head, t, seed) in (1usize..=4, 1usize..=5, 1usize..=7, 0u64..1000),
        batch in 1usize..=3,
    ) {
        let d_model = heads * d_head;
        let mha = MultiHeadAttention::new(d_model, heads, seed);
        let packed = mha.pack();
        let (samples, x) = random_samples(&[t, d_model], batch, seed.wrapping_add(1));
        let mut out = vec![f32::NAN; x.len()];
        let mut pad = ScratchPad::new();
        for _ in 0..2 {
            mha.forward_batch_packed(&x, batch, t, packed.each_ref(), 1, &mut pad, &mut out);
            for (s, sample) in samples.iter().enumerate() {
                assert_sample(&out, s, mha.forward_reference(sample).data());
            }
        }
    }

    /// LayerNorm: the row-slice pass == `set`-written rows.
    #[test]
    fn layernorm_fast_matches_reference(
        (t, d, seed) in (1usize..=6, 1usize..=16, 0u64..1000),
    ) {
        let ln = LayerNorm::new(d);
        let x = Tensor::random(&[t, d], 2.0, seed);
        let reference = ln.forward_reference(&x);
        let mut out = vec![f32::NAN; t * d];
        ln.forward_rows(x.data(), t, &mut out);
        prop_assert_eq!(&out[..], reference.data());
    }
}

/// Runs `model` twice at batch 1 on one pad, asserting both runs equal
/// the reference prediction bit for bit.
fn assert_batch1_matches(model: &dyn Model, x: &Tensor, reference: Prediction) {
    let packed = model.pack_weights();
    let mut pad = ScratchPad::new();
    let mut out = Vec::new();
    for _ in 0..2 {
        model.forward_batch_scratch(std::slice::from_ref(x), &packed, &mut pad, &mut out);
        assert_eq!(
            out[0].probs.map(f32::to_bits),
            reference.probs.map(f32::to_bits)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full VanillaCnn: batch-1 packed forward == naive composition.
    #[test]
    fn vanilla_cnn_forward_matches_reference(seed in 0u64..100) {
        let model = CnnSpec::tiny().build(seed);
        let x = Tensor::random(&[20, 40], 1.0, seed.wrapping_add(1));
        assert_batch1_matches(&model, &x, model.forward_reference(&x));
    }

    /// Full DeepLob (conv trunk + inception + LSTM + head).
    #[test]
    fn deeplob_forward_matches_reference(seed in 0u64..100) {
        let model = DeepLobSpec::tiny().build(seed);
        let x = Tensor::random(&[24, 40], 1.0, seed.wrapping_add(1));
        assert_batch1_matches(&model, &x, model.forward_reference(&x));
    }

    /// Full TransLob (conv stack + transformer blocks + head).
    #[test]
    fn translob_forward_matches_reference(seed in 0u64..100) {
        let model = TransLobSpec::tiny().build(seed);
        let x = Tensor::random(&[16, 40], 1.0, seed.wrapping_add(1));
        assert_batch1_matches(&model, &x, model.forward_reference(&x));
    }
}
