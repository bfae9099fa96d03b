//! Multi-head self-attention (the TransLOB building block).

use crate::batch::{scatter_samples, PackedPanels};
use crate::kernels::{attn_context, attn_scores};
use crate::ops::activation::{softmax_last_dim, softmax_rows};
use crate::ops::count::attention_macs;
use crate::ops::expect_rank;
use crate::ops::linear::Linear;
use crate::scratch::ScratchPad;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Multi-head scaled-dot-product self-attention over `[T, D]` sequences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `d_model`.
    pub fn new(d_model: usize, heads: usize, seed: u64) -> Self {
        assert!(heads > 0, "need at least one head");
        assert_eq!(
            d_model % heads,
            0,
            "heads {heads} must divide d_model {d_model}"
        );
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, seed),
            wk: Linear::new(d_model, d_model, seed.wrapping_add(1)),
            wv: Linear::new(d_model, d_model, seed.wrapping_add(2)),
            wo: Linear::new(d_model, d_model, seed.wrapping_add(3)),
            heads,
            d_model,
        }
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Head count.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Packs the Q, K, V and output projections, in that order, for
    /// [`Self::forward_batch_packed`].
    pub fn pack(&self) -> [PackedPanels; 4] {
        [
            self.wq.pack(),
            self.wk.pack(),
            self.wv.pack(),
            self.wo.pack(),
        ]
    }

    /// Self-attention over `batch` sequences of a sample-major flat
    /// `[batch, t, d_model]` buffer, writing `[batch, t, d_model]` into
    /// `out`. `packed` holds the Q, K, V and output panels of
    /// [`Self::pack`], in that order.
    ///
    /// The four projections each run as one packed sweep over all
    /// `batch * t` token rows; the token-coupled part — per-head scores,
    /// softmax, and context — runs per sample on the tiled kernels
    /// (`threads > 1` scatters samples across scoped threads). Per
    /// sample bit-identical to [`Self::forward_reference`]: every
    /// projection row and every score/context element keeps the naive
    /// accumulation order.
    ///
    /// # Panics
    ///
    /// Panics on buffer-length or packed-shape mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch_packed(
        &self,
        x: &[f32],
        batch: usize,
        t: usize,
        packed: [&PackedPanels; 4],
        threads: usize,
        pad: &mut ScratchPad,
        out: &mut [f32],
    ) {
        let d = self.d_model;
        let rows = batch * t;
        assert_eq!(x.len(), rows * d, "batched attention input length");
        assert_eq!(out.len(), rows * d, "batched attention output length");
        let [pq, pk, pv, po] = packed;
        let d_head = d / self.heads;
        let scale = 1.0 / (d_head as f32).sqrt();
        // Every buffer below is fully overwritten before it is read
        // (the heads' context slices tile each row), so all of them
        // skip the pool's zero fill.
        let mut q = pad.take_dirty(rows * d);
        self.wq.forward_batch_packed(x, rows, pq, &mut q);
        let mut k = pad.take_dirty(rows * d);
        self.wk.forward_batch_packed(x, rows, pk, &mut k);
        let mut v = pad.take_dirty(rows * d);
        self.wv.forward_batch_packed(x, rows, pv, &mut v);
        let mut context = pad.take_dirty(rows * d);
        let mut scores = pad.take_dirty(batch * t * t);
        scatter_samples(
            threads,
            batch,
            &mut context,
            t * d,
            &mut scores,
            t * t,
            |s, ctx, sc| {
                let span = s * t * d..(s + 1) * t * d;
                let (qs, ks, vs) = (&q[span.clone()], &k[span.clone()], &v[span]);
                for h in 0..self.heads {
                    let off = h * d_head;
                    attn_scores(qs, ks, t, d, off, d_head, scale, sc);
                    softmax_rows(sc, t, t);
                    attn_context(sc, vs, t, d, off, d_head, ctx);
                }
            },
        );
        pad.give(scores);
        pad.give(q);
        pad.give(k);
        pad.give(v);
        self.wo.forward_batch_packed(&context, rows, po, out);
        pad.give(context);
    }

    /// Applies self-attention to one `[T, D]` sequence — the naive
    /// reference implementation (the oracle of the equivalence tests and
    /// the benchmark baseline): `Tensor::at`-indexed loops over naive
    /// Q/K/V/O projections.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 2 of width `d_model`.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        expect_rank(x, 2, "MultiHeadAttention");
        assert_eq!(x.shape()[1], self.d_model, "width mismatch");
        let t = x.shape()[0];
        let d_head = self.d_model / self.heads;
        let q = self.wq.forward_reference(x);
        let k = self.wk.forward_reference(x);
        let v = self.wv.forward_reference(x);
        let scale = 1.0 / (d_head as f32).sqrt();
        let mut context = Tensor::zeros(&[t, self.d_model]);
        for h in 0..self.heads {
            let off = h * d_head;
            // scores[i][j] = q_i . k_j / sqrt(d_head)
            let mut scores = Tensor::zeros(&[t, t]);
            for i in 0..t {
                let qi = &q.row(i)[off..off + d_head];
                for j in 0..t {
                    let kj = &k.row(j)[off..off + d_head];
                    let dot: f32 = qi.iter().zip(kj).map(|(a, b)| a * b).sum();
                    scores.set(&[i, j], dot * scale);
                }
            }
            softmax_last_dim(&mut scores);
            for i in 0..t {
                for d in 0..d_head {
                    let mut acc = 0.0;
                    for j in 0..t {
                        acc += scores.at(&[i, j]) * v.row(j)[off + d];
                    }
                    context.set(&[i, off + d], acc);
                }
            }
        }
        self.wo.forward_reference(&context)
    }

    /// MACs of a forward pass over a length-`seq` sequence.
    pub fn macs(&self, seq: u64) -> u64 {
        attention_macs(seq, self.d_model as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the packed path on `x` as a batch of one, checking it
    /// against the reference bit for bit.
    fn forward(mha: &MultiHeadAttention, x: &Tensor) -> Tensor {
        let want = mha.forward_reference(x);
        let mut out = vec![f32::NAN; x.len()];
        let mut pad = ScratchPad::new();
        let t = x.shape()[0];
        let packed = mha.pack();
        mha.forward_batch_packed(x.data(), 1, t, packed.each_ref(), 1, &mut pad, &mut out);
        assert_eq!(out, want.data());
        want
    }

    #[test]
    fn output_shape_matches_input() {
        let mha = MultiHeadAttention::new(16, 4, 0);
        let x = Tensor::random(&[6, 16], 1.0, 1);
        let y = forward(&mha, &x);
        assert_eq!(y.shape(), &[6, 16]);
    }

    #[test]
    fn uniform_sequence_gives_uniform_output() {
        // If every token is identical, attention mixes identical values, so
        // every output token must be identical too.
        let mha = MultiHeadAttention::new(8, 2, 2);
        let row: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let mut data = Vec::new();
        for _ in 0..4 {
            data.extend_from_slice(&row);
        }
        let x = Tensor::from_vec(data, &[4, 8]);
        let y = forward(&mha, &x);
        for t in 1..4 {
            assert_eq!(y.row(0), y.row(t));
        }
    }

    #[test]
    fn attends_to_content_not_position() {
        // Without positional encodings, permuting the sequence permutes the
        // output rows identically (self-attention is permutation-equivariant).
        let mha = MultiHeadAttention::new(8, 2, 3);
        let a = Tensor::random(&[1, 8], 1.0, 10);
        let b = Tensor::random(&[1, 8], 1.0, 11);
        let ab = Tensor::from_vec([a.data(), b.data()].concat(), &[2, 8]);
        let ba = Tensor::from_vec([b.data(), a.data()].concat(), &[2, 8]);
        let y_ab = forward(&mha, &ab);
        let y_ba = forward(&mha, &ba);
        for (x, y) in y_ab.row(0).iter().zip(y_ba.row(1)) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn single_head_equals_heads_of_full_width() {
        // Sanity: single head runs and differs from multi-head chunking.
        let x = Tensor::random(&[3, 8], 1.0, 20);
        let one = forward(&MultiHeadAttention::new(8, 1, 5), &x);
        let four = forward(&MultiHeadAttention::new(8, 4, 5), &x);
        assert_eq!(one.shape(), four.shape());
        assert_ne!(one.data(), four.data());
    }

    #[test]
    fn macs_match_formula() {
        let mha = MultiHeadAttention::new(64, 8, 0);
        assert_eq!(mha.macs(10), 4 * 10 * 64 * 64 + 2 * 100 * 64);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_heads_panics() {
        let _ = MultiHeadAttention::new(10, 3, 0);
    }
}
