//! Cache-friendly inference kernels, bit-identical to the naive layers.
//!
//! The naive layer implementations in [`crate::ops`] index every element
//! through `Tensor::at` (rank assert + bounds checks + index arithmetic
//! per multiply). These kernels compute the same contractions over raw
//! slices with prepacked register-tile panels and cache blocking, which
//! is where the packed batched forwards (`forward_batch_packed` on each
//! op, `Model::forward_batch_scratch` on each model) get their speed.
//!
//! # The bit-exactness contract
//!
//! Floating-point addition is not associative, so a "faster but
//! approximately equal" kernel would silently change every prediction
//! downstream. Every kernel here therefore preserves the naive path's
//! **per-output-element accumulation order** exactly:
//!
//! * each accumulator is seeded with the bias (or `0.0`) exactly as the
//!   naive loop seeds it, accumulates in the same increasing-`k` order,
//!   and is rounded (BF16) at most once, at the same point;
//! * tiling only ever splits the *output* dimensions (M/N). The `k`
//!   reduction is never split, reordered, or vectorized with partial
//!   sums — register tiling computes several independent accumulator
//!   chains in parallel, each of which is order-identical to naive;
//! * [`im2col`] materializes zero entries where the naive convolution
//!   *skips* padded taps. Adding `w * 0.0` instead of skipping can only
//!   flip the sign of an exact zero (`-0.0 + 0.0 == +0.0`), which `f32`
//!   equality and every downstream consumer treat as identical.
//!
//! The `kernel_equivalence` integration test property-checks these
//! guarantees against the `forward_reference` implementations across
//! randomized shapes, strides, and paddings.

use crate::bf16::bf16_round;

/// Register-tile width: independent accumulator chains per inner loop.
const MR: usize = 4;
/// Cache-block width over the GEMM `n` dimension, sized so an f32 block
/// of typical `k` stays resident in L1 while every `m` row streams by.
const NB: usize = 64;

/// Unfolds a `[in_c, h, w]` input into im2col patch rows.
///
/// `out` must hold `oh * ow * in_c * kh * kw` elements and is written as
/// a row-major `[oh * ow, in_c * kh * kw]` matrix: one row per output
/// position (scanning `oy` then `ox`), columns ordered `ic → ky → kx` to
/// match the naive convolution's accumulation order. Taps that fall in
/// the zero-padding region are stored as `0.0`.
///
/// # Panics
///
/// Panics if `x` or `out` have the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: (usize, usize),
    padding: (usize, usize),
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let k = in_c * kh * kw;
    assert_eq!(x.len(), in_c * h * w, "im2col input length");
    assert_eq!(out.len(), oh * ow * k, "im2col patch-buffer length");
    let (ph, pw) = padding;
    let mut row = 0usize;
    for oy in 0..oh {
        let base_y = oy * stride.0;
        for ox in 0..ow {
            let base_x = ox * stride.1;
            let patch = &mut out[row..row + k];
            let mut col = 0usize;
            for ic in 0..in_c {
                let chan = &x[ic * h * w..(ic + 1) * h * w];
                for ky in 0..kh {
                    let iy = base_y + ky;
                    if iy < ph || iy - ph >= h {
                        patch[col..col + kw].fill(0.0);
                        col += kw;
                        continue;
                    }
                    let src = &chan[(iy - ph) * w..(iy - ph + 1) * w];
                    if pw == 0 && base_x + kw <= w {
                        // Common case (no horizontal padding): one memcpy.
                        patch[col..col + kw].copy_from_slice(&src[base_x..base_x + kw]);
                        col += kw;
                    } else {
                        for kx in 0..kw {
                            let ix = base_x + kx;
                            patch[col] = if ix < pw || ix - pw >= w {
                                0.0
                            } else {
                                src[ix - pw]
                            };
                            col += 1;
                        }
                    }
                }
            }
            row += k;
        }
    }
}

/// `out[m][n] = bf16(bias[m] + dot(a[m], b[n]))` — GEMM against a
/// transposed B, bias indexed by the A row, reading a row-major A.
///
/// `a` is `[m, k]` row-major (convolution kernels), `b` is `[n, k]`
/// row-major (im2col patches), `out` is `[m, n]` row-major — exactly the
/// `[out_c, oh * ow]` layout of a convolution output. Blocked over `n`
/// and register-tiled over `m`; each output's accumulation order matches
/// the naive triple loop. No forward path calls it: it is the unpacked
/// oracle the [`gemm_packed_bt_bias_rows_bf16`] tests and the kernel
/// benchmark compare against.
pub fn gemm_bt_bias_rows_bf16(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm A length");
    assert_eq!(b.len(), n * k, "gemm B length");
    assert_eq!(bias.len(), m, "gemm bias length");
    assert_eq!(out.len(), m * n, "gemm output length");
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NB).min(n);
        let mut i = 0;
        while i + MR <= m {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let a2 = &a[(i + 2) * k..(i + 3) * k];
            let a3 = &a[(i + 3) * k..(i + 4) * k];
            for j in j0..j1 {
                let bj = &b[j * k..(j + 1) * k];
                let mut acc0 = bias[i];
                let mut acc1 = bias[i + 1];
                let mut acc2 = bias[i + 2];
                let mut acc3 = bias[i + 3];
                for t in 0..k {
                    let x = bj[t];
                    acc0 += a0[t] * x;
                    acc1 += a1[t] * x;
                    acc2 += a2[t] * x;
                    acc3 += a3[t] * x;
                }
                out[i * n + j] = bf16_round(acc0);
                out[(i + 1) * n + j] = bf16_round(acc1);
                out[(i + 2) * n + j] = bf16_round(acc2);
                out[(i + 3) * n + j] = bf16_round(acc3);
            }
            i += MR;
        }
        for r in i..m {
            let ar = &a[r * k..(r + 1) * k];
            for j in j0..j1 {
                let bj = &b[j * k..(j + 1) * k];
                let mut acc = bias[r];
                for t in 0..k {
                    acc += ar[t] * bj[t];
                }
                out[r * n + j] = bf16_round(acc);
            }
        }
        j0 = j1;
    }
}

/// Attention scores for one head: `out[i][j] = dot(q_i, k_j) * scale`
/// over the head's column slice `[off, off + d_head)` of `[t, d_model]`
/// Q/K matrices.
///
/// The dot starts at `0.0` and the scale is applied after the full
/// reduction, matching the naive `iter().zip().sum()` followed by
/// `dot * scale`. No rounding. Register-tiled over `j` so four score
/// chains share each `q` load.
#[allow(clippy::too_many_arguments)]
pub fn attn_scores(
    q: &[f32],
    k: &[f32],
    t: usize,
    d_model: usize,
    off: usize,
    d_head: usize,
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(q.len(), t * d_model, "attn q length");
    assert_eq!(k.len(), t * d_model, "attn k length");
    assert_eq!(out.len(), t * t, "attn scores length");
    assert!(off + d_head <= d_model, "attn head slice out of range");
    for i in 0..t {
        let qi = &q[i * d_model + off..i * d_model + off + d_head];
        let orow = &mut out[i * t..(i + 1) * t];
        let mut j = 0;
        while j + MR <= t {
            let k0 = &k[j * d_model + off..j * d_model + off + d_head];
            let k1 = &k[(j + 1) * d_model + off..(j + 1) * d_model + off + d_head];
            let k2 = &k[(j + 2) * d_model + off..(j + 2) * d_model + off + d_head];
            let k3 = &k[(j + 3) * d_model + off..(j + 3) * d_model + off + d_head];
            let mut acc0 = 0.0f32;
            let mut acc1 = 0.0f32;
            let mut acc2 = 0.0f32;
            let mut acc3 = 0.0f32;
            for d in 0..d_head {
                let qv = qi[d];
                acc0 += qv * k0[d];
                acc1 += qv * k1[d];
                acc2 += qv * k2[d];
                acc3 += qv * k3[d];
            }
            orow[j] = acc0 * scale;
            orow[j + 1] = acc1 * scale;
            orow[j + 2] = acc2 * scale;
            orow[j + 3] = acc3 * scale;
            j += MR;
        }
        for jj in j..t {
            let kj = &k[jj * d_model + off..jj * d_model + off + d_head];
            let mut acc = 0.0f32;
            for d in 0..d_head {
                acc += qi[d] * kj[d];
            }
            orow[jj] = acc * scale;
        }
    }
}

/// Attention context for one head:
/// `ctx[i][off + d] = Σ_j scores[i][j] * v[j][off + d]`.
///
/// Accumulates over `j` in increasing order starting from `0.0` (as the
/// naive loop does) and writes into the head's column slice of the
/// `[t, d_model]` context. Tiled over `d` so four accumulator chains
/// share each score load and the `v` loads are contiguous.
pub fn attn_context(
    scores: &[f32],
    v: &[f32],
    t: usize,
    d_model: usize,
    off: usize,
    d_head: usize,
    ctx: &mut [f32],
) {
    assert_eq!(scores.len(), t * t, "attn scores length");
    assert_eq!(v.len(), t * d_model, "attn v length");
    assert_eq!(ctx.len(), t * d_model, "attn context length");
    assert!(off + d_head <= d_model, "attn head slice out of range");
    for i in 0..t {
        let srow = &scores[i * t..(i + 1) * t];
        let mut d = 0;
        while d + MR <= d_head {
            let mut acc0 = 0.0f32;
            let mut acc1 = 0.0f32;
            let mut acc2 = 0.0f32;
            let mut acc3 = 0.0f32;
            for (j, &sv) in srow.iter().enumerate() {
                let vrow = &v[j * d_model + off + d..j * d_model + off + d + MR];
                acc0 += sv * vrow[0];
                acc1 += sv * vrow[1];
                acc2 += sv * vrow[2];
                acc3 += sv * vrow[3];
            }
            let base = i * d_model + off + d;
            ctx[base] = acc0;
            ctx[base + 1] = acc1;
            ctx[base + 2] = acc2;
            ctx[base + 3] = acc3;
            d += MR;
        }
        for dd in d..d_head {
            let mut acc = 0.0f32;
            for (j, &sv) in srow.iter().enumerate() {
                acc += sv * v[j * d_model + off + dd];
            }
            ctx[i * d_model + off + dd] = acc;
        }
    }
}

/// Repacks a row-major `[m, k]` operand into [`MR`]-row panels.
///
/// Full panels hold `MR` consecutive rows interleaved `k`-major
/// (`panel[t * MR + r] = a[(i0 + r) * k + t]`), so a register tile's
/// inner `k` step loads its `MR` weights from one contiguous word —
/// four independent accumulator chains the compiler can keep in a
/// single SIMD register. The `m % MR` tail rows are stored row-major
/// after the panels, which lands row `r` at flat offset `r * k` —
/// exactly where the unpacked remainder loop would read it.
///
/// Packing is a pure permutation of the operand layout: the packed
/// GEMM's per-output accumulation order (and therefore every bit of
/// its output) is unchanged. `out` is cleared and filled with exactly
/// `m * k` elements.
pub fn pack_bt_panels(a: &[f32], m: usize, k: usize, out: &mut Vec<f32>) {
    assert_eq!(a.len(), m * k, "pack operand length");
    out.clear();
    out.reserve(m * k);
    let mut i = 0;
    while i + MR <= m {
        for t in 0..k {
            for r in 0..MR {
                out.push(a[(i + r) * k + t]);
            }
        }
        i += MR;
    }
    out.extend_from_slice(&a[i * k..]);
}

/// [`gemm_bt_bias_rows_bf16`] reading a prepacked A operand
/// (see [`pack_bt_panels`]); bit-identical output.
///
/// The full-tile inner loop walks `packed` panels `k`-major, so the
/// four accumulator chains update from one contiguous 4-lane load per
/// `k` step instead of four strided row reads — the layout change that
/// lets steady-state batched forwards never touch the row-major weight
/// tensors. Accumulation order per output element is exactly that of
/// the unpacked kernel.
pub fn gemm_packed_bt_bias_rows_bf16(
    packed: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    assert_eq!(packed.len(), m * k, "gemm packed A length");
    assert_eq!(b.len(), n * k, "gemm B length");
    assert_eq!(bias.len(), m, "gemm bias length");
    assert_eq!(out.len(), m * n, "gemm output length");
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NB).min(n);
        let mut i = 0;
        while i + MR <= m {
            let panel = &packed[i * k..(i + MR) * k];
            for j in j0..j1 {
                let bj = &b[j * k..(j + 1) * k];
                let mut acc = [bias[i], bias[i + 1], bias[i + 2], bias[i + 3]];
                for (&x, av) in bj.iter().zip(panel.chunks_exact(MR)) {
                    acc[0] += av[0] * x;
                    acc[1] += av[1] * x;
                    acc[2] += av[2] * x;
                    acc[3] += av[3] * x;
                }
                out[i * n + j] = bf16_round(acc[0]);
                out[(i + 1) * n + j] = bf16_round(acc[1]);
                out[(i + 2) * n + j] = bf16_round(acc[2]);
                out[(i + 3) * n + j] = bf16_round(acc[3]);
            }
            i += MR;
        }
        // Tail rows sit row-major at their unpacked offsets.
        for r in i..m {
            let ar = &packed[r * k..(r + 1) * k];
            for j in j0..j1 {
                let bj = &b[j * k..(j + 1) * k];
                let mut acc = bias[r];
                for t in 0..k {
                    acc += ar[t] * bj[t];
                }
                out[r * n + j] = bf16_round(acc);
            }
        }
        j0 = j1;
    }
}

/// `out[o] = bf16(bias[o] + dot(w[o], x))` — a dense layer on one input
/// row, reading the `[n, k]` weight operand prepacked by
/// [`pack_bt_panels`].
///
/// Each full panel feeds four accumulator chains from one contiguous
/// 4-lane load per `k` step; per-output accumulation order matches the
/// naive loop, so the output is bit-identical to it.
pub fn matvec_packed_bias_bf16(
    packed: &[f32],
    bias: &[f32],
    x: &[f32],
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    assert_eq!(packed.len(), n * k, "matvec packed weight length");
    assert_eq!(bias.len(), n, "matvec bias length");
    assert_eq!(x.len(), k, "matvec input length");
    assert_eq!(out.len(), n, "matvec output length");
    let mut o = 0;
    while o + MR <= n {
        let panel = &packed[o * k..(o + MR) * k];
        let mut acc = [bias[o], bias[o + 1], bias[o + 2], bias[o + 3]];
        for (&xv, wv) in x.iter().zip(panel.chunks_exact(MR)) {
            acc[0] += wv[0] * xv;
            acc[1] += wv[1] * xv;
            acc[2] += wv[2] * xv;
            acc[3] += wv[3] * xv;
        }
        out[o] = bf16_round(acc[0]);
        out[o + 1] = bf16_round(acc[1]);
        out[o + 2] = bf16_round(acc[2]);
        out[o + 3] = bf16_round(acc[3]);
        o += MR;
    }
    for r in o..n {
        let wr = &packed[r * k..(r + 1) * k];
        let mut acc = bias[r];
        for t in 0..k {
            acc += wr[t] * x[t];
        }
        out[r] = bf16_round(acc);
    }
}

/// Fused LSTM gate pre-activations over prepacked weights: one
/// timestep's `gates[g] = bias[g] + dot(wx[g], x_t) + dot(wh[g], h)`
/// for every sequence in a batch, with no rounding.
///
/// `packed_wx` / `packed_wh` are `[4 * hidden, input]` / `[4 * hidden,
/// hidden]` operands packed by [`pack_bt_panels`]. Sample `s` reads its
/// timestep input at `x[x_off + s * x_stride ..][..input]` (a strided
/// view into a sample-major `[batch, steps, input]` sequence buffer)
/// and its hidden state at `h[s * hidden..]`; its gates land at
/// `gates[s * 4 * hidden..]`. Per (sample, gate) the accumulation is
/// bias, then the `wx` dot, then the `wh` dot — exactly the naive
/// per-gate loop.
#[allow(clippy::too_many_arguments)]
pub fn lstm_gates_packed_batch(
    packed_wx: &[f32],
    packed_wh: &[f32],
    bias: &[f32],
    x: &[f32],
    x_off: usize,
    x_stride: usize,
    h: &[f32],
    batch: usize,
    input: usize,
    hidden: usize,
    gates: &mut [f32],
) {
    let n = 4 * hidden;
    assert_eq!(packed_wx.len(), n * input, "lstm packed wx length");
    assert_eq!(packed_wh.len(), n * hidden, "lstm packed wh length");
    assert_eq!(bias.len(), n, "lstm bias length");
    assert_eq!(h.len(), batch * hidden, "lstm hidden length");
    assert_eq!(gates.len(), batch * n, "lstm gates length");
    if batch > 0 {
        assert!(
            x.len() >= x_off + (batch - 1) * x_stride + input,
            "lstm sequence buffer too short"
        );
    }
    for s in 0..batch {
        let xt = &x[x_off + s * x_stride..x_off + s * x_stride + input];
        let hs = &h[s * hidden..(s + 1) * hidden];
        let grow = &mut gates[s * n..(s + 1) * n];
        let mut g = 0;
        while g + MR <= n {
            let px = &packed_wx[g * input..(g + MR) * input];
            let mut acc = [bias[g], bias[g + 1], bias[g + 2], bias[g + 3]];
            for (&xv, wv) in xt.iter().zip(px.chunks_exact(MR)) {
                acc[0] += wv[0] * xv;
                acc[1] += wv[1] * xv;
                acc[2] += wv[2] * xv;
                acc[3] += wv[3] * xv;
            }
            let ph = &packed_wh[g * hidden..(g + MR) * hidden];
            for (&hv, wv) in hs.iter().zip(ph.chunks_exact(MR)) {
                acc[0] += wv[0] * hv;
                acc[1] += wv[1] * hv;
                acc[2] += wv[2] * hv;
                acc[3] += wv[3] * hv;
            }
            grow[g] = acc[0];
            grow[g + 1] = acc[1];
            grow[g + 2] = acc[2];
            grow[g + 3] = acc[3];
            g += MR;
        }
        for r in g..n {
            let mut acc = bias[r];
            let wxr = &packed_wx[r * input..(r + 1) * input];
            for i in 0..input {
                acc += wxr[i] * xt[i];
            }
            let whr = &packed_wh[r * hidden..(r + 1) * hidden];
            for j in 0..hidden {
                acc += whr[j] * hs[j];
            }
            grow[r] = acc;
        }
    }
}

/// Direct convolution for width-1 kernels at unit stride with no
/// horizontal padding — the dominant layer shape in all three benchmark
/// networks (every temporal `(kh, 1)` convolution and every 1x1
/// inception branch). Bit-identical to `im2col` + GEMM.
///
/// With `kw == 1`, `stride == (1, 1)`, `pw == 0`, the im2col "patch
/// column" for tap `t = (ic, ky)` is just the input channel shifted by
/// `(ky - ph)` rows — so instead of materializing an `[oh * ow, k]`
/// patch matrix and re-reading it, this kernel accumulates each tap as
/// one scalar-times-slice pass over the `f32` workspace `acc` (length
/// `oh * w`), which vectorizes as a pure axpy. Per output element the
/// accumulation order is exactly the GEMM's: seeded with the bias,
/// taps in increasing `(ic, ky)` order, rounded once at the end.
/// Out-of-range taps add `weight * 0.0`, exactly as the GEMM multiplies
/// the patch matrix's materialized zeros.
///
/// `a` is the row-major `[out_c, in_c * kh]` kernel matrix; `x` is one
/// `[in_c, h, w]` sample; `out` is its `[out_c, oh * w]` output.
///
/// # Panics
///
/// Panics on buffer-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_kw1_direct_bf16(
    a: &[f32],
    bias: &[f32],
    x: &[f32],
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    ph: usize,
    out_c: usize,
    acc: &mut [f32],
    out: &mut [f32],
) {
    let k = in_c * kh;
    let oh = h + 2 * ph + 1 - kh;
    let positions = oh * w;
    assert_eq!(a.len(), out_c * k, "direct conv kernel length");
    assert_eq!(bias.len(), out_c, "direct conv bias length");
    assert_eq!(x.len(), in_c * h * w, "direct conv input length");
    assert_eq!(acc.len(), positions, "direct conv workspace length");
    assert_eq!(out.len(), out_c * positions, "direct conv output length");
    for oc in 0..out_c {
        acc.fill(bias[oc]);
        let wrow = &a[oc * k..(oc + 1) * k];
        for ic in 0..in_c {
            let chan = &x[ic * h * w..(ic + 1) * h * w];
            for ky in 0..kh {
                let wv = wrow[ic * kh + ky];
                // Output rows whose tap row `oy + ky - ph` is in bounds.
                let lo = ph.saturating_sub(ky).min(oh);
                let hi = (h + ph).saturating_sub(ky).clamp(lo, oh);
                // Padded taps contribute `wv * 0.0` (a signed zero),
                // matching the GEMM against materialized zeros.
                let z = wv * 0.0;
                for v in &mut acc[..lo * w] {
                    *v += z;
                }
                for v in &mut acc[hi * w..] {
                    *v += z;
                }
                let src = &chan[(lo + ky - ph) * w..(hi + ky - ph) * w];
                for (av, &xv) in acc[lo * w..hi * w].iter_mut().zip(src) {
                    *av += wv * xv;
                }
            }
        }
        for (o, &v) in out[oc * positions..(oc + 1) * positions]
            .iter_mut()
            .zip(acc.iter())
        {
            *o = bf16_round(v);
        }
    }
}

/// Whole-batch [`im2col`]: unfolds a sample-major `[batch, in_c, h, w]`
/// activation block into the stacked `[batch * oh * ow, in_c * kh * kw]`
/// patch matrix, sample `s`'s patch rows occupying the contiguous row
/// range `[s * oh * ow, (s + 1) * oh * ow)`.
#[allow(clippy::too_many_arguments)]
pub fn im2col_batch(
    x: &[f32],
    batch: usize,
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: (usize, usize),
    padding: (usize, usize),
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let sample_in = in_c * h * w;
    let sample_out = oh * ow * in_c * kh * kw;
    assert_eq!(x.len(), batch * sample_in, "im2col_batch input length");
    assert_eq!(out.len(), batch * sample_out, "im2col_batch patch length");
    for s in 0..batch {
        im2col(
            &x[s * sample_in..(s + 1) * sample_in],
            in_c,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            oh,
            ow,
            &mut out[s * sample_out..(s + 1) * sample_out],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar model of the naive convolution accumulation, for one output.
    #[allow(clippy::too_many_arguments)]
    fn naive_conv_cell(
        x: &[f32],
        kern: &[f32],
        bias: f32,
        (in_c, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: (usize, usize),
        (ph, pw): (usize, usize),
        (oy, ox): (usize, usize),
        oc: usize,
    ) -> f32 {
        let mut acc = bias;
        let (base_y, base_x) = (oy * stride.0, ox * stride.1);
        for ic in 0..in_c {
            for ky in 0..kh {
                let iy = base_y + ky;
                if iy < ph || iy - ph >= h {
                    continue;
                }
                for kx in 0..kw {
                    let ix = base_x + kx;
                    if ix < pw || ix - pw >= w {
                        continue;
                    }
                    acc += kern[((oc * in_c + ic) * kh + ky) * kw + kx]
                        * x[(ic * h + iy - ph) * w + ix - pw];
                }
            }
        }
        bf16_round(acc)
    }

    #[test]
    fn im2col_gemm_matches_naive_conv_with_padding() {
        let (in_c, h, w) = (2usize, 4usize, 3usize);
        let (kh, kw) = (3usize, 2usize);
        let (stride, padding) = ((1usize, 1usize), (1usize, 1usize));
        let (oh, ow) = (4usize, 4usize); // (h + 2*1 - 3) + 1, (w + 2*1 - 2) + 1
        let out_c = 3usize;
        let k = in_c * kh * kw;
        let x: Vec<f32> = (0..in_c * h * w).map(|i| (i as f32 - 7.0) * 0.3).collect();
        let kern: Vec<f32> = (0..out_c * k)
            .map(|i| ((i % 11) as f32 - 5.0) * 0.1)
            .collect();
        let bias = vec![0.25, -0.5, 1.0];
        let mut patches = vec![0.0; oh * ow * k];
        im2col(
            &x,
            in_c,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            oh,
            ow,
            &mut patches,
        );
        let mut out = vec![0.0; out_c * oh * ow];
        gemm_bt_bias_rows_bf16(&kern, &patches, &bias, out_c, oh * ow, k, &mut out);
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let want = naive_conv_cell(
                        &x,
                        &kern,
                        bias[oc],
                        (in_c, h, w),
                        (kh, kw),
                        stride,
                        padding,
                        (oy, ox),
                        oc,
                    );
                    assert_eq!(
                        out[(oc * oh + oy) * ow + ox],
                        want,
                        "oc={oc} oy={oy} ox={ox}"
                    );
                }
            }
        }
    }

    /// Scalar model of one timestep's fused LSTM gates for one sequence.
    fn scalar_gates(wx: &[f32], wh: &[f32], bias: &[f32], xt: &[f32], h: &[f32]) -> Vec<f32> {
        let (input, hidden) = (xt.len(), h.len());
        (0..bias.len())
            .map(|g| {
                let mut acc = bias[g];
                for i in 0..input {
                    acc += wx[g * input + i] * xt[i];
                }
                for j in 0..hidden {
                    acc += wh[g * hidden + j] * h[j];
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matvec_matches_scalar_loop() {
        let (n, k) = (7usize, 13usize); // odd n exercises the remainder path
        let w: Vec<f32> = (0..n * k).map(|i| (i as f32).sin()).collect();
        let x: Vec<f32> = (0..k).map(|i| (i as f32).cos()).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
        let mut packed = Vec::new();
        pack_bt_panels(&w, n, k, &mut packed);
        let mut out = vec![0.0; n];
        matvec_packed_bias_bf16(&packed, &bias, &x, n, k, &mut out);
        for o in 0..n {
            let mut acc = bias[o];
            for t in 0..k {
                acc += w[o * k + t] * x[t];
            }
            assert_eq!(out[o], bf16_round(acc), "neuron {o}");
        }
    }

    #[test]
    fn lstm_gates_match_scalar_loop() {
        let (input, hidden) = (5usize, 3usize); // 4*hidden = 12 = 3 tiles
        let n = 4 * hidden;
        let wx: Vec<f32> = (0..n * input).map(|i| (i as f32 * 0.7).sin()).collect();
        let wh: Vec<f32> = (0..n * hidden).map(|i| (i as f32 * 1.3).cos()).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.05).collect();
        let xt: Vec<f32> = (0..input).map(|i| i as f32 * 0.2 - 0.4).collect();
        let h: Vec<f32> = (0..hidden).map(|i| 0.1 * i as f32).collect();
        let (mut pwx, mut pwh) = (Vec::new(), Vec::new());
        pack_bt_panels(&wx, n, input, &mut pwx);
        pack_bt_panels(&wh, n, hidden, &mut pwh);
        let mut gates = vec![0.0; n];
        lstm_gates_packed_batch(
            &pwx, &pwh, &bias, &xt, 0, input, &h, 1, input, hidden, &mut gates,
        );
        assert_eq!(gates, scalar_gates(&wx, &wh, &bias, &xt, &h));
    }

    #[test]
    fn packed_gemm_matches_unpacked_across_tile_boundaries() {
        // m spans below/at/above MR, n spans below/at/above NB.
        for &m in &[1usize, 3, 4, 5, 8, 9] {
            for &n in &[1usize, 63, 64, 65] {
                let k = 7usize;
                let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
                let b: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.19).cos()).collect();
                let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.2).collect();
                let mut packed = Vec::new();
                pack_bt_panels(&a, m, k, &mut packed);
                let mut want = vec![0.0; m * n];
                gemm_bt_bias_rows_bf16(&a, &b, &bias, m, n, k, &mut want);
                let mut got = vec![0.0; m * n];
                gemm_packed_bt_bias_rows_bf16(&packed, &b, &bias, m, n, k, &mut got);
                assert_eq!(got, want, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn packed_matvec_matches_unpacked() {
        for &n in &[1usize, 4, 7, 16] {
            let k = 9usize;
            let w: Vec<f32> = (0..n * k).map(|i| (i as f32).sin()).collect();
            let x: Vec<f32> = (0..k).map(|i| (i as f32).cos()).collect();
            let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.05).collect();
            let mut packed = Vec::new();
            pack_bt_panels(&w, n, k, &mut packed);
            // The unpacked oracle: a one-column GEMM against the
            // row-major weights.
            let mut want = vec![0.0; n];
            gemm_bt_bias_rows_bf16(&w, &x, &bias, n, 1, k, &mut want);
            let mut got = vec![0.0; n];
            matvec_packed_bias_bf16(&packed, &bias, &x, n, k, &mut got);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn packed_lstm_gates_match_serial_kernel() {
        // Every sample of a batched sweep equals the serial per-sequence
        // gate loop.
        let (input, hidden, batch) = (5usize, 3usize, 4usize); // 4*hidden = 12
        let n = 4 * hidden;
        let wx: Vec<f32> = (0..n * input).map(|i| (i as f32 * 0.7).sin()).collect();
        let wh: Vec<f32> = (0..n * hidden).map(|i| (i as f32 * 1.3).cos()).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.05).collect();
        let (mut pwx, mut pwh) = (Vec::new(), Vec::new());
        pack_bt_panels(&wx, n, input, &mut pwx);
        pack_bt_panels(&wh, n, hidden, &mut pwh);
        // Sample-major [batch, steps=2, input]; read timestep 1.
        let steps = 2usize;
        let x: Vec<f32> = (0..batch * steps * input)
            .map(|i| (i as f32 * 0.11).sin())
            .collect();
        let h: Vec<f32> = (0..batch * hidden).map(|i| 0.1 * i as f32).collect();
        let mut gates = vec![0.0; batch * n];
        lstm_gates_packed_batch(
            &pwx,
            &pwh,
            &bias,
            &x,
            input,
            steps * input,
            &h,
            batch,
            input,
            hidden,
            &mut gates,
        );
        for s in 0..batch {
            let xt = &x[s * steps * input + input..s * steps * input + 2 * input];
            let want = scalar_gates(&wx, &wh, &bias, xt, &h[s * hidden..(s + 1) * hidden]);
            assert_eq!(&gates[s * n..(s + 1) * n], &want[..], "sample {s}");
        }
    }

    #[test]
    fn batched_im2col_stacks_per_sample_unfolds() {
        let (batch, in_c, h, w) = (3usize, 2usize, 4usize, 3usize);
        let (kh, kw) = (2usize, 2usize);
        let (stride, padding) = ((1usize, 1usize), (1usize, 0usize));
        let (oh, ow) = (5usize, 2usize);
        let k = in_c * kh * kw;
        let x: Vec<f32> = (0..batch * in_c * h * w)
            .map(|i| (i as f32 - 11.0) * 0.25)
            .collect();
        let mut stacked = vec![0.0; batch * oh * ow * k];
        im2col_batch(
            &x,
            batch,
            in_c,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            oh,
            ow,
            &mut stacked,
        );
        for s in 0..batch {
            let mut single = vec![0.0; oh * ow * k];
            im2col(
                &x[s * in_c * h * w..(s + 1) * in_c * h * w],
                in_c,
                h,
                w,
                kh,
                kw,
                stride,
                padding,
                oh,
                ow,
                &mut single,
            );
            assert_eq!(
                &stacked[s * oh * ow * k..(s + 1) * oh * ow * k],
                &single[..],
                "sample {s}"
            );
        }
    }

    #[test]
    fn attn_kernels_match_scalar_loops() {
        let (t, d_model, off, d_head) = (5usize, 8usize, 2usize, 6usize);
        let q: Vec<f32> = (0..t * d_model).map(|i| (i as f32 * 0.31).sin()).collect();
        let k: Vec<f32> = (0..t * d_model).map(|i| (i as f32 * 0.17).cos()).collect();
        let v: Vec<f32> = (0..t * d_model).map(|i| (i as f32 * 0.11).sin()).collect();
        let scale = 1.0 / (d_head as f32).sqrt();
        let mut scores = vec![0.0; t * t];
        attn_scores(&q, &k, t, d_model, off, d_head, scale, &mut scores);
        for i in 0..t {
            for j in 0..t {
                let qi = &q[i * d_model + off..i * d_model + off + d_head];
                let kj = &k[j * d_model + off..j * d_model + off + d_head];
                let dot: f32 = qi.iter().zip(kj).map(|(a, b)| a * b).sum();
                assert_eq!(scores[i * t + j], dot * scale, "score {i},{j}");
            }
        }
        let mut ctx = vec![0.0; t * d_model];
        attn_context(&scores, &v, t, d_model, off, d_head, &mut ctx);
        for i in 0..t {
            for d in 0..d_head {
                let mut acc = 0.0f32;
                for j in 0..t {
                    acc += scores[i * t + j] * v[j * d_model + off + d];
                }
                assert_eq!(ctx[i * d_model + off + d], acc, "ctx {i},{d}");
            }
        }
    }
}
