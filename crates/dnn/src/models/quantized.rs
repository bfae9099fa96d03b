//! The INT8 quantized inference path.
//!
//! "The lower INT precision, INT8 and INT4, are still supported for the
//! acceleration of the quantized networks for the case that the
//! processing latency is prioritized over the accuracy due to the
//! equations of the profit and loss in the target exchange servers"
//! (§III-C). [`QuantizedCnn`] post-training-quantizes a [`VanillaCnn`]
//! with symmetric per-tensor INT8 weights; the accelerator runs it at 4x
//! throughput (64 TOPS vs 16 TFLOPS) at the cost of small prediction
//! deviations that this module's tests quantify.
//!
//! It is a reference-only model for that accuracy study (the Table II
//! deployment runs BF16): it is never registered for serving, does not
//! implement [`crate::Model`], and has only the naive
//! [`QuantizedCnn::forward_reference`]. The INT8 *timing* lives in the
//! accelerator's latency model, not here.

use crate::bf16::{dequantize_int8, quantize_int8};
use crate::model::Prediction;
use crate::models::vanilla_cnn::{CnnSpec, VanillaCnn};
use crate::ops::activation::{relu, softmax_last_dim};
use crate::ops::{Conv2d, LinearInt8};
use crate::tensor::Tensor;

/// An INT8-quantized Vanilla CNN.
///
/// Convolution stays in BF16 (activation ranges vary per spatial
/// position; quantizing them per-tensor costs the most accuracy for the
/// least work), while the dense layers — the bulk of the parameters —
/// run the symmetric INT8 kernel. This mirrors the common mixed-precision
/// deployment the paper's latency-priority mode targets.
#[derive(Debug, Clone)]
pub struct QuantizedCnn {
    spec: CnnSpec,
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    fc1: LinearInt8,
    fc2: LinearInt8,
}

impl QuantizedCnn {
    /// Quantizes an existing BF16 network.
    pub fn from_float(model: &VanillaCnn) -> Self {
        QuantizedCnn {
            spec: model.spec(),
            conv1: model.conv1_ref().clone(),
            conv2: model.conv2_ref().clone(),
            conv3: model.conv3_ref().clone(),
            fc1: LinearInt8::from_linear(model.fc1_ref()),
            fc2: LinearInt8::from_linear(model.fc2_ref()),
        }
    }

    /// The spec of the underlying architecture.
    pub fn spec(&self) -> CnnSpec {
        self.spec
    }

    /// The forward pass, built entirely from the layers' naive
    /// `forward_reference` paths.
    pub fn forward_reference(&self, input: &Tensor) -> Prediction {
        assert_eq!(
            input.shape(),
            [self.spec.window, self.spec.features],
            "input must be [window, features]"
        );
        let x = input
            .clone()
            .reshape(&[1, self.spec.window, self.spec.features]);
        let mut x = self.conv1.forward_reference(&x);
        relu(&mut x);
        let mut x = self.conv2.forward_reference(&x);
        relu(&mut x);
        let mut x = self.conv3.forward_reference(&x);
        relu(&mut x);
        let flat_len = x.len();
        let flat = x.reshape(&[flat_len]);
        let mut h = self.fc1.forward_reference(&flat);
        relu(&mut h);
        let mut logits = self.fc2.forward_reference(&h);
        softmax_last_dim(&mut logits);
        let d = logits.data();
        Prediction::new([d[0], d[1], d[2]])
    }
}

/// Quantization error statistics between a float model and its INT8
/// counterpart, over a batch of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantizationReport {
    /// Inputs evaluated.
    pub samples: usize,
    /// How often the predicted direction agreed.
    pub direction_agreement: f64,
    /// Mean absolute probability deviation across classes.
    pub mean_abs_prob_error: f64,
}

/// Compares a float model against its quantized twin over `inputs`,
/// both run through their `forward_reference` paths.
pub fn quantization_report(
    float: &VanillaCnn,
    quant: &QuantizedCnn,
    inputs: &[Tensor],
) -> QuantizationReport {
    if inputs.is_empty() {
        return QuantizationReport::default();
    }
    let mut agree = 0usize;
    let mut abs_err = 0.0f64;
    for input in inputs {
        let a = float.forward_reference(input);
        let b = quant.forward_reference(input);
        if a.direction() == b.direction() {
            agree += 1;
        }
        for (x, y) in a.probs.iter().zip(b.probs) {
            abs_err += (x - y).abs() as f64;
        }
    }
    QuantizationReport {
        samples: inputs.len(),
        direction_agreement: agree as f64 / inputs.len() as f64,
        mean_abs_prob_error: abs_err / (inputs.len() * 3) as f64,
    }
}

/// Round-trip sanity used by tests: weights survive quantize→dequantize
/// within half a step.
pub fn weight_round_trip_error(values: &[f32]) -> f32 {
    let (q, scale) = quantize_int8(values);
    let back = dequantize_int8(&q, scale);
    values
        .iter()
        .zip(&back)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_for(seed: u64) -> (VanillaCnn, QuantizedCnn) {
        let float = CnnSpec::tiny().build(seed);
        let quant = QuantizedCnn::from_float(&float);
        (float, quant)
    }

    fn pair() -> (VanillaCnn, QuantizedCnn) {
        pair_for(11)
    }

    #[test]
    fn quantized_model_runs_and_sums_to_one() {
        let (float, quant) = pair();
        let x = Tensor::random(&[20, 40], 1.0, 1);
        let p = quant.forward_reference(&x);
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert_eq!(quant.spec(), float.spec());
        assert_eq!(quant.spec().window, 20);
    }

    /// Across a family of model seeds, INT8 keeps most decisions and
    /// moves probabilities only slightly — yet is genuinely lossy.
    #[test]
    fn quantization_preserves_most_decisions() {
        let inputs: Vec<Tensor> = (0..40)
            .map(|i| Tensor::random(&[20, 40], 1.0, 100 + i))
            .collect();
        for seed in 0..32 {
            let (float, quant) = pair_for(seed);
            let report = quantization_report(&float, &quant, &inputs);
            assert_eq!(report.samples, 40);
            assert!(
                report.direction_agreement >= 0.85,
                "seed {seed}: agreement {:.2}",
                report.direction_agreement
            );
            assert!(
                report.mean_abs_prob_error < 0.05,
                "seed {seed}: prob error {:.4}",
                report.mean_abs_prob_error
            );
            assert!(report.mean_abs_prob_error > 0.0, "seed {seed}: lossless");
        }
    }

    #[test]
    fn weight_error_bounded_by_half_step() {
        let values: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.017).collect();
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let err = weight_round_trip_error(&values);
        assert!(err <= max_abs / 127.0 * 0.5 + 1e-6, "err {err}");
    }

    #[test]
    fn empty_report_is_default() {
        let (float, quant) = pair();
        assert_eq!(
            quantization_report(&float, &quant, &[]),
            QuantizationReport::default()
        );
    }
}
