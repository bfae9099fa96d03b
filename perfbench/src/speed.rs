//! Host speed, measured with a reference kernel of the benchmark's own.
//!
//! The virtual machines this benchmark runs on change speed on their own:
//! a neighbour's load slows the code by 1.3x–1.9x for seconds or minutes
//! at a time, in two clear states, and thread CPU time tracks wall time
//! through it. A fixed kernel that no change to the repository touches,
//! the same kind of work as the models' layers, slows down with the host:
//! timing it now and then tells how fast the host ran at each moment, and
//! the measured times are rescaled to the kernel's nominal speed. Over
//! eight minutes of runs a DeepLOB forward's median swung 0.9x–1.9x
//! between 30 s stretches, while its ratio to a dot-product kernel held
//! within 1.3 % (IQR over median). Timed in a replay's idle gaps, though,
//! the dot products slowed 1.8x between the states where a DeepLOB tick
//! slowed 1.5x and a vectorized row update 1.4x; one dot-product pass and
//! two row-update passes per call follow the DeepLOB, TransLOB and
//! back-test workloads within a few percent from state to state.

use std::hint::black_box;
use std::time::Instant;

const M: usize = 8;
const K: usize = 64;
const N: usize = 32;

/// Nanoseconds one reference call takes at the nominal host speed. It
/// sets the scale of the rescaled figures only: about the call's time in
/// a replay's idle gaps in the fast state of the 2-vCPU Intel Xeon VM the
/// benchmark was tuned on.
pub const NOMINAL_NS: f64 = 25_000.0;

/// The reference kernel and its inputs.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

fn bf16(x: f32) -> f32 {
    f32::from_bits((x.to_bits().wrapping_add(0x8000)) & 0xffff_0000)
}

impl Default for Reference {
    fn default() -> Reference {
        Reference {
            a: (0..M * K).map(|i| (i % 17) as f32 * 0.1).collect(),
            b: (0..K * N).map(|i| (i % 13) as f32 * 0.1).collect(),
            c: vec![0.0; M * N],
        }
    }
}

impl Reference {
    /// Runs the kernel once: the same BF16-rounded product of an 8 × 64
    /// and a 64 × 32 matrix three times, once as dot products (a chain of
    /// dependent adds) and twice as row updates (which vectorize). Under a
    /// busy neighbour the first slows down more than the models' layers
    /// and the second less; together they slow down as the models do.
    pub fn run(&mut self) -> f32 {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        for i in 0..M {
            for j in 0..N {
                let mut s = 0.0f32;
                for p in 0..K {
                    s += a[i * K + p] * b[j * K + p];
                }
                self.c[i * N + j] = bf16(s);
            }
        }
        for _ in 0..2 {
            let b = black_box(&self.b);
            self.c.fill(0.0);
            for i in 0..M {
                let out = &mut self.c[i * N..(i + 1) * N];
                for p in 0..K {
                    let x = a[i * K + p];
                    for (o, w) in out.iter_mut().zip(&b[p * N..(p + 1) * N]) {
                        *o += x * w;
                    }
                }
                for o in out.iter_mut() {
                    *o = bf16(*o);
                }
            }
        }
        black_box(self.c[M * N - 1])
    }

    /// Wall nanoseconds of one call.
    pub fn time_ns(&mut self) -> f64 {
        let start = Instant::now();
        self.run();
        start.elapsed().as_nanos() as f64
    }

    /// The factor that turns a time measured now into one at the nominal
    /// speed: nominal over the median of `calls` calls, after one untimed
    /// call that brings the kernel's code and data into cache.
    pub fn factor(&mut self, calls: usize) -> f64 {
        self.run();
        let ns: Vec<f64> = (0..calls.max(1)).map(|_| self.time_ns()).collect();
        NOMINAL_NS / median(&ns).expect("at least one call")
    }
}

/// Reference timings taken during a replay: (clock ns at the start, ns
/// the call took).
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<(u64, f64)>);

impl Samples {
    /// The factor that turns a service time measured in each window of
    /// `window_ns` into one at the nominal speed: nominal over the
    /// window's median reference time. A window without samples takes the
    /// median over all of them; with no samples at all, the factor is 1.
    pub fn factors(&self, window_ns: u64, n_windows: usize) -> Vec<f64> {
        let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); n_windows];
        for &(at, ns) in &self.0 {
            let w = ((at / window_ns) as usize).min(n_windows.saturating_sub(1));
            if let Some(v) = by_window.get_mut(w) {
                v.push(ns);
            }
        }
        let all: Vec<f64> = self.0.iter().map(|s| s.1).collect();
        let overall = median(&all).map_or(1.0, |m| NOMINAL_NS / m);
        by_window
            .iter()
            .map(|v| median(v).map_or(overall, |m| NOMINAL_NS / m))
            .collect()
    }
}

fn median(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| crate::stats::Spread::of(v).median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_each_window_to_the_nominal_speed() {
        let s = Samples(vec![
            (0, NOMINAL_NS),
            (10, NOMINAL_NS * 2.0),
            (20, NOMINAL_NS * 2.0),
            (150, NOMINAL_NS * 4.0),
        ]);
        // Window 0 ran at half speed (median of 1, 2, 2), window 1 at a
        // quarter; windows 2 and 3 had no sample and take the overall
        // median (of 1, 2, 2, 4).
        assert_eq!(s.factors(100, 4), vec![0.5, 0.25, 0.5, 0.5]);
        assert_eq!(Samples::default().factors(100, 2), vec![1.0, 1.0]);
        // Samples past the last window count in it.
        let late = Samples(vec![(1_000, NOMINAL_NS / 2.0)]);
        assert_eq!(late.factors(100, 2), vec![2.0, 2.0]);
    }

    #[test]
    fn the_reference_kernel_is_deterministic() {
        let (mut r1, mut r2) = (Reference::default(), Reference::default());
        assert_eq!(r1.run().to_bits(), r2.run().to_bits());
        assert!(r1.time_ns() > 0.0);
    }
}
