//! Spans recorded around the calls into each layer's public functions.
//!
//! The benchmark calls every layer itself, one after another, so layer
//! spans never nest: each is a leaf under the tick (or cell) that caused
//! it, and a layer's self time is its span's duration. What the spans
//! leave uncovered of the traced busy time is the benchmark's own glue.

use crate::stats::percentile;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers the benchmark times, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Parser,
    LocalBook,
    Offload,
    MultiOffload,
    Dnn,
    DnnBatch,
    Trading,
    Ilink,
    Feed,
    Sim,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Parser,
        Layer::LocalBook,
        Layer::Offload,
        Layer::MultiOffload,
        Layer::Dnn,
        Layer::DnnBatch,
        Layer::Trading,
        Layer::Ilink,
        Layer::Feed,
        Layer::Sim,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parser => "pipeline.parser",
            Layer::LocalBook => "pipeline.local_book",
            Layer::Offload => "pipeline.offload",
            Layer::MultiOffload => "pipeline.multi_offload",
            Layer::Dnn => "dnn.forward",
            Layer::DnnBatch => "dnn.forward_batch",
            Layer::Trading => "pipeline.trading",
            Layer::Ilink => "protocol.ilink",
            Layer::Feed => "feed",
            Layer::Sim => "sim",
        }
    }

    /// The metric naming the layer's share of the traced busy time.
    pub fn share_metric(self) -> &'static str {
        match self {
            Layer::Parser => "pipeline.parser.self_share",
            Layer::LocalBook => "pipeline.local_book.self_share",
            Layer::Offload => "pipeline.offload.self_share",
            Layer::MultiOffload => "pipeline.multi_offload.self_share",
            Layer::Dnn => "dnn.forward.self_share",
            Layer::DnnBatch => "dnn.forward_batch.self_share",
            Layer::Trading => "pipeline.trading.self_share",
            Layer::Ilink => "protocol.ilink.self_share",
            Layer::Feed => "feed.self_share",
            Layer::Sim => "sim.self_share",
        }
    }
}

/// Wraps calls into a layer. The untraced implementation compiles to the
/// bare call.
pub trait Tracer {
    /// Sets the request later spans belong to (a tick, a batch, a cell).
    fn request(&mut self, id: u64);
    /// Runs `f` inside a span of `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// No tracing.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn request(&mut self, _: u64) {}

    #[inline(always)]
    fn span<R>(&mut self, _: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    origin: Instant,
    request: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            request: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Self nanoseconds of every span of `layer`.
    pub fn self_ns(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Nearest-rank percentile of `layer`'s self time, 0 when the layer
    /// was never called.
    pub fn pct_ns(&self, layer: Layer, q: f64) -> f64 {
        percentile(&mut self.self_ns(layer), q).map_or(0.0, |p| p.value)
    }

    /// Total self nanoseconds of `layer`.
    pub fn total_ns(&self, layer: Layer) -> f64 {
        self.self_ns(layer).iter().fold(0.0, |a, b| a + b)
    }

    /// One line per span: layer, request, start and end in ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("layer\trequest\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.layer.name(),
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

impl Tracer for Spans {
    fn request(&mut self, id: u64) {
        self.request = id;
    }

    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            request: self.request,
            start_ns: start,
            end_ns: end,
        });
        out
    }
}

/// Spans must cover at least this share of the traced busy time, or the
/// per-layer breakdown does not explain the whole and the run fails.
pub const MIN_RECONCILE_SHARE: f64 = 0.9;

/// Reconciles `spans` against the traced busy time: records every
/// layer's share of it, the layers' summed share, and the tracing
/// overhead (traced minus untraced busy time per unit of work), and fails
/// the run when the spans cover less than [`MIN_RECONCILE_SHARE`].
pub fn reconcile(
    out: &mut crate::Outcome,
    spans: &Spans,
    traced_busy_ns: f64,
    untraced_busy_ns: f64,
    units: u64,
) {
    let mut covered = 0.0;
    for layer in Layer::ALL {
        let ns = spans.total_ns(layer);
        covered += ns;
        out.metrics
            .insert(layer.share_metric(), ns / traced_busy_ns);
    }
    let share = covered / traced_busy_ns;
    out.metrics.insert("trace.reconcile_share", share);
    out.metrics.insert(
        "trace.overhead_ns_per_tick",
        (traced_busy_ns - untraced_busy_ns) / units.max(1) as f64,
    );
    out.check(
        "spans cover the traced busy time",
        share >= MIN_RECONCILE_SHARE,
    );
}
