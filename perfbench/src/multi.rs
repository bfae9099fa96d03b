//! `t2t_multi8_translob`: cross-symbol batched inference.
//!
//! A `MultiSymbolTrader` with eight shards serves TransLOB on correlated
//! sessions (shared market factor 0.3, Zipf skew 1.0, about 2 000 ticks/s
//! in aggregate) replayed open-loop at the recorded pace. A tick of the
//! shared factor queues a query on every shard at once, so batched
//! forwards decide how many of them meet the horizon. Each prediction
//! goes through its shard's trading engine and order encoder.

use crate::replay::{self, drain_loop, BatchServer, Ingest, WallClock};
use crate::single::{open_limits, WARM_SECS};
use crate::trace::{self, Layer, Spans, Tracer};
use crate::{timed_setup, Args, Outcome, MODEL_SEED};
use lighttrader::dnn::{ModelKind, ModelRegistry, Prediction, Tensor};
use lighttrader::feed::{
    HawkesParams, MultiMarketSession, MultiSessionBuilder, NormStats, TickTrace,
};
use lighttrader::pipeline::{MultiOffload, PipelineLatencies, ShardTicket, TradingEngine};
use lighttrader::sim::traffic::scheduling_deadline_for;
use lighttrader::MultiSymbolTrader;

const KIND: ModelKind = ModelKind::TransLob;
const SHARDS: usize = 8;
/// Share of each symbol's base intensity carried by the shared market
/// factor. At 0.5 half the ticks are shared-factor ticks, each queueing
/// eight queries, so the median tick sits exactly between the one-query
/// and the eight-query latency modes and flips between them from seed to
/// seed (the median latency spread 0.37 over five seeds). At 0.3 the
/// median is a one-query tick and the eight-query batches set the tail.
const SHARED_FACTOR: f64 = 0.3;
/// Row-block workers of the batched forwards: serial, so a batch never
/// pays a thread spawn and the run stays within the machine's cores.
const BATCH_THREADS: usize = 1;

struct Inputs {
    session: MultiMarketSession,
    merged: TickTrace,
    shards: Vec<u16>,
    /// Whether each merged tick finds its shard's window full.
    warm_at: Vec<bool>,
    /// Merged ticks in the closed-loop warm-up.
    warm: usize,
}

impl Inputs {
    /// Each shard's normalization statistics, in shard order.
    fn norms(&self) -> Vec<NormStats> {
        self.session
            .sessions
            .iter()
            .map(|s| s.norm.clone())
            .collect()
    }
}

fn generate(seed: u64, secs: f64, window: usize) -> Inputs {
    // Per-symbol base µ = 125/s at branching 0.5 is 250 ticks/s per
    // symbol, own and shared together: 8 × 250 ≈ 2 000 ticks/s. At the
    // single-symbol branching of 0.8 the shared-factor clusters overload
    // the batched forwards for milliseconds at a time, and the p99 spread
    // 0.62 (IQR over median) across six seeds against 0.26 at 0.5.
    let session = MultiSessionBuilder::new(HawkesParams::new(125.0, 100.0, 200.0))
        .symbols(SHARDS)
        .skew(1.0)
        .shared_fraction(SHARED_FACTOR)
        .duration_secs(WARM_SECS + secs)
        .seed(seed)
        .build();
    let (merged, shards) = session.merged();
    let mut seen = [0usize; SHARDS];
    let warm_at = shards
        .iter()
        .map(|&s| {
            seen[s as usize] += 1;
            seen[s as usize] >= window
        })
        .collect();
    let warm_ns = (WARM_SECS * 1e9) as u64;
    let warm = merged
        .ticks
        .iter()
        .filter(|t| t.ts.nanos() < warm_ns)
        .count();
    Inputs {
        session,
        merged,
        shards,
        warm_at,
        warm,
    }
}

/// One decided query: shard, tick id, prediction bits.
type Record = (u16, u64, [u32; 3]);

fn bits(p: &Prediction) -> [u32; 3] {
    p.probs.map(f32::to_bits)
}

/// FNV-1a over the sorted records: equal whatever the batch composition.
fn digest(records: &mut [Record]) -> u64 {
    records.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, id, b) in records.iter() {
        let bytes = [
            u64::from(*s),
            *id,
            u64::from(b[0]),
            u64::from(b[1]),
            u64::from(b[2]),
        ];
        for v in bytes {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// What both servers share: the trading engines and the bookkeeping of
/// which tick each shard's queued query came from.
struct Decide<'a> {
    inputs: &'a Inputs,
    trading: Vec<TradingEngine>,
    pending: [usize; SHARDS],
    records: Vec<Record>,
    orders: u64,
    order_bytes: u64,
}

impl<'a> Decide<'a> {
    fn new(inputs: &'a Inputs) -> Decide<'a> {
        Decide {
            inputs,
            trading: inputs
                .session
                .symbols()
                .into_iter()
                .map(|s| TradingEngine::new(s, open_limits()))
                .collect(),
            pending: [0; SHARDS],
            records: Vec::new(),
            orders: 0,
            order_bytes: 0,
        }
    }

    fn queued(&mut self, tick: usize, ticket: Option<ShardTicket>) -> Ingest {
        match ticket {
            Some(t) => {
                self.pending[t.shard as usize] = tick;
                Ingest::Queued
            }
            None if self.inputs.warm_at[tick] => Ingest::Dropped,
            None => Ingest::Warmup,
        }
    }

    /// Runs the shard's trading engine and encoder on one prediction.
    fn decide<T: Tracer>(
        &mut self,
        t: &mut T,
        ticket: &ShardTicket,
        prediction: &Prediction,
        served: &mut Vec<usize>,
    ) {
        let shard = ticket.shard as usize;
        let tick = self.pending[shard];
        let snapshot = &self.inputs.merged.ticks[tick].snapshot;
        let trading = &mut self.trading[shard];
        let order = t.span(Layer::Trading, || {
            trading.on_prediction(prediction, snapshot)
        });
        if let Ok(order) = order {
            let wire = t.span(Layer::Ilink, || order.encode());
            self.orders += 1;
            self.order_bytes += wire.len() as u64;
        }
        self.records
            .push((ticket.shard, ticket.ticket.tick_id, bits(prediction)));
        served.push(tick);
    }
}

/// The untraced server: `MultiSymbolTrader` itself.
struct Untraced<'a> {
    trader: MultiSymbolTrader,
    out: Vec<(ShardTicket, Prediction)>,
    decide: Decide<'a>,
}

impl BatchServer for Untraced<'_> {
    fn ingest(&mut self, tick: usize) -> Ingest {
        let inputs = self.decide.inputs;
        let record = &inputs.merged.ticks[tick];
        let ticket = self
            .trader
            .on_tick(inputs.shards[tick], &record.snapshot, record.ts);
        self.decide.queued(tick, ticket)
    }

    fn drain(&mut self, served: &mut Vec<usize>) {
        self.trader.drain_batch(&mut self.out);
        for (ticket, prediction) in &self.out {
            self.decide
                .decide(&mut trace::Off, ticket, prediction, served);
        }
    }
}

/// The traced server: the same public layers `MultiSymbolTrader` calls,
/// one span each.
struct Traced<'a> {
    offload: MultiOffload,
    registry: ModelRegistry,
    stages: PipelineLatencies,
    tickets: Vec<ShardTicket>,
    lanes: Vec<Tensor>,
    preds: Vec<Prediction>,
    spans: Spans,
    batch: u64,
    decide: Decide<'a>,
}

impl BatchServer for Traced<'_> {
    fn ingest(&mut self, tick: usize) -> Ingest {
        let inputs = self.decide.inputs;
        let record = &inputs.merged.ticks[tick];
        self.spans.request(tick as u64);
        let (offload, stages) = (&mut self.offload, &self.stages);
        let ticket = self.spans.span(Layer::MultiOffload, || {
            offload.on_tick_staged(inputs.shards[tick], &record.snapshot, record.ts, stages)
        });
        self.decide.queued(tick, ticket)
    }

    /// Pops the queue and stages each shard's window into a lane inside
    /// the batch span, as `MultiSymbolTrader::drain_batch` does.
    fn drain(&mut self, served: &mut Vec<usize>) {
        self.batch += 1;
        self.spans.request(self.batch);
        let (offload, registry, tickets, lanes, preds) = (
            &mut self.offload,
            &mut self.registry,
            &mut self.tickets,
            &mut self.lanes,
            &mut self.preds,
        );
        self.spans.span(Layer::DnnBatch, || {
            tickets.clear();
            offload.pop_batch_into(usize::MAX, tickets);
            let (window, width) = (offload.window(), offload.width());
            while lanes.len() < tickets.len() {
                lanes.push(Tensor::zeros(&[window, width]));
            }
            for (lane, t) in lanes.iter_mut().zip(tickets.iter()) {
                offload.write_shard_window_into(t.shard as usize, lane.data_mut());
            }
            registry.forward_batch(KIND, &lanes[..tickets.len()], preds);
        });
        for (ticket, prediction) in self.tickets.iter().zip(&self.preds) {
            self.decide
                .decide(&mut self.spans, ticket, prediction, served);
        }
    }
}

/// Batch-1 `ModelRegistry::forward` of every query's window, replayed
/// through a fresh offload engine tick by tick.
fn reference(inputs: &Inputs, seed: u64) -> Vec<Record> {
    let mut registry = ModelRegistry::tiny_with_kinds(&[KIND], seed);
    let mut offload = MultiOffload::new(inputs.norms(), registry.max_window(), 64);
    let stages = PipelineLatencies::fpga();
    let mut window = Tensor::zeros(&[offload.window(), offload.width()]);
    let mut records = Vec::new();
    for (tick, &shard) in inputs.merged.ticks.iter().zip(&inputs.shards) {
        if let Some(t) = offload.on_tick_staged(shard, &tick.snapshot, tick.ts, &stages) {
            offload.pop_ticket();
            offload.write_shard_window_into(shard as usize, window.data_mut());
            let p = registry.forward(KIND, &window);
            records.push((shard, t.ticket.tick_id, bits(&p)));
        }
    }
    records
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let secs = args.seconds as f64;
    let window = ModelRegistry::tiny_with_kinds(&[KIND], MODEL_SEED).max_window();
    let (inputs, trader) = timed_setup(&mut out, || {
        let inputs = generate(args.seed, secs, window);
        let mut trader = MultiSymbolTrader::new(KIND, inputs.norms(), MODEL_SEED);
        trader.set_batch_threads(BATCH_THREADS);
        (inputs, trader)
    });
    let warm = inputs.warm;
    let start_ns = inputs.merged.ticks[warm.min(inputs.merged.len() - 1)]
        .ts
        .nanos();
    let due: Vec<u64> = inputs.merged.ticks[warm..]
        .iter()
        .map(|t| t.ts.nanos() - start_ns)
        .collect();
    let deadline_ns = scheduling_deadline_for(KIND).as_nanos() as u64;

    // Replays the warm-up closed-loop, then the rest open-loop from a
    // fresh clock origin. Tick indices stay global.
    let replay = |server: &mut dyn FnMut(&mut WallClock, &[u64], usize) -> replay::Log| {
        server(&mut WallClock::start(), &vec![0; warm], 0);
        let mut clock = WallClock::start();
        let log = server(&mut clock, &due, warm);
        (log, clock.samples)
    };

    let mut untraced = Untraced {
        trader,
        out: Vec::new(),
        decide: Decide::new(&inputs),
    };
    let (log, samples) = replay(&mut |clock, due, offset| {
        let mut shifted = Shift {
            inner: &mut untraced,
            offset,
        };
        drain_loop(
            clock,
            due,
            &inputs.shards[offset..offset + due.len()],
            SHARDS,
            &mut shifted,
        )
    });
    replay::record(&mut out, &log, &samples, secs, deadline_ns);
    let queries: usize = log.batches.iter().sum();
    let batched: usize = log.batches.iter().filter(|&&b| b > 1).sum();
    out.metrics.insert(
        "dnn.batch_size_mean",
        queries as f64 / log.batches.len().max(1) as f64,
    );
    out.metrics.insert(
        "dnn.batched_query_share",
        batched as f64 / queries.max(1) as f64,
    );
    out.method
        .insert("dnn_batch_threads", BATCH_THREADS.to_string());

    let mut untraced_records = std::mem::take(&mut untraced.decide.records);
    let untraced_digest = digest(&mut untraced_records);
    if args.trace {
        let registry = {
            let mut r = ModelRegistry::tiny_with_kinds(&[KIND], MODEL_SEED);
            r.set_batch_threads(BATCH_THREADS);
            r
        };
        let mut traced = Traced {
            offload: MultiOffload::new(inputs.norms(), window, 64),
            registry,
            stages: PipelineLatencies::fpga(),
            tickets: Vec::new(),
            lanes: Vec::new(),
            preds: Vec::new(),
            spans: Spans::new(),
            batch: 0,
            decide: Decide::new(&inputs),
        };
        let mut warm_spans = 0;
        let (traced_log, _) = replay(&mut |clock, due, offset| {
            let mut shifted = Shift {
                inner: &mut traced,
                offset,
            };
            let log = drain_loop(
                clock,
                due,
                &inputs.shards[offset..offset + due.len()],
                SHARDS,
                &mut shifted,
            );
            if offset == 0 {
                // Spans of the warm-up are not part of the traced run.
                warm_spans = shifted.inner.spans.spans.len();
            }
            log
        });
        let spans = &mut traced.spans;
        spans.spans.drain(..warm_spans);
        let m = &mut out.metrics;
        m.insert(
            "pipeline.multi_offload.stage_ns_p50",
            spans.pct_ns(Layer::MultiOffload, 0.50),
        );
        let mut per_query: Vec<f64> = spans
            .self_ns(Layer::DnnBatch)
            .iter()
            .zip(&traced_log.batches)
            .map(|(ns, &b)| ns / b as f64)
            .collect();
        m.insert(
            "dnn.forward_batch_ns_per_query_p50",
            crate::stats::percentile(&mut per_query, 0.50).map_or(0.0, |p| p.value),
        );
        m.insert(
            "pipeline.trading.decide_ns_p50",
            spans.pct_ns(Layer::Trading, 0.50),
        );
        m.insert(
            "protocol.ilink.encode_ns_p50",
            spans.pct_ns(Layer::Ilink, 0.50),
        );
        trace::reconcile(
            &mut out,
            spans,
            traced_log.busy_ns(),
            log.busy_ns(),
            log.decided(),
        );
        let mut traced_records = std::mem::take(&mut traced.decide.records);
        out.check(
            "traced and untraced runs agree on every (shard, tick, prediction)",
            digest(&mut traced_records) == untraced_digest,
        );
        out.check(
            "traced and untraced runs send the same orders",
            (traced.decide.orders, traced.decide.order_bytes)
                == (untraced.decide.orders, untraced.decide.order_bytes),
        );
        out.spans = Some(traced.spans);
    }

    let mut expected = reference(&inputs, MODEL_SEED);
    expected.sort_unstable();
    out.check(
        "every prediction is bit-identical to a batch-1 forward",
        untraced_records == expected,
    );
    out.check(
        "every query was served once",
        untraced.trader.inferences() == untraced_records.len() as u64,
    );
    out.check("orders were sent", untraced.decide.orders > 0);
    out.metrics.insert(
        "pipeline.trading.orders_per_inference",
        untraced.decide.orders as f64 / untraced_records.len().max(1) as f64,
    );
    out.attempted = log.ticks.len() as u64;
    out.failed = log.failed();
    out.metrics.insert(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.check("no tick failed", out.failed == 0);
    out
}

/// Presents a slice of the merged ticks starting at `offset` to the
/// replay loop as ticks `0..`.
struct Shift<'s, S> {
    inner: &'s mut S,
    offset: usize,
}

impl<S: BatchServer> BatchServer for Shift<'_, S> {
    fn ingest(&mut self, tick: usize) -> Ingest {
        self.inner.ingest(tick + self.offset)
    }

    fn drain(&mut self, served: &mut Vec<usize>) {
        let from = served.len();
        self.inner.drain(served);
        for t in &mut served[from..] {
            *t -= self.offset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed loop, every tick is due at once: the drain rule alone keeps
    /// `MultiSymbolTrader::drain_batch`, which panics on a shard queued
    /// twice, fed with batches of distinct shards — and they do batch.
    #[test]
    fn the_drain_rule_keeps_the_real_trader_to_one_query_per_shard() {
        let window = ModelRegistry::tiny_with_kinds(&[KIND], MODEL_SEED).max_window();
        let inputs = generate(3, 0.2, window);
        let mut server = Untraced {
            trader: MultiSymbolTrader::new(KIND, inputs.norms(), MODEL_SEED),
            out: Vec::new(),
            decide: Decide::new(&inputs),
        };
        let due = vec![0; inputs.merged.len()];
        let log = drain_loop(
            &mut WallClock::start(),
            &due,
            &inputs.shards,
            SHARDS,
            &mut server,
        );
        assert_eq!(log.failed(), 0);
        assert_eq!(server.trader.inferences(), log.decided());
        assert!(log.batches.iter().any(|&b| b > 1), "no query was batched");
        let mut expected = reference(&inputs, MODEL_SEED);
        expected.sort_unstable();
        let mut got = server.decide.records;
        got.sort_unstable();
        assert_eq!(
            got, expected,
            "batched predictions differ from batch-1 forwards"
        );
    }
}
