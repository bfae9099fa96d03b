//! `t2t_single_deeplob`: packet bytes in, order bytes out, at batch 1.
//!
//! One functional `LightTrader` serves DeepLOB on SBE/UDP datagrams
//! encoded from a Hawkes + agent-flow session (normal traffic, about
//! 2 000 ticks/s, branching ratio 0.8), replayed open-loop at the
//! recorded pace. The risk limits turn the confidence gate off and cap
//! the position far beyond reach, so the trading engine and the order
//! encoder run on every inference.

use crate::replay::{self, open_loop, Served, WallClock};
use crate::trace::{self, Layer, Off, Spans, Tracer};
use crate::{timed_setup, Args, Outcome, MODEL_SEED};
use lighttrader::dnn::{ModelKind, ModelRegistry, Tensor};
use lighttrader::feed::{
    AgentFlow, AgentParams, HawkesParams, HawkesProcess, NormStats, TickTrace,
};
use lighttrader::lob::events::MarketEventKind;
use lighttrader::lob::{BookDelta, LobSnapshot, MarketEvent, OrderId, Symbol, Timestamp};
use lighttrader::pipeline::{
    LocalBook, MultiOffload, PacketParser, PipelineLatencies, RiskLimits, ShardTicket,
    TradingEngine,
};
use lighttrader::protocol::framing::Datagram;
use lighttrader::protocol::sbe::SbeEncoder;
use lighttrader::sim::traffic::scheduling_deadline_for;
use lighttrader::{LightTrader, TickOutcome};

const KIND: ModelKind = ModelKind::DeepLob;
/// Session time replayed closed-loop before timing starts.
pub const WARM_SECS: f64 = 0.5;
/// Far beyond any position the run can build.
const POSITION_CAP: i64 = 1 << 40;

/// Risk limits under which every inference reaches the trading engine's
/// order path: no confidence gate, an unreachable position cap.
pub fn open_limits() -> RiskLimits {
    RiskLimits {
        min_confidence: 0.0,
        max_position: POSITION_CAP,
        order_qty: 1,
        max_spread_ticks: 1_000,
    }
}

/// The generated inputs: one datagram per market arrival.
struct Inputs {
    datagrams: Vec<Vec<u8>>,
    /// Arrival offset of each datagram from the session start, ns.
    at_ns: Vec<u64>,
    /// Events each datagram carries.
    events: Vec<u32>,
    /// The exchange's ten-level book after each datagram.
    truth: Vec<LobSnapshot>,
    norm: NormStats,
    /// Datagrams in the closed-loop warm-up.
    warm: usize,
}

/// Generates `secs` of normal traffic after the warm-up, the way
/// `SessionBuilder::normal_traffic` does, keeping each arrival's events.
/// The first datagram is a book recovery: one `Add` per order resting in
/// the freshly seeded exchange book, so a subscriber starts in sync.
fn generate(seed: u64, secs: f64) -> Inputs {
    let symbol = Symbol::new("ESU6");
    let arrivals = HawkesProcess::new(HawkesParams::new(400.0, 160.0, 200.0), seed)
        .sample_for(WARM_SECS + secs);
    let mut flow = AgentFlow::new(symbol, AgentParams::default(), seed.wrapping_add(1));
    let encoder = SbeEncoder::new();
    let mut trace = TickTrace::new(symbol);
    let mut inputs = Inputs {
        datagrams: Vec::with_capacity(arrivals.len() + 1),
        at_ns: Vec::with_capacity(arrivals.len() + 1),
        events: Vec::with_capacity(arrivals.len() + 1),
        truth: Vec::with_capacity(arrivals.len() + 1),
        norm: NormStats::identity(10),
        warm: 1 + arrivals.iter().filter(|&&t| t < WARM_SECS).count(),
    };
    let mut push = |events: &[MarketEvent], ts: Timestamp, truth: LobSnapshot| {
        let payload: Vec<u8> = events.iter().flat_map(|e| encoder.encode(e)).collect();
        let count = u16::try_from(events.len()).expect("a datagram carries few events");
        let seq = u32::try_from(inputs.datagrams.len()).expect("fewer than 2^32 datagrams");
        inputs
            .datagrams
            .push(Datagram::new(seq, ts, count, payload).encode());
        inputs.at_ns.push(ts.nanos());
        inputs.events.push(u32::from(count));
        inputs.truth.push(truth);
    };
    let book = flow.engine().book();
    let recovery: Vec<MarketEvent> = (1..)
        .map_while(|id| book.order(OrderId::new(id)))
        .map(|o| MarketEvent {
            seq: 0,
            ts: Timestamp::ZERO,
            kind: MarketEventKind::Book(BookDelta::Add {
                id: o.id,
                side: o.side,
                price: o.price,
                qty: o.remaining,
            }),
        })
        .collect();
    push(
        &recovery,
        Timestamp::ZERO,
        book.snapshot(10, Timestamp::ZERO),
    );
    for &t in &arrivals {
        let ts = Timestamp::from_nanos((t * 1e9) as u64);
        let events = flow.step(ts);
        let snapshot = flow.engine().book().snapshot(10, ts);
        trace.push(ts, snapshot.clone());
        push(&events, ts, snapshot);
    }
    inputs.norm = NormStats::fit(&trace, 10);
    inputs
}

fn trader(seed: u64, norm: &NormStats) -> LightTrader {
    LightTrader::builder(KIND)
        .seed(seed)
        .risk(open_limits())
        .normalization(norm.clone())
        .build()
}

/// `LightTrader`'s tick path, driven one public layer call at a time so
/// each call can be traced. Stages through a one-shard `MultiOffload`.
struct Layers {
    parser: PacketParser,
    book: LocalBook,
    offload: MultiOffload,
    registry: ModelRegistry,
    trading: TradingEngine,
    stages: PipelineLatencies,
    snap: LobSnapshot,
    window: Tensor,
    tickets: Vec<ShardTicket>,
    inferences: u64,
    book_mismatches: u64,
}

impl Layers {
    fn new(seed: u64, norm: &NormStats) -> Layers {
        let registry = ModelRegistry::tiny_with_kinds(&[KIND], seed);
        let window = registry.max_window();
        let offload = MultiOffload::new(vec![norm.clone()], window, 64);
        Layers {
            window: Tensor::zeros(&[window, offload.width()]),
            parser: PacketParser::new(),
            book: LocalBook::new(),
            offload,
            registry,
            trading: TradingEngine::new(Symbol::new("ESU6"), open_limits()),
            stages: PipelineLatencies::fpga(),
            snap: LobSnapshot::default(),
            tickets: Vec::with_capacity(4),
            inferences: 0,
            book_mismatches: 0,
        }
    }

    fn serve<T: Tracer>(
        &mut self,
        t: &mut T,
        bytes: &[u8],
        expected_events: u32,
        truth: &LobSnapshot,
        orders: &mut Vec<u8>,
    ) -> Served {
        let events = t.span(Layer::Parser, || self.parser.ingest(bytes));
        let mut served = Served::default();
        for e in &events {
            t.span(Layer::LocalBook, || {
                self.book.apply(e);
                self.book.snapshot_into(10, e.ts, &mut self.snap);
            });
            let ticket = t.span(Layer::Offload, || {
                self.offload
                    .on_tick_staged(0, &self.snap, e.ts, &self.stages)
            });
            if ticket.is_none() {
                served.failed += u32::from(self.offload.shard_is_warm(0));
                continue;
            }
            let prediction = t.span(Layer::Dnn, || {
                self.tickets.clear();
                self.offload.pop_batch_into(usize::MAX, &mut self.tickets);
                assert_eq!(self.tickets.len(), 1, "one query per warm tick");
                self.offload
                    .write_shard_window_into(0, self.window.data_mut());
                self.registry.forward(KIND, &self.window)
            });
            self.inferences += 1;
            let order = t.span(Layer::Trading, || {
                self.trading.on_prediction(&prediction, &self.snap)
            });
            if let Ok(order) = order {
                let wire = t.span(Layer::Ilink, || order.encode());
                orders.extend_from_slice(&wire);
            }
            served.decided += 1;
        }
        served.failed += expected_events.saturating_sub(events.len() as u32);
        if self.snap != *truth {
            self.book_mismatches += 1;
        }
        served
    }
}

/// Feeds `LightTrader::on_datagram` and encodes every order it sends.
fn serve_trader(
    trader: &mut LightTrader,
    bytes: &[u8],
    expected_events: u32,
    orders: &mut Vec<u8>,
) -> Served {
    let outcomes = trader.on_datagram(bytes);
    let mut served = Served::default();
    for outcome in &outcomes {
        match outcome {
            TickOutcome::Warmup => {}
            TickOutcome::NoOrder { .. } => served.decided += 1,
            TickOutcome::Order { order, .. } => {
                orders.extend_from_slice(&order.encode());
                served.decided += 1;
            }
        }
    }
    served.failed += expected_events.saturating_sub(outcomes.len() as u32);
    served
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let secs = args.seconds as f64;
    let (inputs, mut untraced, mut layers) = timed_setup(&mut out, || {
        let inputs = generate(args.seed, secs);
        let untraced = trader(MODEL_SEED, &inputs.norm);
        let layers = Layers::new(MODEL_SEED, &inputs.norm);
        (inputs, untraced, layers)
    });
    let warm = inputs.warm;
    let start_ns = inputs.at_ns[warm.min(inputs.at_ns.len() - 1)];
    let due: Vec<u64> = inputs.at_ns[warm..].iter().map(|&a| a - start_ns).collect();
    let deadline_ns = scheduling_deadline_for(KIND).as_nanos() as u64;

    // Untraced: LightTrader itself.
    let mut trader_orders = Vec::new();
    let zeros = vec![0u64; warm];
    open_loop(&mut WallClock::start(), &zeros, |_, i| {
        let d = &inputs;
        serve_trader(
            &mut untraced,
            &d.datagrams[i],
            d.events[i],
            &mut trader_orders,
        )
    });
    let mut clock = WallClock::start();
    let log = open_loop(&mut clock, &due, |_, i| {
        let (d, i) = (&inputs, i + warm);
        serve_trader(
            &mut untraced,
            &d.datagrams[i],
            d.events[i],
            &mut trader_orders,
        )
    });
    replay::record(&mut out, &log, &clock.samples, secs, deadline_ns);
    out.method.insert(
        "dnn_batch_threads",
        "1 (batch-1 forwards run inline)".into(),
    );

    // The layer path: traced and open-loop with --trace 1, otherwise an
    // untimed closed-loop pass that only checks outputs.
    let mut layer_orders = Vec::new();
    if args.trace {
        let mut spans = Spans::new();
        open_loop(&mut WallClock::start(), &zeros, |_, i| {
            let d = &inputs;
            layers.serve(
                &mut Off,
                &d.datagrams[i],
                d.events[i],
                &d.truth[i],
                &mut layer_orders,
            )
        });
        let traced = open_loop(&mut WallClock::start(), &due, |_, i| {
            let (d, i) = (&inputs, i + warm);
            spans.request(i as u64);
            layers.serve(
                &mut spans,
                &d.datagrams[i],
                d.events[i],
                &d.truth[i],
                &mut layer_orders,
            )
        });
        layer_metrics(&mut out, &spans);
        trace::reconcile(
            &mut out,
            &spans,
            traced.busy_ns(),
            log.busy_ns(),
            log.decided(),
        );
        out.spans = Some(spans);
    } else {
        for i in 0..inputs.datagrams.len() {
            let d = &inputs;
            layers.serve(
                &mut Off,
                &d.datagrams[i],
                d.events[i],
                &d.truth[i],
                &mut layer_orders,
            );
        }
    }

    let stats = untraced.parser_stats();
    let rejected = stats.corrupt + stats.duplicates;
    out.metrics
        .insert("pipeline.parser.rejected", rejected as f64);
    out.metrics.insert(
        "pipeline.trading.orders_per_inference",
        untraced.orders_sent() as f64 / untraced.inferences().max(1) as f64,
    );
    out.attempted = log.ticks.len() as u64;
    // A rejected datagram's events are undecided ticks in the log.
    out.failed = log.failed();
    out.metrics.insert(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.check(
        "local book equals the exchange book on every tick",
        layers.book_mismatches == 0,
    );
    out.check(
        "layer path sends byte-identical orders",
        layer_orders == trader_orders,
    );
    out.check(
        "layer path runs as many inferences",
        layers.inferences == untraced.inferences(),
    );
    out.check("orders were sent", untraced.orders_sent() > 0);
    out.check(
        "every inference ends as one order or one suppression",
        untraced.orders_sent() + untraced.suppressed() == untraced.inferences(),
    );
    out.check(
        "position cap never reached",
        untraced.position().abs() < POSITION_CAP,
    );
    out.check("no tick failed", out.failed == 0);
    out
}

fn layer_metrics(out: &mut Outcome, spans: &Spans) {
    let m = &mut out.metrics;
    m.insert(
        "pipeline.parser.ingest_ns_p50",
        spans.pct_ns(Layer::Parser, 0.50),
    );
    m.insert(
        "pipeline.parser.ingest_ns_p99",
        spans.pct_ns(Layer::Parser, 0.99),
    );
    m.insert(
        "pipeline.local_book.apply_ns_p50",
        spans.pct_ns(Layer::LocalBook, 0.50),
    );
    m.insert(
        "pipeline.offload.stage_ns_p50",
        spans.pct_ns(Layer::Offload, 0.50),
    );
    m.insert("dnn.forward_ns_p50", spans.pct_ns(Layer::Dnn, 0.50));
    m.insert("dnn.forward_ns_p99", spans.pct_ns(Layer::Dnn, 0.99));
    m.insert(
        "pipeline.trading.decide_ns_p50",
        spans.pct_ns(Layer::Trading, 0.50),
    );
    m.insert(
        "protocol.ilink.encode_ns_p50",
        spans.pct_ns(Layer::Ilink, 0.50),
    );
}
