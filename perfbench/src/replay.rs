//! Open-loop replay: inputs are due at their recorded offsets whatever
//! the system is doing, and every tick is timed from when it was due.
//!
//! Timing from the due instant (not from when work began) charges a
//! stall to every tick that queued behind it, which is what a trader
//! waiting on the market sees. How late work began is reported apart as
//! the queue wait.
//!
//! The replay also records every piece of work it timed as a job, so the
//! same replay can be laid out again at another host speed: see
//! [`rescale`] and the `speed` module.

use crate::speed::{Reference, Samples};
use crate::stats::{percentile, Spread};
use crate::Outcome;
use std::time::Instant;

/// A monotonic nanosecond clock the replay waits on.
pub trait Clock {
    /// Nanoseconds since the replay's origin.
    fn now(&mut self) -> u64;
    /// Returns once `now() >= due`.
    fn wait_until(&mut self, due: u64);
}

/// A reference call starts only when the next input is due at least this
/// far ahead, so it never delays one.
const SAMPLE_GAP_NS: u64 = 200_000;
/// At most one reference call per this many nanoseconds.
const SAMPLE_EVERY_NS: u64 = 500_000;

/// Wall time, waited for by polling on the core: a sleep would add its
/// wake-up delay to the next tick. Long waits time the host-speed
/// reference kernel now and then.
pub struct WallClock {
    origin: Instant,
    reference: Reference,
    last_sample: Option<u64>,
    /// Reference timings taken while waiting.
    pub samples: Samples,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock {
            origin: Instant::now(),
            reference: Reference::default(),
            last_sample: None,
            samples: Samples::default(),
        }
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, due: u64) {
        // No `spin_loop` hint: under a hypervisor a run of pause
        // instructions can be taken for lock spinning and cost the vCPU
        // its time slice.
        loop {
            let now = self.now();
            if now >= due {
                return;
            }
            let quiet = self.last_sample.is_none_or(|t| now - t >= SAMPLE_EVERY_NS);
            if quiet && due - now >= SAMPLE_GAP_NS {
                let ns = self.reference.time_ns();
                self.samples.0.push((now, ns));
                self.last_sample = Some(now);
            }
        }
    }
}

/// One post-warm-up tick: when it was due, when work on it began, and
/// when its decision was out (`None` when it never got one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    pub due: u64,
    pub begin: u64,
    pub done: Option<u64>,
}

/// One timed piece of work: it could not start before `ready`, and ran
/// from `begin` to `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub ready: u64,
    pub begin: u64,
    pub end: u64,
}

/// Everything one replay recorded.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// Every post-warm-up tick, decided or not.
    pub ticks: Vec<Tick>,
    /// For each tick, the job its work began in and the job that decided
    /// it.
    pub tick_jobs: Vec<(usize, usize)>,
    /// Every job, in the order it ran.
    pub jobs: Vec<Job>,
    /// Busy time, attributed to the due instant of the work it served,
    /// with the job it was part of.
    pub busy: Vec<(u64, f64, usize)>,
    /// Size of every batch served (one entry per drain).
    pub batches: Vec<usize>,
}

impl Log {
    /// Ticks that got no decision.
    pub fn failed(&self) -> u64 {
        self.ticks.iter().filter(|t| t.done.is_none()).count() as u64
    }

    /// Total busy nanoseconds.
    pub fn busy_ns(&self) -> f64 {
        self.busy.iter().map(|b| b.1).sum()
    }

    fn job(&mut self, ready: u64, begin: u64, end: u64) -> usize {
        self.jobs.push(Job { ready, begin, end });
        self.jobs.len() - 1
    }

    fn tick(&mut self, tick: Tick, jobs: (usize, usize)) {
        self.ticks.push(tick);
        self.tick_jobs.push(jobs);
    }

    /// Ticks decided.
    pub fn decided(&self) -> u64 {
        self.ticks.len() as u64 - self.failed()
    }
}

/// What serving one input produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Served {
    /// Ticks decided (order bytes out, or a suppression).
    pub decided: u32,
    /// Post-warm-up ticks the input carried that got no decision.
    pub failed: u32,
}

/// Replays inputs one at a time: input `i` is due at `due[i]`, and all
/// ticks it carries are decided when `serve` returns.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    due: &[u64],
    mut serve: impl FnMut(&mut C, usize) -> Served,
) -> Log {
    let mut log = Log::default();
    for (i, &d) in due.iter().enumerate() {
        clock.wait_until(d);
        let begin = clock.now();
        let served = serve(clock, i);
        let done = clock.now();
        let job = log.job(d, begin, done);
        log.busy.push((d, (done - begin) as f64, job));
        let tick = |done| Tick {
            due: d,
            begin,
            done,
        };
        for _ in 0..served.decided {
            log.tick(tick(Some(done)), (job, job));
        }
        for _ in 0..served.failed {
            log.tick(tick(None), (job, job));
        }
    }
    log
}

/// What ingesting one tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// The shard's feature window is still filling; no query exists.
    Warmup,
    /// A query was queued.
    Queued,
    /// The tick was warm but no query was queued.
    Dropped,
}

/// A system that queues one query per warm tick and serves every queued
/// query in one batch.
pub trait BatchServer {
    fn ingest(&mut self, tick: usize) -> Ingest;
    /// Serves every queued query, appending the tick index of each.
    fn drain(&mut self, served: &mut Vec<usize>);
}

/// The drain rule: serve the queue when nothing more is due, or when
/// the next due tick's shard already has a query queued. Ingesting that
/// tick first would overwrite the shard's window under a queued query.
pub fn should_drain(next: Option<(u64, u16)>, now: u64, queued: &[bool]) -> bool {
    next.is_none_or(|(due, shard)| due > now || queued[shard as usize])
}

/// Replays ticks of many shards into one batching queue: tick `i` of
/// shard `shard[i]` is due at `due[i]`.
///
/// # Panics
///
/// Panics when a drain leaves a queued query unserved.
pub fn drain_loop<C: Clock, S: BatchServer>(
    clock: &mut C,
    due: &[u64],
    shard: &[u16],
    n_shards: usize,
    server: &mut S,
) -> Log {
    let mut log = Log::default();
    let mut queued = vec![false; n_shards];
    let mut n_queued = 0usize;
    // Position in `log.ticks` of each queued shard's pending tick.
    let mut pending = vec![0usize; n_shards];
    let mut served = Vec::new();
    let mut i = 0;
    while i < due.len() || n_queued > 0 {
        if n_queued == 0 {
            clock.wait_until(due[i]);
        }
        loop {
            let now = clock.now();
            let next = (i < due.len()).then(|| (due[i], shard[i]));
            if should_drain(next, now, &queued) {
                break;
            }
            let s = shard[i] as usize;
            let outcome = server.ingest(i);
            let end = clock.now();
            let job = log.job(due[i], now, end);
            log.busy.push((due[i], (end - now) as f64, job));
            if outcome != Ingest::Warmup {
                let tick = Tick {
                    due: due[i],
                    begin: now,
                    done: None,
                };
                log.tick(tick, (job, job));
            }
            if outcome == Ingest::Queued {
                queued[s] = true;
                pending[s] = log.ticks.len() - 1;
                n_queued += 1;
            }
            i += 1;
        }
        if n_queued == 0 {
            continue;
        }
        let begin = clock.now();
        served.clear();
        server.drain(&mut served);
        let done = clock.now();
        let job = log.job(0, begin, done);
        assert_eq!(served.len(), n_queued, "a drain must serve the whole queue");
        let share = (done - begin) as f64 / served.len() as f64;
        for &t in &served {
            let s = shard[t] as usize;
            assert!(queued[s], "served tick {t} of shard {s} was never queued");
            queued[s] = false;
            log.ticks[pending[s]].done = Some(done);
            log.tick_jobs[pending[s]].1 = job;
            log.busy.push((due[t], share, job));
        }
        log.batches.push(served.len());
        n_queued = 0;
    }
    log
}

/// The end-to-end figures of a stretch of the replay.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub p50_us: f64,
    pub p99_us: f64,
    pub hit_rate: f64,
    pub capacity_per_s: f64,
    pub wait_p50_us: f64,
    pub wait_p99_us: f64,
    pub busy_frac: f64,
}

/// Share of `ticks` decided within `deadline_ns` of being due. A tick
/// with no decision counts as a miss.
pub fn hit_rate(ticks: &[Tick], deadline_ns: u64) -> f64 {
    let hits = ticks
        .iter()
        .filter(|t| t.done.is_some_and(|d| d - t.due <= deadline_ns))
        .count();
    hits as f64 / ticks.len().max(1) as f64
}

fn pct(v: &mut [f64], q: f64) -> f64 {
    percentile(v, q).map_or(f64::NAN, |p| p.value)
}

/// The figures of `ticks`, which kept the server busy for `busy_ns` out
/// of `span_ns`.
pub fn figures(ticks: &[Tick], busy_ns: f64, span_ns: f64, deadline_ns: u64) -> Window {
    let mut lat: Vec<f64> = ticks
        .iter()
        .filter_map(|t| t.done.map(|d| (d - t.due) as f64 / 1e3))
        .collect();
    let mut wait: Vec<f64> = ticks
        .iter()
        .map(|t| (t.begin - t.due) as f64 / 1e3)
        .collect();
    Window {
        capacity_per_s: lat.len() as f64 / (busy_ns / 1e9),
        p50_us: pct(&mut lat, 0.50),
        p99_us: pct(&mut lat, 0.99),
        hit_rate: hit_rate(ticks, deadline_ns),
        wait_p50_us: pct(&mut wait, 0.50),
        wait_p99_us: pct(&mut wait, 0.99),
        busy_frac: busy_ns / span_ns,
    }
}

/// Splits the replay into consecutive windows of `window_ns` by due
/// time and measures each whole window on its own.
pub fn windows(log: &Log, window_ns: u64, n_windows: usize, deadline_ns: u64) -> Vec<Window> {
    let slot = |due: u64| (due / window_ns) as usize;
    let mut ticks: Vec<Vec<Tick>> = vec![Vec::new(); n_windows];
    for t in &log.ticks {
        if let Some(w) = ticks.get_mut(slot(t.due)) {
            w.push(*t);
        }
    }
    let mut busy = vec![0.0f64; n_windows];
    for &(due, ns, _) in &log.busy {
        if let Some(b) = busy.get_mut(slot(due)) {
            *b += ns;
        }
    }
    ticks
        .iter()
        .zip(&busy)
        .filter(|(t, _)| !t.is_empty())
        .map(|(t, &busy_ns)| figures(t, busy_ns, window_ns as f64, deadline_ns))
        .collect()
}

/// The replay laid out again at another host speed. Each job's service
/// time is multiplied by `factor` of the instant it began, and the jobs
/// run again in the same order, on the same due times: each begins once
/// it is ready and the job before it has ended. The ticks, their batches
/// and their decisions stay those of the real replay; only the times
/// move, so a stall still delays every tick queued behind it.
pub fn rescale(log: &Log, factor: impl Fn(u64) -> f64) -> Log {
    let scale: Vec<f64> = log.jobs.iter().map(|j| factor(j.begin)).collect();
    let mut clock = 0u64;
    let jobs: Vec<Job> = log
        .jobs
        .iter()
        .zip(&scale)
        .map(|(j, &f)| {
            let begin = j.ready.max(clock);
            clock = begin + ((j.end - j.begin) as f64 * f).round() as u64;
            Job {
                ready: j.ready,
                begin,
                end: clock,
            }
        })
        .collect();
    let ticks = log
        .ticks
        .iter()
        .zip(&log.tick_jobs)
        .map(|(t, &(first, last))| Tick {
            due: t.due,
            begin: jobs[first].begin,
            done: t.done.map(|_| jobs[last].end),
        })
        .collect();
    Log {
        ticks,
        tick_jobs: log.tick_jobs.clone(),
        busy: log
            .busy
            .iter()
            .map(|&(due, ns, job)| (due, ns * scale[job], job))
            .collect(),
        jobs,
        batches: log.batches.clone(),
    }
}

/// Length of one window the method line reports quartiles over.
pub const WINDOW_NS: u64 = 1_000_000_000;
/// Length of one window the host speed is measured over.
pub const SPEED_WINDOW_NS: u64 = 250_000_000;

/// A metric and the window figure it reports.
type Field = (&'static str, fn(&Window) -> f64);

/// Records the figures of an untraced replay of `secs` seconds: the
/// end-to-end metrics, and the replay's queue wait and busy share.
///
/// The replay is first laid out again at the reference kernel's nominal
/// speed, each quarter second's service times scaled by how fast the
/// host ran the kernel then (the `speed` module). Each figure pools
/// every tick of the run, except the queue wait and latency tails: their
/// pooled value is set by the session's few largest bursts, which differ
/// from seed to seed, so they report the median over 1 s windows of each
/// window's p99. The method line gets the wall-clock figures, the speed
/// factors, and the median and quartiles of each figure over 1 s
/// windows.
pub fn record(out: &mut Outcome, log: &Log, samples: &Samples, secs: f64, deadline_ns: u64) {
    let span_ns = secs * 1e9;
    let n_speed = ((span_ns / SPEED_WINDOW_NS as f64).ceil() as usize).max(1);
    let factors = samples.factors(SPEED_WINDOW_NS, n_speed);
    let at = |ns: u64| factors[((ns / SPEED_WINDOW_NS) as usize).min(n_speed - 1)];
    let nominal = rescale(log, at);
    let pooled = |log: &Log| figures(&log.ticks, log.busy_ns(), span_ns, deadline_ns);
    let (best, wall) = (pooled(&nominal), pooled(log));
    let n_windows = ((span_ns / WINDOW_NS as f64).floor() as usize).max(1);
    let w = windows(&nominal, WINDOW_NS, n_windows, deadline_ns);
    let fields: [Field; 7] = [
        ("latency_p50_us", |f| f.p50_us),
        ("latency_p99_us", |f| f.p99_us),
        ("deadline_hit_rate", |f| f.hit_rate),
        ("throughput_ticks_per_s", |f| f.capacity_per_s),
        ("replay.queue_wait_us_p50", |f| f.wait_p50_us),
        ("replay.queue_wait_us_p99", |f| f.wait_p99_us),
        ("replay.busy_frac", |f| f.busy_frac),
    ];
    for (name, field) in fields {
        let spread = over(&w, field);
        let tail = name.contains("_p99");
        out.metrics
            .insert(name, if tail { spread.median } else { field(&best) });
        out.spreads.insert(name, spread);
    }
    out.spreads.insert("speed_factor", Spread::of(&factors));
    out.method.insert(
        "wall",
        format!(
            "latency_p50_us {:.3}, latency_p99_us {:.3}, deadline_hit_rate {:.4}, \
             throughput_ticks_per_s {:.1}",
            wall.p50_us, wall.p99_us, wall.hit_rate, wall.capacity_per_s
        ),
    );
    out.method.insert(
        "windows",
        format!("{n_windows} x {} s", WINDOW_NS as f64 / 1e9),
    );
    out.method
        .insert("reference_samples", samples.0.len().to_string());
    out.method.insert("samples", log.decided().to_string());
    out.method
        .insert("replay.busy_frac", format!("{:.4}", best.busy_frac));
}

/// The spread over windows of one window figure.
pub fn over(windows: &[Window], f: impl Fn(&Window) -> f64) -> Spread {
    Spread::of(&windows.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when waited on or told to.
    #[derive(Default)]
    struct FakeClock {
        t: u64,
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> u64 {
            self.t
        }
        fn wait_until(&mut self, due: u64) {
            self.t = self.t.max(due);
        }
    }

    #[test]
    fn a_stalled_call_charges_its_wait_to_every_later_tick() {
        // Ticks due every 10 ns, served in 1 ns, except tick 2 stalls 50.
        let due: Vec<u64> = (0..10).map(|i| i * 10).collect();
        let mut clock = FakeClock::default();
        let log = open_loop(&mut clock, &due, |c, i| {
            c.t += if i == 2 { 50 } else { 1 };
            Served {
                decided: 1,
                failed: 0,
            }
        });
        let lat: Vec<u64> = log.ticks.iter().map(|t| t.done.unwrap() - t.due).collect();
        // Tick 2 ends at 70; ticks 3..=6 queue behind it, each charged
        // from its own due time, until the backlog clears at tick 7.
        assert_eq!(lat, vec![1, 1, 50, 41, 32, 23, 14, 5, 1, 1]);
        let wait: Vec<u64> = log.ticks.iter().map(|t| t.begin - t.due).collect();
        assert_eq!(wait, vec![0, 0, 0, 40, 31, 22, 13, 4, 0, 0]);
        assert_eq!(log.busy_ns(), 59.0);
    }

    #[test]
    fn the_same_stall_delays_queued_ticks_in_the_drain_loop() {
        struct Stall<'a> {
            clock: &'a std::cell::Cell<u64>,
            queued: Vec<usize>,
        }
        impl BatchServer for Stall<'_> {
            fn ingest(&mut self, tick: usize) -> Ingest {
                self.queued.push(tick);
                Ingest::Queued
            }
            fn drain(&mut self, served: &mut Vec<usize>) {
                let stall = if self.queued.contains(&0) { 100 } else { 1 };
                self.clock.set(self.clock.get() + stall);
                served.append(&mut self.queued);
            }
        }
        struct Shared<'a>(&'a std::cell::Cell<u64>);
        impl Clock for Shared<'_> {
            fn now(&mut self) -> u64 {
                self.0.get()
            }
            fn wait_until(&mut self, due: u64) {
                self.0.set(self.0.get().max(due));
            }
        }
        let cell = std::cell::Cell::new(0);
        let due = [0, 10, 20, 200];
        let mut server = Stall {
            clock: &cell,
            queued: Vec::new(),
        };
        let log = drain_loop(&mut Shared(&cell), &due, &[0, 1, 2, 0], 3, &mut server);
        let lat: Vec<u64> = log.ticks.iter().map(|t| t.done.unwrap() - t.due).collect();
        // Tick 0 runs alone and stalls until 100; ticks 1 and 2 were due
        // meanwhile, are batched together, and are charged from their
        // due times; tick 3 arrives after the backlog has cleared.
        assert_eq!(lat, vec![100, 91, 81, 1]);
        assert_eq!(log.batches, vec![1, 2, 1]);
        // Laid out again at the same speed, the replay is unchanged.
        assert_eq!(rescale(&log, |_| 1.0).ticks, log.ticks);
    }

    #[test]
    fn a_rescaled_replay_queues_behind_its_rescaled_stall() {
        // Ticks due every 10 ns, served in 4 ns, except tick 1 takes 25.
        let due = [0, 10, 20, 30];
        let mut clock = FakeClock::default();
        let log = open_loop(&mut clock, &due, |c, i| {
            c.t += if i == 1 { 25 } else { 4 };
            Served {
                decided: 1,
                failed: 0,
            }
        });
        let lat =
            |log: &Log| -> Vec<u64> { log.ticks.iter().map(|t| t.done.unwrap() - t.due).collect() };
        assert_eq!(lat(&log), vec![4, 25, 19, 13]);
        assert_eq!(rescale(&log, |_| 1.0).ticks, log.ticks);
        // At half the speed every service doubles, and the backlog behind
        // the stall grows by more than twice: 50 ns of stall now covers
        // ticks due 40 ns apart.
        let slow = rescale(&log, |_| 2.0);
        assert_eq!(lat(&slow), vec![8, 50, 48, 46]);
        assert_eq!(slow.busy_ns(), 2.0 * log.busy_ns());
        let waits: Vec<u64> = slow.ticks.iter().map(|t| t.begin - t.due).collect();
        assert_eq!(waits, vec![0, 0, 40, 38]);
        // The factor is taken at the instant each job began.
        let mixed = rescale(&log, |at| if at < 10 { 2.0 } else { 1.0 });
        assert_eq!(lat(&mixed), vec![8, 25, 19, 13]);
    }

    #[test]
    fn hit_rate_counts_failed_ticks_as_misses() {
        let tick = |due, done| Tick {
            due,
            begin: due,
            done,
        };
        let ticks = [
            tick(0, Some(5)),
            tick(10, Some(30)),
            tick(20, None),
            tick(30, Some(40)),
        ];
        // Deadline 10: ticks 0 and 3 hit, tick 1 is late, tick 2 failed.
        assert_eq!(hit_rate(&ticks, 10), 0.5);
        // Even an unbounded deadline cannot rescue the failed tick.
        assert_eq!(hit_rate(&ticks, u64::MAX / 2), 0.75);
    }

    /// A server that, like `MultiSymbolTrader::drain_batch`, refuses a
    /// batch holding one shard twice.
    struct Strict {
        shard: Vec<u16>,
        queue: Vec<usize>,
    }

    impl BatchServer for Strict {
        fn ingest(&mut self, tick: usize) -> Ingest {
            if tick.is_multiple_of(7) {
                return Ingest::Warmup;
            }
            self.queue.push(tick);
            Ingest::Queued
        }
        fn drain(&mut self, served: &mut Vec<usize>) {
            for (k, &a) in self.queue.iter().enumerate() {
                for &b in &self.queue[..k] {
                    assert_ne!(self.shard[a], self.shard[b], "shard twice in a batch");
                }
            }
            served.append(&mut self.queue);
        }
    }

    #[test]
    fn the_drain_rule_never_puts_one_shard_in_a_batch_twice() {
        // A pseudo-random stream with bursts of ties and repeated shards.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut due, mut shard) = (Vec::new(), Vec::new());
        let mut t = 0u64;
        for _ in 0..5_000 {
            t += [0, 0, 1, 3, 40][(next() % 5) as usize];
            due.push(t);
            shard.push((next() % 8) as u16);
        }
        let mut server = Strict {
            shard: shard.clone(),
            queue: Vec::new(),
        };
        let mut clock = FakeClock::default();
        let log = drain_loop(&mut clock, &due, &shard, 8, &mut server);
        assert_eq!(log.decided(), log.ticks.len() as u64);
        assert!(log.batches.iter().any(|&b| b > 1), "no batching happened");
        assert!(log.batches.iter().all(|&b| b <= 8));
    }

    #[test]
    fn windows_split_by_due_time() {
        let tick = |due, done| Tick {
            due,
            begin: due,
            done: Some(done),
        };
        let log = Log {
            ticks: vec![tick(0, 2_000), tick(500, 1_500), tick(1_000, 5_000)],
            busy: vec![(0, 100.0, 0), (500, 100.0, 1), (1_000, 400.0, 2)],
            ..Log::default()
        };
        let w = windows(&log, 1_000, 2, 1_000);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].p50_us, w[0].p99_us), (1.0, 2.0));
        assert_eq!(w[0].hit_rate, 0.5);
        assert_eq!(w[1].busy_frac, 0.4);
        assert_eq!(w[1].capacity_per_s, 2_500_000.0);
    }
}
