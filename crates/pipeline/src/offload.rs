//! The building blocks of the offload engine (Fig. 5).
//!
//! For every tick the offload engine (1) converts the LOB levels to BF16,
//! (2) Z-score-normalizes them against historical statistics, (3) pushes
//! the resulting feature vector into a sliding-window FIFO, and (4) once
//! the window is full, registers an input tensor for the DNN pipeline.
//! It also "manages the stale feature vectors and input tensors" — ticks
//! whose prediction horizon has lapsed are dropped before wasting
//! accelerator time, and Algorithm 1 may explicitly defer the oldest
//! tensor when no schedule fits.
//!
//! Steps (1)–(3) live here as the per-instrument [`FeatureWindow`];
//! step (4) and the stale management are the queue of
//! [`MultiOffload`](crate::multi_offload::MultiOffload), which serves a
//! single instrument as its one-shard case.

use crate::stages::IngressStamp;
use lt_dnn::bf16::bf16_round;
use lt_feed::NormStats;
use lt_lob::{LobSnapshot, Timestamp};

/// A queued inference request: one tick whose input tensor is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorTicket {
    /// Monotone tick index within the session.
    pub tick_id: u64,
    /// Exchange timestamp of the triggering tick.
    pub tick_ts: Timestamp,
    /// When the tensor became ready for DMA.
    pub ready_at: Timestamp,
    /// Per-stage ingress latency that produced `ready_at` (all-zero for
    /// callers that supply a pre-computed `ready_at` via
    /// [`MultiOffload::on_tick`](crate::multi_offload::MultiOffload::on_tick)).
    pub ingress: IngressStamp,
}

/// The sliding feature window of one instrument shard: one flat,
/// pre-allocated ring of `window × 4·depth` floats. Each tick's features
/// are written, normalized, and BF16-rounded *in place* in the next row
/// slot, so steady-state ingestion never allocates.
/// [`MultiOffload`](crate::multi_offload::MultiOffload) keeps one per
/// symbol shard.
#[derive(Debug, Clone)]
pub struct FeatureWindow {
    norm: NormStats,
    window: usize,
    depth: usize,
    /// Flat ring of `window` normalized feature rows, recycled in place.
    ring: Vec<f32>,
    /// Rows currently valid (saturates at `window` once warm).
    rows: usize,
    /// Ring slot the next tick's row will overwrite.
    next_row: usize,
}

impl FeatureWindow {
    /// Allocates the full ring up front.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(norm: NormStats, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let depth = norm.depth();
        FeatureWindow {
            norm,
            window,
            depth,
            ring: vec![0.0; window * LobSnapshot::feature_count(depth)],
            rows: 0,
            next_row: 0,
        }
    }

    /// Writes `snapshot`'s feature row into the next ring slot,
    /// normalizes and BF16-rounds it in place, and returns whether the
    /// window is warm after the push.
    pub fn push(&mut self, snapshot: &LobSnapshot) -> bool {
        let width = LobSnapshot::feature_count(self.depth);
        let row = &mut self.ring[self.next_row * width..(self.next_row + 1) * width];
        snapshot.write_features(self.depth, row);
        self.norm.normalize(row);
        for f in row {
            *f = bf16_round(*f);
        }
        self.next_row = (self.next_row + 1) % self.window;
        if self.rows < self.window {
            self.rows += 1;
        }
        self.rows == self.window
    }

    /// True once the ring holds a full window of rows.
    pub fn is_warm(&self) -> bool {
        self.rows == self.window
    }

    /// The configured window length, in ticks.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feature columns per row (`4 × depth`).
    pub fn width(&self) -> usize {
        self.depth * 4
    }

    /// Writes the window into `out` as `window × 4·depth` floats, rows
    /// in chronological order — the allocation-free staging primitive
    /// consumers use to fill recycled lane buffers.
    ///
    /// # Panics
    ///
    /// Panics if the window is not warm yet or `out` has the wrong
    /// length.
    pub fn write_into(&self, out: &mut [f32]) {
        assert!(self.is_warm(), "feature FIFO not warm yet");
        let width = self.width();
        assert_eq!(out.len(), self.window * width, "window buffer size");
        // Once warm, `next_row` is the oldest row in the ring; emit rows
        // in chronological order from there.
        for k in 0..self.window {
            let r = (self.next_row + k) % self.window;
            out[k * width..(k + 1) * width].copy_from_slice(&self.ring[r * width..(r + 1) * width]);
        }
    }
}
