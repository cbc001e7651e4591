//! Stage-level search tracing.
//!
//! The paper's evaluation is a per-stage cost breakdown — phase P1
//! (structural matching) vs phase P2 (instance enumeration) vs the DP
//! top-1 module — and a live server wants the same breakdown per query.
//! [`TraceSink`] is the hook: an optional `&'static dyn TraceSink` rides
//! inside [`crate::SearchOptions`], and the drivers report elapsed nanos
//! and work counts per [`TraceStage`] to it. The hook is *off by
//! default* and the untraced hot path pays exactly one well-predicted
//! branch per structural match — no clocks, no atomics — so the
//! `alloc_profile` zero-allocation gate and the bench baselines are
//! unaffected when tracing is disabled.
//!
//! [`AtomicTrace`] is the bundled lock-free implementation: per-stage
//! relaxed counters plus fixed per-worker slots for the parallel
//! scheduler's steal counts and per-pass slots for the cutoff passes of
//! the ranking searches ([`crate::cutoff`]). One leaked (or static) `AtomicTrace` can be
//! shared by every worker of a query and reset between queries.

use flowmotif_graph::Flow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A stage of the search pipeline, as broken down in the paper's
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStage {
    /// Phase P1: structural (topology + order) matching.
    P1,
    /// Phase P2: per-match window sweep and instance assembly.
    P2,
    /// The dynamic-programming top-1 module (§5.1).
    Dp,
}

impl TraceStage {
    /// Dense index for table storage.
    pub const COUNT: usize = 3;

    /// This stage's dense index in `0..TraceStage::COUNT`.
    pub fn index(self) -> usize {
        match self {
            TraceStage::P1 => 0,
            TraceStage::P2 => 1,
            TraceStage::Dp => 2,
        }
    }

    /// Short stable label (`p1`, `p2`, `dp`) for metric names and tables.
    pub fn label(self) -> &'static str {
        match self {
            TraceStage::P1 => "p1",
            TraceStage::P2 => "p2",
            TraceStage::Dp => "dp",
        }
    }
}

/// Receives per-stage timing and work counts from the search drivers.
///
/// Implementations must be cheap and thread-safe: the parallel drivers
/// call them concurrently from every worker. `count` is the stage's
/// natural work unit — structural matches for P1, emitted instances for
/// P2, windows solved for DP.
pub trait TraceSink: Sync {
    /// Records `nanos` of wall time and `count` units of work for `stage`.
    fn record(&self, stage: TraceStage, nanos: u64, count: u64);

    /// Reports one parallel worker's share: `tasks` claimed from the
    /// shared queue (its steal count) and `nanos` spent busy. Default:
    /// ignored, so single-stage sinks need not care.
    fn worker(&self, _index: usize, _tasks: u64, _nanos: u64) {}

    /// Reports cutoff pass `index` of a ranking search
    /// ([`crate::cutoff`]): its pair-flow floor `cutoff`, the `pairs`
    /// that floor admits and the `instances` (results, at most `k`) the
    /// pass found. Default: ignored.
    fn pass(&self, _index: usize, _cutoff: Flow, _pairs: u64, _instances: u64) {}
}

/// Per-worker slots tracked by [`AtomicTrace`]; workers beyond this are
/// folded into the last slot.
pub const MAX_TRACE_WORKERS: usize = 64;

/// Cutoff-pass slots tracked by [`AtomicTrace`]; passes beyond this are
/// folded into the last slot.
pub const MAX_TRACE_PASSES: usize = 32;

/// One cutoff pass as read back from an [`AtomicTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassRecord {
    /// The pass's pair-flow floor (`-∞` for the search without one).
    pub cutoff: Flow,
    /// Pairs the floor admits.
    pub pairs: u64,
    /// Results the pass found.
    pub instances: u64,
}

/// A lock-free [`TraceSink`]: relaxed per-stage nanosecond/count
/// accumulators plus fixed per-worker task/busy slots. `const`-
/// constructible, so it can live in a `static` or be leaked once per
/// serve worker and reset per query.
#[derive(Debug)]
pub struct AtomicTrace {
    stage_nanos: [AtomicU64; TraceStage::COUNT],
    stage_count: [AtomicU64; TraceStage::COUNT],
    worker_tasks: [AtomicU64; MAX_TRACE_WORKERS],
    worker_nanos: [AtomicU64; MAX_TRACE_WORKERS],
    workers: AtomicUsize,
    /// Per pass: the cutoff's bits, admitted pairs, results found.
    passes: [[AtomicU64; 3]; MAX_TRACE_PASSES],
    num_passes: AtomicUsize,
}

impl AtomicTrace {
    /// An all-zero trace.
    pub const fn new() -> Self {
        Self {
            stage_nanos: [const { AtomicU64::new(0) }; TraceStage::COUNT],
            stage_count: [const { AtomicU64::new(0) }; TraceStage::COUNT],
            worker_tasks: [const { AtomicU64::new(0) }; MAX_TRACE_WORKERS],
            worker_nanos: [const { AtomicU64::new(0) }; MAX_TRACE_WORKERS],
            workers: AtomicUsize::new(0),
            passes: [const { [const { AtomicU64::new(0) }; 3] }; MAX_TRACE_PASSES],
            num_passes: AtomicUsize::new(0),
        }
    }

    /// Total nanoseconds recorded for `stage`.
    pub fn nanos(&self, stage: TraceStage) -> u64 {
        self.stage_nanos[stage.index()].load(Ordering::Relaxed)
    }

    /// Total work units recorded for `stage`.
    pub fn count(&self, stage: TraceStage) -> u64 {
        self.stage_count[stage.index()].load(Ordering::Relaxed)
    }

    /// Number of distinct workers that reported (capped at
    /// [`MAX_TRACE_WORKERS`]).
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed).min(MAX_TRACE_WORKERS)
    }

    /// Tasks claimed by worker `i`.
    pub fn worker_tasks(&self, i: usize) -> u64 {
        self.worker_tasks[i.min(MAX_TRACE_WORKERS - 1)].load(Ordering::Relaxed)
    }

    /// Busy nanoseconds of worker `i`.
    pub fn worker_nanos(&self, i: usize) -> u64 {
        self.worker_nanos[i.min(MAX_TRACE_WORKERS - 1)].load(Ordering::Relaxed)
    }

    /// The cutoff passes reported so far, in pass order (capped at
    /// [`MAX_TRACE_PASSES`]).
    pub fn passes(&self) -> Vec<PassRecord> {
        let n = self.num_passes.load(Ordering::Relaxed).min(MAX_TRACE_PASSES);
        self.passes[..n]
            .iter()
            .map(|[cutoff, pairs, instances]| PassRecord {
                cutoff: Flow::from_bits(cutoff.load(Ordering::Relaxed)),
                pairs: pairs.load(Ordering::Relaxed),
                instances: instances.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Zeroes every accumulator (between queries; not linearizable with
    /// concurrent recording).
    pub fn reset(&self) {
        for a in &self.stage_nanos {
            a.store(0, Ordering::Relaxed);
        }
        for a in &self.stage_count {
            a.store(0, Ordering::Relaxed);
        }
        for a in &self.worker_tasks {
            a.store(0, Ordering::Relaxed);
        }
        for a in &self.worker_nanos {
            a.store(0, Ordering::Relaxed);
        }
        self.workers.store(0, Ordering::Relaxed);
        for slot in self.passes.iter().flatten() {
            slot.store(0, Ordering::Relaxed);
        }
        self.num_passes.store(0, Ordering::Relaxed);
    }
}

impl Default for AtomicTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for AtomicTrace {
    fn record(&self, stage: TraceStage, nanos: u64, count: u64) {
        self.stage_nanos[stage.index()].fetch_add(nanos, Ordering::Relaxed);
        self.stage_count[stage.index()].fetch_add(count, Ordering::Relaxed);
    }

    fn worker(&self, index: usize, tasks: u64, nanos: u64) {
        let slot = index.min(MAX_TRACE_WORKERS - 1);
        self.worker_tasks[slot].fetch_add(tasks, Ordering::Relaxed);
        self.worker_nanos[slot].fetch_add(nanos, Ordering::Relaxed);
        self.workers.fetch_max(index + 1, Ordering::Relaxed);
    }

    fn pass(&self, index: usize, cutoff: Flow, pairs: u64, instances: u64) {
        let [c, p, n] = &self.passes[index.min(MAX_TRACE_PASSES - 1)];
        c.store(cutoff.to_bits(), Ordering::Relaxed);
        p.store(pairs, Ordering::Relaxed);
        n.store(instances, Ordering::Relaxed);
        self.num_passes.fetch_max(index + 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_round_trip_through_atomic_trace() {
        let t = AtomicTrace::new();
        t.record(TraceStage::P1, 100, 3);
        t.record(TraceStage::P1, 50, 1);
        t.record(TraceStage::P2, 7, 2);
        assert_eq!(t.nanos(TraceStage::P1), 150);
        assert_eq!(t.count(TraceStage::P1), 4);
        assert_eq!(t.nanos(TraceStage::P2), 7);
        assert_eq!(t.count(TraceStage::Dp), 0);
        t.reset();
        assert_eq!(t.nanos(TraceStage::P1), 0);
        assert_eq!(t.count(TraceStage::P1), 0);
    }

    #[test]
    fn worker_slots_accumulate_and_cap() {
        let t = AtomicTrace::new();
        t.worker(0, 5, 1000);
        t.worker(0, 2, 500);
        t.worker(3, 1, 10);
        assert_eq!(t.workers(), 4);
        assert_eq!(t.worker_tasks(0), 7);
        assert_eq!(t.worker_nanos(0), 1500);
        assert_eq!(t.worker_tasks(3), 1);
        // Out-of-range workers fold into the last slot.
        t.worker(MAX_TRACE_WORKERS + 10, 9, 9);
        assert_eq!(t.worker_tasks(MAX_TRACE_WORKERS - 1), 9);
        assert_eq!(t.workers(), MAX_TRACE_WORKERS);
    }

    #[test]
    fn pass_slots_read_back_in_order() {
        let t = AtomicTrace::new();
        assert!(t.passes().is_empty());
        t.pass(0, 62.5, 16, 0);
        t.pass(1, Flow::NEG_INFINITY, 300, 1);
        let passes = t.passes();
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0], PassRecord { cutoff: 62.5, pairs: 16, instances: 0 });
        assert_eq!(passes[1].cutoff, Flow::NEG_INFINITY);
        assert_eq!((passes[1].pairs, passes[1].instances), (300, 1));
        t.reset();
        assert!(t.passes().is_empty());
    }

    #[test]
    fn trace_is_shareable_across_threads() {
        let t: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
        std::thread::scope(|s| {
            for i in 0..4 {
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.record(TraceStage::P2, 1, 1);
                    }
                    t.worker(i, 1000, 0);
                });
            }
        });
        assert_eq!(t.nanos(TraceStage::P2), 4000);
        assert_eq!(t.count(TraceStage::P2), 4000);
        assert_eq!(t.workers(), 4);
        let total: u64 = (0..t.workers()).map(|i| t.worker_tasks(i)).sum();
        assert_eq!(total, 4000);
    }
}
