//! Multi-threaded two-phase search.
//!
//! Both phases shard naturally by the *origin node* of the structural
//! match walk: disjoint origin ranges partition the match set. The
//! scheduler builds a deterministic task list at **two granularities** —
//! blocks of origin nodes, plus *pair-level* sub-tasks for heavy hubs
//! (an origin whose out-degree exceeds [`ParOptions::hub_degree`] is
//! split into chunks of its out-pair slice, so no single worker ever
//! owns a whole hub) — and workers steal tasks from a shared atomic
//! queue until it drains. Sinks and scratch arenas are worker-private;
//! no match materialisation, no locks on the hot path. The emitted
//! instance set and the merged [`SearchStats`] are independent of the
//! thread count, block size and hub splitting (every match belongs to
//! exactly one task), which the determinism suite pins down.
//!
//! Bounded scans ([`par_count_instances_in_window`],
//! [`par_enumerate_window`]) run the window-pruned phase P1: each task
//! pulls only its own origin shard out of the active-origin index
//! ([`flowmotif_graph::TimeSeriesGraph::active_origins_in_range`]), so
//! parallel queries never materialise one global candidate list.

use crate::cutoff::cutoff_passes;
use crate::enumerate::{
    enumerate_in_match_bounded, CollectSink, CountSink, InstanceSink, SearchOptions, SearchStats,
    UNBOUNDED,
};
use crate::instance::{InstanceView, MotifInstance, StructuralMatch};
use crate::matcher::P1Driver;
use crate::motif::Motif;
use crate::scratch::SearchScratch;
use crate::topk::{pass_outcome, rank_order, RankedInstance, TopKSink};
use crate::trace::TraceStage;
use flowmotif_graph::{Flow, GraphStore, NodeId, TimeWindow};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Scheduling knobs for the parallel drivers. The defaults suit skewed
/// real-world degree distributions; the fields exist for benchmarks,
/// A/B comparisons and the determinism suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParOptions {
    /// Worker threads; `0` means "all available cores".
    pub threads: usize,
    /// Origins per block task: small enough to balance, large enough to
    /// amortise the queue atomic.
    pub block: u32,
    /// Out-degree above which an origin is split into pair-level
    /// sub-tasks instead of riding inside a block. `u32::MAX` disables
    /// hub splitting — the legacy fixed-block scheduler, kept for the
    /// `skewed_scan` A/B benchmark.
    pub hub_degree: u32,
    /// Out-pairs per hub sub-task.
    pub hub_chunk: u32,
}

impl Default for ParOptions {
    fn default() -> Self {
        Self { threads: 0, block: 64, hub_degree: 128, hub_chunk: 16 }
    }
}

impl ParOptions {
    /// `ParOptions` with everything default but the thread count (the
    /// shape of the legacy `threads: usize` APIs).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, ..Self::default() }
    }
}

/// Picks a worker count: `threads = 0` means "all available cores".
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// One unit of schedulable work. Disjoint tasks partition the structural
/// match set: a match belongs to the task owning its walk origin — or,
/// for a split hub, the task owning its first-step pair.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Task {
    /// Phase P1+P2 over a contiguous origin range.
    Origins(std::ops::Range<NodeId>),
    /// One chunk of a heavy hub: matches of `origin` whose first walk
    /// step uses a pair in `pairs`.
    HubPairs {
        /// The hub origin node.
        origin: NodeId,
        /// Positional sub-range of the origin's out-pair list
        /// (`0..out_degree`), so the split works on any backend.
        pairs: std::ops::Range<u32>,
    },
}

/// Builds the deterministic task list: origin blocks, with every hub
/// flushed out of its block and split into pair chunks.
fn build_tasks<G: GraphStore>(g: &G, opts: ParOptions) -> Vec<Task> {
    let n = g.num_nodes() as u32;
    let block = opts.block.max(1);
    let chunk = opts.hub_chunk.max(1);
    let mut tasks = Vec::new();
    let mut run_start = 0u32;
    for u in 0..n {
        let deg = g.out_degree(u);
        if opts.hub_degree != u32::MAX && deg > opts.hub_degree {
            if run_start < u {
                tasks.push(Task::Origins(run_start..u));
            }
            let mut lo = 0u32;
            while lo < deg {
                let hi = (lo + chunk).min(deg);
                tasks.push(Task::HubPairs { origin: u, pairs: lo..hi });
                lo = hi;
            }
            run_start = u + 1;
        } else if u + 1 - run_start >= block {
            tasks.push(Task::Origins(run_start..u + 1));
            run_start = u + 1;
        }
    }
    if run_start < n {
        tasks.push(Task::Origins(run_start..n));
    }
    tasks
}

/// What one parallel scan searches: the motif, the window and the P1
/// pair-flow floor (`-∞` for none).
#[derive(Clone, Copy)]
struct Scan<'a> {
    motif: &'a Motif,
    bounds: TimeWindow,
    floor: Flow,
}

impl<'a> Scan<'a> {
    fn new(motif: &'a Motif, bounds: TimeWindow) -> Self {
        Self { motif, bounds, floor: Flow::NEG_INFINITY }
    }
}

/// Runs one task's P1+P2 into the worker's sink/stats/scratch.
fn run_task<G: GraphStore, S: InstanceSink>(
    g: &G,
    scan: Scan<'_>,
    opts: SearchOptions,
    task: &Task,
    sink: &mut S,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
) {
    let Scan { motif, bounds, floor } = scan;
    let SearchScratch { p1, p2, .. } = scratch;
    // Traced runs time the task total and the inside of every P2 call
    // (P1 = total − P2), mirroring the sequential driver; stats are
    // cumulative across a worker's tasks, so counts are deltas.
    let start = opts.trace.map(|_| std::time::Instant::now());
    let mut p2_nanos = 0u64;
    let (sm0, em0) = (stats.structural_matches, stats.instances_emitted);
    let mut visit = |sm: &StructuralMatch| {
        stats.structural_matches += 1;
        if opts.trace.is_some() {
            let t0 = std::time::Instant::now();
            enumerate_in_match_bounded(g, motif, sm, bounds, opts, sink, stats, p2);
            p2_nanos += t0.elapsed().as_nanos() as u64;
        } else {
            enumerate_in_match_bounded(g, motif, sm, bounds, opts, sink, stats, p2);
        }
    };
    let driver = P1Driver::new(motif.path())
        .bounds(bounds)
        .use_index(opts.use_active_index)
        .extension_order(opts.extension_order)
        .flow_floor(floor);
    let driver = match task {
        Task::Origins(r) => driver.origins(r.clone()),
        Task::HubPairs { origin, pairs } => driver.from_origin(*origin, pairs.clone()),
    };
    driver.run(g, p1, &mut visit);
    if let (Some(trace), Some(start)) = (opts.trace, start) {
        let total = start.elapsed().as_nanos() as u64;
        trace.record(
            TraceStage::P1,
            total.saturating_sub(p2_nanos),
            stats.structural_matches - sm0,
        );
        trace.record(TraceStage::P2, p2_nanos, stats.instances_emitted - em0);
    }
}

/// Runs the two-phase search with one sink per worker; returns the sinks
/// and the merged stats. Workers steal tasks from a shared queue (an
/// atomic cursor over the deterministic task list), so a straggler hub
/// chunk never serialises the scan.
fn par_scan<G: GraphStore + Sync, S: InstanceSink + Send>(
    g: &G,
    scan: Scan<'_>,
    opts: SearchOptions,
    par: ParOptions,
    sinks: Vec<S>,
) -> (Vec<S>, SearchStats) {
    let tasks = build_tasks(g, par);
    let next = AtomicUsize::new(0);
    let results: Vec<(S, SearchStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sinks
            .into_iter()
            .enumerate()
            .map(|(wi, mut sink)| {
                let (next, tasks) = (&next, &tasks);
                scope.spawn(move || {
                    let mut stats = SearchStats::default();
                    let mut scratch = SearchScratch::default();
                    // Per-worker steal count and busy time for the
                    // scheduler trace (untraced: two dead counters).
                    let (mut claimed, mut busy) = (0u64, 0u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        claimed += 1;
                        sink.begin_task(i);
                        if opts.trace.is_some() {
                            let t0 = std::time::Instant::now();
                            run_task(g, scan, opts, task, &mut sink, &mut stats, &mut scratch);
                            busy += t0.elapsed().as_nanos() as u64;
                        } else {
                            run_task(g, scan, opts, task, &mut sink, &mut stats, &mut scratch);
                        }
                    }
                    if let Some(trace) = opts.trace {
                        trace.worker(wi, claimed, busy);
                    }
                    (sink, stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut stats = SearchStats::default();
    let mut sinks = Vec::with_capacity(results.len());
    for (s, st) in results {
        stats.merge(&st);
        sinks.push(s);
    }
    (sinks, stats)
}

/// Parallel instance counting. `threads = 0` uses all cores.
pub fn par_count_instances<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    threads: usize,
) -> (u64, SearchStats) {
    par_count_instances_with(g, motif, SearchOptions::default(), ParOptions::with_threads(threads))
}

/// [`par_count_instances`] with explicit search and scheduling options.
pub fn par_count_instances_with<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    opts: SearchOptions,
    par: ParOptions,
) -> (u64, SearchStats) {
    par_count_instances_in_window(g, motif, UNBOUNDED, opts, par)
}

/// Parallel instance counting restricted to the closed window `bounds`:
/// the bounded, index-assisted phase P1 with per-shard candidate pulls.
pub fn par_count_instances_in_window<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    bounds: TimeWindow,
    opts: SearchOptions,
    par: ParOptions,
) -> (u64, SearchStats) {
    let workers = effective_threads(par.threads);
    let sinks = (0..workers).map(|_| CountSink::default()).collect();
    let (sinks, stats) = par_scan(g, Scan::new(motif, bounds), opts, par, sinks);
    (sinks.iter().map(|s| s.count).sum(), stats)
}

/// Parallel full enumeration. Groups arrive in worker order (i.e. not
/// globally sorted); each structural match still owns one contiguous
/// group per worker (a split hub's matches stay whole — chunks partition
/// matches, never one match's instances).
pub fn par_enumerate_all<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    threads: usize,
) -> (Vec<(StructuralMatch, Vec<MotifInstance>)>, SearchStats) {
    par_enumerate_all_with(g, motif, SearchOptions::default(), ParOptions::with_threads(threads))
}

/// [`par_enumerate_all`] with explicit search and scheduling options.
pub fn par_enumerate_all_with<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    opts: SearchOptions,
    par: ParOptions,
) -> (Vec<(StructuralMatch, Vec<MotifInstance>)>, SearchStats) {
    par_enumerate_window(g, motif, UNBOUNDED, opts, par)
}

/// Parallel enumeration restricted to the closed window `bounds`.
pub fn par_enumerate_window<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    bounds: TimeWindow,
    opts: SearchOptions,
    par: ParOptions,
) -> (Vec<(StructuralMatch, Vec<MotifInstance>)>, SearchStats) {
    let workers = effective_threads(par.threads);
    let sinks = (0..workers).map(|_| CollectSink::default()).collect();
    let (sinks, stats) = par_scan(g, Scan::new(motif, bounds), opts, par, sinks);
    let mut groups = Vec::new();
    for s in sinks {
        groups.extend(s.groups);
    }
    (groups, stats)
}

/// Counts instances and keeps the first `limit` it is offered, each
/// tagged with the index of the task that found it.
struct SampleSink {
    count: u64,
    limit: usize,
    task: usize,
    sample: Vec<(usize, StructuralMatch, MotifInstance)>,
}

impl InstanceSink for SampleSink {
    fn accept(&mut self, sm: &StructuralMatch, inst: InstanceView<'_>) {
        self.count += 1;
        if self.sample.len() < self.limit {
            self.sample.push((self.task, sm.clone(), inst.to_instance()));
        }
    }

    fn begin_task(&mut self, task: usize) {
        self.task = task;
    }
}

/// Parallel count of the instances, plus the first `show` of them in
/// scan order — the order a single worker finds them in — whatever the
/// thread count and schedule. Only the sample is materialised, never the
/// instance set.
pub fn par_count_and_sample_with<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    show: usize,
    opts: SearchOptions,
    par: ParOptions,
) -> (u64, Vec<(StructuralMatch, MotifInstance)>, SearchStats) {
    let workers = effective_threads(par.threads);
    let sinks = (0..workers)
        .map(|_| SampleSink { count: 0, limit: show, task: 0, sample: Vec::new() })
        .collect();
    let (sinks, stats) = par_scan(g, Scan::new(motif, UNBOUNDED), opts, par, sinks);
    let count = sinks.iter().map(|s| s.count).sum();
    // A worker claims tasks in ascending order, so its sample is its
    // first `show` instances in scan order, and the scan's first `show`
    // are among the workers' samples. A stable sort by task merges them.
    let mut sample: Vec<_> = sinks.into_iter().flat_map(|s| s.sample).collect();
    sample.sort_by_key(|&(task, _, _)| task);
    sample.truncate(show);
    (count, sample.into_iter().map(|(_, sm, inst)| (sm, inst)).collect(), stats)
}

/// Parallel top-k: each worker keeps a local top-k heap; heaps are merged
/// in [`rank_order`] at the end. The floating threshold is per-worker, so
/// pruning is weaker than in the sequential version, but results are
/// identical — the same instances in the same order. Like
/// [`crate::topk::top_k`], the search runs as [`crate::cutoff`] passes
/// (reported to the trace, if any); the stats sum over the passes.
pub fn par_top_k<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    k: usize,
    threads: usize,
) -> (Vec<RankedInstance>, SearchStats) {
    par_top_k_with(g, motif, k, SearchOptions::default(), ParOptions::with_threads(threads))
}

/// [`par_top_k`] with explicit search and scheduling options.
pub fn par_top_k_with<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    k: usize,
    opts: SearchOptions,
    par: ParOptions,
) -> (Vec<RankedInstance>, SearchStats) {
    let workers = effective_threads(par.threads);
    let mut ranked = Vec::new();
    let mut stats = SearchStats::default();
    cutoff_passes(g, k, motif.phi(), opts.trace, |floor| {
        let sinks = (0..workers).map(|_| TopKSink::new(k)).collect();
        let scan = Scan { floor, ..Scan::new(motif, UNBOUNDED) };
        let (sinks, pass_stats) = par_scan(g, scan, opts, par, sinks);
        stats.merge(&pass_stats);
        ranked.clear();
        for s in sinks {
            ranked.extend(s.into_sorted());
        }
        ranked.sort_by(|a, b| rank_order(&a.instance, &b.instance));
        ranked.truncate(k);
        pass_outcome(&ranked, k)
    });
    (ranked, stats)
}

/// A deterministic model of the scheduler, for benches and tests on
/// machines whose core count cannot demonstrate wall-clock scaling: the
/// cost of each task is its structural-match count, and tasks are
/// list-scheduled greedily onto `threads` workers exactly as the shared
/// queue hands them out (the next task goes to the earliest-available
/// worker). The achievable parallel speedup of a schedule is
/// `total / makespan`, so comparing makespans of two schedulers compares
/// their skew-proofness machine-independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerModel {
    /// Structural matches in the whole scan (the total work).
    pub total: u64,
    /// Number of tasks the scheduler produced.
    pub tasks: usize,
    /// Cost of the heaviest single task (a lower bound on the makespan).
    pub max_task: u64,
    /// Greedy list-scheduling makespan at the modelled thread count.
    pub makespan: u64,
}

/// Computes the [`SchedulerModel`] of an unbounded scan under `par`.
pub fn scheduler_makespan<G: GraphStore>(g: &G, motif: &Motif, par: ParOptions) -> SchedulerModel {
    let workers = effective_threads(par.threads);
    let tasks = build_tasks(g, par);
    let mut scratch = SearchScratch::default();
    let mut finish = vec![0u64; workers.max(1)];
    let (mut total, mut max_task) = (0u64, 0u64);
    for task in &tasks {
        let mut cost = 0u64;
        let mut count = |_: &StructuralMatch| cost += 1;
        let driver = match task {
            Task::Origins(r) => P1Driver::new(motif.path()).origins(r.clone()),
            Task::HubPairs { origin, pairs } => {
                P1Driver::new(motif.path()).from_origin(*origin, pairs.clone())
            }
        };
        driver.run(g, &mut scratch.p1, &mut count);
        total += cost;
        max_task = max_task.max(cost);
        // List scheduling: the next task goes to the worker that frees
        // up first.
        let i = (0..finish.len()).min_by_key(|&i| finish[i]).expect("at least one worker");
        finish[i] += cost;
    }
    let makespan = finish.into_iter().max().unwrap_or(0);
    SchedulerModel { total, tasks: tasks.len(), max_task, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::enumerate::{count_instances, enumerate_all};
    use crate::topk::top_k;
    use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};
    use flowmotif_util::rng::StdRng;
    use flowmotif_util::rng::{RngExt, SeedableRng};

    fn random_graph(nodes: u32, edges: usize, seed: u64) -> TimeSeriesGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for _ in 0..edges {
            let u = rng.random_range(0..nodes);
            let mut v = rng.random_range(0..nodes);
            while v == u {
                v = rng.random_range(0..nodes);
            }
            b.add_interaction(u, v, rng.random_range(0..500), rng.random_range(1..10) as f64);
        }
        b.build_time_series_graph()
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let g = random_graph(200, 900, 7);
        for name in ["M(3,2)", "M(3,3)", "M(4,3)"] {
            let m = catalog::by_name(name, 50, 3.0).unwrap();
            let (seq, seq_stats) = count_instances(&g, &m);
            for threads in [1, 2, 4] {
                let (par, par_stats) = par_count_instances(&g, &m, threads);
                assert_eq!(par, seq, "{name} threads={threads}");
                assert_eq!(par_stats.structural_matches, seq_stats.structural_matches);
                assert_eq!(par_stats.instances_emitted, seq_stats.instances_emitted);
            }
        }
    }

    #[test]
    fn parallel_enumeration_collects_same_instances() {
        let g = random_graph(150, 700, 11);
        let m = catalog::by_name("M(3,2)", 60, 2.0).unwrap();
        let (seq, _) = enumerate_all(&g, &m);
        let (par, _) = par_enumerate_all(&g, &m, 3);
        let norm = |groups: &[(StructuralMatch, Vec<MotifInstance>)]| {
            let mut v: Vec<String> = groups
                .iter()
                .flat_map(|(sm, is)| {
                    is.iter().map(move |i| format!("{:?}|{:?}", sm.pairs, i.edge_sets))
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&seq), norm(&par));
    }

    #[test]
    fn parallel_top_k_matches_sequential_flows() {
        let g = random_graph(120, 800, 13);
        let m = catalog::by_name("M(3,2)", 60, 0.0).unwrap();
        for k in [1, 5, 20] {
            let (seq, _) = top_k(&g, &m, k);
            let (par, _) = par_top_k(&g, &m, k, 4);
            let sf: Vec<_> = seq.iter().map(|r| r.instance.flow).collect();
            let pf: Vec<_> = par.iter().map(|r| r.instance.flow).collect();
            assert_eq!(sf, pf, "k={k}");
        }
    }

    #[test]
    fn trace_hook_records_stage_breakdown_and_steals() {
        use crate::trace::{AtomicTrace, TraceStage};
        let g = random_graph(80, 400, 29);
        let m = catalog::by_name("M(3,2)", 60, 0.0).unwrap();
        let trace: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
        let opts = SearchOptions::default().with_trace(Some(trace));
        let (traced, stats) = par_count_instances_with(&g, &m, opts, ParOptions::with_threads(2));
        let (plain, _) = par_count_instances(&g, &m, 2);
        assert_eq!(traced, plain, "tracing must not change results");
        assert_eq!(trace.count(TraceStage::P1), stats.structural_matches);
        assert_eq!(trace.count(TraceStage::P2), stats.instances_emitted);
        assert_eq!(trace.workers(), 2);
        let claimed: u64 = (0..trace.workers()).map(|i| trace.worker_tasks(i)).sum();
        assert_eq!(claimed as usize, build_tasks(&g, ParOptions::default()).len());
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let g = random_graph(60, 300, 17);
        let m = catalog::by_name("M(3,2)", 60, 0.0).unwrap();
        let (seq, _) = count_instances(&g, &m);
        let (par, _) = par_count_instances(&g, &m, 0);
        assert_eq!(par, seq);
    }

    #[test]
    fn node_range_partition_covers_all_matches() {
        use crate::matcher::count_structural_matches;
        let g = random_graph(100, 400, 23);
        let path = catalog::by_name("M(3,2)", 1, 0.0).unwrap();
        let total = count_structural_matches(&g, path.path());
        let mut split = 0u64;
        for lo in (0..100u32).step_by(17) {
            let hi = (lo + 17).min(100);
            P1Driver::new(path.path()).origins(lo..hi).for_each(&g, &mut |_| split += 1);
        }
        assert_eq!(split, total);
    }
}
