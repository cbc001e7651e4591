//! `serve-read`: read serving from a packed segment. The graph of
//! `batch` is packed and served with `--packed`; two connections send a
//! seeded open-loop mix of windowed `count` and `query` requests, and
//! every answer is checked against the heap engine in-process.

use crate::inputs::{facebook_edge_list, DATASET_SEED};
use crate::loadgen::{drive_pair, schedule, Conn, Outcome, Pace, Request, Status};
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, supports};
use crate::sys::{run_job, Server};
use crate::{Ctx, Report};
use flowmotif_core::{catalog, AtomicTrace, Motif, SearchScratch, TraceStage};
use flowmotif_graph::segment::DEFAULT_RUN_RECORDS;
use flowmotif_graph::{pack_edge_list, SegmentStore, TimeWindow};
use flowmotif_serve::protocol::parse_request;
use flowmotif_stream::{EpochEngine, Snapshot, SnapshotEngine};
use flowmotif_util::{FxHashMap, RngExt, SeedableRng, StdRng};
use std::path::Path;
use std::time::{Duration, Instant};

const SCALE: f64 = 10.0;
const MOTIFS: [&str; 3] = ["M(3,2)", "M(3,3)", "M(4,4)A"];
const DELTA: i64 = 600;
const PHI: f64 = 3.0;
const WIDTHS: [i64; 3] = [100, 300, 1000];
/// Slots of each width per motif in [`pattern`].
const WIDTH_SLOTS: [usize; 3] = [2, 4, 3];
const HOT_SPECS: usize = 16;
const COUNT_SHARE: f64 = 0.8;
/// Set-ups before the timed window, and again after it.
const SETUPS_EACH_SIDE: usize = 8;
/// Requests per connection in the closed-loop peak phase (about 2 s).
const PEAK_REQS: usize = 160;
/// Pipeline depth per connection in the closed-loop peak phase.
const PEAK_DEPTH: usize = 4;
/// Most requests in flight per connection in the open loop.
const OPEN_CAP: usize = 64;
/// How long after the timed window replies may still arrive.
const DRAIN: Duration = Duration::from_secs(20);
const SERVE_ARGS: [&str; 5] = ["--packed", "--pool", "2", "--event-loop-threads", "1"];

/// One read request: `count` or `query` of a catalog motif over a
/// closed time window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Spec {
    query: bool,
    motif: usize,
    from: i64,
    to: i64,
}

impl Spec {
    fn line(&self) -> String {
        let verb = if self.query { "query" } else { "count" };
        format!("{verb} {} {DELTA} {PHI} {} {}", MOTIFS[self.motif], self.from, self.to)
    }

    /// The answer's key: the motif and window, whichever the verb.
    fn key(&self) -> (usize, i64, i64) {
        (self.motif, self.from, self.to)
    }

    /// The instance total a reply states (`count=` or `instances=`).
    fn answer(&self, reply: &str) -> Option<u64> {
        let key = if self.query { "instances=" } else { "count=" };
        reply.split(' ').find_map(|f| f.strip_prefix(key)).and_then(|v| v.parse().ok())
    }
}

/// One slot of the request pattern: a hot-set request, or a fresh
/// window of one verb, motif and width.
#[derive(Clone, Copy)]
enum Slot {
    Hot,
    Cold { query: bool, motif: usize, width: i64 },
}

/// The pattern every run repeats. Per 36 requests: 9 from the hot set
/// (a quarter), then for each motif 2 windows 100 wide, 4 of 300 and 3
/// of 1000; 6 of those are `query` (with the hot set's, about a fifth).
/// The width shares keep the median and the 90th percentile of latency
/// inside a group of similar-cost classes (300-wide; 1000-wide M(4,4)A
/// and M(3,2)) rather than on the step between two groups, where a
/// percentile jumps from run to run. The order is shuffled once with a
/// fixed seed, so every run queues the same classes behind each other;
/// a run's seed picks the windows and the hot set.
fn pattern() -> Vec<Slot> {
    let mut slots = vec![Slot::Hot; 9];
    for motif in 0..MOTIFS.len() {
        for (width, n) in WIDTHS.into_iter().zip(WIDTH_SLOTS) {
            slots.extend(vec![Slot::Cold { query: false, motif, width }; n]);
        }
    }
    let mut rng = StdRng::seed_from_u64(0x0ade_5107);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.random_range(0..=i));
    }
    for slot in slots.iter_mut().filter(|s| matches!(s, Slot::Cold { .. })).take(6) {
        if let Slot::Cold { query, .. } = slot {
            *query = true;
        }
    }
    slots
}

/// Seeded request stream following [`pattern`].
struct Mix {
    rng: StdRng,
    span: (i64, i64),
    hot: Vec<Spec>,
    pattern: Vec<Slot>,
    next: usize,
}

impl Mix {
    fn new(seed: u64, span: (i64, i64)) -> Mix {
        let rng = StdRng::seed_from_u64(seed ^ 0x05ee_d0f1_2ead);
        let mut mix = Mix { rng, span, hot: vec![], pattern: pattern(), next: 0 };
        for _ in 0..HOT_SPECS {
            let query = !mix.rng.random_bool(COUNT_SHARE);
            let motif = mix.rng.random_range(0..MOTIFS.len());
            let width = WIDTHS[mix.rng.random_range(0..WIDTHS.len())];
            let spec = mix.fresh(query, motif, width);
            mix.hot.push(spec);
        }
        mix
    }

    fn fresh(&mut self, query: bool, motif: usize, width: i64) -> Spec {
        let from = self.rng.random_range(self.span.0..=(self.span.1 - width).max(self.span.0));
        Spec { query, motif, from, to: from + width }
    }

    fn next(&mut self) -> Spec {
        let slot = self.pattern[self.next % self.pattern.len()];
        self.next += 1;
        match slot {
            Slot::Hot => self.hot[self.rng.random_range(0..HOT_SPECS)],
            Slot::Cold { query, motif, width } => self.fresh(query, motif, width),
        }
    }
}

fn motifs() -> Vec<Motif> {
    MOTIFS.iter().map(|m| catalog::parse_motif(m, DELTA, PHI).expect("catalog motif")).collect()
}

/// Sums every series of metric family `name` in a Prometheus text scrape.
pub fn scrape(lines: &[String], name: &str) -> f64 {
    lines
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.split(['{', ' ']).next() == Some(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Heap-engine counts for every distinct window, on two threads.
fn heap_counts(
    snap: &Snapshot,
    motifs: &[Motif],
    keys: &[(usize, i64, i64)],
) -> FxHashMap<(usize, i64, i64), u64> {
    let half = keys.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = keys
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    let mut scratch = SearchScratch::default();
                    part.iter()
                        .map(|&(m, from, to)| {
                            let window = Some(TimeWindow::new(from, to));
                            let (n, _) = snap.count_with(&motifs[m], window, &mut scratch);
                            ((m, from, to), n)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("count thread panicked")).collect()
    })
}

pub fn run(ctx: &Ctx, dir: &Path, spans: &mut Spans) -> Result<Report, String> {
    let mut r = Report::default();
    let path = dir.join("graph.tsv");
    let (mg, mut hash) =
        facebook_edge_list(SCALE, DATASET_SEED, &path).map_err(|e| e.to_string())?;
    let span = mg.time_span().ok_or("empty graph")?;
    let file = path.to_str().ok_or("non-UTF-8 work path")?;

    // Set-up: pack, boot, first ping answered. Half the set-ups run
    // before the timed window and half after it, so that their median
    // spans the run; the last server before the window stays up for it.
    let set_up = |k: usize| -> Result<(Server, f64), String> {
        let seg = dir.join(format!("seg{k}"));
        let seg = seg.to_str().ok_or("non-UTF-8 work path")?.to_string();
        let t = Instant::now();
        run_job(&ctx.bin, &["pack", file, "--out", &seg]).map_err(|e| e.to_string())?;
        let mut args = vec![seg.as_str()];
        args.extend(SERVE_ARGS);
        let s = Server::start(&ctx.bin, &args).map_err(|e| e.to_string())?;
        let mut c = Conn::connect(s.addr).map_err(|e| e.to_string())?;
        let (_, pong) = c.call("ping", Duration::from_secs(30)).map_err(|e| e.to_string())?;
        if pong != "OK pong" {
            return Err(format!("ping answered {pong:?}"));
        }
        Ok((s, t.elapsed().as_secs_f64()))
    };
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUPS_EACH_SIDE {
        drop(server.take()); // stop the previous server before the next boots
        let (s, secs) = set_up(k)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    // The reference: the same interactions in the heap snapshot engine.
    let engine = SnapshotEngine::new();
    let mut xs = mg.into_interactions();
    xs.sort_by_key(|i| i.time);
    engine.ingest(xs.iter().map(|i| (i.from, i.to, i.time, i.flow))).map_err(|e| e.to_string())?;
    drop(xs);
    engine.publish();

    let mut mix = Mix::new(ctx.seed, span);
    let mut a = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let mut b = Conn::connect(server.addr).map_err(|e| e.to_string())?;

    // The requests: a fixed run per connection for the closed-loop peak
    // phase, then the open loop's at the fixed rate, alternating
    // connections.
    let peak: [Vec<Spec>; 2] = [(); 2].map(|()| (0..PEAK_REQS).map(|_| mix.next()).collect());
    let peak_reqs = peak.each_ref().map(|specs| {
        specs.iter().map(|s| Request { due: Duration::ZERO, line: s.line() }).collect::<Vec<_>>()
    });
    let n = (ctx.read_rate * ctx.seconds).round() as usize;
    let due = schedule(n, ctx.read_rate, Duration::ZERO);
    let mut open_reqs: [Vec<Request>; 2] = Default::default();
    let mut open_specs: [Vec<Spec>; 2] = Default::default();
    for (i, d) in due.into_iter().enumerate() {
        let s = mix.next();
        open_reqs[i % 2].push(Request { due: d, line: s.line() });
        open_specs[i % 2].push(s);
    }
    for line in peak_reqs.iter().chain(&open_reqs).flatten().map(|q| &q.line) {
        hash.feed(line.as_bytes());
        hash.feed(b"\n");
    }
    r.input_hash = hash.hex();

    // Closed-loop saturation on both connections.
    let pace = Pace { cap: PEAK_DEPTH, stop_sending: Duration::MAX, give_up: DRAIN };
    let t = Instant::now();
    let peak_out = drive_pair(&mut a, &mut b, [&peak_reqs[0], &peak_reqs[1]], t, [pace; 2])?;
    let peak_ok = peak_out.iter().flatten().filter(|o| o.status == Status::Ok).count();
    r.set("peak_rps", peak_ok as f64 / t.elapsed().as_secs_f64());

    // Open loop.
    let pace = Pace {
        cap: OPEN_CAP,
        stop_sending: Duration::from_secs_f64(ctx.seconds + 1.0),
        give_up: Duration::from_secs_f64(ctx.seconds) + DRAIN,
    };
    let open_out =
        drive_pair(&mut a, &mut b, [&open_reqs[0], &open_reqs[1]], Instant::now(), [pace; 2])?;

    let (metrics, _) = a.call("metrics", Duration::from_secs(30)).map_err(|e| e.to_string())?;
    r.set("rss_mb", server.vm_hwm_mb().map_err(|e| e.to_string())?);
    drop((a, b, server));
    for k in SETUPS_EACH_SIDE..2 * SETUPS_EACH_SIDE {
        setups.push(set_up(k)?.1);
    }
    r.set("setup_s", median(&setups));
    r.notes.push(format!("setup samples: {setups:?} s"));

    // Correctness: every answered request against the heap engine.
    let answered: Vec<(Spec, &Outcome)> = peak
        .iter()
        .zip(&peak_out)
        .chain(open_specs.iter().zip(&open_out))
        .flat_map(|(s, o)| s.iter().copied().zip(o))
        .collect();
    let mut keys: Vec<(usize, i64, i64)> = answered.iter().map(|(s, _)| s.key()).collect();
    keys.sort_unstable();
    keys.dedup();
    let ms = motifs();
    let snap = engine.snapshot();
    let expected = heap_counts(&snap, &ms, &keys);
    for (spec, o) in &answered {
        r.attempted += 1;
        match o.status {
            Status::Ok if spec.answer(&o.reply) == Some(expected[&spec.key()]) => {}
            Status::Ok | Status::Err => {
                eprintln!(
                    "serve-read: {} answered {:?}, expected {}",
                    spec.line(),
                    o.reply,
                    expected[&spec.key()]
                );
                r.failed += 1;
                r.wrong += 1;
            }
            Status::Busy | Status::Timeout | Status::Unsent => r.failed += 1,
        }
    }

    let open: Vec<(Spec, &Outcome)> =
        open_specs.iter().zip(&open_out).flat_map(|(s, o)| s.iter().copied().zip(o)).collect();
    let lat = sorted(open.iter().map(|(_, o)| o.latency_ms()).collect());
    r.set("p50_ms", percentile(&lat, 50.0));
    r.set("p90_ms", percentile(&lat, 90.0));
    r.set("read_p50_ms", percentile(&lat, 50.0));
    r.set("read_p99_ms", percentile(&lat, 99.0));
    let lag = sorted(open.iter().map(|(_, o)| o.lag_ms()).collect());
    r.set("loadgen.lag_p99_ms", percentile(&lag, 99.0));
    let sent = open.iter().filter(|(_, o)| o.status != Status::Unsent).count();
    r.set("loadgen.sent", sent as f64);
    r.set("loadgen.completed", open.iter().filter(|(_, o)| o.status == Status::Ok).count() as f64);
    let hits = scrape(&metrics, "flowmotif_serve_cache_hits_total");
    let misses = scrape(&metrics, "flowmotif_serve_cache_misses_total");
    r.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    r.set("serve.shed", scrape(&metrics, "flowmotif_serve_load_shed_total"));
    r.set("serve.busy", scrape(&metrics, "flowmotif_serve_busy_total"));
    let pcts: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0]
        .iter()
        .map(|&p| format!("{:.2}", percentile(&lat, p)))
        .collect();
    r.notes
        .push(format!("serve-read: read latency p10/p25/p50/p75/p90/p99 = {} ms", pcts.join("/")));
    r.notes.push(format!(
        "serve-read: {} reads at {} req/s over {} s ({} distinct windows checked); p99 {}",
        lat.len(),
        ctx.read_rate,
        ctx.seconds,
        keys.len(),
        if supports(lat.len(), 99.0) { "has >= 10 samples beyond it" } else { "is under-sampled" }
    ));

    if ctx.trace {
        let lines: Vec<String> = open.iter().map(|(s, _)| s.line()).collect();
        trace_layers(&path, dir, &lines, &open, &snap, spans, &mut r)?;
    }
    Ok(r)
}

/// The traced run's per-layer split: pack and open the segment
/// in-process, re-run every distinct `count` of the open loop on the
/// epoch engine (with the stage trace on) and on the heap engine, one
/// after the other, and time request parsing.
fn trace_layers(
    path: &Path,
    dir: &Path,
    lines: &[String],
    open: &[(Spec, &Outcome)],
    heap: &Snapshot,
    spans: &mut Spans,
    r: &mut Report,
) -> Result<(), String> {
    let seg = dir.join("seg-traced");
    spans
        .record("graph.pack", 0, || (pack_edge_list(path, &seg, DEFAULT_RUN_RECORDS), vec![]))
        .map_err(|e| e.to_string())?;
    r.set("graph.pack_ms", spans.durations_ms("graph.pack")[0]);
    spans
        .record("graph.segment_open", 0, || {
            let store = SegmentStore::open(&seg);
            let touched = store.as_ref().map_or(0, |s| s.prefetch());
            (store, vec![("bytes", touched as f64)])
        })
        .map_err(|e| e.to_string())?;
    r.set("graph.segment_open_ms", spans.durations_ms("graph.segment_open")[0]);

    let engine = EpochEngine::open(&seg).map_err(|e| e.to_string())?;
    let snap = engine.snapshot();
    let ms = motifs();
    let trace: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
    let mut scratch = SearchScratch::default();
    let mut engine_ms: FxHashMap<(usize, i64, i64), f64> = FxHashMap::default();
    let (mut p1, mut p2) = (Vec::new(), Vec::new());
    for (req, (spec, _)) in open.iter().enumerate() {
        if spec.query || engine_ms.contains_key(&spec.key()) {
            continue;
        }
        trace.reset();
        let window = Some(TimeWindow::new(spec.from, spec.to));
        spans.record("stream.epoch_count", req as u64, || {
            let (_, st) = snap.count_traced(&ms[spec.motif], window, &mut scratch, Some(trace));
            let counts = vec![
                ("matches", st.structural_matches as f64),
                ("windows", st.windows_processed as f64),
                ("instances", st.instances_emitted as f64),
            ];
            ((), counts)
        });
        let took = spans.spans.last().expect("just recorded").duration().as_secs_f64() * 1e3;
        engine_ms.insert(spec.key(), took);
        p1.push(trace.nanos(TraceStage::P1) as f64 / 1e6);
        p2.push(trace.nanos(TraceStage::P2) as f64 / 1e6);
        spans.record("stream.heap_count", req as u64, || {
            (heap.count_with(&ms[spec.motif], window, &mut scratch), vec![])
        });
    }
    r.set("stream.epoch_count_ms", median(&engine_ms.values().copied().collect::<Vec<_>>()));
    r.set("stream.heap_count_ms", median(&spans.durations_ms("stream.heap_count")));
    r.set("core.p1_ms", median(&p1));
    r.set("core.p2_ms", median(&p2));
    let windows = spans.total("stream.epoch_count", "windows");
    let instances = spans.total("stream.epoch_count", "instances");
    r.set("core.p1.matches", spans.total("stream.epoch_count", "matches"));
    r.set("core.p2.windows", windows);
    r.set("core.p2.instances", instances);
    r.set("core.p2.useful_ratio", instances / windows.max(1.0));

    let parse_ns = parse_cost(lines, spans)?;
    r.set("serve.parse_ns", parse_ns);

    // What the client saw beyond engine time (first sight of a window:
    // a cache miss) and parsing, per `count`.
    let mut seen = std::collections::HashSet::new();
    let rest: Vec<f64> = open
        .iter()
        .filter(|(s, o)| !s.query && o.status == Status::Ok)
        .map(|(s, o)| {
            let engine = if seen.insert(s.key()) { engine_ms[&s.key()] } else { 0.0 };
            o.latency_ms() - engine - parse_ns / 1e6
        })
        .collect();
    r.set("serve.unattributed_ms", median(&rest));
    Ok(())
}

/// Mean time of [`parse_request`] over `lines`, in nanoseconds, as a span.
pub fn parse_cost(lines: &[String], spans: &mut Spans) -> Result<f64, String> {
    let ok = spans.record("serve.parse", 0, || {
        let ok = lines.iter().all(|l| parse_request(std::hint::black_box(l)).is_ok());
        (ok, vec![("lines", lines.len() as f64)])
    });
    if !ok {
        return Err("a generated request line does not parse".into());
    }
    let total_ns = spans.durations_ms("serve.parse").last().copied().unwrap_or(0.0) * 1e6;
    Ok(total_ns / lines.len().max(1) as f64)
}
