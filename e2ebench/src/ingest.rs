//! `serve-ingest`: sliding-window ingest under standing queries. A
//! `serve --horizon` is preloaded over the wire and given standing
//! subscriptions; connection A then sends `add`s open-loop (and
//! receives the `EVENT`s), connection B sends windowed `count`s over the
//! trailing horizon. The final post-publish counts are checked against a
//! fresh in-process engine fed the same stream.

use crate::inputs::{unit_time_stream, Fnv, DATASET_SEED};
use crate::loadgen::{drive_pair, schedule, Conn, Outcome, Pace, Request, Status};
use crate::read::{parse_cost, scrape};
use crate::spans::Spans;
use crate::stats::{max, median, percentile, sorted, supports};
use crate::sys::Server;
use crate::{Ctx, Report};
use flowmotif_core::catalog;
use flowmotif_datasets::Dataset;
use flowmotif_graph::Interaction;
use flowmotif_stream::{QueryEngine, SlidingWindow, SnapshotEngine, StandingQueries};
use flowmotif_util::{RngExt, SeedableRng, StdRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// ≈90k interactions over 6k nodes: the preload, the peak phase and the
/// timed window all fit.
const SCALE: f64 = 5.0;
const PRELOAD: usize = 50_000;
/// One time unit per add, so the horizon keeps 46–52k interactions
/// resident. Eviction sweeps run every `HORIZON / 8` adds; one falls in
/// the timed window (at time 52 200).
const HORIZON: i64 = 46_400;
const PUBLISH_EVERY: i64 = 1024;
/// Standing queries (motif, δ in adds, ϕ); each count asks for a seeded
/// choice of their motifs.
const SUBSCRIPTIONS: [(&str, i64, f64); 4] =
    [("M(3,2)", 2000, 1.0), ("M(3,3)", 2000, 1.0), ("M(3,2)", 4000, 3.0), ("M(4,4)A", 2000, 1.0)];
/// Set-ups before the timed window, and again after it.
const SETUPS_EACH_SIDE: usize = 3;
/// Adds of the closed-loop peak phase (about 2 s), and its length for
/// the counts sent beside them.
const PEAK_ADDS: usize = 800;
const PEAK_SECS: f64 = 2.0;
const PEAK_ADD_DEPTH: usize = 16;
const OPEN_CAP: usize = 64;
const DRAIN: Duration = Duration::from_secs(20);
const CALL: Duration = Duration::from_secs(60);

fn add_line(i: &Interaction) -> String {
    format!("add {} {} {} {}", i.from, i.to, i.time, i.flow)
}

fn sub_spec((motif, delta, phi): (&str, i64, f64)) -> String {
    format!("{motif} {delta} {phi}")
}

fn engine() -> SnapshotEngine {
    let inner = QueryEngine::new().with_window(SlidingWindow::new(HORIZON));
    SnapshotEngine::with_engine(inner).publish_every(PUBLISH_EVERY as usize)
}

/// Boots a server, preloads it over the wire, publishes and subscribes.
fn set_up(ctx: &Ctx, stream: &[Interaction]) -> Result<(Server, Conn), String> {
    let horizon = HORIZON.to_string();
    let args = ["--horizon", &horizon, "--pool", "2", "--event-loop-threads", "1"];
    let server = Server::start(&ctx.bin, &args).map_err(|e| e.to_string())?;
    let mut a = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let preload: Vec<Request> = stream[..PRELOAD]
        .iter()
        .map(|i| Request { due: Duration::ZERO, line: add_line(i) })
        .collect();
    let pace = Pace { cap: 512, stop_sending: Duration::MAX, give_up: CALL };
    let out = a.drive(&preload, Instant::now(), pace).map_err(|e| e.to_string())?;
    if out.len() != PRELOAD || out.iter().any(|o| o.status != Status::Ok) {
        return Err("preload adds were not all acknowledged".into());
    }
    for line in ["publish".to_string()]
        .into_iter()
        .chain(SUBSCRIPTIONS.iter().map(|&s| format!("subscribe {}", sub_spec(s))))
    {
        let (_, status) = a.call(&line, CALL).map_err(|e| e.to_string())?;
        if !status.starts_with("OK") {
            return Err(format!("{line} answered {status:?}"));
        }
    }
    Ok((server, a))
}

pub fn run(ctx: &Ctx, _dir: &Path, spans: &mut Spans) -> Result<Report, String> {
    let mut r = Report::default();
    let stream = unit_time_stream(&Dataset::Facebook.generate_multigraph(SCALE, DATASET_SEED));
    // The run's seed draws which subscription's motif each count asks for.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0016_3e57);

    // Half the set-ups run before the timed window and half after it,
    // so that their median spans the run; the last one before the window
    // serves it.
    let timed_set_up = || -> Result<((Server, Conn), f64), String> {
        let t = Instant::now();
        let live = set_up(ctx, &stream)?;
        Ok((live, t.elapsed().as_secs_f64()))
    };
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS_EACH_SIDE {
        drop(live.take()); // stop the previous server before the next boots
        let (l, secs) = timed_set_up()?;
        setups.push(secs);
        live = Some(l);
    }
    let (server, mut a) = live.expect("at least one set-up");
    let mut b = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    a.events.clear();

    // The count B sends at stream position `pos`: the trailing horizon,
    // its end rounded down to the publish period so that repeats between
    // two publishes can hit the cache.
    let mut count_at = |pos: usize| {
        let end = (pos as i64 / PUBLISH_EVERY) * PUBLISH_EVERY;
        let sub = SUBSCRIPTIONS[rng.random_range(0..SUBSCRIPTIONS.len())];
        format!("count {} {} {end}", sub_spec(sub), (end - HORIZON).max(0))
    };

    // The requests. Saturation first: A sends a fixed run of adds
    // closed-loop (pipelined) while B sends counts at the workload's read
    // rate. Then the open loop: adds and counts at their fixed rates.
    let adds = |from: usize, due: &[Duration]| -> Vec<Request> {
        stream[from..].iter().zip(due).map(|(i, &due)| Request { due, line: add_line(i) }).collect()
    };
    let peak_adds = adds(PRELOAD, &[Duration::ZERO; PEAK_ADDS]);
    let peak_reads: Vec<Request> =
        schedule((ctx.ingest_read_rate * PEAK_SECS) as usize, ctx.ingest_read_rate, Duration::ZERO)
            .into_iter()
            .map(|due| Request { due, line: count_at(PRELOAD) })
            .collect();
    let live_from = PRELOAD + PEAK_ADDS;
    let n_adds =
        ((ctx.ingest_add_rate * ctx.seconds).round() as usize).min(stream.len() - live_from);
    let add_due = schedule(n_adds, ctx.ingest_add_rate, Duration::ZERO);
    let open_adds = adds(live_from, &add_due);
    let n_reads = (ctx.ingest_read_rate * ctx.seconds).round() as usize;
    let open_reads: Vec<Request> = schedule(n_reads, ctx.ingest_read_rate, Duration::ZERO)
        .into_iter()
        .map(|due| {
            let sent_by = add_due.partition_point(|&d| d <= due);
            Request { due, line: count_at(live_from + sent_by) }
        })
        .collect();
    let mut hash = Fnv::new();
    let lines = stream[..live_from + n_adds].iter().map(add_line);
    for line in lines.chain(peak_reads.iter().chain(&open_reads).map(|q| q.line.clone())) {
        hash.feed(line.as_bytes());
        hash.feed(b"\n");
    }
    r.input_hash = hash.hex();

    let t = Instant::now();
    let paces = [PEAK_ADD_DEPTH, OPEN_CAP].map(|cap| Pace {
        cap,
        stop_sending: Duration::MAX,
        give_up: DRAIN,
    });
    let peak_out = drive_pair(&mut a, &mut b, [&peak_adds, &peak_reads], t, paces)?;
    if peak_out[0].iter().any(|o| o.status == Status::Unsent) {
        return Err("the peak phase did not send all its adds".into());
    }
    let peak_ok = peak_out.iter().flatten().filter(|o| o.status == Status::Ok).count();
    r.set("peak_rps", peak_ok as f64 / t.elapsed().as_secs_f64());

    a.events.clear();
    let pace = Pace {
        cap: OPEN_CAP,
        stop_sending: Duration::from_secs_f64(ctx.seconds + 1.0),
        give_up: Duration::from_secs_f64(ctx.seconds) + DRAIN,
    };
    let [add_out, read_out] =
        drive_pair(&mut a, &mut b, [&open_adds, &open_reads], Instant::now(), [pace; 2])?;
    let events = std::mem::take(&mut a.events);
    // Unsent adds come last: the server applied the ones before them.
    let applied = live_from + add_out.iter().take_while(|o| o.status != Status::Unsent).count();

    // Final answers: publish, then the unbounded count of every
    // subscription's motif.
    a.call("publish", CALL).map_err(|e| e.to_string())?;
    let mut finals = Vec::new();
    for sub in SUBSCRIPTIONS {
        let (_, status) =
            b.call(&format!("count {}", sub_spec(sub)), CALL).map_err(|e| e.to_string())?;
        finals.push(status);
    }
    let (metrics, _) = b.call("metrics", CALL).map_err(|e| e.to_string())?;
    r.set("rss_mb", server.vm_hwm_mb().map_err(|e| e.to_string())?);
    drop((a, b, server));
    for _ in 0..SETUPS_EACH_SIDE {
        setups.push(timed_set_up()?.1);
    }
    r.set("setup_s", median(&setups));
    r.notes.push(format!("setup samples: {setups:?} s"));

    // Every request must have succeeded; the final counts must match a
    // fresh engine fed the same stream (standing-query replay when
    // tracing, plain ingest otherwise).
    for o in peak_out.iter().flatten().chain(&add_out).chain(&read_out) {
        r.attempted += 1;
        match o.status {
            Status::Ok => {}
            Status::Err => {
                eprintln!("serve-ingest: error reply {:?}", o.reply);
                r.failed += 1;
                r.wrong += 1;
            }
            Status::Busy | Status::Timeout | Status::Unsent => r.failed += 1,
        }
    }
    let reference = if ctx.trace {
        replay(&stream[..applied], spans, &mut r)?
    } else {
        let e = engine();
        e.ingest(stream[..applied].iter().map(|i| (i.from, i.to, i.time, i.flow)))
            .map_err(|e| e.to_string())?;
        e
    };
    reference.publish();
    let snap = reference.snapshot();
    for (sub, status) in SUBSCRIPTIONS.iter().zip(&finals) {
        let motif = catalog::parse_motif(sub.0, sub.1, sub.2).map_err(|e| e.to_string())?;
        let (want, _) = snap.count(&motif, None);
        r.attempted += 1;
        let got = status.split(' ').find_map(|f| f.strip_prefix("count="));
        if got != Some(want.to_string().as_str()) {
            eprintln!(
                "serve-ingest: final count {} answered {status:?}, expected {want}",
                sub_spec(*sub)
            );
            r.failed += 1;
            r.wrong += 1;
        }
    }

    let writes = sorted(add_out.iter().map(Outcome::latency_ms).collect());
    let reads = sorted(read_out.iter().map(Outcome::latency_ms).collect());
    // An add's EVENTs carry its time as `last=`.
    let t0 = stream[live_from].time;
    let event_ms = sorted(
        events
            .iter()
            .filter_map(|e| {
                e.line
                    .split(' ')
                    .find_map(|f| f.strip_prefix("last="))?
                    .parse::<i64>()
                    .ok()
                    .map(|t| (t, e.at))
            })
            .filter_map(|(t, at)| {
                let o = add_out.get(usize::try_from(t - t0).ok()?)?;
                Some(at.saturating_sub(o.due).as_secs_f64() * 1e3)
            })
            .collect(),
    );
    r.set("p50_ms", percentile(&writes, 50.0));
    r.set("p90_ms", percentile(&writes, 90.0));
    r.set("write_p50_ms", percentile(&writes, 50.0));
    r.set("write_p99_ms", percentile(&writes, 99.0));
    r.set("read_p50_ms", percentile(&reads, 50.0));
    r.set("read_p99_ms", percentile(&reads, 99.0));
    r.set("event_p50_ms", percentile(&event_ms, 50.0));
    r.set("event_p99_ms", percentile(&event_ms, 99.0));
    let lag = sorted(add_out.iter().chain(&read_out).map(Outcome::lag_ms).collect());
    r.set("loadgen.lag_p99_ms", percentile(&lag, 99.0));
    let sent = add_out.iter().chain(&read_out).filter(|o| o.status != Status::Unsent).count();
    r.set("loadgen.sent", sent as f64);
    let done = add_out.iter().chain(&read_out).filter(|o| o.status == Status::Ok).count();
    r.set("loadgen.completed", done as f64);
    let hits = scrape(&metrics, "flowmotif_serve_cache_hits_total");
    let misses = scrape(&metrics, "flowmotif_serve_cache_misses_total");
    r.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    r.set("serve.events_pushed", scrape(&metrics, "flowmotif_serve_events_pushed_total"));
    r.set("serve.events_dropped", scrape(&metrics, "flowmotif_serve_events_dropped_total"));
    let tail = |n: usize| {
        if supports(n, 99.0) {
            "p99 has >= 10 samples beyond it"
        } else {
            "p99 under-sampled"
        }
    };
    r.notes.push(format!(
        "serve-ingest: {} adds at {} req/s ({}), {} reads at {} req/s ({}), {} add events ({}), \
         {} resident after the run",
        writes.len(),
        ctx.ingest_add_rate,
        tail(writes.len()),
        reads.len(),
        ctx.ingest_read_rate,
        tail(reads.len()),
        event_ms.len(),
        tail(event_ms.len()),
        snap.stats().interactions
    ));

    if ctx.trace {
        let lines: Vec<String> = open_adds.iter().map(|q| q.line.clone()).collect();
        let parse_ns = parse_cost(&lines, spans)?;
        r.set("serve.parse_ns", parse_ns);
        let standing_ms = median(&spans.durations_ms("stream.append_standing"));
        r.set("serve.unattributed_ms", percentile(&writes, 50.0) - standing_ms - parse_ns / 1e6);
    }
    Ok(r)
}

/// Replays `stream` in-process, as the server saw it: the preload, a
/// publish, the subscriptions, then one `append_standing` per live add,
/// each a span. Plain appends of the whole stream on a second engine
/// give the cost of an append without standing queries. Returns the
/// standing engine.
fn replay(
    stream: &[Interaction],
    spans: &mut Spans,
    r: &mut Report,
) -> Result<SnapshotEngine, String> {
    let plain = engine();
    let mut append_us = Vec::with_capacity(stream.len());
    for (k, i) in stream.iter().enumerate() {
        let t = Instant::now();
        plain.append(i.from, i.to, i.time, i.flow).map_err(|e| e.to_string())?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        if k + 1 == PRELOAD {
            plain.publish();
        }
    }
    drop(plain);
    let append_us = sorted(append_us);
    r.set("stream.append_us.p50", percentile(&append_us, 50.0));
    r.set("stream.append_us.p99", percentile(&append_us, 99.0));

    let e = engine();
    for i in &stream[..PRELOAD] {
        e.append(i.from, i.to, i.time, i.flow).map_err(|e| e.to_string())?;
    }
    e.publish();
    let mut subs = StandingQueries::new();
    for (motif, delta, phi) in SUBSCRIPTIONS {
        let m = catalog::parse_motif(motif, delta, phi).map_err(|e| e.to_string())?;
        e.subscribe_standing(&mut subs, m, None);
    }
    let evicted_before = e.stats().evicted;
    let mut events = Vec::new();
    let (mut publish_ms, mut dirty) = (Vec::new(), Vec::new());
    for (k, i) in stream.iter().enumerate().skip(PRELOAD) {
        let epoch = e.publish_report().epoch;
        let before = events.len();
        spans
            .record("stream.append_standing", k as u64, || {
                let res = e.append_standing(i.from, i.to, i.time, i.flow, &mut subs, &mut events);
                (res, vec![("events", (events.len() - before) as f64)])
            })
            .map_err(|e| e.to_string())?;
        let report = e.publish_report();
        if report.epoch != epoch {
            publish_ms.push(report.duration.as_secs_f64() * 1e3);
            dirty.push(report.dirty_pairs as f64);
        }
    }
    let standing_us: Vec<f64> =
        spans.durations_ms("stream.append_standing").iter().map(|ms| ms * 1e3).collect();
    let standing_us = sorted(standing_us);
    r.set("stream.append_standing_us.p50", percentile(&standing_us, 50.0));
    r.set("stream.append_standing_us.p99", percentile(&standing_us, 99.0));
    r.set("stream.delta.events", events.len() as f64);
    r.set("stream.publish_ms.p50", median(&publish_ms));
    r.set("stream.publish_ms.max", max(&publish_ms));
    r.set("stream.publish.dirty_pairs", median(&dirty));
    r.set("stream.evicted", (e.stats().evicted - evicted_before) as f64);
    Ok(e)
}
