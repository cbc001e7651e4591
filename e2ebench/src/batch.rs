//! `batch`: the paper's offline analysis through the CLI. Each round
//! runs `find`, `topk` and `top1` as fresh processes that reload the
//! edge list, as users do; every answer is checked against the library
//! run in-process on the heap graph.

use crate::inputs::facebook_edge_list;
use crate::spans::Spans;
use crate::stats::{max, median, percentile, sorted};
use crate::sys::run_job;
use crate::{Ctx, Report};
use flowmotif_core::dp::dp_top1_with;
use flowmotif_core::parallel::{par_enumerate_all_with, par_top_k_with, ParOptions};
use flowmotif_core::{catalog, AtomicTrace, SearchOptions, SearchScratch, TraceStage};
use flowmotif_graph::{io, TimeSeriesGraph};
use std::path::Path;

/// ≈1.08M interactions, 72k nodes, 270k pairs.
const SCALE: f64 = 60.0;
const THREADS: &str = "2";

/// What the three jobs must print.
struct Expected {
    matches: u64,
    instances: u64,
    topk_flows: Vec<String>,
    top1_flow: String,
}

/// A trace arena for one traced library call (the search hook needs
/// `&'static`; a run leaks three).
fn arena(on: bool) -> Option<&'static AtomicTrace> {
    on.then(|| &*Box::leak(Box::new(AtomicTrace::new())))
}

fn options(trace: Option<&'static AtomicTrace>) -> SearchOptions {
    SearchOptions::builder().trace(trace.map(|t| t as _)).build()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs the three searches in-process, recording spans and, when
/// tracing, the per-stage split of each.
fn reference(g: &TimeSeriesGraph, ctx: &Ctx, spans: &mut Spans, r: &mut Report) -> Expected {
    let par = ParOptions { threads: 2, ..ParOptions::default() };
    let find_motif = catalog::parse_motif("M(3,2)", 600, 3.0).expect("catalog motif");
    let rank_motif = catalog::parse_motif("M(3,2)", 600, 0.0).expect("catalog motif");

    let t = arena(ctx.trace);
    let (matches, instances) = spans.record("core.find", 1, || {
        let (groups, stats) = par_enumerate_all_with(g, &find_motif, options(t), par);
        let instances = groups.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
        let counts = vec![
            ("matches", stats.structural_matches as f64),
            ("windows", stats.windows_processed as f64),
            ("instances", stats.instances_emitted as f64),
        ];
        ((stats.structural_matches, instances), counts)
    });
    if let Some(t) = t {
        r.set("core.p1_ms", ms(t.nanos(TraceStage::P1)));
        r.set("core.p2_ms", ms(t.nanos(TraceStage::P2)));
        let busy: Vec<f64> = (0..t.workers()).map(|w| t.worker_nanos(w) as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        r.set("core.par.imbalance", if mean > 0.0 { max(&busy) / mean } else { 1.0 });
    }
    let windows = spans.total("core.find", "windows");
    r.set("core.p1.matches", spans.total("core.find", "matches"));
    r.set("core.p2.windows", windows);
    r.set("core.p2.instances", spans.total("core.find", "instances"));
    r.set("core.p2.useful_ratio", spans.total("core.find", "instances") / windows.max(1.0));

    let t = arena(ctx.trace);
    let topk_flows = spans.record("core.topk", 2, || {
        let (ranked, _) = par_top_k_with(g, &rank_motif, 10, options(t), par);
        (ranked.iter().map(|x| format!("{:.3}", x.instance.flow)).collect::<Vec<_>>(), vec![])
    });
    r.set("core.topk_ms", spans.durations_ms("core.topk")[0]);

    let t = arena(ctx.trace);
    let top1_flow = spans.record("core.top1", 3, || {
        let (best, _) = dp_top1_with(g, &rank_motif, options(t), &mut SearchScratch::default());
        (best.map_or_else(String::new, |(_, i)| format!("{:.3}", i.flow)), vec![])
    });
    if let Some(t) = t {
        r.set("core.dp_ms", ms(t.nanos(TraceStage::Dp)));
    }
    Expected { matches, instances, topk_flows, top1_flow }
}

/// Whether a job's standard output states the expected answer.
type Check = fn(&str, &Expected) -> bool;

/// The number just before `suffix` in `s`.
fn number_before(s: &str, suffix: &str) -> Option<u64> {
    s.split(suffix).next()?.rsplit(' ').next()?.parse().ok()
}

fn check_find(out: &str, e: &Expected) -> bool {
    let line = out.lines().next().unwrap_or("");
    number_before(line, " structural matches") == Some(e.matches)
        && number_before(line, " maximal instances") == Some(e.instances)
}

fn check_topk(out: &str, e: &Expected) -> bool {
    let flows: Vec<&str> = out
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix('#'))
        .filter_map(|l| l.split(" flow ").nth(1)?.split(' ').next())
        .collect();
    flows == e.topk_flows
}

fn check_top1(out: &str, e: &Expected) -> bool {
    out.strip_prefix("top-1 flow ").and_then(|l| l.split(' ').next()) == Some(&e.top1_flow)
}

pub fn run(ctx: &Ctx, dir: &Path, spans: &mut Spans) -> Result<Report, String> {
    let mut r = Report::default();
    let path = dir.join("graph.tsv");
    let (_, hash) = facebook_edge_list(SCALE, ctx.seed, &path).map_err(|e| e.to_string())?;
    r.input_hash = hash.hex();

    // Set-up: loading the edge list into the heap graph, once for the
    // reference and again before every round, so that the set-up times
    // are spread over the whole run, as the jobs are.
    let load = |spans: &mut Spans| {
        spans.record("graph.load", 0, || (io::load_time_series_graph(&path), vec![]))
    };
    let g = load(spans).map_err(|e| e.to_string())?;
    let expected = reference(&g, ctx, spans, &mut r);
    drop(g);

    let file = path.to_str().ok_or("non-UTF-8 work path")?;
    let jobs: [(&str, Vec<&str>, Check); 3] = [
        (
            "find",
            vec!["find", file, "--motif", "M(3,2)", "--delta", "600", "--phi", "3", "--show", "0"],
            check_find,
        ),
        ("topk", vec!["topk", file, "--motif", "M(3,2)", "--k", "10"], check_topk),
        ("top1", vec!["top1", file, "--motif", "M(3,2)"], check_top1),
    ];
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut rounds = 0;
    let mut rss: f64 = 0.0;
    // The timed window counts the jobs only, not the loads between rounds.
    let timed_ms = |walls: &[Vec<f64>; 3]| walls.iter().flatten().sum::<f64>() * 1e3;
    while rounds == 0 || timed_ms(&walls) < ctx.seconds * 1e3 {
        drop(load(spans).map_err(|e| e.to_string())?);
        rounds += 1;
        for (i, (_, args, check)) in jobs.iter().enumerate() {
            let mut args = args.clone();
            args.extend(["--threads", THREADS]);
            r.attempted += 1;
            match run_job(&ctx.bin, &args) {
                Ok(job) => {
                    walls[i].push(job.wall.as_secs_f64());
                    rss = rss.max(job.rss_mb);
                    if !check(&job.stdout, &expected) {
                        eprintln!("batch: wrong answer from {args:?}:\n{}", job.stdout);
                        r.failed += 1;
                        r.wrong += 1;
                    }
                }
                Err(e) => {
                    eprintln!("batch: {e}");
                    r.failed += 1;
                    r.wrong += 1;
                }
            }
        }
        if r.wrong > 0 {
            break; // the run has failed; more rounds add nothing
        }
    }
    let loads = spans.durations_ms("graph.load");
    r.set("setup_s", median(&loads) / 1e3);
    r.set("graph.load_ms", median(&loads));
    r.notes.push(format!("setup samples: {loads:?} ms"));
    r.set("rss_mb", rss);
    // Percentiles over every job of the run, whichever its kind, as for
    // the requests of a serve workload.
    let all = sorted(walls.iter().flatten().map(|s| s * 1e3).collect());
    r.set("p50_ms", percentile(&all, 50.0));
    r.set("p90_ms", percentile(&all, 90.0));
    for (i, name) in ["find_s", "topk_s", "top1_s"].into_iter().enumerate() {
        r.set(name, median(&walls[i]));
    }
    let each: Vec<String> = all.iter().map(|ms| format!("{ms:.0}")).collect();
    r.notes.push(format!(
        "batch: {rounds} rounds of find+topk+top1, job times {} ms; reference {} matches, \
         {} instances, top-1 flow {}",
        each.join(" "),
        expected.matches,
        expected.instances,
        expected.top1_flow
    ));
    Ok(r)
}
