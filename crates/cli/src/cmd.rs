//! Subcommand implementations, writing human- or machine-readable output
//! to the provided writer.

use crate::opts::{Cli, Command};
use flowmotif_core::analytics::per_match_activity;
use flowmotif_core::census::walk_census;
use flowmotif_core::{
    catalog, AtomicTrace, Motif, ParOptions, Query, SearchOptions, SearchScratch, TraceStage,
};
use flowmotif_datasets::Dataset;
use flowmotif_graph::{io, GraphStats, GraphStore, SegmentStore, TimeSeriesGraph, TimeWindow};
use flowmotif_serve::{Client, Server, ServerConfig};
use flowmotif_significance::{assess_motif, SignificanceConfig};
use flowmotif_stream::{QueryEngine, SlidingWindow, SnapshotEngine};
use flowmotif_util::json;
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs the parsed CLI, writing output to `out`. Returns a process exit
/// code.
pub fn run<W: Write>(cli: &Cli, out: &mut W) -> Result<(), String> {
    match &cli.command {
        Command::Stats(path) => stats(path, cli, out),
        Command::Find(path) => find(path, cli, out),
        Command::TopK(path) => topk(path, cli, out),
        Command::Top1(path) => top1(path, cli, out),
        Command::Pack(path) => pack(path, cli, out),
        Command::Significance(path) => significance(path, cli, out),
        Command::Census(path) => census(path, cli, out),
        Command::Activity(path) => activity(path, cli, out),
        Command::Generate => generate(cli, out),
        Command::Stream(path) => stream(path.as_deref(), cli, out),
        Command::Serve(path) => serve(path.as_deref(), cli, out),
        Command::Client(path) => client(path.as_deref(), cli, out),
        Command::Subscribe => subscribe(cli, out),
        Command::Metrics => metrics(cli, out),
    }
}

fn load(path: &Path) -> Result<TimeSeriesGraph, String> {
    io::load_time_series_graph(path).map_err(|e| format!("loading {}: {e}", path.display()))
}

/// The graph find/topk/top1/census search: a segment either way, and
/// the time it took to load. With `--packed`, `path` is a segment
/// directory (or `graph.seg` file) produced by `flowmotif pack`, and
/// every mapped page is touched once before the search (phase P1 hops
/// the adjacency sections in graph order, and sequential faulting beats
/// faulting on demand on a cold map; see the `out_of_core` bench).
/// Otherwise the edge list is built into the same segment image in
/// memory on `--threads` workers, so `--packed` only skips the parse and
/// the sort.
fn search_graph(path: &Path, cli: &Cli) -> Result<(SegmentStore, Duration), String> {
    let started = Instant::now();
    let store = if cli.packed {
        let store = SegmentStore::open(path)
            .map_err(|e| format!("opening packed graph {}: {e}", path.display()))?;
        store.prefetch();
        store
    } else {
        io::load_segment(path, cli.threads)
            .map_err(|e| format!("loading {}: {e}", path.display()))?
    };
    Ok((store, started.elapsed()))
}

fn motif_of(cli: &Cli) -> Result<Motif, String> {
    catalog::parse_motif(&cli.motif, cli.delta, cli.phi).map_err(|e| e.to_string())
}

/// Scheduling options for the parallel search commands: `--threads` plus
/// `--hub-degree` (0 = keep every origin whole).
fn par_of(cli: &Cli) -> ParOptions {
    ParOptions {
        threads: cli.threads,
        hub_degree: if cli.hub_degree == 0 { u32::MAX } else { cli.hub_degree },
        ..ParOptions::default()
    }
}

/// A trace arena for `--profile`, leaked once per invocation (the search
/// hook needs `&'static`, and the CLI is a short-lived process).
fn profile_trace(cli: &Cli) -> Option<&'static AtomicTrace> {
    cli.profile.then(|| &*Box::leak(Box::new(AtomicTrace::new())))
}

/// The query of find/topk/top1: the `--extension-order` choice and the
/// `--threads`/`--hub-degree` scheduling, with the `--profile` trace
/// attached when requested.
fn query_of<'a>(cli: &Cli, motif: &'a Motif, trace: Option<&'static AtomicTrace>) -> Query<'a> {
    let opts = SearchOptions {
        trace: trace.map(|t| t as _),
        extension_order: cli.extension_order,
        ..SearchOptions::default()
    };
    Query { opts, par: Some(par_of(cli)), ..Query::new(motif) }
}

/// Prints the per-stage breakdown collected by a `--profile` run: the
/// graph load (the open of a packed segment, or the in-memory build
/// split into its parse, sort and build phases with its worker count),
/// the search's wall-clock time, each stage's time and work count, then
/// per-worker task/busy figures when the search ran on more than one
/// worker, then one line per cutoff pass of a ranking search
/// (`topk`/`top1`): its pair-flow floor, the pairs that floor admits and
/// the results the pass found.
fn write_profile<W: Write>(
    out: &mut W,
    trace: Option<&'static AtomicTrace>,
    started: Option<Instant>,
    g: &SegmentStore,
    load: Duration,
) {
    let (Some(trace), Some(started)) = (trace, started) else { return };
    let total = started.elapsed();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let phases = g.build_profile().map_or(String::new(), |p| {
        format!(
            "; parse {:.3} ms, sort {:.3} ms, build {:.3} ms, {} threads",
            ms(p.parse),
            ms(p.sort),
            ms(p.build),
            p.threads
        )
    });
    writeln!(
        out,
        "profile: load {:.3} ms ({} interactions{phases})",
        ms(load),
        g.num_interactions()
    )
    .ok();
    writeln!(out, "profile: total {:.3} ms", total.as_secs_f64() * 1e3).ok();
    writeln!(out, "  {:<5} {:>12} {:>12}", "stage", "time_ms", "count").ok();
    for stage in [TraceStage::P1, TraceStage::P2, TraceStage::Dp] {
        let (ns, n) = (trace.nanos(stage), trace.count(stage));
        if ns == 0 && n == 0 {
            continue; // stage never ran (e.g. no DP outside top1)
        }
        writeln!(out, "  {:<5} {:>12.3} {:>12}", stage.label(), ns as f64 / 1e6, n).ok();
    }
    let workers = trace.workers();
    if workers > 1 {
        for wi in 0..workers {
            writeln!(
                out,
                "  worker {wi}: tasks={} busy_ms={:.3}",
                trace.worker_tasks(wi),
                trace.worker_nanos(wi) as f64 / 1e6
            )
            .ok();
        }
    }
    for (i, pass) in trace.passes().iter().enumerate() {
        writeln!(
            out,
            "profile: pass {i} cutoff {:.3} pairs {} instances {}",
            pass.cutoff, pass.pairs, pass.instances
        )
        .ok();
    }
}

fn stats<W: Write>(path: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    let g = load(path)?;
    let s = GraphStats::of(&g);
    if cli.json {
        writeln!(out, "{}", flowmotif_util::to_string_pretty(&s)).ok();
    } else {
        writeln!(out, "{s}").ok();
    }
    Ok(())
}

fn find<W: Write>(path: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    let (g, load) = search_graph(path, cli)?;
    let g = &g;
    let motif = motif_of(cli)?;
    let trace = profile_trace(cli);
    let started = trace.map(|_| Instant::now());
    // Counted, not collected: only the `--show` sample is kept, and it
    // is the first instances in scan order at any thread count.
    let (total, sample, stats) = query_of(cli, &motif, trace).sample(g, cli.show);
    if cli.json {
        let shown: Vec<_> = sample.iter().map(|(sm, i)| (sm, i)).collect();
        writeln!(
            out,
            "{}",
            json!({
                "motif": motif.name(),
                "delta": motif.delta(),
                "phi": motif.phi(),
                "structural_matches": stats.structural_matches,
                "instances": total,
                "sample": shown,
            })
        )
        .ok();
        return Ok(());
    }
    writeln!(
        out,
        "{motif}: {} structural matches, {} maximal instances",
        stats.structural_matches, total
    )
    .ok();
    for (sm, inst) in &sample {
        writeln!(
            out,
            "  nodes {:?} flow {:.3} span {}: {}",
            sm.walk_nodes(g),
            inst.flow,
            inst.span(),
            inst.display(g)
        )
        .ok();
    }
    write_profile(out, trace, started, g, load);
    Ok(())
}

fn topk<W: Write>(path: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    if cli.k == 0 {
        return Err("--k must be at least 1".into());
    }
    let (g, load) = search_graph(path, cli)?;
    let g = &g;
    // §5: top-k ranks by flow with ϕ = 0 (any --phi is still honoured as
    // a floor if explicitly set).
    let motif = motif_of(cli)?;
    let trace = profile_trace(cli);
    let started = trace.map(|_| Instant::now());
    let (ranked, _) = query_of(cli, &motif, trace).top_k(g, cli.k);
    if cli.json {
        let rows: Vec<_> = ranked
            .iter()
            .map(|r| json!({"flow": r.instance.flow, "instance": &r.instance}))
            .collect();
        writeln!(out, "{}", flowmotif_util::Json::Array(rows)).ok();
        return Ok(());
    }
    writeln!(out, "top-{} instances of {} by flow:", cli.k, motif.name()).ok();
    for (i, r) in ranked.iter().enumerate() {
        writeln!(
            out,
            "  #{} flow {:.3} nodes {:?}: {}",
            i + 1,
            r.instance.flow,
            r.structural_match.walk_nodes(g),
            r.instance.display(g)
        )
        .ok();
    }
    if ranked.is_empty() {
        writeln!(out, "  (no instances)").ok();
    }
    write_profile(out, trace, started, g, load);
    Ok(())
}

fn top1<W: Write>(path: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    let (g, load) = search_graph(path, cli)?;
    let g = &g;
    let motif = motif_of(cli)?;
    let trace = profile_trace(cli);
    let started = trace.map(|_| Instant::now());
    let (best, stats) = query_of(cli, &motif, trace).top1(g, &mut SearchScratch::default());
    match best {
        Some((sm, inst)) => {
            if cli.json {
                writeln!(
                    out,
                    "{}",
                    json!({"flow": inst.flow, "nodes": sm.walk_nodes(g), "instance": &inst})
                )
                .ok();
            } else {
                writeln!(
                    out,
                    "top-1 flow {:.3} over {} matches ({} DP windows): {}",
                    inst.flow,
                    stats.structural_matches,
                    stats.windows_processed,
                    inst.display(g)
                )
                .ok();
            }
        }
        None => {
            writeln!(out, "no instances").ok();
        }
    }
    write_profile(out, trace, started, g, load);
    Ok(())
}

fn pack<W: Write>(input: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    let dir = cli.out.as_deref().ok_or_else(|| "pack requires --out <dir>".to_string())?;
    let stats = flowmotif_graph::pack_edge_list(input, dir, cli.run_records)
        .map_err(|e| format!("packing {}: {e}", input.display()))?;
    if cli.json {
        writeln!(out, "{}", flowmotif_util::to_string_pretty(&stats)).ok();
    } else {
        writeln!(
            out,
            "packed {} interactions over {} pairs ({} nodes, {} sort runs) into {}",
            stats.interactions,
            stats.pairs,
            stats.nodes,
            stats.runs,
            dir.display()
        )
        .ok();
    }
    Ok(())
}

fn significance<W: Write>(path: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    let mg = io::load_multigraph(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let motif = motif_of(cli)?;
    let cfg =
        SignificanceConfig { num_replicas: cli.replicas, seed: cli.seed, threads: cli.threads };
    let sig = assess_motif(&mg, &motif, cfg);
    if cli.json {
        writeln!(out, "{}", flowmotif_util::to_string_pretty(&sig)).ok();
    } else {
        writeln!(
            out,
            "{}: real={} random mean={:.2} σ={:.2} z={:.2} p={:.2}",
            sig.motif, sig.real_count, sig.random_mean, sig.random_std, sig.z_score, sig.p_value
        )
        .ok();
    }
    Ok(())
}

fn census<W: Write>(path: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    let (g, load) = search_graph(path, cli)?;
    let trace = profile_trace(cli);
    let started = trace.map(|_| Instant::now());
    let mut opts = search_options_of(cli);
    opts.trace = trace.map(|t| t as _);
    let rows = walk_census(&g, cli.edges, cli.delta, cli.phi, opts, par_of(cli))
        .map_err(|e| e.to_string())?;
    if cli.json {
        writeln!(out, "{}", flowmotif_util::to_string_pretty(&rows)).ok();
        return Ok(());
    }
    writeln!(out, "census of {}-edge walk motifs (δ={}, ϕ={}):", cli.edges, cli.delta, cli.phi)
        .ok();
    for r in &rows {
        writeln!(
            out,
            "  {:<16} {:>8} instances  ({} matches)",
            r.shape.to_string(),
            r.instances,
            r.structural_matches
        )
        .ok();
    }
    write_profile(out, trace, started, &g, load);
    Ok(())
}

fn activity<W: Write>(path: &Path, cli: &Cli, out: &mut W) -> Result<(), String> {
    let g = load(path)?;
    let motif = motif_of(cli)?;
    let acts = per_match_activity(&g, &motif);
    if cli.json {
        writeln!(out, "{}", flowmotif_util::to_string_pretty(&acts)).ok();
        return Ok(());
    }
    writeln!(out, "most active vertex groups for {} (top {}):", motif.name(), cli.show).ok();
    for a in acts.iter().take(cli.show) {
        writeln!(
            out,
            "  nodes {:?}: {} instances, max flow {:.3}, active {}..{}",
            a.structural_match.walk_nodes(&g),
            a.instances,
            a.max_flow,
            a.first_activity.unwrap_or(0),
            a.last_activity.unwrap_or(0),
        )
        .ok();
    }
    if acts.is_empty() {
        writeln!(out, "  (no instances)").ok();
    }
    Ok(())
}

fn stream<W: Write>(path: Option<&Path>, cli: &Cli, out: &mut W) -> Result<(), String> {
    match path {
        Some(p) => {
            let f = std::fs::File::open(p).map_err(|e| format!("opening {}: {e}", p.display()))?;
            run_stream_script(std::io::BufReader::new(f), cli, out)
        }
        None => run_stream_script(std::io::stdin().lock(), cli, out),
    }
}

/// Drives a [`QueryEngine`] session from a line-oriented script (see the
/// `stream` section of [`crate::opts::USAGE`] for the grammar), writing
/// query answers to `out`.
pub fn run_stream_script<R: BufRead, W: Write>(
    reader: R,
    cli: &Cli,
    out: &mut W,
) -> Result<(), String> {
    if cli.horizon < 0 {
        return Err(format!("--horizon must be non-negative, got {}", cli.horizon));
    }
    let mut engine = QueryEngine::new().search_options(search_options_of(cli));
    if cli.horizon > 0 {
        engine = engine.with_window(SlidingWindow::new(cli.horizon));
    }
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| format!("reading line {lineno}: {e}"))?;
        let at = |e: String| format!("line {lineno}: {e}");
        // `#` starts a comment anywhere on the line; `%` only as a whole
        // line (matching the edge-list loader's comment conventions).
        let trimmed = line.split('#').next().unwrap_or("").trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        let exact_len = |n: usize, what: &str| {
            if fields.len() == n {
                Ok(())
            } else {
                Err(at(format!("`{what}` takes {} fields, got {}", n - 1, fields.len() - 1)))
            }
        };
        match fields[0] {
            "query" => {
                let (motif, window) = parse_query(&fields[1..]).map_err(at)?;
                stream_query(&mut engine, &motif, window, cli, out);
            }
            "evict" => {
                exact_len(2, "evict <t>")?;
                let floor: i64 = parse_field(&fields[1..], 0, "evict <t>").map_err(at)?;
                let dropped = engine.evict_before(floor);
                writeln!(out, "evicted {dropped} interactions before t={floor}").ok();
            }
            "compact" => {
                exact_len(1, "compact")?;
                engine.compact();
            }
            "stats" => {
                exact_len(1, "stats")?;
                writeln!(out, "{}", engine.stats()).ok();
            }
            _ => {
                let edge = if fields[0] == "add" { &fields[1..] } else { &fields[..] };
                if edge.len() != 4 {
                    return Err(at(format!("edge `u v t f` takes 4 fields, got {}", edge.len())));
                }
                let u = parse_field(edge, 0, "edge `u v t f`").map_err(at)?;
                let v = parse_field(edge, 1, "edge `u v t f`").map_err(at)?;
                let t = parse_field(edge, 2, "edge `u v t f`").map_err(at)?;
                let f = parse_field(edge, 3, "edge `u v t f`").map_err(at)?;
                engine.try_append(u, v, t, f).map_err(|e| at(e.to_string()))?;
            }
        }
    }
    Ok(())
}

/// Search options derived from the CLI flags (`--no-index` is the A/B
/// switch over the active-time origin index, `--extension-order fixed`
/// the one over the worst-case-optimal P1 order).
fn search_options_of(cli: &Cli) -> SearchOptions {
    SearchOptions::builder()
        .use_active_index(cli.use_index)
        .extension_order(cli.extension_order)
        .build()
}

fn parse_field<T: std::str::FromStr>(fields: &[&str], i: usize, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = fields.get(i).ok_or_else(|| format!("missing field {} of {what}", i + 1))?;
    raw.parse().map_err(|e| format!("bad field `{raw}` of {what}: {e}"))
}

/// Parses `query <motif> <delta> <phi> [<from> <to>]`.
fn parse_query(args: &[&str]) -> Result<(Motif, Option<TimeWindow>), String> {
    if args.len() != 3 && args.len() != 5 {
        return Err(format!(
            "`query <motif> <delta> <phi> [<from> <to>]` takes 3 or 5 fields, got {}",
            args.len()
        ));
    }
    let spec: String = parse_field(args, 0, "query <motif> <delta> <phi>")?;
    let delta: i64 = parse_field(args, 1, "query <motif> <delta> <phi>")?;
    let phi: f64 = parse_field(args, 2, "query <motif> <delta> <phi>")?;
    let motif = catalog::parse_motif(&spec, delta, phi).map_err(|e| e.to_string())?;
    let window = if args.len() > 3 {
        let from: i64 = parse_field(args, 3, "query window <from> <to>")?;
        let to: i64 = parse_field(args, 4, "query window <from> <to>")?;
        if to < from {
            return Err(format!("query window [{from}, {to}] ends before it starts"));
        }
        Some(TimeWindow::new(from, to))
    } else {
        None
    };
    Ok((motif, window))
}

fn stream_query<W: Write>(
    engine: &mut QueryEngine,
    motif: &Motif,
    window: Option<TimeWindow>,
    cli: &Cli,
    out: &mut W,
) {
    let q = Query { bounds: window, opts: engine.options(), ..Query::new(motif) };
    let g = engine.graph();
    let (groups, _) = q.collect(g);
    let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
    if cli.json {
        let shown: Vec<_> = groups
            .iter()
            .flat_map(|(sm, v)| v.iter().map(move |i| (sm, i)))
            .take(cli.show)
            .collect();
        writeln!(
            out,
            "{}",
            json!({
                "motif": motif.name(),
                "delta": motif.delta(),
                "phi": motif.phi(),
                "window": window.map(|w| vec![w.start, w.end]),
                "instances": total,
                "sample": shown,
            })
        )
        .ok();
        return;
    }
    let scope = window.map_or_else(|| "all retained".to_string(), |w| w.to_string());
    writeln!(out, "{motif} over {scope}: {total} maximal instances").ok();
    let mut printed = 0;
    'outer: for (sm, insts) in &groups {
        for inst in insts {
            if printed >= cli.show {
                break 'outer;
            }
            writeln!(
                out,
                "  nodes {:?} flow {:.3}: {}",
                sm.walk_nodes(g),
                inst.flow,
                inst.display(g)
            )
            .ok();
            printed += 1;
        }
    }
}

fn serve<W: Write>(path: Option<&Path>, cli: &Cli, out: &mut W) -> Result<(), String> {
    let server = start_server_at(path, cli)?;
    writeln!(out, "flowmotif-serve listening on {}", server.local_addr()).ok();
    out.flush().ok();
    // Foreground mode: serve until the process is killed.
    server.join();
    Ok(())
}

/// Builds the snapshot engine and binds the protocol server from the
/// parsed flags; `serve` then blocks on it, while tests bind port 0 and
/// drive the returned handle from in-process clients.
pub fn start_server(cli: &Cli) -> Result<Server, String> {
    start_server_at(None, cli)
}

/// [`start_server`], optionally over a packed segment directory: with
/// `--packed` and a path, the server fronts an
/// [`flowmotif_stream::EpochEngine`] (memory-mapped base + RAM delta)
/// instead of the in-memory snapshot engine.
pub fn start_server_at(path: Option<&Path>, cli: &Cli) -> Result<Server, String> {
    if cli.horizon < 0 {
        return Err(format!("--horizon must be non-negative, got {}", cli.horizon));
    }
    if cli.max_window < 0 {
        return Err(format!("--max-window must be non-negative, got {}", cli.max_window));
    }
    let config = ServerConfig {
        workers: cli.pool.max(1),
        max_inflight: cli.max_inflight,
        max_window: (cli.max_window > 0).then_some(cli.max_window),
        show: cli.show,
        slow_query_ms: cli.slow_query_ms,
        event_loop_threads: cli.event_loop_threads.max(1),
        cache_entries: cli.cache_entries,
        max_connections: cli.max_connections.max(1),
        ..ServerConfig::default()
    };
    let bind = |e: std::io::Error| format!("binding {}:{}: {e}", cli.host, cli.port);
    if cli.packed {
        let dir = path.ok_or_else(|| "serve --packed needs a <dir> argument".to_string())?;
        if cli.horizon > 0 {
            return Err("--horizon is not supported with --packed (segments are immutable); \
                        bound retention by resealing instead"
                .to_string());
        }
        let engine = flowmotif_stream::EpochEngine::open(dir)
            .map_err(|e| format!("opening packed graph {}: {e}", dir.display()))?
            .search_options(search_options_of(cli))
            .publish_every(cli.publish_every);
        return Server::start(std::sync::Arc::new(engine), config, (cli.host.as_str(), cli.port))
            .map_err(bind);
    }
    if path.is_some() {
        return Err("serve takes a <dir> argument only with --packed".to_string());
    }
    let mut inner = QueryEngine::new().search_options(search_options_of(cli));
    if cli.horizon > 0 {
        inner = inner.with_window(SlidingWindow::new(cli.horizon));
    }
    let engine = SnapshotEngine::with_engine(inner).publish_every(cli.publish_every);
    Server::start(std::sync::Arc::new(engine), config, (cli.host.as_str(), cli.port)).map_err(bind)
}

fn client<W: Write>(path: Option<&Path>, cli: &Cli, out: &mut W) -> Result<(), String> {
    let mut client = Client::connect((cli.host.as_str(), cli.port))
        .map_err(|e| format!("connecting to {}:{}: {e}", cli.host, cli.port))?;
    match path {
        Some(p) => {
            let f = std::fs::File::open(p).map_err(|e| format!("opening {}: {e}", p.display()))?;
            run_client_script(std::io::BufReader::new(f), &mut client, out)
        }
        None => run_client_script(std::io::stdin().lock(), &mut client, out),
    }
}

/// Sends each non-comment script line as one protocol request and prints
/// the framed reply (`DATA` lines, then the status line). Server-side
/// `ERR`/`BUSY` statuses are output, not failures; only transport errors
/// abort the script.
pub fn run_client_script<R: BufRead, W: Write>(
    reader: R,
    client: &mut Client,
    out: &mut W,
) -> Result<(), String> {
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| format!("reading line {lineno}: {e}"))?;
        // Same comment conventions as the stream script.
        let trimmed = line.split('#').next().unwrap_or("").trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let reply = client.send(trimmed).map_err(|e| format!("line {lineno}: {e}"))?;
        // Push notifications that raced ahead of this reply (the session
        // subscribed earlier and something matched in the meantime).
        for payload in &reply.events {
            writeln!(out, "EVENT {payload}").ok();
        }
        for payload in &reply.data {
            writeln!(out, "DATA {payload}").ok();
        }
        writeln!(out, "{}", reply.status).ok();
        if reply.status == "OK bye" {
            break;
        }
    }
    Ok(())
}

/// Registers a standing motif query on a running server and streams its
/// push notifications to `out`, one `EVENT` line per new maximal
/// instance, as appends on other sessions produce them. Runs until the
/// server closes the connection, or — with `--limit N` — until N events
/// have been printed.
fn subscribe<W: Write>(cli: &Cli, out: &mut W) -> Result<(), String> {
    let window = match (cli.from_time, cli.to_time) {
        (Some(from), Some(to)) => Some((from, to)),
        (None, None) => None,
        _ => return Err("--from and --to must be given together".to_string()),
    };
    let mut client = Client::connect((cli.host.as_str(), cli.port))
        .map_err(|e| format!("connecting to {}:{}: {e}", cli.host, cli.port))?;
    let mut request = format!("subscribe {} {} {}", cli.motif, cli.delta, cli.phi);
    if let Some((from, to)) = window {
        request.push_str(&format!(" {from} {to}"));
    }
    let reply = client.send(&request).map_err(|e| format!("subscribing: {e}"))?;
    if !reply.is_ok() {
        return Err(format!("server refused subscription: {}", reply.status));
    }
    writeln!(out, "{}", reply.status).ok();
    out.flush().ok();
    let mut seen = 0usize;
    loop {
        match client.recv_line() {
            Ok(Some(line)) => {
                writeln!(out, "{line}").ok();
                // Each event must reach the pipe as it happens, not when
                // the process exits — subscribers tail this output.
                out.flush().ok();
                if line.starts_with("EVENT ") {
                    seen += 1;
                    if cli.limit > 0 && seen >= cli.limit {
                        return Ok(());
                    }
                }
            }
            Ok(None) => return Ok(()), // server closed: done
            Err(e) => return Err(format!("reading events: {e}")),
        }
    }
}

/// Fetches a running server's metric families over the `metrics` verb
/// and prints the Prometheus text to stdout (ready to pipe into a
/// node-exporter textfile or straight at a human).
fn metrics<W: Write>(cli: &Cli, out: &mut W) -> Result<(), String> {
    let mut client = Client::connect((cli.host.as_str(), cli.port))
        .map_err(|e| format!("connecting to {}:{}: {e}", cli.host, cli.port))?;
    let reply = client.send("metrics").map_err(|e| format!("fetching metrics: {e}"))?;
    if !reply.is_ok() {
        return Err(format!("server refused metrics: {}", reply.status));
    }
    for line in &reply.data {
        writeln!(out, "{line}").ok();
    }
    Ok(())
}

fn generate<W: Write>(cli: &Cli, out: &mut W) -> Result<(), String> {
    let dataset: Dataset = cli.dataset.parse()?;
    let mg = dataset.generate_multigraph(cli.scale, cli.seed);
    match &cli.out {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
            io::write_edge_list(&mg, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "wrote {} interactions ({} nodes) to {}",
                mg.num_interactions(),
                mg.num_nodes(),
                path.display()
            )
            .ok();
        }
        None => {
            io::write_edge_list(&mg, &mut *out).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Cli;

    fn run_args(args: &[&str]) -> (String, Result<(), String>) {
        let cli = Cli::parse_from(args.iter().map(|s| s.to_string())).unwrap();
        let mut buf = Vec::new();
        let r = run(&cli, &mut buf);
        (String::from_utf8(buf).unwrap(), r)
    }

    /// Writes the Fig. 2 example graph to a unique temp file; the file is
    /// removed when the returned guard drops.
    struct TempFile(std::path::PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
    impl TempFile {
        fn to_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    fn unique_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "flowmotif_cli_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn temp_edge_list() -> TempFile {
        let path = unique_path("edges");
        let body = "2 0 10 10\n0 1 13 5\n0 1 15 7\n1 2 18 20\n3 2 1 2\n3 2 3 5\n3 0 11 10\n2 3 19 5\n2 3 21 4\n1 3 23 7\n";
        std::fs::write(&path, body).unwrap();
        TempFile(path)
    }

    /// Packs the Fig. 2 edge list into a unique temp segment directory;
    /// removed (recursively) when the guard drops.
    struct TempDir(std::path::PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn packed_fig2() -> (TempFile, TempDir) {
        let edges = temp_edge_list();
        let dir = TempDir(unique_path("packed"));
        let (out, r) = run_args(&["pack", edges.to_str(), "--out", dir.0.to_str().unwrap()]);
        r.unwrap();
        assert!(out.contains("packed 10 interactions"), "{out}");
        (edges, dir)
    }

    #[test]
    fn pack_requires_out_dir() {
        let edges = temp_edge_list();
        let (_, r) = run_args(&["pack", edges.to_str()]);
        assert!(r.unwrap_err().contains("--out"));
    }

    #[test]
    fn pack_json_reports_stats() {
        let edges = temp_edge_list();
        let dir = TempDir(unique_path("packed_json"));
        let (out, r) =
            run_args(&["pack", edges.to_str(), "--out", dir.0.to_str().unwrap(), "--json"]);
        r.unwrap();
        assert!(out.contains("\"interactions\": 10"), "{out}");
        assert!(out.contains("\"pairs\": 7"), "{out}");
    }

    #[test]
    fn packed_search_matches_in_memory_output() {
        let (edges, dir) = packed_fig2();
        let motif = ["--motif", "M(3,3)", "--delta", "10", "--phi", "7"];
        for cmd in ["find", "search", "topk", "top1", "census"] {
            let mut mem = vec![cmd, edges.to_str()];
            mem.extend_from_slice(&motif);
            let mut packed = vec![cmd, dir.0.to_str().unwrap(), "--packed"];
            packed.extend_from_slice(&motif);
            let (want, r1) = run_args(&mem);
            let (got, r2) = run_args(&packed);
            r1.unwrap();
            r2.unwrap();
            assert_eq!(want, got, "`{cmd}` diverged between backends");
        }
    }

    #[test]
    fn packed_search_rejects_unpacked_input() {
        let edges = temp_edge_list();
        let (_, r) = run_args(&["find", edges.to_str(), "--packed"]);
        assert!(r.unwrap_err().contains("opening packed graph"));
    }

    #[test]
    fn stats_command() {
        let path = temp_edge_list();
        let (out, r) = run_args(&["stats", path.to_str()]);
        r.unwrap();
        assert!(out.contains("nodes=4"));
        assert!(out.contains("edges=10"));
    }

    #[test]
    fn find_command_reports_fig4_instance() {
        let path = temp_edge_list();
        let (out, r) =
            run_args(&["find", path.to_str(), "--motif", "M(3,3)", "--delta", "10", "--phi", "7"]);
        r.unwrap();
        assert!(out.contains("1 maximal instances"), "{out}");
        assert!(out.contains("(10, 10)"), "{out}");
    }

    #[test]
    fn topk_and_top1_agree() {
        let path = temp_edge_list();
        let (out_k, r) =
            run_args(&["topk", path.to_str(), "--motif", "M(3,3)", "--delta", "10", "--k", "1"]);
        r.unwrap();
        let (out_1, r) = run_args(&["top1", path.to_str(), "--motif", "M(3,3)", "--delta", "10"]);
        r.unwrap();
        assert!(out_k.contains("flow 10.000"), "{out_k}");
        assert!(out_1.contains("top-1 flow 10.000"), "{out_1}");
    }

    #[test]
    fn generate_and_stats_round_trip() {
        let path = TempFile(unique_path("synth"));
        let (_, r) = run_args(&[
            "generate",
            "--dataset",
            "passenger",
            "--scale",
            "0.05",
            "--out",
            path.to_str(),
        ]);
        r.unwrap();
        let (out, r) = run_args(&["stats", path.to_str()]);
        r.unwrap();
        assert!(out.contains("nodes="));
    }

    #[test]
    fn significance_command_runs() {
        let path = temp_edge_list();
        let (out, r) = run_args(&[
            "significance",
            path.to_str(),
            "--motif",
            "M(3,3)",
            "--delta",
            "10",
            "--phi",
            "7",
            "--replicas",
            "3",
        ]);
        r.unwrap();
        assert!(out.contains("real=1"), "{out}");
    }

    #[test]
    fn census_command() {
        let path = temp_edge_list();
        let (out, r) = run_args(&["census", path.to_str(), "--edges", "2", "--delta", "10"]);
        r.unwrap();
        assert!(out.contains("0-1-2"), "{out}");
    }

    #[test]
    fn census_rejects_zero_edges() {
        let path = temp_edge_list();
        let (_, r) = run_args(&["census", path.to_str(), "--edges", "0"]);
        assert_eq!(r.unwrap_err(), "census motif size must be 1..=8 edges, got 0");
    }

    #[test]
    fn census_rejects_nine_edges() {
        let path = temp_edge_list();
        let (_, r) = run_args(&["census", path.to_str(), "--edges", "9"]);
        assert_eq!(r.unwrap_err(), "census motif size must be 1..=8 edges, got 9");
    }

    #[test]
    fn census_rejects_a_negative_delta() {
        let path = temp_edge_list();
        let (_, r) = run_args(&["census", path.to_str(), "--delta", "-5"]);
        assert_eq!(r.unwrap_err(), "duration constraint δ must be >= 0, got -5");
    }

    #[test]
    fn topk_rejects_zero_k() {
        let path = temp_edge_list();
        let (_, r) = run_args(&["topk", path.to_str(), "--k", "0"]);
        assert_eq!(r.unwrap_err(), "--k must be at least 1");
    }

    #[test]
    fn find_reports_the_real_error_for_a_catalog_motif() {
        let path = temp_edge_list();
        for cmd in ["find", "topk", "top1"] {
            let (_, r) = run_args(&[cmd, path.to_str(), "--motif", "M(3,2)", "--delta", "-5"]);
            assert_eq!(r.unwrap_err(), "duration constraint δ must be >= 0, got -5", "{cmd}");
        }
    }

    #[test]
    fn activity_command() {
        let path = temp_edge_list();
        let (out, r) = run_args(&[
            "activity",
            path.to_str(),
            "--motif",
            "M(3,3)",
            "--delta",
            "10",
            "--phi",
            "7",
        ]);
        r.unwrap();
        assert!(out.contains("1 instances"), "{out}");
    }

    #[test]
    fn missing_file_is_an_error() {
        let (_, r) = run_args(&["stats", "/no/such/file"]);
        assert!(r.is_err());
    }

    fn run_script(script: &str, extra: &[&str]) -> (String, Result<(), String>) {
        let mut args = vec!["stream".to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let cli = Cli::parse_from(args).unwrap();
        let mut buf = Vec::new();
        let r = run_stream_script(script.as_bytes(), &cli, &mut buf);
        (String::from_utf8(buf).unwrap(), r)
    }

    #[test]
    fn stream_script_interleaves_edges_and_queries() {
        let script = "\
# the paper's Fig. 2 example, streamed
3 2 1 2
3 2 3 5
2 0 10 10
3 0 11 10
0 1 13 5
0 1 15 7
query M(3,3) 10 7
add 1 2 18 20
2 3 19 5
2 3 21 4
1 3 23 7
query M(3,3) 10 7
query M(3,3) 10 7 11 23
stats
";
        let (out, r) = run_script(script, &[]);
        r.unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("0 maximal instances"), "{out}");
        assert!(lines[1].contains("1 maximal instances"), "{out}");
        assert!(lines[2].contains("(10, 10)"), "{out}");
        // The window query excludes t=10, killing the instance.
        assert!(lines[3].contains("[11, 23]: 0 maximal instances"), "{out}");
        assert!(lines[4].contains("interactions=10"), "{out}");
        assert!(lines[4].contains("watermark=23"), "{out}");
    }

    #[test]
    fn stream_script_from_file_with_horizon_and_evict() {
        let path = TempFile(unique_path("stream"));
        let script = "\
0 1 10 1
1 2 12 2
evict 11
query M(3,2) 10 0
stats
";
        std::fs::write(&path.0, script).unwrap();
        let (out, r) = run_args(&["stream", path.to_str(), "--horizon", "100"]);
        r.unwrap();
        assert!(out.contains("evicted 1 interactions before t=11"), "{out}");
        assert!(out.contains("0 maximal instances"), "{out}");
        assert!(out.contains("evicted=1"), "{out}");
    }

    #[test]
    fn stream_script_json_query_output() {
        let script = "0 1 10 1\n1 2 12 2\nquery M(3,2) 10 0\n";
        let (out, r) = run_script(script, &["--json"]);
        r.unwrap();
        assert!(out.contains("\"instances\":1"), "{out}");
        assert!(out.contains("\"window\":null"), "{out}");
    }

    #[test]
    fn stream_script_errors_carry_line_numbers() {
        let (_, r) = run_script("0 1 10 1\n0 1 oops 1\n", &[]);
        assert!(r.unwrap_err().contains("line 2"));
        let (_, r) = run_script("query M(3,2)\n", &[]);
        assert!(r.unwrap_err().contains("line 1"));
        let (_, r) = run_script("0 1 10 -5\n", &[]);
        assert!(r.unwrap_err().contains("invalid flow"));
        let (_, r) = run_script("query M(3,2) 10 0 20 5\n", &[]);
        assert!(r.unwrap_err().contains("ends before"));
        // Extra fields are errors, not silently dropped data.
        let (_, r) = run_script("0 1 10 5 2 3 11 4\n", &[]);
        assert!(r.unwrap_err().contains("4 fields"));
        let (_, r) = run_script("query M(3,2) 10 0 20 30 junk\n", &[]);
        assert!(r.unwrap_err().contains("3 or 5 fields"));
        let (_, r) = run_script("stats now\n", &[]);
        assert!(r.unwrap_err().contains("takes 0 fields"));
    }

    #[test]
    fn stream_script_allows_trailing_comments() {
        // The README example annotates operations in place.
        let script = "\
% whole-line comment
0 1 10 1           # first hop
1 2 12 2
query M(3,2) 10 0  # the chain
stats              # and the state
";
        let (out, r) = run_script(script, &[]);
        r.unwrap();
        assert!(out.contains("1 maximal instances"), "{out}");
        assert!(out.contains("interactions=2"), "{out}");
    }

    #[test]
    fn stream_no_index_answers_identically() {
        // A/B: the same script with and without the origin index must
        // print byte-identical answers.
        let script = "\
0 1 10 1
1 2 12 2
2 0 14 3
0 1 40 1
1 2 44 2
query M(3,2) 10 0 0 20
query M(3,3) 10 0 8 15
query M(3,2) 10 0 35 50
query M(3,2) 10 0
stats
";
        let (with_index, r) = run_script(script, &[]);
        r.unwrap();
        let (without, r) = run_script(script, &["--no-index"]);
        r.unwrap();
        assert_eq!(with_index, without);
        assert!(with_index.contains("1 maximal instances"), "{with_index}");
    }

    /// The `profile: load` line of `out`, with its numbers blanked.
    fn load_line(out: &str) -> String {
        let line = out.lines().find(|l| l.starts_with("profile: load ")).expect(out);
        line.split(' ')
            .map(
                |w| {
                    if w.contains(|c: char| c.is_ascii_digit()) && w.contains('.') {
                        "_"
                    } else {
                        w
                    }
                },
            )
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn profile_flag_prints_stage_breakdown() {
        let f = temp_edge_list();
        let (out, r) = run_args(&["find", f.to_str(), "--profile", "--threads", "2"]);
        r.unwrap();
        assert_eq!(
            load_line(&out),
            "profile: load _ ms (10 interactions; parse _ ms, sort _ ms, build _ ms, 2 threads)",
            "{out}"
        );
        assert!(out.contains("profile: total"), "{out}");
        assert!(out.contains("p1"), "{out}");
        assert!(out.contains("p2"), "{out}");
        let (out, r) = run_args(&["topk", f.to_str(), "--profile"]);
        r.unwrap();
        assert!(out.contains("profile: total"), "{out}");
        // top1 runs the DP, so its profile shows the dp stage.
        let (out, r) = run_args(&["top1", f.to_str(), "--profile"]);
        r.unwrap();
        assert!(out.contains("profile: total"), "{out}");
        assert!(out.contains("dp"), "{out}");
        // Without the flag, results are table-free and byte-identical to
        // an untraced run.
        let (with_flag, _) = run_args(&["find", f.to_str(), "--profile"]);
        let (without, _) = run_args(&["find", f.to_str()]);
        assert!(!without.contains("profile:"), "{without}");
        assert_eq!(with_flag.split("profile:").next().unwrap(), without);
        assert!(load_line(&with_flag).ends_with(", 1 threads)"), "{with_flag}");
        // A packed segment is opened, not built: no phases.
        let (_edges, dir) = packed_fig2();
        let (out, r) = run_args(&["topk", dir.0.to_str().unwrap(), "--packed", "--profile"]);
        r.unwrap();
        assert_eq!(load_line(&out), "profile: load _ ms (10 interactions)", "{out}");
    }

    #[test]
    fn census_profile_prints_the_load_and_the_stages() {
        let f = temp_edge_list();
        let args = ["census", f.to_str(), "--edges", "2", "--delta", "10", "--threads", "2"];
        let (plain, r) = run_args(&args);
        r.unwrap();
        let (out, r) = run_args(&[&args[..], &["--profile"]].concat());
        r.unwrap();
        assert_eq!(out.split("profile:").next().unwrap(), plain);
        assert!(load_line(&out).ends_with(", 2 threads)"), "{out}");
        assert!(out.contains("profile: total"), "{out}");
        assert!(out.contains("  p1 "), "{out}");
        assert!(out.contains("  p2 "), "{out}");
        assert!(out.contains("  worker 1: tasks="), "{out}");
    }

    #[test]
    fn topk_takes_any_k_and_ranks_every_instance() {
        let f = temp_edge_list();
        let motif = ["--motif", "M(3,2)", "--delta", "10"];
        let (found, r) = run_args(&[&["find", f.to_str()], &motif[..]].concat());
        r.unwrap();
        let head = found.lines().next().unwrap();
        let total: usize =
            head.rsplit(", ").next().unwrap().split(' ').next().unwrap().parse().unwrap();
        assert!(total > 1, "{found}");
        let k = usize::MAX.to_string();
        let (out, r) = run_args(&[&["topk", f.to_str(), "--k", &k], &motif[..]].concat());
        r.unwrap();
        assert_eq!(out.lines().filter(|l| l.starts_with("  #")).count(), total, "{out}");
        let (all, _) =
            run_args(&[&["topk", f.to_str(), "--k", &total.to_string()], &motif[..]].concat());
        assert_eq!(
            out.lines().skip(1).collect::<Vec<_>>(),
            all.lines().skip(1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn profile_lists_the_cutoff_passes_after_the_results() {
        let f = TempFile(unique_path("fb"));
        let gen = ["generate", "--dataset", "facebook", "--scale", "0.5", "--out", f.to_str()];
        run_args(&gen).1.unwrap();
        for cmd in ["topk", "top1"] {
            let (out, r) = run_args(&[cmd, f.to_str(), "--k", "1", "--profile", "--threads", "2"]);
            r.unwrap();
            let (plain, _) = run_args(&[cmd, f.to_str(), "--k", "1", "--threads", "2"]);
            assert_eq!(out.split("profile:").next().unwrap(), plain, "{out}");
            let passes: Vec<&str> =
                out.lines().filter(|l| l.starts_with("profile: pass")).collect();
            assert!(passes[0].starts_with("profile: pass 0 cutoff "), "{out}");
            let cutoff: f64 = passes[0].split(' ').nth(4).unwrap().parse().unwrap();
            assert!(cutoff.is_finite() && cutoff > 0.0, "a finite first cutoff: {out}");
            assert!(out.trim_end().ends_with(passes[passes.len() - 1]), "passes come last: {out}");
        }
        let (out, _) = run_args(&["find", f.to_str(), "--profile"]);
        assert!(!out.contains("profile: pass"), "find runs no cutoff passes: {out}");
    }

    #[test]
    fn metrics_subcommand_fetches_prometheus_text() {
        let serve_cli =
            Cli::parse_from(["serve", "--port", "0"].iter().map(|s| s.to_string())).unwrap();
        let server = start_server(&serve_cli).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let script = "add 0 1 10 5\npublish\ncount M(3,2) 10 0\n";
        run_client_script(script.as_bytes(), &mut client, &mut Vec::new()).unwrap();
        let (out, r) = run_args(&["metrics", "--port", &server.local_addr().port().to_string()]);
        r.unwrap();
        assert!(out.contains("# TYPE flowmotif_serve_requests_total counter"), "{out}");
        assert!(out.contains("flowmotif_serve_requests_total{verb=\"count\"} 1"), "{out}");
        assert!(out.contains("flowmotif_engine_epoch 1"), "{out}");
        drop(client);
        server.shutdown();
        // Against a dead server the subcommand reports the connect error.
        let (_, r) = run_args(&["metrics", "--port", "1"]);
        assert!(r.unwrap_err().contains("connecting"), "dead server must fail");
    }

    #[test]
    fn subscribe_subcommand_streams_events_over_the_wire() {
        let serve_cli =
            Cli::parse_from(["serve", "--port", "0"].iter().map(|s| s.to_string())).unwrap();
        let server = start_server(&serve_cli).unwrap();
        let port = server.local_addr().port().to_string();
        // The subscriber runs the real subcommand in a thread, exiting
        // after its first event thanks to --limit.
        let sub = std::thread::spawn({
            move || {
                let args = [
                    "subscribe",
                    "--motif",
                    "M(3,2)",
                    "--delta",
                    "10",
                    "--port",
                    &port,
                    "--limit",
                    "1",
                ];
                let cli = Cli::parse_from(args.iter().map(|s| s.to_string())).unwrap();
                let mut buf = Vec::new();
                run(&cli, &mut buf).map(|()| String::from_utf8(buf).unwrap())
            }
        });
        // Wait until the subscription is registered before appending, so
        // the chain below is guaranteed to be delta-evaluated.
        let mut feeder = Client::connect(server.local_addr()).unwrap();
        for _ in 0..1000 {
            let m = feeder.send("metrics").unwrap();
            if m.data.iter().any(|l| l == "flowmotif_serve_subscriptions_active 1") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        feeder.send("add 0 1 1 2").unwrap();
        feeder.send("add 1 2 2 3").unwrap();
        let out = sub.join().unwrap().unwrap();
        assert!(out.starts_with("OK subscribed id=1\n"), "{out}");
        assert!(out.contains("EVENT id=1 match=0-1-2 flow=2 first=1 last=2 size=2"), "{out}");
        drop(feeder);
        server.shutdown();
        // --from/--to must come as a pair.
        let args = ["subscribe", "--from", "0"];
        let cli = Cli::parse_from(args.iter().map(|s| s.to_string())).unwrap();
        let r = run(&cli, &mut Vec::new());
        assert!(r.unwrap_err().contains("--from and --to"), "half a window must fail");
    }

    #[test]
    fn serve_slow_query_flag_keeps_replies_clean() {
        let out = serve_round_trip(
            &["--slow-query-ms", "0", "--publish-every", "0"],
            "add 0 1 10 5\nadd 1 2 12 4\npublish\ncount M(3,2) 10 0\nquit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[3], "OK count=1 matches=1 epoch=1", "{out}");
        assert_eq!(lines[4], "OK bye");
    }

    #[test]
    fn stream_rejects_negative_horizon() {
        let (_, r) = run_script("0 1 10 1\n", &["--horizon", "-5"]);
        assert!(r.unwrap_err().contains("non-negative"));
    }

    /// Starts an in-process server from CLI flags, runs a client script
    /// against it, and returns the client's output.
    fn serve_round_trip(serve_flags: &[&str], script: &str) -> String {
        let mut args = vec!["serve".to_string(), "--port".to_string(), "0".to_string()];
        args.extend(serve_flags.iter().map(|s| s.to_string()));
        let serve_cli = Cli::parse_from(args).unwrap();
        let server = start_server(&serve_cli).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut buf = Vec::new();
        run_client_script(script.as_bytes(), &mut client, &mut buf).unwrap();
        drop(client);
        server.shutdown();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn serve_and_client_round_trip_a_session() {
        let script = "\
% comment lines and inline comments work like stream scripts
add 0 1 10 5      # first hop
add 1 2 12 4
count M(3,2) 10 0 # still epoch 0: nothing published
publish
count M(3,2) 10 0
query M(3,2) 10 0
stats
session
quit
";
        let out = serve_round_trip(&["--publish-every", "0"], script);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "OK added watermark=10");
        assert_eq!(lines[1], "OK added watermark=12");
        assert_eq!(lines[2], "OK count=0 matches=0 epoch=0");
        assert_eq!(lines[3], "OK published epoch=1");
        assert_eq!(lines[4], "OK count=1 matches=1 epoch=1");
        assert!(lines[5].starts_with("DATA nodes=0-1-2"), "{out}");
        assert!(lines[6].starts_with("OK query instances=1 shown=1"), "{out}");
        assert!(lines[7].contains("interactions=2"), "{out}");
        assert_eq!(lines[8], "OK session queries=3 appends=2 errors=0");
        assert_eq!(lines[9], "OK bye");
    }

    #[test]
    fn serve_applies_admission_flags() {
        let out = serve_round_trip(
            &["--max-window", "100"],
            "query M(3,2) 10 0\nquery M(3,2) 10 0 0 50\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ERR admission unbounded"), "{out}");
        assert!(lines[1].starts_with("OK query instances=0"), "{out}");
    }

    #[test]
    fn serve_auto_publishes_on_the_configured_period() {
        let out = serve_round_trip(
            &["--publish-every", "2"],
            "add 0 1 10 5\nadd 1 2 12 4\ncount M(3,2) 10 0\n",
        );
        assert!(out.contains("OK count=1 matches=1 epoch=1"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        for flags in [["--horizon", "-1"], ["--max-window", "-1"]] {
            let mut args = vec!["serve".to_string()];
            args.extend(flags.iter().map(|s| s.to_string()));
            let cli = Cli::parse_from(args).unwrap();
            assert!(start_server(&cli).unwrap_err().contains("non-negative"));
        }
    }

    #[test]
    fn serve_packed_round_trips_a_session() {
        let (_edges, dir) = packed_fig2();
        let cli = Cli::parse_from(
            ["serve", dir.0.to_str().unwrap(), "--packed", "--port", "0"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let server = start_server_at(Some(&dir.0), &cli).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut buf = Vec::new();
        let script = "\
count M(3,3) 10 7
stats
add 0 1 40 5
publish
stats
quit
";
        run_client_script(script.as_bytes(), &mut client, &mut buf).unwrap();
        drop(client);
        server.shutdown();
        let out = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // The sealed segment is queryable at epoch 0 without any publish.
        assert!(lines[0].starts_with("OK count=1"), "{out}");
        assert!(lines[0].contains("epoch=0"), "{out}");
        assert!(lines[1].contains("interactions=10"), "{out}");
        assert_eq!(lines[2], "OK added watermark=40");
        assert_eq!(lines[3], "OK published epoch=1");
        assert!(lines[4].contains("interactions=11"), "{out}");
        assert_eq!(lines[5], "OK bye");
    }

    #[test]
    fn serve_packed_flag_validation() {
        let parse = |args: &[&str]| Cli::parse_from(args.iter().map(|s| s.to_string())).unwrap();
        // A directory argument is only meaningful with --packed.
        let cli = parse(&["serve", "somewhere", "--port", "0"]);
        assert!(start_server_at(Some(Path::new("somewhere")), &cli)
            .unwrap_err()
            .contains("--packed"));
        // --packed needs the directory argument.
        let cli = parse(&["serve", "--packed", "--port", "0"]);
        assert!(start_server_at(None, &cli).unwrap_err().contains("<dir>"));
        // Sealed segments cannot be evicted, so --horizon is rejected.
        let (_edges, dir) = packed_fig2();
        let cli = parse(&["serve", "--packed", "--horizon", "100", "--port", "0"]);
        assert!(start_server_at(Some(&dir.0), &cli).unwrap_err().contains("--horizon"));
    }

    #[test]
    fn client_reports_connection_failure() {
        // A port nothing listens on (port 1 needs root to bind and is
        // essentially never in use on a test machine).
        let cli = Cli::parse_from(["client", "--port", "1"].iter().map(|s| s.to_string())).unwrap();
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.contains("connecting to 127.0.0.1:1"), "{err}");
    }
}
