//! Argument parsing for the `flowmotif` CLI (hand-rolled; the flag
//! surface is small and keeping the dependency tree lean matters for a
//! library-first project).

use flowmotif_core::ExtensionOrder;
use std::path::PathBuf;

/// Usage text shown by `--help` and on parse errors.
pub const USAGE: &str = "\
flowmotif — flow motif search in interaction networks (EDBT 2019)

USAGE:
  flowmotif <COMMAND> [OPTIONS]

COMMANDS:
  stats <file>            dataset statistics of an edge list (from to time flow)
  find <file>             count maximal motif instances and print the first
                          --show of them in scan order (alias: search)
  topk <file>             k highest-flow instances (§5; a --phi above 0
                          stays a lower bound); equal flows are ranked by
                          the instances' edge sets (pair ids, then element
                          ranges). Runs as cutoff passes: P1 binds only
                          pairs heavy enough to carry a top-k instance,
                          seeded from the heaviest pairs; the result is
                          exactly that of a search over every pair. On
                          an edge list each pass builds and searches
                          only the pairs its cutoff admits; --packed
                          searches the whole segment; the output is
                          identical
  top1 <file>             maximum-flow instance via the DP module (§5.1),
                          run as the same cutoff passes with k = 1 (on an
                          edge list, over only the admitted pairs); its
                          match and DP-window counts sum over the passes
  pack <file>             compile an edge list into a packed segment
                          directory (out-of-core backend; see --packed)
  significance <file>     z-score vs flow-permuted replicas (§6.3)
  census <file>           instance and structural-match counts of every
                          walk shape of --edges size (1..=8), each shape
                          run through the search of find, so --packed,
                          --threads, --hub-degree and --extension-order
                          apply to it too
  activity <file>         most active vertex groups for a motif (§5.1 ext.)
  generate                emit a synthetic dataset as an edge list
  stream [file]           resident engine: ingest edges + answer interleaved
                          queries from a script (stdin if no file is given)
  serve [<dir>]           TCP server over the resident engine (snapshot
                          reads, multi-client; see crates/serve/PROTOCOL.md);
                          with <dir> and --packed, serves a packed segment
                          through the epoch engine (mmap base + RAM delta)
  client [file]           send protocol requests (file or stdin, one per
                          line) to a running server and print the replies
  subscribe               register a standing motif query on a running
                          server and stream its EVENT notifications to
                          stdout as they happen
  metrics                 fetch a running server's metrics (Prometheus
                          text) and print them to stdout

OPTIONS (find/topk/top1/census/significance):
  --motif <spec>          catalog name like M(3,3) or a walk like 0-1-2-0   [M(3,2)]
  --delta <int>           duration constraint δ                             [600]
  --phi <float>           flow constraint ϕ                                 [0]
  --k <int>               result count for topk                             [10]
  --threads <int>         worker threads (0 = all cores) of the search and,
                          for find/topk/top1/census on an edge list, of
                          the in-memory segment build (parse, sort,
                          section writes; same image at any count)          [1]
  --hub-degree <int>      split origins with more out-neighbours than this
                          across workers (0 = never split)                  [128]
  --show <int>            print up to N instances: the first N in scan
                          order, whatever --threads is                      [5]
  --replicas <int>        randomized replicas for significance             [20]
  --edges <int>           motif size for census                             [2]
  --seed <int>            RNG seed                                          [42]
  --packed                treat <file> as a packed segment directory
                          (produced by `pack`) and search it through a
                          read-only memory map (find/search, topk, top1,
                          census). Without it the edge list is built into
                          the same segment in memory, so --packed only
                          skips the parse and the sort (topk/top1 build
                          only the pairs their cutoffs admit)
  --profile               print a per-stage breakdown (graph load, split
                          into parse/sort/build for an edge list, plus
                          the ranking image's pairs and builds for
                          topk/top1; P1 match scan, P2 enumeration, DP
                          solve, per-worker load) after the results
                          (find/search, topk, top1, census), then one
                          `profile: pass` line per cutoff pass of
                          topk/top1 (its pair-flow floor, the pairs it
                          admits, the results it found)
  --extension-order <ord> how P1 picks the motif edge extending each
                          prefix: cardinality (worst-case-optimal) or
                          fixed (the paper's walk order, for A/B runs);
                          also honoured by serve                 [cardinality]
  --json                  machine-readable output on stdout

OPTIONS (pack):
  --out <dir>             segment output directory                          [required]
  --run-records <int>     records per external-sort run (memory knob)       [1048576]

OPTIONS (stream):
  --horizon <int>         sliding-window horizon; evict older interactions
                          (0 = retain everything)                           [0]
  --show <int>            print up to N instances per query                 [5]
  --no-index              answer window-bounded queries without the
                          active-time origin index (A/B baseline)

  A stream script holds one operation per line: an edge `u v t f` (an
  optional `add` prefix is accepted), `query <motif> <delta> <phi>
  [<from> <to>]`, `evict <t>`, `compact`, or `stats`. A `#` starts a
  comment anywhere on a line; `%` comments out a whole line.

OPTIONS (serve/client):
  --host <addr>           interface to bind / connect to                  [127.0.0.1]
  --port <int>            TCP port (serve: 0 picks a free port)           [7878]
  --pool <int>            query-executing worker threads                  [4]
  --event-loop-threads <int>
                          socket-multiplexing event-loop threads          [2]
  --cache-entries <int>   epoch-keyed result-cache capacity (replies;
                          0 disables caching)                             [1024]
  --max-connections <int> open-connection cap (excess connections are
                          refused with BUSY at accept time)               [4096]
  --max-inflight <int>    queries executing at once (0 = unlimited)       [0]
  --max-window <int>      per-query time-window cap (0 = unlimited)       [0]
  --publish-every <int>   auto-publish a snapshot every N appends
                          (0 = only on explicit `publish` requests)       [1024]
  --horizon <int>         sliding-window eviction, as in stream           [0]
  --show <int>            DATA lines per query reply                      [5]
  --no-index              disable the active-time origin index for
                          window-bounded snapshot queries (A/B)
  --slow-query-ms <int>   serve: log queries at least this slow to stderr
                          with their P1/P2/DP stage times (0 logs every
                          query; omit to disable tracing entirely)

OPTIONS (subscribe; also --motif/--delta/--phi/--host/--port above):
  --from <int>            window start of the standing query (with --to)
  --to <int>              window end of the standing query (with --from)
  --limit <int>           exit after printing N events (0 = run until the
                          server closes the connection)                   [0]

OPTIONS (generate):
  --dataset <name>        bitcoin | facebook | passenger                    [bitcoin]
  --scale <float>         size multiplier                                   [1.0]
  --seed <int>            RNG seed                                          [42]
  --out <file>            output path (stdout if omitted)
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
    /// Motif spec (`M(3,3)` or `0-1-2-0`).
    pub motif: String,
    /// Duration constraint δ.
    pub delta: i64,
    /// Flow constraint ϕ.
    pub phi: f64,
    /// k for top-k.
    pub k: usize,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Out-degree above which the parallel scheduler splits an origin's
    /// work across workers (0 = never split a hub).
    pub hub_degree: u32,
    /// How many instances to print.
    pub show: usize,
    /// Replicas for the significance test.
    pub replicas: usize,
    /// Motif size (edges) for the census.
    pub edges: usize,
    /// RNG seed.
    pub seed: u64,
    /// Treat the input of find/topk/top1/census as a packed segment
    /// directory.
    pub packed: bool,
    /// External-sort run size (records) for `pack`.
    pub run_records: usize,
    /// Sliding-window horizon for `stream`/`serve` (0 = retain
    /// everything).
    pub horizon: i64,
    /// Interface for `serve`/`client`.
    pub host: String,
    /// TCP port for `serve`/`client`.
    pub port: u16,
    /// Worker-pool size for `serve`.
    pub pool: usize,
    /// Event-loop threads for `serve` (socket multiplexing).
    pub event_loop_threads: usize,
    /// Result-cache capacity (replies) for `serve`; 0 disables caching.
    pub cache_entries: usize,
    /// Open-connection cap for `serve`.
    pub max_connections: usize,
    /// Concurrent-query cap for `serve` (0 = unlimited).
    pub max_inflight: usize,
    /// Per-query window cap for `serve` (0 = unlimited).
    pub max_window: i64,
    /// Auto-publish period (appends) for `serve`; 0 = manual only.
    pub publish_every: usize,
    /// Consult the active-time origin index for window-bounded queries
    /// in `stream`/`serve` (`--no-index` turns it off for A/B runs).
    pub use_index: bool,
    /// Print a per-stage profile after find/topk/top1 results.
    pub profile: bool,
    /// P1 extension order for find/topk/top1/serve
    /// (`--extension-order fixed` is the A/B baseline).
    pub extension_order: ExtensionOrder,
    /// `serve`: log queries at least this slow (ms) to stderr with their
    /// stage breakdown; `None` disables per-query tracing.
    pub slow_query_ms: Option<u64>,
    /// `subscribe`: window start (`--from`; requires `--to`).
    pub from_time: Option<i64>,
    /// `subscribe`: window end (`--to`; requires `--from`).
    pub to_time: Option<i64>,
    /// `subscribe`: stop after this many events (0 = run forever).
    pub limit: usize,
    /// JSON output.
    pub json: bool,
    /// Dataset for `generate`.
    pub dataset: String,
    /// Scale for `generate`.
    pub scale: f64,
    /// Output path for `generate`.
    pub out: Option<PathBuf>,
}

/// The CLI subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print dataset statistics.
    Stats(PathBuf),
    /// Enumerate maximal instances.
    Find(PathBuf),
    /// Top-k instances by flow.
    TopK(PathBuf),
    /// Top-1 via the DP module.
    Top1(PathBuf),
    /// Pack an edge list into a segment directory.
    Pack(PathBuf),
    /// Significance vs permuted replicas.
    Significance(PathBuf),
    /// Census of all walk shapes of a given size.
    Census(PathBuf),
    /// Per-match activity ranking.
    Activity(PathBuf),
    /// Generate a synthetic dataset.
    Generate,
    /// Resident streaming engine fed by a script (file or stdin).
    Stream(Option<PathBuf>),
    /// TCP protocol server over the resident engine, or — given a
    /// packed segment directory plus `--packed` — over the out-of-core
    /// epoch engine.
    Serve(Option<PathBuf>),
    /// Protocol client: requests from a script (file or stdin).
    Client(Option<PathBuf>),
    /// Standing query: subscribe on a running server and stream events.
    Subscribe,
    /// Fetch and print a running server's Prometheus-text metrics.
    Metrics,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            command: Command::Generate,
            motif: "M(3,2)".into(),
            delta: 600,
            phi: 0.0,
            k: 10,
            threads: 1,
            hub_degree: 128,
            show: 5,
            replicas: 20,
            edges: 2,
            seed: 42,
            packed: false,
            run_records: flowmotif_graph::segment::DEFAULT_RUN_RECORDS,
            horizon: 0,
            host: "127.0.0.1".into(),
            port: 7878,
            pool: 4,
            event_loop_threads: 2,
            cache_entries: 1024,
            max_connections: 4096,
            max_inflight: 0,
            max_window: 0,
            publish_every: 1024,
            use_index: true,
            profile: false,
            extension_order: ExtensionOrder::Cardinality,
            slow_query_ms: None,
            from_time: None,
            to_time: None,
            limit: 0,
            json: false,
            dataset: "bitcoin".into(),
            scale: 1.0,
            out: None,
        }
    }
}

impl Cli {
    /// Parses an argument list (without the program name).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut it = args.into_iter().peekable();
        let cmd_name = it.next().ok_or_else(|| "missing command".to_string())?;
        if cmd_name == "--help" || cmd_name == "-h" || cmd_name == "help" {
            return Err(USAGE.to_string());
        }
        let mut file: Option<PathBuf> = None;
        if cmd_name == "stream" || cmd_name == "client" || cmd_name == "serve" {
            // stream/client: optional script file (stdin without one).
            // serve: optional packed segment directory (with --packed).
            if it.peek().is_some_and(|a| !a.starts_with("--")) {
                file = Some(PathBuf::from(it.next().unwrap()));
            }
        } else if cmd_name != "generate" && cmd_name != "metrics" && cmd_name != "subscribe" {
            let f = it.next().ok_or_else(|| format!("`{cmd_name}` needs a <file> argument"))?;
            file = Some(PathBuf::from(f));
        }
        let command = match cmd_name.as_str() {
            "stats" => Command::Stats(file.unwrap()),
            "find" | "search" => Command::Find(file.unwrap()),
            "topk" => Command::TopK(file.unwrap()),
            "top1" => Command::Top1(file.unwrap()),
            "pack" => Command::Pack(file.unwrap()),
            "significance" => Command::Significance(file.unwrap()),
            "census" => Command::Census(file.unwrap()),
            "activity" => Command::Activity(file.unwrap()),
            "generate" => Command::Generate,
            "stream" => Command::Stream(file),
            "serve" => Command::Serve(file),
            "client" => Command::Client(file),
            "subscribe" => Command::Subscribe,
            "metrics" => Command::Metrics,
            other => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
        };
        let mut cli = Cli { command, ..Cli::default() };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("missing value for {name}"))
            };
            macro_rules! parse_val {
                ($name:literal) => {
                    value($name)?.parse().map_err(|e| format!("bad {}: {e}", $name))?
                };
            }
            match flag.as_str() {
                "--motif" => cli.motif = value("--motif")?,
                "--delta" => cli.delta = parse_val!("--delta"),
                "--phi" => cli.phi = parse_val!("--phi"),
                "--k" => cli.k = parse_val!("--k"),
                "--threads" => cli.threads = parse_val!("--threads"),
                "--hub-degree" => cli.hub_degree = parse_val!("--hub-degree"),
                "--show" => cli.show = parse_val!("--show"),
                "--replicas" => cli.replicas = parse_val!("--replicas"),
                "--edges" => cli.edges = parse_val!("--edges"),
                "--seed" => cli.seed = parse_val!("--seed"),
                "--packed" => cli.packed = true,
                "--run-records" => cli.run_records = parse_val!("--run-records"),
                "--horizon" => cli.horizon = parse_val!("--horizon"),
                "--host" => cli.host = value("--host")?,
                "--port" => cli.port = parse_val!("--port"),
                "--pool" => cli.pool = parse_val!("--pool"),
                "--event-loop-threads" => {
                    cli.event_loop_threads = parse_val!("--event-loop-threads");
                }
                "--cache-entries" => cli.cache_entries = parse_val!("--cache-entries"),
                "--max-connections" => cli.max_connections = parse_val!("--max-connections"),
                "--max-inflight" => cli.max_inflight = parse_val!("--max-inflight"),
                "--max-window" => cli.max_window = parse_val!("--max-window"),
                "--publish-every" => cli.publish_every = parse_val!("--publish-every"),
                "--no-index" => cli.use_index = false,
                "--profile" => cli.profile = true,
                "--extension-order" => {
                    cli.extension_order = parse_val!("--extension-order");
                }
                "--slow-query-ms" => cli.slow_query_ms = Some(parse_val!("--slow-query-ms")),
                "--from" => cli.from_time = Some(parse_val!("--from")),
                "--to" => cli.to_time = Some(parse_val!("--to")),
                "--limit" => cli.limit = parse_val!("--limit"),
                "--json" => cli.json = true,
                "--dataset" => cli.dataset = value("--dataset")?,
                "--scale" => cli.scale = parse_val!("--scale"),
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
            }
        }
        Ok(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_find_with_options() {
        let cli = parse(&[
            "find", "g.tsv", "--motif", "M(3,3)", "--delta", "900", "--phi", "2.5", "--show", "3",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Find(PathBuf::from("g.tsv")));
        assert_eq!(cli.motif, "M(3,3)");
        assert_eq!(cli.delta, 900);
        assert_eq!(cli.phi, 2.5);
        assert_eq!(cli.show, 3);
    }

    #[test]
    fn parses_generate() {
        let cli =
            parse(&["generate", "--dataset", "taxi", "--scale", "0.5", "--out", "x.tsv"]).unwrap();
        assert_eq!(cli.command, Command::Generate);
        assert_eq!(cli.dataset, "taxi");
        assert_eq!(cli.scale, 0.5);
        assert_eq!(cli.out, Some(PathBuf::from("x.tsv")));
    }

    #[test]
    fn parses_pack_and_packed_flag() {
        let cli = parse(&["pack", "g.tsv", "--out", "seg", "--run-records", "64"]).unwrap();
        assert_eq!(cli.command, Command::Pack(PathBuf::from("g.tsv")));
        assert_eq!(cli.out, Some(PathBuf::from("seg")));
        assert_eq!(cli.run_records, 64);

        // `--packed` is a bare flag: it must not swallow the next token.
        let cli = parse(&["topk", "seg", "--packed", "--k", "5"]).unwrap();
        assert_eq!(cli.command, Command::TopK(PathBuf::from("seg")));
        assert!(cli.packed);
        assert_eq!(cli.k, 5);
        assert!(!parse(&["find", "g.tsv"]).unwrap().packed);
    }

    #[test]
    fn search_is_an_alias_for_find() {
        let cli = parse(&["search", "g.tsv"]).unwrap();
        assert_eq!(cli.command, Command::Find(PathBuf::from("g.tsv")));
        assert!(parse(&["search"]).is_err());
    }

    #[test]
    fn rejects_unknowns_and_missing_args() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["bogus"]).is_err());
        assert!(parse(&["find"]).is_err());
        assert!(parse(&["find", "g.tsv", "--bogus"]).is_err());
        assert!(parse(&["find", "g.tsv", "--delta"]).is_err());
        assert!(parse(&["find", "g.tsv", "--delta", "abc"]).is_err());
    }

    #[test]
    fn help_returns_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn parses_hub_degree() {
        assert_eq!(parse(&["find", "g.tsv"]).unwrap().hub_degree, 128);
        let cli = parse(&["find", "g.tsv", "--threads", "8", "--hub-degree", "0"]).unwrap();
        assert_eq!(cli.hub_degree, 0);
        assert_eq!(cli.threads, 8);
        assert!(parse(&["topk", "g.tsv", "--hub-degree", "-1"]).is_err());
        assert!(parse(&["topk", "g.tsv", "--hub-degree"]).is_err());
    }

    #[test]
    fn parses_census_and_activity() {
        let cli = parse(&["census", "g.tsv", "--edges", "3", "--delta", "100"]).unwrap();
        assert_eq!(cli.command, Command::Census(PathBuf::from("g.tsv")));
        assert_eq!(cli.edges, 3);
        let cli = parse(&["activity", "g.tsv", "--motif", "M(3,3)"]).unwrap();
        assert_eq!(cli.command, Command::Activity(PathBuf::from("g.tsv")));
    }

    #[test]
    fn parses_stream_with_and_without_file() {
        let cli = parse(&["stream", "s.txt", "--horizon", "600", "--show", "2"]).unwrap();
        assert_eq!(cli.command, Command::Stream(Some(PathBuf::from("s.txt"))));
        assert_eq!(cli.horizon, 600);
        assert_eq!(cli.show, 2);
        // No positional: the script comes from stdin; flags still parse.
        let cli = parse(&["stream", "--horizon", "60"]).unwrap();
        assert_eq!(cli.command, Command::Stream(None));
        assert_eq!(cli.horizon, 60);
        let cli = parse(&["stream"]).unwrap();
        assert_eq!(cli.command, Command::Stream(None));
        assert_eq!(cli.horizon, 0);
    }

    #[test]
    fn parses_serve_and_client() {
        let cli = parse(&[
            "serve",
            "--port",
            "0",
            "--pool",
            "8",
            "--max-inflight",
            "16",
            "--max-window",
            "3600",
            "--publish-every",
            "256",
            "--horizon",
            "7200",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Serve(None));
        assert_eq!(cli.port, 0);
        assert_eq!(cli.pool, 8);
        assert_eq!(cli.max_inflight, 16);
        assert_eq!(cli.max_window, 3600);
        assert_eq!(cli.publish_every, 256);
        assert_eq!(cli.horizon, 7200);
        // serve takes an optional positional segment directory (for --packed);
        // whether --packed accompanies it is validated at dispatch time.
        let cli = parse(&["serve", "segments", "--packed"]).unwrap();
        assert_eq!(cli.command, Command::Serve(Some(PathBuf::from("segments"))));
        assert!(cli.packed);

        let cli = parse(&["client", "req.txt", "--host", "10.0.0.1", "--port", "9999"]).unwrap();
        assert_eq!(cli.command, Command::Client(Some(PathBuf::from("req.txt"))));
        assert_eq!(cli.host, "10.0.0.1");
        assert_eq!(cli.port, 9999);
        // No positional: requests come from stdin.
        let cli = parse(&["client", "--port", "9999"]).unwrap();
        assert_eq!(cli.command, Command::Client(None));
        // Ports are u16: out-of-range values are parse errors.
        assert!(parse(&["serve", "--port", "65536"]).is_err());
        assert!(parse(&["serve", "--port", "-1"]).is_err());
    }

    #[test]
    fn parses_event_loop_and_cache_flags() {
        let cli = parse(&["serve"]).unwrap();
        assert_eq!(cli.event_loop_threads, 2);
        assert_eq!(cli.cache_entries, 1024);
        assert_eq!(cli.max_connections, 4096);
        let cli = parse(&[
            "serve",
            "--event-loop-threads",
            "4",
            "--cache-entries",
            "0",
            "--max-connections",
            "128",
        ])
        .unwrap();
        assert_eq!(cli.event_loop_threads, 4);
        assert_eq!(cli.cache_entries, 0);
        assert_eq!(cli.max_connections, 128);
        assert!(parse(&["serve", "--event-loop-threads", "two"]).is_err());
    }

    #[test]
    fn no_index_flag_is_recognised_for_stream_and_serve() {
        assert!(parse(&["stream"]).unwrap().use_index);
        let cli = parse(&["stream", "--no-index"]).unwrap();
        assert!(!cli.use_index);
        let cli = parse(&["serve", "--no-index", "--port", "0"]).unwrap();
        assert!(!cli.use_index);
        // Bare flag: the next token is not swallowed as a value.
        assert!(parse(&["stream", "--no-index", "stray"]).is_err());
    }

    #[test]
    fn parses_profile_and_slow_query_flags() {
        assert!(!parse(&["find", "g.tsv"]).unwrap().profile);
        let cli = parse(&["find", "g.tsv", "--profile", "--threads", "4"]).unwrap();
        assert!(cli.profile);
        assert_eq!(cli.threads, 4);
        // Bare flag: the next token is not swallowed as a value.
        assert!(parse(&["find", "g.tsv", "--profile", "stray"]).is_err());

        assert_eq!(parse(&["serve"]).unwrap().slow_query_ms, None);
        let cli = parse(&["serve", "--slow-query-ms", "250"]).unwrap();
        assert_eq!(cli.slow_query_ms, Some(250));
        let cli = parse(&["serve", "--slow-query-ms", "0"]).unwrap();
        assert_eq!(cli.slow_query_ms, Some(0));
        assert!(parse(&["serve", "--slow-query-ms"]).is_err());
        assert!(parse(&["serve", "--slow-query-ms", "-1"]).is_err());
    }

    #[test]
    fn parses_extension_order() {
        assert_eq!(parse(&["find", "g.tsv"]).unwrap().extension_order, ExtensionOrder::Cardinality);
        let cli = parse(&["find", "g.tsv", "--extension-order", "fixed"]).unwrap();
        assert_eq!(cli.extension_order, ExtensionOrder::Fixed);
        let cli = parse(&["serve", "--extension-order", "cardinality"]).unwrap();
        assert_eq!(cli.extension_order, ExtensionOrder::Cardinality);
        let err = parse(&["find", "g.tsv", "--extension-order", "random"]).unwrap_err();
        assert!(err.contains("bad --extension-order"), "{err}");
        assert!(parse(&["find", "g.tsv", "--extension-order"]).is_err());
    }

    #[test]
    fn parses_subscribe_subcommand() {
        let cli =
            parse(&["subscribe", "--motif", "M(3,3)", "--delta", "60", "--port", "9999"]).unwrap();
        assert_eq!(cli.command, Command::Subscribe);
        assert_eq!(cli.motif, "M(3,3)");
        assert_eq!(cli.delta, 60);
        assert_eq!(cli.port, 9999);
        // Window bounds and the event limit are subscribe-specific.
        let cli = parse(&["subscribe", "--from", "0", "--to", "100", "--limit", "3"]).unwrap();
        assert_eq!(cli.from_time, Some(0));
        assert_eq!(cli.to_time, Some(100));
        assert_eq!(cli.limit, 3);
        // Defaults: unbounded window, run forever.
        let cli = parse(&["subscribe"]).unwrap();
        assert_eq!(cli.from_time, None);
        assert_eq!(cli.to_time, None);
        assert_eq!(cli.limit, 0);
        // No positional file.
        assert!(parse(&["subscribe", "stray"]).is_err());
    }

    #[test]
    fn parses_metrics_subcommand() {
        let cli = parse(&["metrics", "--host", "10.0.0.1", "--port", "9999"]).unwrap();
        assert_eq!(cli.command, Command::Metrics);
        assert_eq!(cli.host, "10.0.0.1");
        assert_eq!(cli.port, 9999);
        // No positional file; defaults point at the default server.
        let cli = parse(&["metrics"]).unwrap();
        assert_eq!(cli.port, 7878);
    }

    #[test]
    fn serve_client_defaults() {
        let cli = parse(&["serve"]).unwrap();
        assert_eq!(cli.host, "127.0.0.1");
        assert_eq!(cli.port, 7878);
        assert_eq!(cli.pool, 4);
        assert_eq!(cli.max_inflight, 0);
        assert_eq!(cli.max_window, 0);
        assert_eq!(cli.publish_every, 1024);
    }

    #[test]
    fn defaults_are_sane() {
        let cli = parse(&["topk", "g.tsv"]).unwrap();
        assert_eq!(cli.k, 10);
        assert_eq!(cli.delta, 600);
        assert_eq!(cli.phi, 0.0);
        assert!(!cli.json);
    }

    #[test]
    fn json_flag_is_recognised() {
        let cli = parse(&["find", "g.tsv", "--json"]).unwrap();
        assert!(cli.json);
        // ... and is a bare flag: the next token is parsed as a flag, not
        // as a value of --json.
        assert!(parse(&["find", "g.tsv", "--json", "stray"]).is_err());
    }

    #[test]
    fn negative_numerics() {
        // Signed/float options accept negatives (δ may look back in time,
        // ϕ=−1 disables the flow floor)...
        let cli = parse(&["find", "g.tsv", "--delta", "-5", "--phi", "-2.5"]).unwrap();
        assert_eq!(cli.delta, -5);
        assert_eq!(cli.phi, -2.5);
        // ...but unsigned options reject them with a parse error.
        for flag in ["--k", "--threads", "--show", "--replicas", "--edges", "--seed"] {
            let err = parse(&["find", "g.tsv", flag, "-1"]).unwrap_err();
            assert!(err.contains(&format!("bad {flag}")), "{flag}: {err}");
        }
    }

    #[test]
    fn huge_numerics() {
        // Values beyond the integer width are parse errors, not wraps.
        assert!(parse(&["find", "g.tsv", "--delta", "99999999999999999999"]).is_err());
        assert!(parse(&["find", "g.tsv", "--seed", "18446744073709551616"]).is_err());
        // The extremes of the width still parse.
        let cli = parse(&["find", "g.tsv", "--seed", "18446744073709551615"]).unwrap();
        assert_eq!(cli.seed, u64::MAX);
        let cli = parse(&["find", "g.tsv", "--delta", "-9223372036854775808"]).unwrap();
        assert_eq!(cli.delta, i64::MIN);
        // Float options tolerate huge magnitudes (f64 semantics).
        let cli = parse(&["find", "g.tsv", "--phi", "1e300"]).unwrap();
        assert_eq!(cli.phi, 1e300);
    }

    #[test]
    fn generate_option_routing() {
        // `generate` takes no positional file; its options route into the
        // dataset/scale/seed/out fields.
        let cli = parse(&[
            "generate",
            "--dataset",
            "facebook",
            "--scale",
            "0.25",
            "--seed",
            "7",
            "--out",
            "o.tsv",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Generate);
        assert_eq!(cli.dataset, "facebook");
        assert_eq!(cli.scale, 0.25);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.out, Some(PathBuf::from("o.tsv")));
        // Without --out the output goes to stdout.
        assert_eq!(parse(&["generate"]).unwrap().out, None);
        // Unknown flags and missing values error under generate too.
        assert!(parse(&["generate", "--bogus"]).is_err());
        assert!(parse(&["generate", "--dataset"]).unwrap_err().contains("missing value"));
        assert!(parse(&["generate", "--scale", "fast"]).is_err());
    }

    #[test]
    fn every_value_flag_reports_missing_value() {
        for flag in [
            "--motif",
            "--delta",
            "--phi",
            "--k",
            "--threads",
            "--show",
            "--replicas",
            "--edges",
            "--seed",
            "--dataset",
            "--scale",
            "--out",
        ] {
            let err = parse(&["find", "g.tsv", flag]).unwrap_err();
            assert!(
                err.contains(&format!("missing value for {flag}")) || err.contains("bad"),
                "{flag}: {err}"
            );
        }
    }
}
