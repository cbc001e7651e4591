//! End-to-end benchmark of flowmotif.
//!
//! ```text
//! e2ebench --flowmotif <bin> --workload <batch|serve-read|serve-ingest>
//!          --seed <n> --seconds <s> --trace <0|1>
//!          --read-rate <req/s> --ingest-add-rate <req/s>
//!          --ingest-read-rate <req/s> [--work <dir>]
//! ```
//!
//! Each run generates its inputs from the seed, sets the system up, and
//! measures it for `--seconds`, checking every answer against the
//! library computed in-process. It prints each metric on its own line
//! and, last, one JSON object: with `--trace 0` the end-to-end metrics,
//! with `--trace 1` the per-layer ones, taken from spans the harness
//! records around its own calls into each crate (written to
//! `<work>/spans/<run id>.jsonl`). A wrong answer makes the exit code 1.
//! `DESIGN.md` beside this crate explains the workloads and metrics.

mod batch;
mod ingest;
mod inputs;
mod loadgen;
mod read;
mod spans;
mod stats;
mod sys;

use spans::{num, Spans};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("rss_mb", "MiB"), ("p50_ms", "ms")];

/// Per-layer metrics of the traced run; a layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("find_s", "s"),
    ("topk_s", "s"),
    ("top1_s", "s"),
    // The workload's latency tail beside `p50_ms`; reported, not gated:
    // its run-to-run spread exceeds the largest bound (see DESIGN.md).
    ("p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("event_p50_ms", "ms"),
    ("event_p99_ms", "ms"),
    ("peak_rps", "req/s"),
    ("failed_frac", "ratio"),
    ("graph.load_ms", "ms"),
    ("graph.pack_ms", "ms"),
    ("graph.segment_open_ms", "ms"),
    ("core.p1_ms", "ms"),
    ("core.p1.matches", "count"),
    ("core.p2_ms", "ms"),
    ("core.p2.windows", "count"),
    ("core.p2.instances", "count"),
    ("core.p2.useful_ratio", "ratio"),
    ("core.topk_ms", "ms"),
    ("core.dp_ms", "ms"),
    ("core.par.imbalance", "ratio"),
    ("stream.epoch_count_ms", "ms"),
    ("stream.heap_count_ms", "ms"),
    ("stream.append_us.p50", "us"),
    ("stream.append_us.p99", "us"),
    ("stream.append_standing_us.p50", "us"),
    ("stream.append_standing_us.p99", "us"),
    ("stream.delta.events", "count"),
    ("stream.publish_ms.p50", "ms"),
    ("stream.publish_ms.max", "ms"),
    ("stream.publish.dirty_pairs", "count"),
    ("stream.evicted", "count"),
    ("serve.parse_ns", "ns"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.busy", "count"),
    ("serve.events_pushed", "count"),
    ("serve.events_dropped", "count"),
    ("serve.unattributed_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
];

/// Settings of one run.
pub struct Ctx {
    pub bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub read_rate: f64,
    pub ingest_add_rate: f64,
    pub ingest_read_rate: f64,
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Requests or jobs that failed: `ERR`, `BUSY`, timeout, or a wrong
    /// answer.
    pub failed: u64,
    /// Wrong answers and `ERR`s: the program is at fault.
    pub wrong: u64,
    pub input_hash: String,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable notes (sample counts, extra figures).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --flowmotif <bin> --workload <batch|serve-read|serve-ingest> \
         --seed <n> --seconds <s> --trace <0|1> --read-rate R --ingest-add-rate R \
         --ingest-read-rate R [--work <dir>]"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Ctx) {
    let mut ctx = Ctx {
        bin: PathBuf::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".e2ebench-work"),
        // The offered rates have no defaults: `BENCHMARK.json`'s command
        // is the one place they are set.
        read_rate: f64::NAN,
        ingest_add_rate: f64::NAN,
        ingest_read_rate: f64::NAN,
    };
    let mut workload = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        let number = || value.parse::<f64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--flowmotif" => ctx.bin = PathBuf::from(&value),
            "--workload" => workload = value.clone(),
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => ctx.seconds = number(),
            "--trace" => ctx.trace = number() != 0.0,
            "--work" => ctx.work = PathBuf::from(&value),
            "--read-rate" => ctx.read_rate = number(),
            "--ingest-add-rate" => ctx.ingest_add_rate = number(),
            "--ingest-read-rate" => ctx.ingest_read_rate = number(),
            _ => usage(),
        }
    }
    let rates = [ctx.read_rate, ctx.ingest_add_rate, ctx.ingest_read_rate];
    if ctx.bin.as_os_str().is_empty()
        || workload.is_empty()
        || rates.iter().any(|r| r.is_nan() || *r <= 0.0)
    {
        usage()
    }
    (workload, ctx)
}

fn main() -> ExitCode {
    let (workload, ctx) = parse_args();
    let inputs = ctx.work.join(format!("inputs-{}", std::process::id()));
    // Inputs of an earlier run are never reused: each run makes its own.
    std::fs::remove_dir_all(&inputs).ok();
    if let Err(e) = std::fs::create_dir_all(&inputs) {
        eprintln!("e2ebench: creating {}: {e}", inputs.display());
        return ExitCode::from(2);
    }
    let mut spans = Spans::new();
    let result = match workload.as_str() {
        "batch" => batch::run(&ctx, &inputs, &mut spans),
        "serve-read" => read::run(&ctx, &inputs, &mut spans),
        "serve-ingest" => ingest::run(&ctx, &inputs, &mut spans),
        _ => usage(),
    };
    std::fs::remove_dir_all(&inputs).ok();
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    report.set("failed_frac", report.failed as f64 / report.attempted.max(1) as f64);
    let run_id = format!("{workload}-{}-{}", ctx.seed, report.input_hash);
    if ctx.trace {
        let path = ctx.work.join("spans").join(format!("{run_id}.jsonl"));
        if let Err(e) = spans.write(&path, &run_id) {
            eprintln!("e2ebench: writing spans to {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("spans: {} written to {}", spans.spans.len(), path.display());
    }
    println!("run: {run_id} (input hash {})", report.input_hash);
    for note in &report.notes {
        println!("{note}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = report.get(name) {
            println!("{workload} {name} = {} {unit}", num(v));
        }
    }
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match report.get(name) {
            Some(v) => v,
            // A layer this workload bypasses did no work.
            None if ctx.trace => 0.0,
            None => {
                eprintln!("e2ebench: {workload} did not measure {name}");
                return ExitCode::from(2);
            }
        };
        metrics.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(value)));
    }
    let correct = report.wrong == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: {workload}: {} wrong answers", report.wrong);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogue here and the one in `BENCHMARK.json` agree.
    #[test]
    fn metrics_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let def = std::fs::read_to_string(path).expect("BENCHMARK.json beside e2ebench/");
        let compact: String = def.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
        assert_eq!(compact.matches("\"name\":").count(), END_TO_END.len() + PER_LAYER.len() + 3);
    }
}
