//! Spans recorded around the harness's calls into each layer during a
//! traced run. They are kept in memory and written out once, at the
//! end, as JSON lines tagged with the run id.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request (or one job) share it.
    pub request: u64,
    pub start: Duration,
    pub end: Duration,
    /// Work counts measured at the same boundary.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { t0: Instant::now(), spans: Vec::new() }
    }

    /// Times `f` as a span named `name`. `f` returns its result and the
    /// counts to attach.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> (T, Vec<(&'static str, f64)>),
    ) -> T {
        let start = self.t0.elapsed();
        let (out, counts) = f();
        self.spans.push(Span { name, request, start, end: self.t0.elapsed(), counts });
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration().as_secs_f64() * 1e3).collect()
    }

    /// Sum of count `key` over the spans named `name`.
    pub fn total(&self, name: &str, key: &str) -> f64 {
        self.named(name)
            .flat_map(|s| s.counts.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON line tagged with `run_id`.
    pub fn write(&self, path: &Path, run_id: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let counts: Vec<String> =
                s.counts.iter().map(|(k, v)| format!("\"{k}\":{}", num(*v))).collect();
            writeln!(
                w,
                "{{\"run\":\"{run_id}\",\"id\":{i},\"name\":\"{}\",\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
                s.name,
                s.request,
                s.start.as_nanos(),
                s.end.as_nanos(),
                counts.join(",")
            )?;
        }
        w.flush()
    }
}

/// A finite number as JSON (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_time_calls_and_carry_counts() {
        let mut spans = Spans::new();
        let out = spans.record("call", 1, || {
            std::thread::sleep(Duration::from_millis(20));
            (7, vec![("n", 3.0)])
        });
        assert_eq!(out, 7);
        assert!(spans.durations_ms("call")[0] >= 20.0);
        assert_eq!(spans.total("call", "n"), 3.0);
    }
}
