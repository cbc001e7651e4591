//! Request parsing and reply framing for the wire protocol.
//!
//! A request is one `\n`-terminated line of whitespace-separated fields.
//! A reply is zero or more `DATA `-prefixed payload lines followed by
//! exactly one status line starting with `OK`, `ERR` or `BUSY` — so a
//! client reads lines until it sees a status prefix (status-last
//! framing; see `PROTOCOL.md` for the normative grammar).

use flowmotif_core::{catalog, ExtensionOrder, Motif};
use flowmotif_graph::{Flow, NodeId, TimeWindow, Timestamp};
use std::io::{self, BufRead};

/// Hard cap on the length of one request line; longer lines are a
/// protocol error and close the connection (the stream cannot be
/// resynchronised reliably).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Error categories carried by `ERR <code> <message>` status lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request: unknown command, bad arity, unparsable field,
    /// empty or oversized line.
    Proto,
    /// Well-formed request with an invalid query: unknown motif spec,
    /// inverted time window.
    Query,
    /// Valid command rejected by the data layer (e.g. non-positive flow,
    /// self-loop).
    Data,
    /// Rejected by admission control for a non-transient reason (e.g.
    /// query window wider than the server cap). Transient overload uses
    /// the `BUSY` status instead.
    Admission,
    /// The server failed while executing the request (its handler
    /// panicked). The session and the connection survive.
    Internal,
}

impl ErrorCode {
    /// The on-wire token (`proto`, `query`, `data`, `admission`,
    /// `internal`).
    pub fn token(self) -> &'static str {
        match self {
            ErrorCode::Proto => "proto",
            ErrorCode::Query => "query",
            ErrorCode::Data => "data",
            ErrorCode::Admission => "admission",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parse or validation failure, rendered as an `ERR` status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn proto(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Proto, message: message.into() }
    }

    fn query(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Query, message: message.into() }
    }

    /// The status line for this error.
    pub fn status_line(&self) -> String {
        format!("ERR {} {}", self.code.token(), self.message)
    }
}

/// A motif search request: the parsed motif plus an optional explicit
/// time window.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The motif (spec, δ and ϕ already folded in).
    pub motif: Motif,
    /// Closed time window restricting the search, if given.
    pub window: Option<TimeWindow>,
    /// Per-query P1 extension-order override (a trailing
    /// `order=fixed|cardinality` option token); `None` keeps the
    /// server's default.
    pub order: Option<ExtensionOrder>,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// `ping` — liveness check.
    Ping,
    /// `add <u> <v> <t> <f>` — append one interaction.
    Add {
        /// Source node.
        from: NodeId,
        /// Target node.
        to: NodeId,
        /// Timestamp.
        time: Timestamp,
        /// Flow value.
        flow: Flow,
    },
    /// `query <motif> <delta> <phi> [<from> <to>]` — enumerate instances.
    Query(QuerySpec),
    /// `count <motif> <delta> <phi> [<from> <to>]` — count instances.
    Count(QuerySpec),
    /// `publish` — publish a fresh snapshot, making recent appends
    /// visible to queries.
    Publish,
    /// `evict <t>` — drop interactions older than `t` (writer side).
    Evict(Timestamp),
    /// `compact` — consolidate the writer-side graph.
    Compact,
    /// `stats` — server-wide statistics.
    Stats,
    /// `metrics` — every registered metric in the Prometheus text
    /// exposition format, one `DATA` line per text line.
    Metrics,
    /// `session` — statistics of this connection.
    Session,
    /// `subscribe <motif> <delta> <phi> [<from> <to>]` — register a
    /// standing query; matching instances arriving later are pushed as
    /// `EVENT` lines between reply frames.
    Subscribe(QuerySpec),
    /// `unsubscribe <id>` — remove a standing query owned by this
    /// session.
    Unsubscribe(u64),
    /// `quit` — close the connection after an `OK bye`.
    Quit,
}

/// Parses one request line (without its terminating newline).
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let Some(&command) = fields.first() else {
        return Err(RequestError::proto("empty command".to_string()));
    };
    let args = &fields[1..];
    let exact = |n: usize| {
        if args.len() == n {
            Ok(())
        } else {
            Err(RequestError::proto(format!("`{command}` takes {n} fields, got {}", args.len())))
        }
    };
    match command {
        "ping" => exact(0).map(|()| Request::Ping),
        "add" => {
            exact(4)?;
            Ok(Request::Add {
                from: field(args, 0, command)?,
                to: field(args, 1, command)?,
                time: field(args, 2, command)?,
                flow: field(args, 3, command)?,
            })
        }
        "query" => parse_query_spec(command, args).map(Request::Query),
        "count" => parse_query_spec(command, args).map(Request::Count),
        "subscribe" => parse_query_spec(command, args).map(Request::Subscribe),
        "unsubscribe" => {
            exact(1)?;
            Ok(Request::Unsubscribe(field(args, 0, command)?))
        }
        "publish" => exact(0).map(|()| Request::Publish),
        "evict" => {
            exact(1)?;
            Ok(Request::Evict(field(args, 0, command)?))
        }
        "compact" => exact(0).map(|()| Request::Compact),
        "stats" => exact(0).map(|()| Request::Stats),
        "metrics" => exact(0).map(|()| Request::Metrics),
        "session" => exact(0).map(|()| Request::Session),
        "quit" => exact(0).map(|()| Request::Quit),
        other => Err(RequestError::proto(format!("unknown command `{other}`"))),
    }
}

fn field<T: std::str::FromStr>(args: &[&str], i: usize, command: &str) -> Result<T, RequestError>
where
    T::Err: std::fmt::Display,
{
    let raw = args[i];
    raw.parse().map_err(|e| RequestError::proto(format!("`{command}` field `{raw}`: {e}")))
}

/// Parses `<motif> <delta> <phi> [<from> <to>] [order=fixed|cardinality]`
/// — the same grammar as the `flowmotif stream` script's `query`
/// operation plus the trailing option token; shared by `query`, `count`
/// and `subscribe`.
fn parse_query_spec(command: &str, args: &[&str]) -> Result<QuerySpec, RequestError> {
    let (args, order) = match args.last().and_then(|a| a.strip_prefix("order=")) {
        Some(raw) => {
            let order = raw
                .parse::<ExtensionOrder>()
                .map_err(|e| RequestError::proto(format!("`{command}` option `order`: {e}")))?;
            (&args[..args.len() - 1], Some(order))
        }
        None => (args, None),
    };
    if args.len() != 3 && args.len() != 5 {
        return Err(RequestError::proto(format!(
            "`{command} <motif> <delta> <phi> [<from> <to>] [order=<o>]` \
             takes 3 or 5 fields, got {}",
            args.len()
        )));
    }
    let delta: Timestamp = field(args, 1, command)?;
    let phi: Flow = field(args, 2, command)?;
    let motif = catalog::parse_motif(args[0], delta, phi)
        .map_err(|e| RequestError::query(e.to_string()))?;
    let window = if args.len() == 5 {
        let from: Timestamp = field(args, 3, command)?;
        let to: Timestamp = field(args, 4, command)?;
        if to < from {
            return Err(RequestError::query(format!(
                "window [{from}, {to}] ends before it starts"
            )));
        }
        Some(TimeWindow::new(from, to))
    } else {
        None
    };
    Ok(QuerySpec { motif, window, order })
}

/// One framed reply: the `DATA` payload lines (prefix stripped), any
/// push `EVENT` lines that arrived ahead of or inside the frame, and the
/// final status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Payload lines, in order, without their `DATA ` prefix.
    pub data: Vec<String>,
    /// Standing-query notifications collected while reading this frame,
    /// without their `EVENT ` prefix (empty unless the connection has
    /// active subscriptions).
    pub events: Vec<String>,
    /// The status line (`OK …`, `ERR …` or `BUSY …`).
    pub status: String,
}

impl Reply {
    /// Whether the status line reports success.
    pub fn is_ok(&self) -> bool {
        self.status == "OK" || self.status.starts_with("OK ")
    }

    /// Whether the status line is a transient `BUSY` rejection (the
    /// request may be retried verbatim).
    pub fn is_busy(&self) -> bool {
        self.status == "BUSY" || self.status.starts_with("BUSY ")
    }

    /// Whether the status line reports a permanent error.
    pub fn is_err(&self) -> bool {
        self.status == "ERR" || self.status.starts_with("ERR ")
    }

    /// Looks up a `key=value` field in the status line.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.status
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
    }
}

/// Reads one framed reply: `DATA` lines until the `OK`/`ERR`/`BUSY`
/// status line. Push `EVENT` lines (delivered between frames on
/// subscribed connections) are collected into [`Reply::events`] rather
/// than consumed as data. Fails with `UnexpectedEof` if the peer closes
/// mid-reply.
pub fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Reply> {
    let mut data = Vec::new();
    let mut events = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(payload) = line.strip_prefix("DATA ") {
            data.push(payload.to_string());
        } else if let Some(payload) = line.strip_prefix("EVENT ") {
            events.push(payload.to_string());
        } else {
            return Ok(Reply { data, events, status: line.to_string() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert!(matches!(parse_request("ping").unwrap(), Request::Ping));
        assert!(matches!(
            parse_request("add 0 1 10 2.5").unwrap(),
            Request::Add { from: 0, to: 1, time: 10, .. }
        ));
        let Request::Query(q) = parse_request("query M(3,2) 10 0.5").unwrap() else {
            panic!("not a query")
        };
        assert_eq!(q.motif.delta(), 10);
        assert!(q.window.is_none());
        let Request::Count(q) = parse_request("count 0-1-2-0 10 0 5 25").unwrap() else {
            panic!("not a count")
        };
        assert_eq!(q.window, Some(TimeWindow::new(5, 25)));
        let Request::Subscribe(q) = parse_request("subscribe M(3,3) 10 7 0 30").unwrap() else {
            panic!("not a subscribe")
        };
        assert_eq!(q.window, Some(TimeWindow::new(0, 30)));
        assert!(matches!(parse_request("unsubscribe 3").unwrap(), Request::Unsubscribe(3)));
        assert!(matches!(parse_request("publish").unwrap(), Request::Publish));
        assert!(matches!(parse_request("evict 42").unwrap(), Request::Evict(42)));
        assert!(matches!(parse_request("compact").unwrap(), Request::Compact));
        assert!(matches!(parse_request("stats").unwrap(), Request::Stats));
        assert!(matches!(parse_request("metrics").unwrap(), Request::Metrics));
        assert!(matches!(parse_request("session").unwrap(), Request::Session));
        assert!(matches!(parse_request("quit").unwrap(), Request::Quit));
    }

    #[test]
    fn parses_order_option() {
        // Trailing `order=` token on every query-spec command, with or
        // without a window.
        let Request::Query(q) = parse_request("query M(3,2) 10 0 order=fixed").unwrap() else {
            panic!("not a query")
        };
        assert_eq!(q.order, Some(ExtensionOrder::Fixed));
        assert!(q.window.is_none());
        let Request::Count(q) = parse_request("count M(3,2) 10 0 5 25 order=cardinality").unwrap()
        else {
            panic!("not a count")
        };
        assert_eq!(q.order, Some(ExtensionOrder::Cardinality));
        assert_eq!(q.window, Some(TimeWindow::new(5, 25)));
        let Request::Subscribe(q) = parse_request("subscribe M(3,3) 10 7 order=fixed").unwrap()
        else {
            panic!("not a subscribe")
        };
        assert_eq!(q.order, Some(ExtensionOrder::Fixed));
        // Absent token: no override.
        let Request::Query(q) = parse_request("query M(3,2) 10 0").unwrap() else {
            panic!("not a query")
        };
        assert_eq!(q.order, None);
        // Bad values and misplaced tokens are protocol errors.
        let err = parse_request("query M(3,2) 10 0 order=random").unwrap_err();
        assert_eq!(err.code, ErrorCode::Proto);
        assert!(err.message.contains("unknown extension order"), "{}", err.message);
        let err = parse_request("query M(3,2) 10 0 order=fixed 5 25").unwrap_err();
        assert_eq!(err.code, ErrorCode::Proto, "order token must come last");
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, expect) in [
            ("", "empty command"),
            ("   ", "empty command"),
            ("frobnicate", "unknown command"),
            ("add 0 1 10", "takes 4 fields"),
            ("add 0 1 10 2.5 extra", "takes 4 fields"),
            ("add 0 one 10 2.5", "field `one`"),
            ("query M(3,2)", "takes 3 or 5 fields"),
            ("query M(3,2) 10 0 5", "takes 3 or 5 fields"),
            ("subscribe M(3,2)", "takes 3 or 5 fields"),
            ("unsubscribe", "takes 1 fields"),
            ("unsubscribe one", "field `one`"),
            ("evict", "takes 1 fields"),
            ("ping pong", "takes 0 fields"),
            ("metrics now", "takes 0 fields"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::Proto, "{line}");
            assert!(err.message.contains(expect), "{line}: {}", err.message);
        }
        // Query-level (not protocol-level) failures.
        let err = parse_request("query M(9,9) 10 0").unwrap_err();
        assert_eq!(err.code, ErrorCode::Query);
        let err = parse_request("query M(3,2) 10 0 30 5").unwrap_err();
        assert_eq!(err.code, ErrorCode::Query);
        assert!(err.message.contains("ends before"));
        assert!(err.status_line().starts_with("ERR query "));
    }

    #[test]
    fn reply_framing_round_trips() {
        let wire = "DATA first\nDATA second payload\nOK query instances=2 epoch=7\n";
        let reply = read_reply(&mut wire.as_bytes()).unwrap();
        assert_eq!(reply.data, vec!["first", "second payload"]);
        assert!(reply.is_ok());
        assert_eq!(reply.field("instances"), Some("2"));
        assert_eq!(reply.field("epoch"), Some("7"));
        assert_eq!(reply.field("missing"), None);

        let reply = read_reply(&mut "BUSY 3 queries in flight\n".as_bytes()).unwrap();
        assert!(reply.is_busy() && !reply.is_ok() && !reply.is_err());

        let reply = read_reply(&mut "ERR proto unknown command `x`\n".as_bytes()).unwrap();
        assert!(reply.is_err());

        let eof = read_reply(&mut "DATA never finished\n".as_bytes());
        assert_eq!(eof.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn event_lines_are_collected_not_consumed_as_data() {
        let wire = "EVENT id=1 match=0-1-2 flow=3 first=2 last=3 size=2\n\
                    DATA payload\nEVENT id=2 match=1-2-3 flow=4 first=5 last=6 size=2\nOK added watermark=3\n";
        let reply = read_reply(&mut wire.as_bytes()).unwrap();
        assert!(reply.is_ok());
        assert_eq!(reply.data, vec!["payload"]);
        assert_eq!(
            reply.events,
            vec![
                "id=1 match=0-1-2 flow=3 first=2 last=3 size=2",
                "id=2 match=1-2-3 flow=4 first=5 last=6 size=2"
            ]
        );
    }

    /// Seeded fuzz loop over mutated request lines: tokens dropped or
    /// duplicated, characters replaced, numbers swapped for extremes,
    /// windows inverted and `order=` values garbled. The parser must
    /// never panic, and every spec it accepts must be searchable: finite
    /// ϕ ≥ 0, δ ≥ 0 and a window with start ≤ end. Iterations default to
    /// 20000; `FLOWMOTIF_PROTOCOL_FUZZ_ITERS` sets another budget.
    #[test]
    fn mutated_request_lines_never_panic_and_accepted_specs_are_valid() {
        use flowmotif_util::{RngExt, SeedableRng, StdRng};
        const VALID: [&str; 9] = [
            "query M(3,2) 10 0.5",
            "count 0-1-2-0 10 0 5 25",
            "subscribe M(3,3) 10 7 0 30 order=fixed",
            "count M(4,4)A 600 3 100 1100 order=cardinality",
            "add 0 1 10 2.5",
            "evict 42",
            "unsubscribe 3",
            "ping",
            "stats",
        ];
        const EXTREMES: [&str; 14] = [
            "NaN",
            "nan",
            "inf",
            "-inf",
            "-0",
            "-0.0",
            "1e309",
            "-1",
            "-9223372036854775808",
            "9223372036854775807",
            "18446744073709551616",
            "0x10",
            "",
            "5e-324",
        ];
        const ORDERS: [&str; 5] =
            ["order=", "order=FIXED", "order=cardinality=1", "order", "=fixed"];
        const CHARS: [char; 10] = ['0', '9', '-', '.', 'e', 'M', '(', ' ', '\t', 'ϕ'];
        let iters = std::env::var("FLOWMOTIF_PROTOCOL_FUZZ_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_000u64);
        let mut rng = StdRng::seed_from_u64(0x9A75E);
        for i in 0..iters {
            let base = VALID[rng.random_range(0..VALID.len())];
            let mut tokens: Vec<String> = base.split(' ').map(str::to_string).collect();
            for _ in 0..rng.random_range(1..4u32) {
                let at = rng.random_range(0..tokens.len());
                match rng.random_range(0..6u32) {
                    0 if tokens.len() > 1 => {
                        tokens.remove(at);
                    }
                    1 => tokens.insert(at, tokens[at].clone()),
                    2 => {
                        let mut chars: Vec<char> = tokens[at].chars().collect();
                        if !chars.is_empty() {
                            let c = rng.random_range(0..chars.len());
                            chars[c] = CHARS[rng.random_range(0..CHARS.len())];
                        }
                        tokens[at] = chars.into_iter().collect();
                    }
                    3 => tokens[at] = EXTREMES[rng.random_range(0..EXTREMES.len())].to_string(),
                    4 => tokens.push(ORDERS[rng.random_range(0..ORDERS.len())].to_string()),
                    _ if tokens.len() >= 6 => tokens.swap(4, 5), // to < from
                    _ => {}
                }
            }
            let line = tokens.join(" ");
            let parsed = std::panic::catch_unwind(|| parse_request(&line));
            let Ok(parsed) = parsed else { panic!("iteration {i}: `{line}` panicked") };
            if let Ok(Request::Query(q) | Request::Count(q) | Request::Subscribe(q)) = parsed {
                let (delta, phi) = (q.motif.delta(), q.motif.phi());
                assert!(phi.is_finite() && phi >= 0.0, "iteration {i}: `{line}` ϕ {phi}");
                assert!(delta >= 0, "iteration {i}: `{line}` δ {delta}");
                if let Some(w) = q.window {
                    assert!(w.start <= w.end, "iteration {i}: `{line}` window {w:?}");
                }
            }
        }
    }
}
