//! Load generation over pipelined protocol connections.
//!
//! [`Conn::drive`] sends each request when it falls due, whether or not
//! earlier replies have arrived (open loop), and times every reply from
//! the request's *intended* send time. A stalled server therefore shows
//! up in latency even while the generator cannot send (coordinated
//! omission), and how late the generator itself ran is kept apart as
//! lag. Giving every request a due time of zero and capping the number
//! in flight turns the same loop into a closed loop with that pipeline
//! depth.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One request line and when it is due, relative to the run's start.
#[derive(Clone, Debug)]
pub struct Request {
    pub due: Duration,
    pub line: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Err,
    Busy,
    /// No reply before the give-up time (or the connection closed).
    Timeout,
    /// Due before sending stopped but never sent, because the requests
    /// in flight were at the cap until then: a timeout the server's
    /// backlog imposed on the generator.
    Unsent,
}

/// What became of one request. Times are relative to the start.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub due: Duration,
    /// When it was sent; the give-up time if it never was.
    pub sent: Duration,
    /// Reply arrival, or the give-up time for a timeout.
    pub done: Duration,
    pub status: Status,
    /// The reply's status line.
    pub reply: String,
}

impl Outcome {
    /// Latency from the intended send time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent this request, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// An unsolicited `EVENT` line and its arrival time.
#[derive(Clone, Debug)]
pub struct Event {
    pub line: String,
    pub at: Duration,
}

/// How one [`Conn::drive`] call paces and ends.
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    /// Most requests in flight at once; a due request waits for a slot.
    pub cap: usize,
    /// No request is sent at or after this time.
    pub stop_sending: Duration,
    /// Requests still unanswered at this time count as timeouts.
    pub give_up: Duration,
}

/// The longest a generator waits in one read while nothing is due.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// One pipelined protocol connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Replies still owed to requests given up on, to be skipped.
    stale: usize,
    /// `EVENT` lines received so far, in arrival order.
    pub events: Vec<Event>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::new(), stale: 0, events: Vec::new() })
    }

    /// Sends one request and waits for its reply: the `DATA` payload
    /// lines and the status line.
    pub fn call(&mut self, line: &str, timeout: Duration) -> io::Result<(Vec<String>, String)> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        let start = Instant::now();
        let mut data = Vec::new();
        loop {
            let left = timeout.saturating_sub(start.elapsed());
            if left.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, format!("no reply to {line}")));
            }
            let Some(l) = self.next_line(left, start)? else { continue };
            if let Some(d) = l.strip_prefix("DATA ") {
                data.push(d.to_string());
            } else if self.stale > 0 {
                self.stale -= 1;
                data.clear();
            } else {
                return Ok((data, l));
            }
        }
    }

    /// Sends `reqs` in order, each when due (see [`Pace`]), and collects
    /// one [`Outcome`] per request due before sending stopped, in order:
    /// those never sent are [`Status::Unsent`] and, like timeouts, count
    /// up to the give-up time. `EVENT` lines go to [`Conn::events`].
    pub fn drive(
        &mut self,
        reqs: &[Request],
        start: Instant,
        pace: Pace,
    ) -> io::Result<Vec<Outcome>> {
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(reqs.len());
        let mut pending: VecDeque<usize> = VecDeque::new();
        let mut next = 0;
        let mut out = String::new();
        loop {
            let now = start.elapsed();
            out.clear();
            while next < reqs.len()
                && reqs[next].due <= now
                && now < pace.stop_sending
                && pending.len() < pace.cap
            {
                out.push_str(&reqs[next].line);
                out.push('\n');
                pending.push_back(outcomes.len());
                outcomes.push(Outcome {
                    due: reqs[next].due,
                    sent: now,
                    done: pace.give_up,
                    status: Status::Timeout,
                    reply: String::new(),
                });
                next += 1;
            }
            if !out.is_empty() {
                self.stream.write_all(out.as_bytes())?;
            }
            let more = next < reqs.len() && now < pace.stop_sending;
            if !more && pending.is_empty() {
                break;
            }
            if now >= pace.give_up {
                // Their replies may still come: skip them in later reads.
                self.stale += pending.len();
                break;
            }
            let mut wait = IDLE_WAIT.min(pace.give_up - now);
            if more && pending.len() < pace.cap {
                wait = wait.min(reqs[next].due.saturating_sub(now));
            }
            match self.next_line(wait.max(Duration::from_micros(50)), start)? {
                Some(line) if line.starts_with("DATA ") => {}
                Some(_) if self.stale > 0 => self.stale -= 1,
                Some(line) => {
                    let Some(i) = pending.pop_front() else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unsolicited reply: {line}"),
                        ));
                    };
                    let o = &mut outcomes[i];
                    o.done = start.elapsed();
                    o.status = match line.split(' ').next() {
                        Some("OK") => Status::Ok,
                        Some("BUSY") => Status::Busy,
                        _ => Status::Err,
                    };
                    o.reply = line;
                }
                None => {}
            }
        }
        let unsent = reqs[next..].iter().take_while(|q| q.due < pace.stop_sending);
        outcomes.extend(unsent.map(|q| Outcome {
            due: q.due,
            sent: pace.give_up,
            done: pace.give_up,
            status: Status::Unsent,
            reply: String::new(),
        }));
        Ok(outcomes)
    }

    /// The next reply line, waiting at most `wait` for more input.
    /// `EVENT` lines are diverted to [`Conn::events`] (returning `None`,
    /// like a timeout); a closed connection is an error.
    fn next_line(&mut self, wait: Duration, start: Instant) -> io::Result<Option<String>> {
        if !self.buf.contains(&b'\n') {
            if !readable(&self.stream, wait)? {
                return Ok(None);
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let Some(pos) = self.buf.iter().position(|&b| b == b'\n') else { return Ok(None) };
        let line = String::from_utf8_lossy(&self.buf[..pos]).trim_end_matches('\r').to_string();
        self.buf.drain(..=pos);
        if line.starts_with("EVENT ") {
            self.events.push(Event { line, at: start.elapsed() });
            return Ok(None);
        }
        Ok(Some(line))
    }
}

/// Runs one request list per connection concurrently (this thread and
/// one more) and returns the outcomes of each.
pub fn drive_pair(
    a: &mut Conn,
    b: &mut Conn,
    reqs: [&[Request]; 2],
    start: Instant,
    pace: [Pace; 2],
) -> Result<[Vec<Outcome>; 2], String> {
    std::thread::scope(|s| {
        let hb = s.spawn(|| b.drive(reqs[1], start, pace[1]));
        let ra = a.drive(reqs[0], start, pace[0]);
        let rb = hb.join().expect("load thread panicked");
        Ok([ra.map_err(|e| e.to_string())?, rb.map_err(|e| e.to_string())?])
    })
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;

/// Waits up to `wait` for `stream` to have input (or EOF). `ppoll`'s
/// high-resolution timeout keeps a generator on schedule to within
/// microseconds; a socket read timeout would round each wait up to the
/// next scheduler tick and send every request milliseconds late.
fn readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` is one live, writable pollfd (nfds = 1) for an open
    // socket, `ts` is a valid timespec, and a null sigmask leaves the
    // signal mask unchanged; all three outlive the call.
    let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match r {
        -1 if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted => Ok(false),
        -1 => Err(io::Error::last_os_error()),
        n => Ok(n > 0),
    }
}

/// Due times for `n` requests at a fixed `rate` per second, starting at
/// `offset`.
pub fn schedule(n: usize, rate: f64, offset: Duration) -> Vec<Duration> {
    (0..n).map(|i| offset + Duration::from_secs_f64(i as f64 / rate)).collect()
}

#[cfg(test)]
mod tests {
    //! Coordinated-omission self-test: a stub endpoint that stalls for a
    //! second mid-run must show the stall in the latency tail (timed from
    //! intended send) and in the generator's lag, not hide it.
    use super::*;
    use crate::stats::{percentile, sorted};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    const STALL: Duration = Duration::from_secs(1);

    /// Answers `count …` lines with `OK count=1`, sleeping `stall` before
    /// the reply to the request that arrives `stall_at` into the run.
    fn stub(stall_at: Option<Duration>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let started = Instant::now();
            let mut stalled = stall_at.is_none();
            let mut w = sock.try_clone().unwrap();
            for line in BufReader::new(sock).lines() {
                let Ok(line) = line else { break };
                if line == "quit" {
                    break;
                }
                if !stalled && started.elapsed() >= stall_at.unwrap() {
                    stalled = true;
                    std::thread::sleep(STALL);
                }
                w.write_all(b"OK count=1 matches=1 epoch=0\n").unwrap();
            }
        });
        (addr, handle)
    }

    /// Runs 2 s of load at 500 req/s against the stub, sending nothing
    /// at or after `stop_sending`, and returns every outcome.
    fn run(stall_at: Option<Duration>, stop_sending: Duration) -> Vec<Outcome> {
        let (addr, handle) = stub(stall_at);
        let mut conn = Conn::connect(addr).unwrap();
        let reqs: Vec<Request> = schedule(1000, 500.0, Duration::ZERO)
            .into_iter()
            .map(|due| Request { due, line: "count M(3,2) 600 0".into() })
            .collect();
        let pace = Pace { cap: 64, stop_sending, give_up: Duration::from_secs(30) };
        let outcomes = conn.drive(&reqs, Instant::now(), pace).unwrap();
        conn.stream.write_all(b"quit\n").unwrap();
        handle.join().unwrap();
        outcomes
    }

    /// Sorted latencies and lags of `outcomes`, in milliseconds.
    fn latencies_and_lags(outcomes: &[Outcome]) -> (Vec<f64>, Vec<f64>) {
        let lat = sorted(outcomes.iter().map(Outcome::latency_ms).collect());
        let lag = sorted(outcomes.iter().map(Outcome::lag_ms).collect());
        (lat, lag)
    }

    #[test]
    fn a_mid_run_stall_shows_in_the_latency_tail_and_in_lag() {
        let whole_run = Duration::from_secs(60);
        let base = run(None, whole_run);
        let stalled = run(Some(Duration::from_millis(500)), whole_run);
        for outcomes in [&base, &stalled] {
            assert_eq!(outcomes.len(), 1000);
            assert!(outcomes.iter().all(|o| o.status == Status::Ok));
        }
        let (base_lat, base_lag) = latencies_and_lags(&base);
        let (lat, lag) = latencies_and_lags(&stalled);
        let stall_ms = STALL.as_secs_f64() * 1e3;
        // Every request due during the stall waits out the rest of it, so
        // p99 rises by the stall less the 1% of the run (20 ms) whose
        // requests p99 may rank above it, and a few request intervals
        // (2 ms each) of slack; the worst request waits the whole stall.
        let p99_rise = percentile(&lat, 99.0) - percentile(&base_lat, 99.0);
        assert!(p99_rise >= stall_ms - 20.0 - 10.0, "p99 rose by only {p99_rise} ms");
        assert!(lat[lat.len() - 1] >= stall_ms, "max latency {}", lat[lat.len() - 1]);
        // With at most 64 requests in flight the generator must wait
        // for the stalled endpoint, and says so in its lag.
        assert!(percentile(&lag, 99.0) >= stall_ms / 2.0, "lag p99 {}", percentile(&lag, 99.0));
        assert!(percentile(&base_lag, 99.0) < stall_ms / 10.0);
    }

    #[test]
    fn requests_a_stall_keeps_unsent_until_sending_stops_count_as_timeouts() {
        // Sending stops 1 s in, while the stall (0.5 s to 1.5 s) holds the
        // 64 requests in flight: the requests due from about 0.63 s to 1 s
        // are never sent.
        let stop = Duration::from_secs(1);
        let outcomes = run(Some(Duration::from_millis(500)), stop);
        assert_eq!(outcomes.len(), 500, "one outcome per request due before sending stopped");
        let unsent: Vec<&Outcome> =
            outcomes.iter().filter(|o| o.status == Status::Unsent).collect();
        assert!(unsent.len() >= 100, "only {} unsent", unsent.len());
        // They are the last ones due, each kept waiting until the give-up
        // time, so they make up the latency tail instead of leaving it.
        assert!(outcomes[500 - unsent.len()..].iter().all(|o| o.status == Status::Unsent));
        assert!(unsent.iter().all(|o| o.latency_ms() >= 29_000.0));
        let (lat, _) = latencies_and_lags(&outcomes);
        assert!(percentile(&lat, 90.0) >= 29_000.0);
    }
}
