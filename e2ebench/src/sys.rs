//! Processes under test: one-shot CLI jobs (timed, with their peak RSS)
//! and `flowmotif serve` children (address discovery, VmHWM, stop).

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A finished CLI job.
pub struct Job {
    pub wall: Duration,
    /// Peak resident set size of the job, in MiB.
    pub rss_mb: f64,
    pub stdout: String,
}

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux: two
/// `timeval`s, then fourteen `long` counters starting with `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `bin args…` to completion and returns its wall time, peak RSS
/// and standard output. A non-zero exit is an error.
pub fn run_job(bin: &Path, args: &[&str]) -> io::Result<Job> {
    // A child starts out with its parent's peak RSS as its own: Linux
    // records the high-water mark of the address space an `exec`
    // replaces, which for a child spawned sharing ours is the harness's.
    // Resetting ours to its current size first keeps the harness's own
    // peak (a loaded graph) out of the job's `ru_maxrss`.
    std::fs::write("/proc/self/clear_refs", "5")?;
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = String::new();
    child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout)?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss_kb: 0, rest: [0; 13] };
    // SAFETY: `pid` is our own unreaped child (std has not waited on
    // it), and both out-pointers refer to live, writable locals of the
    // C layout `wait4` expects. `child` is never waited on afterwards.
    let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if r != pid {
        return Err(io::Error::last_os_error());
    }
    let wall = started.elapsed();
    // WIFEXITED && WEXITSTATUS == 0
    if status & 0x7f != 0 || (status >> 8) & 0xff != 0 {
        return Err(io::Error::other(format!(
            "{} {args:?} failed: wait status {status}",
            bin.display()
        )));
    }
    Ok(Job { wall, rss_mb: usage.maxrss_kb as f64 / 1024.0, stdout })
}

/// A running `flowmotif serve` child, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin serve args… --port 0` and waits for its
    /// `listening on <addr>` line.
    pub fn start(bin: &Path, args: &[&str]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line)?;
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                child.kill().ok();
                child.wait().ok();
                Err(io::Error::other(format!("serve did not report its address: {line:?}")))
            }
        }
    }

    /// Peak resident set size so far (`VmHWM`), in MiB.
    pub fn vm_hwm_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small job reports its own peak RSS, not the larger one the
    /// harness reached before spawning it.
    #[test]
    fn a_job_does_not_inherit_the_harness_peak_rss() {
        let big = vec![1u8; 256 << 20];
        assert!(big.iter().step_by(4096).all(|&b| b == 1)); // touch every page
        drop(big);
        let job = run_job(Path::new("true"), &[]).unwrap();
        assert!(job.rss_mb < 64.0, "`true` reported {} MiB", job.rss_mb);
    }
}
