//! Running one child process at a time and measuring it from outside:
//! wall-clock from spawn to exit, peak resident set, CPU time.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that does not exit within this long fails the run.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// What the kernel reported about one finished child.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildStats {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
}

impl ChildStats {
    /// Folds one more piece of a repetition in: times add up, the peak
    /// is the largest piece's.
    pub fn add_piece(&mut self, piece: &ChildStats) {
        self.wall_s += piece.wall_s;
        self.cpu_s += piece.cpu_s;
        self.peak_rss_mb = self.peak_rss_mb.max(piece.peak_rss_mb);
    }
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const WNOHANG: i32 = 1;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Runs `cmd` to completion with stdout redirected to `stdout_to` and
/// stderr inherited, reaping it with `wait4` so the kernel's own
/// accounting (peak RSS, CPU time) of exactly this child is returned.
///
/// # Errors
///
/// Fails when the child cannot be spawned, exits non-zero, is killed by
/// a signal, or outlives [`CHILD_TIMEOUT`].
pub fn run_child(cmd: &mut Command, stdout_to: &Path) -> Result<ChildStats, String> {
    let out = File::create(stdout_to).map_err(|e| format!("{}: {e}", stdout_to.display()))?;
    let label = format!("{:?}", cmd);
    let started = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .spawn()
        .map_err(|e| format!("cannot spawn {label}: {e}"))?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid for writes for the whole
        // call, `Rusage` has the layout of the kernel's `struct rusage`
        // on 64-bit Linux, and `pid` is our own un-reaped child (std
        // never waits on a `Child` we do not call `wait` on).
        let reaped = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
        if reaped == pid {
            break;
        }
        if reaped < 0 {
            return Err(format!("wait4 failed for {label}"));
        }
        if started.elapsed() > CHILD_TIMEOUT {
            // SAFETY: plain syscalls on our own child; the blocking
            // `wait4` reaps it so no zombie outlives the harness.
            unsafe {
                kill(pid, 9);
                wait4(pid, &mut status, 0, &mut usage);
            }
            return Err(format!("{label} timed out after {CHILD_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall_s = started.elapsed().as_secs_f64();
    // WIFEXITED && WEXITSTATUS == 0
    if status & 0x7f != 0 || (status >> 8) & 0xff != 0 {
        return Err(format!("{label} failed (wait status {status:#x})"));
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(ChildStats {
        wall_s,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        cpu_s: secs(usage.utime) + secs(usage.stime),
    })
}
