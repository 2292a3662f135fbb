//! Ownership of the `graphserve` process: spawn, readiness, memory
//! high-water mark, CPU time and teardown.
//!
//! The harness owns every server it starts:
//! - the child gets `PR_SET_PDEATHSIG = SIGKILL`, so it dies with the
//!   harness even when the harness itself is killed;
//! - [`Server`]'s `Drop` kills and reaps it on every exit path, panics
//!   included;
//! - each live server leaves a pid file in the registry directory, and a
//!   run refuses to start while one of those servers is still alive.
//!
//! Readiness is read from the server's stderr ("graphserve listening on
//! http://…"): a blocking pipe read, so set-up time carries no polling
//! granularity.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
}

/// A `cpu_set_t` (1,024 CPUs).
type CpuSet = [u64; 16];

/// The lowest-numbered CPU the calling thread may run on.
pub fn first_cpu() -> usize {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) } != 0 {
        return 0;
    }
    (0..1024)
        .find(|&c| set[c / 64] & (1 << (c % 64)) != 0)
        .unwrap_or(0)
}

/// Restricts thread `tid` (0: the calling thread) to CPU `cpu`.
pub fn pin(tid: i32, cpu: usize) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(tid, std::mem::size_of_val(&set), set.as_ptr()) } != 0 {
        return Err(format!(
            "pinning thread {tid} to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds on a clock; 0 if it cannot be read (a process that is gone).
fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running server, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
    pidfile: PathBuf,
    log: Option<JoinHandle<Vec<String>>>,
}

/// Start time of a live (not zombie) `pid` in clock ticks since boot
/// (field 22 of `/proc/<pid>/stat`), which tells it from a reused pid.
fn start_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    if matches!(fields.next(), Some("Z" | "X")) {
        return None;
    }
    fields.nth(18)?.parse().ok()
}

/// Refuses to run while a server spawned by an earlier run is alive;
/// clears pid files of servers that are gone.
pub fn check_no_leaked(registry: &Path) -> Result<(), String> {
    std::fs::create_dir_all(registry).map_err(|e| format!("{}: {e}", registry.display()))?;
    let entries = std::fs::read_dir(registry).map_err(|e| e.to_string())?;
    for entry in entries.flatten() {
        let path = entry.path();
        let pid: Option<u32> = path.file_name().and_then(|n| n.to_str()?.parse().ok());
        let recorded: Option<u64> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| s.trim().parse().ok());
        if let (Some(pid), Some(recorded)) = (pid, recorded) {
            if start_ticks(pid) == Some(recorded) {
                return Err(format!(
                    "a graphserve started by an earlier benchmark run is still alive \
                     (pid {pid}); stop it before benchmarking"
                ));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    Ok(())
}

impl Server {
    /// Spawns `bin` on an ephemeral loopback port and blocks until it is
    /// listening. Recorded in `registry` while alive.
    pub fn spawn(bin: &Path, args: &[String], registry: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // SAFETY: prctl is async-signal-safe and touches no Rust state.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pidfile = registry.join(child.id().to_string());
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
            pidfile,
            log: None,
        };
        if let Some(ticks) = start_ticks(server.child.id()) {
            let _ = std::fs::write(&server.pidfile, ticks.to_string());
        }
        let mut reader = BufReader::new(stderr);
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    return Err(format!(
                        "graphserve exited before listening:\n{}",
                        lines.join("")
                    ))
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                server.addr = rest
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad listen address {rest:?}: {e}"))?;
                break;
            }
            lines.push(line);
        }
        // Keep draining stderr so the server never blocks on a full pipe.
        server.log = Some(std::thread::spawn(move || {
            let mut rest = lines;
            for line in reader.lines().map_while(Result::ok) {
                rest.push(line);
            }
            rest
        }));
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn hwm_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// CPU time of the whole server process (every thread, those that
    /// already ended included), in nanoseconds: its scheduler clock,
    /// `MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`. Time the hypervisor
    /// gave to another guest (steal) is not charged to it.
    pub fn cpu_ns(&self) -> u64 {
        clock_ns((!(self.child.id() as i32) << 3) | 2)
    }

    /// Restricts every thread of the server to CPU `cpu`; threads it
    /// starts later inherit the restriction from the thread starting them.
    pub fn pin(&self, cpu: usize) -> Result<(), String> {
        let tasks = format!("/proc/{}/task", self.child.id());
        let entries = std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))?;
        for entry in entries.flatten() {
            if let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) {
                pin(tid, cpu)?;
            }
        }
        Ok(())
    }

    /// Resets `VmHWM` to the current RSS (`5` → `/proc/<pid>/clear_refs`).
    pub fn reset_hwm(&self) -> Result<(), String> {
        std::fs::write(format!("/proc/{}/clear_refs", self.child.id()), "5")
            .map_err(|e| format!("resetting VmHWM: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
        let _ = std::fs::remove_file(&self.pidfile);
    }
}
