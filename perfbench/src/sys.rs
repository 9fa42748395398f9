//! The host side: peak RSS, waiting on a child with its resource usage,
//! and the result stamp (host, commit, toolchain).

use std::process::Child;
use std::time::{Duration, Instant};

/// Hands freed heap back to the OS, so a pass's peak RSS does not
/// include memory an earlier pass freed but the allocator kept.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns unused heap pages
        // to the kernel; it takes no pointer and is thread-safe.
        unsafe { malloc_trim(0) };
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// RSS, so the next reading covers only what runs after it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak resident set (`VmHWM`), KiB.
pub fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// The host's (steal, total) CPU ticks from `/proc/stat`: time the
/// hypervisor gave this VM's CPUs to others while they had work.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// How a waited-for child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// `true` when it exited with status 0 before the deadline.
    pub success: bool,
    /// Peak RSS of the child and every descendant it waited for, KiB.
    pub max_rss_kib: u64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and calls wait4: it builds on 64-bit Linux only");

mod ffi {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` is the first.
    #[repr(C)]
    pub struct RUsage {
        pub ru_utime: [i64; 2],
        pub ru_stime: [i64; 2],
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const WNOHANG: i32 = 1;
    pub const SIGKILL: i32 = 9;

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }
}

/// Waits for `child` (spawned as the leader of its own process group)
/// and reports its exit and peak RSS. Past `timeout` the whole group is
/// killed and the exit counts as a failure.
///
/// `wait4` reports the child's own peak RSS or that of the largest
/// descendant it reaped, whichever is larger: for the coordinator,
/// the maximum over it and its workers.
pub fn wait_with_rusage(child: Child, timeout: Duration) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let deadline = Instant::now() + timeout;
    let mut killed = false;
    loop {
        let mut status = 0i32;
        let mut usage = ffi::RUsage {
            ru_utime: [0; 2],
            ru_stime: [0; 2],
            ru_maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`int` and 64-bit `struct rusage`); `pid` is
        // our own unreaped child, so no other process is affected.
        let reaped = unsafe { ffi::wait4(pid, &mut status, ffi::WNOHANG, &mut usage) };
        if reaped == pid {
            // The child is reaped; `Child` has nothing left to wait for.
            drop(child);
            let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
            return Ok(Exit {
                success: exited_zero && !killed,
                max_rss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0),
            });
        }
        if reaped < 0 {
            return Err(std::io::Error::last_os_error());
        }
        if !killed && Instant::now() > deadline {
            // SAFETY: plain syscall; a negative pid names the child's own
            // process group, which holds only the child and its workers.
            unsafe { ffi::kill(-pid, ffi::SIGKILL) };
            killed = true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp every result carries, as JSON.
pub fn stamp(
    workload: &str,
    seed: u64,
    threads: usize,
    processes: usize,
    extra: &[(&str, String)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let mut fields = vec![
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", format!("\"{}\"", cpu_model().replace('"', "'"))),
        ("commit", format!("\"{commit}\"")),
        ("rustc", format!("\"{}\"", rustc.replace('"', "'"))),
        ("threads", threads.to_string()),
        ("processes", processes.to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}
