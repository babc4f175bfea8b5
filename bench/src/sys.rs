//! What the harness reads from and measures about the machine: peak RSS,
//! the result header's fingerprint, and the `ceiling.*` numbers each layer
//! is reported against.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// `VmHWM` (peak resident set, KiB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set in MiB; 0.0 where `/proc` has none.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Where the numbers were taken. They are this sandbox's, not a device's.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// The cargo profile the harness and the layers were built with.
    pub profile: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Fingerprint {
    /// Reads the fingerprint of the machine and checkout it runs in.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (debug = true, as the root manifest)"
            },
        }
    }
}

/// Share of its stated budget every probe gets: 1 in a full-length run,
/// less when `--seconds` (or `--quick`) shortens the run. Set once, when a
/// child starts.
static PROBE_SCALE: std::sync::OnceLock<f64> = std::sync::OnceLock::new();

/// Scales every later [`median_over`] budget by `scale`.
pub fn set_probe_scale(scale: f64) {
    let _ = PROBE_SCALE.set(scale.clamp(0.0, 1.0));
}

/// Runs `f` repeatedly for about `budget_s` seconds of a full-length run
/// (at least once) and returns the median of the values it returns.
pub fn median_over(budget_s: f64, mut f: impl FnMut() -> f64) -> f64 {
    let budget_s = budget_s * PROBE_SCALE.get().copied().unwrap_or(1.0);
    let start = Instant::now();
    let mut values = Vec::new();
    loop {
        values.push(f());
        if start.elapsed().as_secs_f64() >= budget_s {
            return crate::stats::median(&mut values);
        }
    }
}

/// Ceiling for `rlz.expand`: GB/s of document-sized (16 KiB) copies out of
/// a dictionary-sized resident buffer into a reused output buffer — the
/// work factor expansion would do if every document were one factor.
pub fn memcpy_gb_s(dict_len: usize) -> f64 {
    const CHUNK: usize = 16 << 10;
    let src: Vec<u8> = (0..dict_len.max(2 * CHUNK)).map(|i| i as u8).collect();
    let mut out: Vec<u8> = Vec::with_capacity(CHUNK);
    let span = src.len() - CHUNK;
    median_over(0.05, || {
        let start = Instant::now();
        let mut at = 0usize;
        for _ in 0..1024 {
            out.clear();
            out.extend_from_slice(black_box(&src[at..at + CHUNK]));
            black_box(&out);
            at = (at + 7919 * 64) % span;
        }
        (1024 * CHUNK) as f64 / start.elapsed().as_nanos() as f64
    })
}

/// Ceiling for `store.read`: µs per 4 KiB positioned read of `file` at
/// scattered offsets. The file is OS-cached, as the store's payload is.
pub fn pread_4k_us(file: &Path) -> std::io::Result<f64> {
    let f = std::fs::File::open(file)?;
    let len = f.metadata()?.len();
    let span = len.saturating_sub(4096).max(1);
    let mut buf = [0u8; 4096];
    let want = buf.len().min(len as usize);
    let mut failed = None;
    let us = median_over(0.05, || {
        let start = Instant::now();
        let mut at = 0u64;
        for _ in 0..512 {
            if let Err(e) = f.read_exact_at(&mut buf[..want], at) {
                failed = Some(e);
            }
            black_box(&buf);
            at = (at + 1_000_003 * 4096) % span;
        }
        start.elapsed().as_nanos() as f64 / 512.0 / 1e3
    });
    failed.map_or(Ok(us), Err)
}

/// Ceiling for `serve.socket`: µs per closed-loop round trip of a 9-byte
/// request and a `reply_len`-byte reply over loopback TCP against a thread
/// that does nothing else — the sockets, syscalls and wake-ups with no
/// server behind them.
pub fn loopback_rtt_us(reply_len: usize) -> std::io::Result<f64> {
    // About 32 MiB of replies in all, whatever their size.
    let rounds = ((32 << 20) / reply_len.max(1)).clamp(100, 2000);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut req = [0u8; 9];
        let reply = vec![0u8; reply_len];
        for _ in 0..rounds {
            s.read_exact(&mut req)?;
            s.write_all(&reply)?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    let mut reply = vec![0u8; reply_len];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        c.write_all(&[0u8; 9])?;
        c.read_exact(&mut reply)?;
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    echo.join().expect("echo thread panicked")?;
    Ok(crate::stats::median(&mut samples))
}

/// Ceiling for `store.fsync`: µs per 4 KiB append + `fdatasync` on a
/// scratch file in `dir`.
pub fn fsync_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe.tmp");
    let mut f = std::fs::File::create(&path)?;
    let block = [0u8; 4096];
    let mut samples = Vec::with_capacity(32);
    for _ in 0..32 {
        let start = Instant::now();
        f.write_all(&block)?;
        f.sync_data()?;
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(crate::stats::median(&mut samples))
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// `cpu`; returns whether the kernel agreed (it refuses a CPU the machine
/// does not have, and the run then goes on unpinned).
///
/// Why every measuring child pins itself to one CPU: on this 2-vCPU
/// sandbox the scheduler leaves two busy threads on one CPU for an eighth
/// of the time, waking a halted vCPU costs 3 us or 20 us depending on the
/// host, and two threads busy on both vCPUs run at the host's mercy (the
/// same PUT loop 2 000 or 2 700 times a second beside a reader on the
/// other vCPU). With one CPU, one thread of the measurement runs at a
/// time and none of that happens; see the README.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live array
    // of exactly the `size_of_val(&mask)` bytes the kernel is told to read.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_a_status_file() {
        let status =
            "Name:\tyardstick\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
    }

    #[test]
    fn vm_hwm_rejects_what_it_cannot_read() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib(""), None);
    }

    #[test]
    fn own_peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }

    #[test]
    fn pinning_takes_a_cpu_the_machine_has_and_refuses_one_it_has_not() {
        // Affinity is per thread, so only this test's thread is pinned.
        assert!(pin_to_cpu(0));
        assert!(!pin_to_cpu(1023));
        assert!(!pin_to_cpu(1 << 20));
    }

    #[test]
    fn median_over_runs_at_least_once() {
        let mut calls = 0;
        let m = median_over(0.0, || {
            calls += 1;
            4.0
        });
        assert_eq!((m, calls), (4.0, 1));
    }
}
