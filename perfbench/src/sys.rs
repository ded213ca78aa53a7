//! Facts about the host and this process, read from procfs.

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name, or "unknown" where procfs does not say.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// CPU seconds this process has used so far, all its threads together,
/// exited ones included (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor
/// stole from the CPUs is not charged to the process, so unlike wall time
/// this does not swing with other tenants of the host.
pub fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    // Linux's clock id for the process CPU-time clock.
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host-wide CPU ticks: `(stolen, total)` from the first line of
/// `/proc/stat`. Stolen ticks are time the hypervisor ran something else
/// on this machine's CPUs; their share over a run explains run-to-run
/// swings of every wall-clock metric.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings (`None`
/// where procfs does not say).
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}
