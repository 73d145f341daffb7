//! Readers for the Linux `/proc` files the benchmark measures from outside
//! the program: per-thread CPU and run-queue wait, peak memory, steal time,
//! the timer slack of the load generator, and the host fingerprint.

use std::fs;
use std::path::Path;

/// CPU and run-queue time of one thread, from its `schedstat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_ns: u64,
}

impl SchedStat {
    fn read(path: &Path) -> Option<Self> {
        let text = fs::read_to_string(path).ok()?;
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        Some(Self {
            cpu_ns: fields.next()??,
            runq_ns: fields.next()??,
        })
    }

    /// `self - earlier`, saturating (a respawned thread restarts at 0).
    pub fn since(self, earlier: Self) -> Self {
        Self {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }

    /// Sum of two readings.
    pub fn plus(self, other: Self) -> Self {
        Self {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            runq_ns: self.runq_ns + other.runq_ns,
        }
    }
}

/// The calling thread's CPU and run-queue time.
///
/// The kernel brings a running thread's `schedstat` up to date only at a
/// scheduler tick or switch, so the reading would lag by up to a tick
/// (4 ms at 250 Hz). Yielding first makes the scheduler account the time
/// run so far.
pub fn this_thread() -> SchedStat {
    std::thread::yield_now();
    SchedStat::read(Path::new("/proc/thread-self/schedstat")).unwrap_or_default()
}

/// One thread of this process: its id, name (`comm`) and times.
#[derive(Clone, Debug)]
pub struct TaskStat {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name as set by `std::thread::Builder::name` (15 bytes max).
    pub comm: String,
    /// CPU and run-queue time so far.
    pub sched: SchedStat,
}

/// Every live thread of this process, sorted by thread id.
pub fn tasks() -> Vec<TaskStat> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        if let Some(sched) = SchedStat::read(&path.join("schedstat")) {
            out.push(TaskStat {
                tid,
                comm: comm.trim().to_string(),
                sched,
            });
        }
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// Summed time, between two [`tasks`] readings, of the threads whose name
/// passes `keep`. Threads are matched by id, so one that started after
/// `before` counts from zero.
pub fn threads_since(
    before: &[TaskStat],
    after: &[TaskStat],
    keep: impl Fn(&str) -> bool,
) -> SchedStat {
    after
        .iter()
        .filter(|t| keep(&t.comm))
        .map(|t| {
            let base = before
                .iter()
                .find(|b| b.tid == t.tid)
                .map(|b| b.sched)
                .unwrap_or_default();
            t.sched.since(base)
        })
        .fold(SchedStat::default(), SchedStat::plus)
}

/// Summed time of every thread of the process between two readings.
pub fn all_threads_since(before: &[TaskStat], after: &[TaskStat]) -> SchedStat {
    threads_since(before, after, |_| true)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset the peak resident set size to the current one, so a later
/// [`peak_rss_mb`] covers only what happens from here on (and reads the
/// current size right after the reset).
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Whole-machine CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    /// Sum of every tick column.
    pub total: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

/// Read the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> CpuTicks {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuTicks::default();
    };
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so only the first eight add up.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTicks {
        total: ticks.iter().sum(),
        steal: ticks.get(7).copied().unwrap_or(0),
    }
}

/// Share of machine time stolen between two readings.
pub fn steal_frac(before: CpuTicks, after: CpuTicks) -> f64 {
    crate::stats::ratio(
        after.steal.saturating_sub(before.steal) as f64,
        after.total.saturating_sub(before.total) as f64,
    )
}

/// Set the timer slack of the process's main thread. Threads spawned from
/// it afterwards inherit the value; threads that already exist keep
/// theirs. Must be called on the main thread (the kernel lets a thread
/// change only its own slack without `CAP_SYS_NICE`).
pub fn set_main_thread_timer_slack(ns: u64) -> std::io::Result<()> {
    fs::write("/proc/self/timerslack_ns", ns.to_string())
}

/// The calling thread's timer slack in nanoseconds, when readable.
/// `timerslack_ns` exists only at `/proc/<id>/`, so the thread id is taken
/// from the `/proc/thread-self` link (`<pid>/task/<tid>`).
pub fn timer_slack_ns() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    let tid = link.file_name()?.to_str()?.to_string();
    fs::read_to_string(format!("/proc/{tid}/timerslack_ns"))
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// Online cores as the process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The kernel release string.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
