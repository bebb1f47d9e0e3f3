//! Scheduler accounting read from `/proc`, from outside the program.
//!
//! `/proc/self/task/<tid>/schedstat` gives each live thread's time on a
//! CPU and time runnable-but-waiting on a run queue, in nanoseconds.
//! Deltas over a phase, grouped by the thread names the program gives its
//! threads (`dtt-serve-ev*`, `dtt-serve-engine`, `dtt-worker-*`, …), give
//! each layer's busy share and run-queue-wait share. Every reader returns
//! `None` where the file is absent, and callers then omit the metric.

use std::collections::BTreeMap;
use std::fs;

/// Per-thread `(name, on-cpu ns, run-queue wait ns)` at one instant.
pub struct TaskTimes(BTreeMap<u64, (String, u64, u64)>);

impl TaskTimes {
    pub fn read() -> Option<TaskTimes> {
        let mut tasks = BTreeMap::new();
        for entry in fs::read_dir("/proc/self/task").ok()? {
            let path = entry.ok()?.path();
            let Some(tid) = path.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
                continue;
            };
            // A thread can exit between the directory listing and the
            // reads; it simply drops out of the snapshot.
            let (Ok(comm), Ok(sched)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("schedstat")),
            ) else {
                continue;
            };
            let mut fields = sched.split_whitespace().map(|f| f.parse::<u64>().ok());
            let (Some(Some(run)), Some(Some(wait))) = (fields.next(), fields.next()) else {
                continue;
            };
            tasks.insert(tid, (comm.trim().to_string(), run, wait));
        }
        (!tasks.is_empty()).then_some(TaskTimes(tasks))
    }

    /// Busy and run-queue-wait shares of the threads whose name starts
    /// with `prefix` and that were alive at both snapshots, over a phase
    /// of `wall_ns`: `(Σ on-cpu, Σ waiting) / (wall × threads)`.
    pub fn shares(&self, later: &TaskTimes, prefix: &str, wall_ns: f64) -> Option<(f64, f64)> {
        let (mut run, mut wait, mut threads) = (0u64, 0u64, 0u32);
        for (tid, (name, run1, wait1)) in &later.0 {
            if !name.starts_with(prefix) {
                continue;
            }
            if let Some((_, run0, wait0)) = self.0.get(tid) {
                run += run1.saturating_sub(*run0);
                wait += wait1.saturating_sub(*wait0);
                threads += 1;
            }
        }
        let den = wall_ns * f64::from(threads);
        (threads > 0 && den > 0.0).then(|| (run as f64 / den, wait as f64 / den))
    }
}

/// On-cpu nanoseconds of the calling thread so far.
pub fn thread_run_ns() -> Option<u64> {
    let sched = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    sched.split_whitespace().next()?.parse().ok()
}

/// User + system CPU of the whole process, including threads that have
/// already exited, in nanoseconds (clock-tick resolution).
pub fn process_cpu_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI.
    Some((utime + stime) * 10_000_000)
}

/// `(steal, total)` CPU time of the whole machine in clock ticks: the
/// time the hypervisor ran something else while this VM's CPUs wanted to
/// run, out of all CPU time.
pub fn machine_steal() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Peak resident set size of the process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
