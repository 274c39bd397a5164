//! Reads a process's CPU time, context switches, threads and peak
//! memory from `/proc`, from outside the process.

use std::fs;

use crate::stats::{parse_ctx_switches, parse_stat_ticks, parse_status_kb, sum_tasks, TaskSample};

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// mainstream Linux ABI).
pub const TICKS_PER_SEC: f64 = 100.0;

/// The process's threads, summed: CPU ticks and context switches over
/// every live task, plus the task count.
pub fn tasks(pid: u32) -> (TaskSample, usize) {
    let mut samples = Vec::new();
    if let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) {
        for entry in dir.flatten() {
            let path = entry.path();
            let stat = fs::read_to_string(path.join("stat")).unwrap_or_default();
            let status = fs::read_to_string(path.join("status")).unwrap_or_default();
            if let (Some(cpu_ticks), Some(ctx_switches)) =
                (parse_stat_ticks(&stat), parse_ctx_switches(&status))
            {
                samples.push(TaskSample {
                    cpu_ticks,
                    ctx_switches,
                });
            }
        }
    }
    (sum_tasks(&samples), samples.len())
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kb(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// This process's user plus system CPU time, in seconds (every thread,
/// exited ones included).
pub fn self_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SEC)
}
