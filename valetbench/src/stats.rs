//! The benchmark's own arithmetic: percentiles and the sample counts
//! behind them, the SLO step rule, request accounting, and `/proc`
//! summing. Everything here is a pure function, unit-tested below.

/// Percentiles a tail may be reported at, highest last.
pub const TAIL_CANDIDATES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q` percentile (`q` in `[0, 1]`) among
/// `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(nearest_rank(n, q))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A latency sample set in which failed requests count as infinitely
/// slow: a request that was never answered correctly misses every limit.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    sorted_us: Vec<f64>,
    failed: usize,
}

impl Latencies {
    /// Builds the set from answered latencies (µs) and a failure count.
    pub fn new(mut answered_us: Vec<f64>, failed: usize) -> Latencies {
        answered_us.sort_by(f64::total_cmp);
        Latencies {
            sorted_us: answered_us,
            failed,
        }
    }

    /// Requests counted: answered plus failed.
    pub fn count(&self) -> usize {
        self.sorted_us.len() + self.failed
    }

    /// Nearest-rank percentile over all requests; `f64::INFINITY` when
    /// the rank falls among the failures.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.count();
        assert!(n > 0, "percentile of no requests");
        let rank = nearest_rank(n, q);
        if rank <= self.sorted_us.len() {
            self.sorted_us[rank - 1]
        } else {
            f64::INFINITY
        }
    }
}

/// Requests per latency window: the fewest that leave ten samples
/// beyond the p99.
pub const WINDOW_REQUESTS: usize = 1_000;

/// Median over consecutive windows of [`WINDOW_REQUESTS`] requests (send
/// order; a short tail joins the last window) of each window's p50 and
/// p99. `None` latencies are failed requests. Returns `(p50, p99,
/// windows)`; a run shorter than one window is one window.
///
/// # Panics
/// Panics on an empty slice.
pub fn windowed_percentiles(latencies: &[Option<f64>]) -> (f64, f64, usize) {
    assert!(!latencies.is_empty(), "no requests to window");
    let windows = (latencies.len() / WINDOW_REQUESTS).max(1);
    let (mut p50s, mut p99s) = (Vec::with_capacity(windows), Vec::with_capacity(windows));
    for w in 0..windows {
        let end = if w + 1 == windows {
            latencies.len()
        } else {
            (w + 1) * WINDOW_REQUESTS
        };
        let slice = &latencies[w * WINDOW_REQUESTS..end];
        let answered: Vec<f64> = slice.iter().flatten().copied().collect();
        let lat = Latencies::new(answered, slice.iter().filter(|l| l.is_none()).count());
        p50s.push(lat.percentile(0.5));
        p99s.push(lat.percentile(0.99));
    }
    (median(&p50s), median(&p99s), windows)
}

/// One open-loop rate step of the SLO ladder, as measured.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Answered requests per second of the step's schedule.
    pub achieved_rps: f64,
    /// p99 latency (µs) with failures counted as infinitely slow.
    pub p99_us: f64,
    /// Whether requests in flight grew through the step.
    pub backlog_growing: bool,
}

impl StepOutcome {
    /// Whether the step meets `limit_us` without a growing backlog.
    pub fn meets(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us && !self.backlog_growing
    }
}

/// The highest rate meeting the limit: the highest step that meets it,
/// moved up to where p99 crosses the limit when the next step misses on
/// latency alone (linear interpolation of p99 against achieved rate, as
/// one reads the paper's figures). 0 when no step meets the limit.
pub fn slo_rate(steps: &[StepOutcome], limit_us: f64) -> f64 {
    let Some(i) = (0..steps.len()).rev().find(|&i| steps[i].meets(limit_us)) else {
        return 0.0;
    };
    let pass = &steps[i];
    match steps.get(i + 1) {
        Some(next)
            if !next.backlog_growing
                && next.p99_us.is_finite()
                && next.p99_us > pass.p99_us
                && next.achieved_rps > pass.achieved_rps =>
        {
            let t = (limit_us - pass.p99_us) / (next.p99_us - pass.p99_us);
            pass.achieved_rps + t * (next.achieved_rps - pass.achieved_rps)
        }
        _ => pass.achieved_rps,
    }
}

/// Whether a backlog grew: `in_flight` holds the requests outstanding at
/// each send, in send order. The backlog grows when the mean of the last
/// third exceeds twice the first third's plus `slack` (the server's
/// worker count: that many requests in flight are service, not queue).
pub fn backlog_growing(in_flight: &[u32], slack: f64) -> bool {
    let third = in_flight.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |xs: &[u32]| xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64;
    let first = mean(&in_flight[..third]);
    let last = mean(&in_flight[in_flight.len() - third..]);
    last > 2.0 * first + slack
}

/// A send late by more than this beyond the sender's own wait for a CPU
/// is a host stall.
pub const HOST_STALL_NS: u64 = 500_000;

/// The host stall in a send's lateness (ns): `late_ns` minus `waited_ns`,
/// the sender's run delay (time runnable but waiting for a CPU) over the
/// same wake-up, when that exceeds [`HOST_STALL_NS`]; else 0. Without a
/// run delay reading no lateness counts as a stall.
pub fn host_stall_ns(late_ns: u64, waited_ns: Option<u64>) -> u64 {
    match waited_ns {
        Some(waited) if late_ns.saturating_sub(waited) > HOST_STALL_NS => late_ns - waited,
        _ => 0,
    }
}

/// Whether a request sent at `sent_ns` and answered at `recv_ns` was in
/// flight during one of `stalls`: time-ordered, non-overlapping spans
/// that each hold a host stall. An unanswered request (`recv_ns` 0)
/// never is.
pub fn overlaps_stall(stalls: &[(u64, u64)], sent_ns: u64, recv_ns: u64) -> bool {
    let first_ending_after = stalls.partition_point(|&(_, end)| end <= sent_ns);
    stalls
        .get(first_ending_after)
        .is_some_and(|&(start, _)| start < recv_ns)
}

/// What came back for one issued request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answer {
    /// Responses carrying this request id.
    pub responses: u32,
    /// Whether every response echoed the request's fields intact.
    pub intact: bool,
}

/// Requests not answered exactly once with an intact echo, plus
/// responses naming no issued request.
pub fn failed_requests(answers: &[Answer], stray_responses: u64) -> u64 {
    answers
        .iter()
        .filter(|a| a.responses != 1 || !a.intact)
        .count() as u64
        + stray_responses
}

/// CPU ticks and context switches of one task (thread), from
/// `/proc/<pid>/task/<tid>/{stat,status}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskSample {
    /// User plus system time, in clock ticks.
    pub cpu_ticks: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Parses `utime + stime` (fields 14 and 15) from a `stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parses voluntary plus involuntary context switches from a `status`
/// file.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    let field = |name: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))?
            .trim()
            .parse()
            .ok()
    };
    Some(field("voluntary_ctxt_switches:")? + field("nonvoluntary_ctxt_switches:")?)
}

/// Parses a `kB` field such as `VmHWM:` from a `status` file.
pub fn parse_status_kb(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Sums per-task samples into the process total.
pub fn sum_tasks(tasks: &[TaskSample]) -> TaskSample {
    tasks
        .iter()
        .fold(TaskSample::default(), |acc, t| TaskSample {
            cpu_ticks: acc.cpu_ticks + t.cpu_ticks,
            ctx_switches: acc.ctx_switches + t.ctx_switches,
        })
}

/// FNV-1a 64-bit hash, hex-encoded: pins artifact bytes.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failed_requests_exceed_every_limit() {
        // 98 fast answers and 2 failures: p99 lands on a failure.
        let lat = Latencies::new(vec![10.0; 98], 2);
        assert_eq!(lat.count(), 100);
        assert_eq!(lat.percentile(0.98), 10.0);
        assert_eq!(lat.percentile(0.99), f64::INFINITY);
        let step = StepOutcome {
            achieved_rps: 980.0,
            p99_us: lat.percentile(0.99),
            backlog_growing: false,
        };
        assert!(!step.meets(1e12));
        // One failure in 100 stays below the p99 rank.
        let lat = Latencies::new(vec![10.0; 99], 1);
        assert_eq!(lat.percentile(0.99), 10.0);
    }

    fn step(achieved_rps: f64, p99_us: f64, backlog_growing: bool) -> StepOutcome {
        StepOutcome {
            achieved_rps,
            p99_us,
            backlog_growing,
        }
    }

    #[test]
    fn slo_rate_interpolates_to_the_crossing() {
        let steps = [
            step(2_000.0, 3_000.0, false),
            step(2_800.0, 6_000.0, false),
            step(3_200.0, 9_000.0, false),
            step(3_600.0, 25_000.0, false),
        ];
        // 9 ms at 3200 rps, 25 ms at 3600: 10 ms is 1/16 of the way.
        assert_eq!(slo_rate(&steps, 10_000.0), 3_225.0);
        assert_eq!(slo_rate(&steps, 1_000.0), 0.0);
        assert_eq!(slo_rate(&steps, 30_000.0), 3_600.0);
    }

    #[test]
    fn slo_rate_stops_at_a_growing_backlog() {
        // The next step misses through its backlog: no interpolation.
        let steps = [step(2_000.0, 3_000.0, false), step(2_800.0, 12_000.0, true)];
        assert_eq!(slo_rate(&steps, 10_000.0), 2_000.0);
        // A backlog disqualifies a step even under the limit.
        let steps = [step(2_000.0, 3_000.0, false), step(2_800.0, 5_000.0, true)];
        assert_eq!(slo_rate(&steps, 10_000.0), 2_000.0);
        // A failed request at the next step's p99 rank: no crossing.
        let steps = [
            step(2_000.0, 3_000.0, false),
            step(2_800.0, f64::INFINITY, false),
        ];
        assert_eq!(slo_rate(&steps, 10_000.0), 2_000.0);
    }

    #[test]
    fn windows_take_the_median_of_per_window_percentiles() {
        // Three windows of 1000: p99 is 10, 10 and 500 (a burst in the
        // last); the median window p99 ignores the burst.
        let mut lat: Vec<Option<f64>> = (0..3_000).map(|i| Some(1.0 + (i % 7) as f64)).collect();
        for i in 0..11 {
            lat[i * 97] = Some(10.0);
            lat[1_000 + i * 97] = Some(10.0);
        }
        for l in &mut lat[2_000..2_100] {
            *l = Some(500.0);
        }
        let (p50, p99, windows) = windowed_percentiles(&lat);
        assert_eq!(windows, 3);
        assert_eq!(p99, 10.0);
        assert_eq!(p50, 4.0);
        // A short tail joins the last window; failures are infinitely slow.
        let mut lat = vec![Some(1.0); 2_500];
        for l in &mut lat[2_480..] {
            *l = None;
        }
        let (_, p99, windows) = windowed_percentiles(&lat);
        assert_eq!(windows, 2);
        assert_eq!(p99, f64::INFINITY);
        assert_eq!(windowed_percentiles(&[Some(3.0)]), (3.0, 3.0, 1));
    }

    #[test]
    fn backlog_growth_detection() {
        let steady: Vec<u32> = (0..300).map(|i| 2 + (i % 5)).collect();
        assert!(!backlog_growing(&steady, 4.0));
        let growing: Vec<u32> = (0..300).map(|i| i / 10).collect();
        assert!(backlog_growing(&growing, 4.0));
        assert!(!backlog_growing(&[100, 0], 4.0), "too short to judge");
    }

    #[test]
    fn host_stall_is_lateness_not_spent_waiting_for_a_cpu() {
        // 6 ms late, 0.1 ms of it runnable: a 5.9 ms host stall.
        assert_eq!(host_stall_ns(6_000_000, Some(100_000)), 5_900_000);
        // 6 ms late, all of it waiting behind the guest's own threads.
        assert_eq!(host_stall_ns(6_000_000, Some(6_000_000)), 0);
        // A run delay above the lateness (it also counts time before
        // the sleep) is no stall.
        assert_eq!(host_stall_ns(200_000, Some(900_000)), 0);
        // Ordinary timer overshoot stays below the threshold.
        assert_eq!(host_stall_ns(HOST_STALL_NS, Some(0)), 0);
        assert_eq!(host_stall_ns(HOST_STALL_NS + 1, Some(0)), HOST_STALL_NS + 1);
        // No run delay reading: nothing is attributed to the host.
        assert_eq!(host_stall_ns(9_000_000, None), 0);
    }

    #[test]
    fn requests_in_flight_during_a_stall() {
        let stalls = [(1_000, 5_000), (9_000, 12_000)];
        // Sent before and answered during, inside, or after a span.
        assert!(overlaps_stall(&stalls, 500, 2_000));
        assert!(overlaps_stall(&stalls, 2_000, 3_000));
        assert!(overlaps_stall(&stalls, 4_000, 9_500));
        assert!(overlaps_stall(&stalls, 800, 20_000));
        // Answered before the first span, between spans, after the last.
        assert!(!overlaps_stall(&stalls, 100, 900));
        assert!(!overlaps_stall(&stalls, 5_000, 8_000));
        assert!(!overlaps_stall(&stalls, 12_000, 15_000));
        // Never answered, or no stalls at all.
        assert!(!overlaps_stall(&stalls, 800, 0));
        assert!(!overlaps_stall(&[], 800, 20_000));
    }

    #[test]
    fn accounting_counts_missing_duplicate_corrupt_and_stray() {
        let ok = Answer {
            responses: 1,
            intact: true,
        };
        let answers = [
            ok,
            Answer::default(),
            Answer {
                responses: 2,
                intact: true,
            },
            Answer {
                responses: 1,
                intact: false,
            },
        ];
        assert_eq!(failed_requests(&answers, 0), 3);
        assert_eq!(failed_requests(&answers, 2), 5);
        assert_eq!(failed_requests(&[ok; 4], 0), 0);
    }

    #[test]
    fn proc_parsing_and_task_sums() {
        let stat = "4242 (valetd-worker (1)) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    37 5 0 0 20 0 9 0 1234 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(42));
        let status = "Name:\tvaletd\nVmHWM:\t    5120 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_ctx_switches(status), Some(20));
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(5_120));
        assert_eq!(parse_ctx_switches("Name:\tx\n"), None);
        let total = sum_tasks(&[
            TaskSample {
                cpu_ticks: 42,
                ctx_switches: 20,
            },
            TaskSample {
                cpu_ticks: 8,
                ctx_switches: 5,
            },
        ]);
        assert_eq!(
            total,
            TaskSample {
                cpu_ticks: 50,
                ctx_switches: 25
            }
        );
    }

    #[test]
    fn fnv_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
