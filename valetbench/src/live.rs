//! The live workloads: one `valetd` child process on loopback, driven by
//! the benchmark's own open-loop Poisson generator.
//!
//! `live_floor` runs 2 sleep-burn workers at a fixed low rate, so latency
//! and CPU per request measure per-request overhead. `live_slo` runs 4
//! workers with heavy-tailed ~1 ms service at fixed shares of nominal
//! capacity and reports the highest share that keeps p99 under 10× the
//! mean service.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use live::{MetricsReply, Request, Response, StatsSnapshot};

use crate::host::{die_with_parent, now, pin_to_one_cpu, precise_sleeps, KillOnDrop, RunDelay};
use crate::procfs;
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::stats::{
    backlog_growing, failed_requests, highest_supported, host_stall_ns, median, overlaps_stall,
    percentile_sorted, slo_rate, windowed_percentiles, Answer, Latencies, StepOutcome,
};
use crate::RunArgs;

/// Server spawns per untraced run; `setup_s` is their median.
const SETUP_CYCLES: usize = 31;

/// GEV draws are capped at this multiple of the mean so that one draw
/// cannot hold a worker for seconds and a run ends in bounded time.
const GEV_CAP_MEANS: f64 = 50.0;

/// Rounds of a multi-step pass; see [`run_pass`].
const ROUNDS: usize = 5;

/// `STATS` round trips timed by a traced run.
const STATS_PROBES: usize = 400;

/// The two live workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveWorkload {
    Floor,
    Slo,
}

/// Service-time distribution of the generated requests.
#[derive(Debug, Clone, Copy)]
enum Service {
    Exponential { mean_ns: f64 },
    Gev(dist::gev::Gev),
}

impl Service {
    fn mean_ns(self) -> f64 {
        match self {
            Service::Exponential { mean_ns } => mean_ns,
            Service::Gev(g) => g.mean(),
        }
    }

    fn draw(self, rng: &mut SplitMix64) -> u64 {
        match self {
            Service::Exponential { mean_ns } => rng.exponential(mean_ns) as u64,
            Service::Gev(g) => g
                .quantile(rng.next_f64())
                .clamp(0.0, GEV_CAP_MEANS * g.mean()) as u64,
        }
    }
}

impl LiveWorkload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<LiveWorkload> {
        match name {
            "live_floor" => Some(LiveWorkload::Floor),
            "live_slo" => Some(LiveWorkload::Slo),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            LiveWorkload::Floor => "live_floor",
            LiveWorkload::Slo => "live_slo",
        }
    }

    fn workers(self) -> usize {
        match self {
            LiveWorkload::Floor => 2,
            LiveWorkload::Slo => 4,
        }
    }

    fn service(self) -> Service {
        match self {
            LiveWorkload::Floor => Service::Exponential { mean_ns: 6_000.0 },
            LiveWorkload::Slo => {
                // The dist crate's heavy-tailed GEV profile, scaled to 1 ms.
                let g = dist::gev::Gev::new(363.0, 100.0, 0.65);
                Service::Gev(g.scaled(1e6 / g.mean()))
            }
        }
    }

    /// Offered rates, in increasing order.
    fn steps(self) -> Vec<f64> {
        match self {
            LiveWorkload::Floor => vec![2_000.0],
            LiveWorkload::Slo => {
                let capacity = self.workers() as f64 * 1e9 / self.service().mean_ns();
                // 0.3 is the floor of the ladder: a step that meets the
                // limit even while the host is slow.
                [0.3, 0.5, 0.7, 0.8, 0.9]
                    .iter()
                    .map(|s| s * capacity)
                    .collect()
            }
        }
    }

    /// The step whose latency the run reports.
    fn reference_step(self) -> usize {
        match self {
            LiveWorkload::Floor => 0,
            LiveWorkload::Slo => 2,
        }
    }

    /// The p99 limit: 10× the mean service time (live_slo only; the
    /// floor's µs service is below the loopback floor itself).
    fn limit_us(self) -> Option<f64> {
        match self {
            LiveWorkload::Floor => None,
            LiveWorkload::Slo => Some(10.0 * self.service().mean_ns() / 1e3),
        }
    }

    /// Whether the reported percentiles leave out requests in flight
    /// during a host stall. The floor's requests live ~100 µs, so a
    /// stall catches few of them and hardly more of the slow ones than of
    /// the rest. `live_slo`'s live for milliseconds: leaving them out
    /// would select against its queueing tail, so it keeps them.
    fn leaves_out_stalled(self) -> bool {
        self == LiveWorkload::Floor
    }

    /// How long stragglers may take after the last send.
    fn drain(self) -> Duration {
        match self {
            LiveWorkload::Floor => Duration::from_secs(2),
            LiveWorkload::Slo => Duration::from_secs(6),
        }
    }
}

// ---------------------------------------------------------------------
// The valetd child process.

/// How a server is started.
struct ServerOpts<'a> {
    valetd: &'a Path,
    workers: usize,
    /// Trace store path and request limit (`valetd --trace`).
    trace: Option<(PathBuf, u64)>,
    /// Turns on the windowed sampler behind the `METRICS` verb.
    metrics: bool,
}

/// A running `valetd` with its control connection.
struct Valetd {
    child: KillOnDrop,
    stdout: BufReader<ChildStdout>,
    pid: u32,
    addr: SocketAddr,
    control: TcpStream,
}

impl Valetd {
    /// Starts the server on an ephemeral port and waits until it answers
    /// `STATS`; returns it with the set-up time.
    fn start(opts: &ServerOpts) -> Result<(Valetd, f64), String> {
        let started = now();
        let mut cmd = Command::new(opts.valetd);
        cmd.args(["--policy", "replenish", "--burn", "sleep", "--port", "0"])
            .args([
                "--bind",
                "127.0.0.1",
                "--workers",
                &opts.workers.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some((path, requests)) = &opts.trace {
            cmd.arg("--trace").arg(path);
            cmd.args(["--trace-requests", &requests.to_string()]);
        }
        if opts.metrics {
            cmd.args(["--metrics-window-ms", "100"]);
        }
        die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.valetd.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("piped stdout");
        let child = KillOnDrop(Some(child));
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .map_err(|e| format!("read valetd banner: {e}"))?;
        let addr = parse_banner(&banner).ok_or_else(|| format!("bad valetd banner {banner:?}"))?;
        let control = connect(addr)?;
        let mut server = Valetd {
            child,
            stdout,
            pid,
            addr,
            control,
        };
        server.stats()?;
        Ok((server, started.elapsed().as_secs_f64()))
    }

    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.control
            .write_all(&live::encode_stats_request())
            .map_err(|e| format!("send STATS: {e}"))?;
        let payload = read_reply(&mut self.control)?;
        StatsSnapshot::decode(&payload).map_err(|e| format!("decode STATS: {e}"))
    }

    fn metrics(&mut self) -> Result<MetricsReply, String> {
        self.control
            .write_all(&live::encode_metrics_request(0))
            .map_err(|e| format!("send METRICS: {e}"))?;
        let payload = read_reply(&mut self.control)?;
        MetricsReply::decode(&payload).map_err(|e| format!("decode METRICS: {e}"))
    }

    /// Asks the server to exit over the wire and reaps it; returns the
    /// rest of its standard output.
    fn shutdown(mut self) -> Result<String, String> {
        self.control
            .write_all(&live::protocol::encode_shutdown_request())
            .map_err(|e| format!("send SHUTDOWN: {e}"))?;
        read_reply(&mut self.control)?;
        let child = self.child.0.as_mut().expect("child present until shutdown");
        let deadline = now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("valetd exited with {status}")),
                Ok(None) if now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // The guard kills and reaps it.
                _ => return Err("valetd did not exit after SHUTDOWN".to_owned()),
            }
        }
        self.child.0 = None;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        Ok(rest)
    }
}

/// Parses the address from `valetd listening on 127.0.0.1:PORT (...`.
fn parse_banner(line: &str) -> Option<SocketAddr> {
    line.split_whitespace()
        .skip_while(|w| *w != "on")
        .nth(1)?
        .parse()
        .ok()
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(stream)
}

fn read_reply(stream: &mut TcpStream) -> Result<Vec<u8>, String> {
    match live::read_frame(stream) {
        Ok(Some(payload)) => Ok(payload),
        Ok(None) => Err("valetd closed the control connection".to_owned()),
        Err(e) => Err(format!("read control reply: {e}")),
    }
}

// ---------------------------------------------------------------------
// The open-loop generator.

/// One step's schedule, built from the seed alone: Poisson due times
/// (ns after the step starts) and each request's service demand.
struct Plan {
    seconds: f64,
    due_ns: Vec<u64>,
    service_ns: Vec<u64>,
}

impl Plan {
    fn new(seed: u64, rate_rps: f64, seconds: f64, service: Service) -> Plan {
        let mut rng = SplitMix64::new(seed);
        let (mut due_ns, mut service_ns) = (Vec::new(), Vec::new());
        let mut t = 0.0;
        loop {
            t += rng.exponential(1e9 / rate_rps);
            if t >= seconds * 1e9 {
                break;
            }
            due_ns.push(t as u64);
            service_ns.push(service.draw(&mut rng));
        }
        Plan {
            seconds,
            due_ns,
            service_ns,
        }
    }

    fn len(&self) -> usize {
        self.due_ns.len()
    }
}

/// What the generator saw for one step.
struct StepRun {
    /// Latency from the scheduled send (ns) of each request answered
    /// exactly once with an intact echo; `None` for a failed request.
    latency_ns: Vec<Option<u64>>,
    /// How late each request was sent (ns), behind the schedule as moved
    /// by host stalls; unsent ones are absent.
    late_ns: Vec<u64>,
    /// Host stalls seen by the sender (ns spans, in time order). A stall
    /// ends when the sender wakes: its timer fires as soon as the vCPU
    /// runs again.
    stalls: Vec<(u64, u64)>,
    /// Whether each request was in flight during a host stall.
    in_stall: Vec<bool>,
    /// The time host stalls moved the schedule by in all (ns).
    paused_ns: u64,
    /// Requests in flight at each send.
    in_flight: Vec<u32>,
    /// Failed requests: missing, duplicated, corrupted or stray answers.
    failed: u64,
    /// Responses received, duplicates and strays included.
    responses: u64,
    /// From the step's start until its last answer (or drain deadline).
    wall_s: f64,
}

/// Sends `plan` on `stream` (request ids from `first_id`) and collects
/// the answers. Two threads: a sender that sleeps until each due time,
/// and this thread, blocked in `read` between responses.
///
/// When the sender wakes late by more than
/// [`crate::stats::HOST_STALL_NS`] beyond the time it spent waiting for a
/// CPU (its run delay), the host held the guest up. The sender then moves
/// the rest of the schedule back by the stall, so the requests due during
/// it are neither charged the stall nor sent as a burst. Requests in
/// flight during a stall are marked; every wait for a CPU inside the
/// guest stays in the latencies.
fn drive(
    stream: &TcpStream,
    first_id: u64,
    plan: &Plan,
    drain: Duration,
) -> Result<StepRun, String> {
    let n = plan.len();
    let io_err = |e: io::Error| format!("load connection: {e}");
    let mut writer = stream.try_clone().map_err(io_err)?;
    let mut reader = stream.try_clone().map_err(io_err)?;
    reader
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(io_err)?;
    let answered = AtomicU64::new(0);
    let sending = AtomicBool::new(true);
    let epoch = now() + Duration::from_millis(5);
    let since_epoch = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            precise_sleeps();
            let mut run_delay = RunDelay::open();
            let mut waited_before = run_delay.as_mut().and_then(RunDelay::ns);
            let mut late_ns = Vec::with_capacity(n);
            let mut shift_ns = Vec::with_capacity(n);
            let mut sent_ns = Vec::with_capacity(n);
            let mut in_flight = Vec::with_capacity(n);
            let mut stalls = Vec::new();
            let mut shift = 0u64;
            for i in 0..n {
                let due = epoch + Duration::from_nanos(plan.due_ns[i] + shift);
                let t = now();
                if t < due {
                    std::thread::sleep(due - t);
                }
                let woke = since_epoch(now());
                let mut late = woke.saturating_sub(plan.due_ns[i] + shift);
                let waited = run_delay.as_mut().and_then(RunDelay::ns);
                // Only lateness that arose since the sender last ran can
                // be a stall of the host.
                let stall = host_stall_ns(
                    late.min(woke - since_epoch(t)),
                    waited.zip(waited_before).map(|(a, b)| a.saturating_sub(b)),
                );
                if stall > 0 {
                    shift += stall;
                    late -= stall;
                    stalls.push((woke - stall, woke));
                }
                waited_before = waited;
                late_ns.push(late);
                shift_ns.push(shift);
                sent_ns.push(woke);
                in_flight.push((i as u64).saturating_sub(answered.load(Ordering::Relaxed)) as u32);
                let frame = Request {
                    req_id: first_id + i as u64,
                    sent_at_ns: plan.due_ns[i],
                    service_ns: plan.service_ns[i],
                }
                .encode();
                if writer.write_all(&frame).is_err() {
                    break;
                }
            }
            sending.store(false, Ordering::SeqCst);
            (late_ns, shift_ns, sent_ns, in_flight, stalls)
        });

        let mut answers = vec![Answer::default(); n];
        let mut recv_ns = vec![0u64; n];
        let (mut stray, mut responses) = (0u64, 0u64);
        let mut pending: Vec<u8> = Vec::with_capacity(1 << 16);
        let mut chunk = [0u8; 16 * 1024];
        let mut deadline: Option<Instant> = None;
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(k) => {
                    let now = since_epoch(now());
                    pending.extend_from_slice(&chunk[..k]);
                    let mut off = 0;
                    while pending.len() - off >= 4 {
                        let len =
                            u32::from_le_bytes(pending[off..off + 4].try_into().unwrap()) as usize;
                        if pending.len() - off - 4 < len {
                            break;
                        }
                        responses += 1;
                        let payload = &pending[off + 4..off + 4 + len];
                        off += 4 + len;
                        let Ok(resp) = Response::decode(payload) else {
                            stray += 1;
                            continue;
                        };
                        let idx = resp.req_id.wrapping_sub(first_id) as usize;
                        if idx >= n {
                            stray += 1;
                            continue;
                        }
                        let intact = resp.sent_at_ns == plan.due_ns[idx]
                            && resp.service_ns == plan.service_ns[idx];
                        let a = &mut answers[idx];
                        a.responses += 1;
                        if a.responses == 1 {
                            a.intact = intact;
                            recv_ns[idx] = now;
                            answered.fetch_add(1, Ordering::Relaxed);
                        } else {
                            a.intact &= intact;
                        }
                    }
                    pending.drain(..off);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(io_err(e)),
            }
            if answered.load(Ordering::Relaxed) as usize >= n {
                break;
            }
            if !sending.load(Ordering::SeqCst) {
                let end = *deadline.get_or_insert_with(|| now() + drain);
                if now() >= end {
                    break;
                }
            }
        }
        let wall_s = epoch.elapsed().as_secs_f64();
        let (late_ns, shift_ns, sent_ns, in_flight, stalls) =
            sender.join().expect("sender thread panicked");
        let in_stall = sent_ns
            .iter()
            .zip(&recv_ns)
            .map(|(&sent, &recv)| overlaps_stall(&stalls, sent, recv))
            .collect();
        // Unsent requests have no answer, so they need no shift.
        let latency_ns = answers
            .iter()
            .zip(recv_ns.iter().zip(&plan.due_ns))
            .zip(shift_ns.iter().chain(std::iter::repeat(&0)))
            .map(|((a, (&recv, &due)), &shift)| {
                (a.responses == 1 && a.intact).then(|| recv.saturating_sub(due + shift))
            })
            .collect();
        Ok(StepRun {
            latency_ns,
            late_ns,
            stalls,
            in_stall,
            paused_ns: shift_ns.last().copied().unwrap_or(0),
            in_flight,
            failed: failed_requests(&answers, stray),
            responses,
            wall_s,
        })
    })
}

// ---------------------------------------------------------------------
// Passes and their statistics.

/// Latency statistics of one step.
struct StepStats {
    offered_rps: f64,
    achieved_rps: f64,
    requests: usize,
    failed: u64,
    /// Median over 1000-request windows of the window p50 and p99
    /// (failures infinitely slow): the reported latencies.
    p50_us: f64,
    p99_us: f64,
    windows: usize,
    /// p99 pooled over the whole step, and the highest percentile with
    /// ten samples beyond it: printed beside the window medians.
    pooled_p99_us: f64,
    tail: Option<(f64, f64)>,
    late_p50_us: f64,
    late_p99_us: f64,
    host_stalls: usize,
    /// Requests in flight during a host stall, and whether the reported
    /// percentiles leave them out.
    in_stall: usize,
    left_out: bool,
    paused_ms: f64,
    backlog_growing: bool,
}

fn step_stats(
    rate_rps: f64,
    segments: &[&Segment],
    workers: usize,
    leave_out_stalled: bool,
) -> StepStats {
    let us = |ns: u64| ns as f64 / 1e3;
    let latencies: Vec<Option<f64>> = segments
        .iter()
        .flat_map(|s| s.run.latency_ns.iter().map(|l| l.map(us)))
        .collect();
    // Answered requests in flight during a host stall may be left out of
    // the reported percentiles; failed requests always count.
    let in_stall: Vec<bool> = segments
        .iter()
        .flat_map(|s| {
            let marks = s.run.in_stall.iter().copied();
            marks
                .chain(std::iter::repeat(false))
                .take(s.run.latency_ns.len())
        })
        .collect();
    let measured: Vec<Option<f64>> = latencies
        .iter()
        .zip(&in_stall)
        .filter(|(l, &hit)| l.is_none() || !(hit && leave_out_stalled))
        .map(|(&l, _)| l)
        .collect();
    let (p50_us, p99_us, windows) = windowed_percentiles(&measured);
    let failed: u64 = segments.iter().map(|s| s.run.failed).sum();
    let seconds: f64 = segments.iter().map(|s| s.plan.seconds).sum();
    let answered: Vec<f64> = latencies.iter().flatten().copied().collect();
    let achieved_rps = answered.len() as f64 / seconds;
    let pooled = Latencies::new(answered, failed as usize);
    let mut late: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.run.late_ns.iter().map(|&ns| us(ns)))
        .collect();
    late.sort_by(f64::total_cmp);
    let late_at = |q| {
        if late.is_empty() {
            0.0
        } else {
            percentile_sorted(&late, q)
        }
    };
    let growing = segments
        .iter()
        .filter(|s| backlog_growing(&s.run.in_flight, workers as f64))
        .count();
    StepStats {
        offered_rps: rate_rps,
        achieved_rps,
        requests: latencies.len(),
        failed,
        p50_us,
        p99_us,
        windows,
        pooled_p99_us: pooled.percentile(0.99),
        tail: highest_supported(pooled.count()).map(|q| (q, pooled.percentile(q))),
        late_p50_us: late_at(0.5),
        late_p99_us: late_at(0.99),
        host_stalls: segments.iter().map(|s| s.run.stalls.len()).sum(),
        in_stall: in_stall.iter().filter(|&&hit| hit).count(),
        left_out: leave_out_stalled,
        paused_ms: segments.iter().map(|s| s.run.paused_ns).sum::<u64>() as f64 / 1e6,
        backlog_growing: 2 * growing > segments.len(),
    }
}

/// One segment of a pass: a step's schedule for one round, as driven.
struct Segment {
    step: usize,
    first_id: u64,
    plan: Plan,
    run: StepRun,
}

/// One pass: every step of the workload against one server.
struct Pass {
    segments: Vec<Segment>,
    /// Per step, in step order.
    stats: Vec<StepStats>,
    issued: u64,
    failed: u64,
    /// Whether the server's own counters agree with the client's.
    accounting_ok: bool,
    wall_s: f64,
    cpu_us_per_req: f64,
    ctx_switches_per_req: f64,
    threads: usize,
    peak_rss_mb: f64,
    stats_before: StatsSnapshot,
    stats_after: StatsSnapshot,
}

/// Drives every step against `server` for `seconds` in all. Multi-step
/// workloads interleave the steps: [`ROUNDS`] rounds each visit every
/// step once, in increasing rate, draining between segments, so a slow
/// spell of the host falls on a minority of each step's windows.
fn run_pass(w: LiveWorkload, server: &mut Valetd, seed: u64, seconds: f64) -> Result<Pass, String> {
    let steps = w.steps();
    let rounds = if steps.len() > 1 { ROUNDS } else { 1 };
    // The reference step gets twice the time of the others: its
    // latencies are reported, so they get the most windows.
    let weight = |step: usize| {
        if step == w.reference_step() && steps.len() > 1 {
            2.0
        } else {
            1.0
        }
    };
    let total_weight: f64 = (0..steps.len()).map(weight).sum();
    let load = connect(server.addr)?;
    let stats_before = server.stats()?;
    let (tasks_before, _) = procfs::tasks(server.pid);
    let mut segments = Vec::with_capacity(rounds * steps.len());
    let mut first_id = 0u64;
    for round in 0..rounds {
        for (step, &rate) in steps.iter().enumerate() {
            let tag = (round * steps.len() + step + 1) as u64;
            let segment_s = seconds * weight(step) / (rounds as f64 * total_weight);
            let plan = Plan::new(
                seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                rate,
                segment_s,
                w.service(),
            );
            let run = drive(&load, first_id, &plan, w.drain())?;
            let issued = plan.len() as u64;
            segments.push(Segment {
                step,
                first_id,
                run,
                plan,
            });
            first_id += issued;
        }
    }
    let (tasks_after, threads) = procfs::tasks(server.pid);
    let stats_after = server.stats()?;
    let peak_rss_mb = procfs::peak_rss_mb(&server.pid.to_string()).ok_or("no VmHWM for valetd")?;
    drop(load);

    let stats: Vec<StepStats> = steps
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let of_step: Vec<&Segment> = segments.iter().filter(|s| s.step == k).collect();
            step_stats(rate, &of_step, w.workers(), w.leaves_out_stalled())
        })
        .collect();
    let issued = first_id;
    let failed: u64 = segments.iter().map(|s| s.run.failed).sum();
    let responses: u64 = segments.iter().map(|s| s.run.responses).sum();
    let completions = stats_after.completions() - stats_before.completions();
    let accepted = stats_after.requests_rx - stats_before.requests_rx;
    let accounting_ok = accepted == issued && completions == responses;
    if !accounting_ok {
        eprintln!(
            "accounting: client issued {issued} and received {responses}; \
             server accepted {accepted} and completed {completions}"
        );
    }
    let per_req = completions.max(1) as f64;
    Ok(Pass {
        issued,
        failed,
        accounting_ok,
        wall_s: segments.iter().map(|s| s.run.wall_s).sum(),
        cpu_us_per_req: (tasks_after.cpu_ticks - tasks_before.cpu_ticks) as f64
            / procfs::TICKS_PER_SEC
            * 1e6
            / per_req,
        ctx_switches_per_req: (tasks_after.ctx_switches - tasks_before.ctx_switches) as f64
            / per_req,
        threads,
        peak_rss_mb,
        stats_before,
        stats_after,
        segments,
        stats,
    })
}

fn print_pass(w: LiveWorkload, label: &str, pass: &Pass) {
    println!(
        "  {label} pass: {} requests issued, {} failed, {:.3} s; valetd {:.1} us CPU/request, \
         {:.2} context switches/request, {} threads, peak RSS {:.1} MB",
        pass.issued,
        pass.failed,
        pass.wall_s,
        pass.cpu_us_per_req,
        pass.ctx_switches_per_req,
        pass.threads,
        pass.peak_rss_mb
    );
    for s in &pass.stats {
        let tail = s.tail.map_or("n/a".to_owned(), |(q, v)| {
            format!("p{} {v:.1} us", q * 100.0)
        });
        let verdict = match w.limit_us() {
            Some(limit) => {
                let ok = StepOutcome::from(s).meets(limit);
                format!(
                    ", {} the {limit:.0} us p99 limit",
                    if ok { "meets" } else { "misses" }
                )
            }
            None => String::new(),
        };
        println!(
            "    {:>7.0} rps offered, {:>7.1} answered/s, n={} ({} failed); median of {} windows: \
             p50 {:.1} us, p99 {:.1} us; pooled p99 {:.1} us, highest supported {tail}; \
             send late p50 {:.1} us p99 {:.1} us; {} host stalls, {:.1} ms, {} requests in them ({}); \
             backlog {}{verdict}",
            s.offered_rps,
            s.achieved_rps,
            s.requests,
            s.failed,
            s.windows,
            s.p50_us,
            s.p99_us,
            s.pooled_p99_us,
            s.late_p50_us,
            s.late_p99_us,
            s.host_stalls,
            s.paused_ms,
            s.in_stall,
            if s.left_out { "left out" } else { "kept" },
            if s.backlog_growing {
                "growing"
            } else {
                "steady"
            },
        );
    }
}

impl From<&StepStats> for StepOutcome {
    fn from(s: &StepStats) -> StepOutcome {
        StepOutcome {
            achieved_rps: s.achieved_rps,
            p99_us: s.p99_us,
            backlog_growing: s.backlog_growing,
        }
    }
}

/// Runs the workload: end-to-end metrics untraced, per-layer traced.
pub fn run(w: LiveWorkload, args: &RunArgs) -> Result<Outcome, String> {
    let opts = ServerOpts {
        valetd: &args.valetd,
        workers: w.workers(),
        trace: None,
        metrics: false,
    };
    // valetd and the generator share one CPU, so no wake-up crosses
    // vCPUs (see `pin_to_one_cpu`).
    let cpu = pin_to_one_cpu().map_or("unpinned".to_owned(), |c| format!("on CPU {c}"));
    println!(
        "{}: valetd replenish, {} sleep workers, mean service {:.1} us, steps {:?} rps, \
         one load connection over loopback (not a real link), server and generator {cpu}",
        w.name(),
        w.workers(),
        w.service().mean_ns() / 1e3,
        w.steps().iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    let mut out = Outcome::default();
    if args.trace {
        traced(w, args, &opts, &mut out)?;
        return Ok(out);
    }
    let mut setups = Vec::with_capacity(SETUP_CYCLES);
    for _ in 1..SETUP_CYCLES {
        let (server, setup_s) = Valetd::start(&opts)?;
        setups.push(setup_s);
        server.shutdown()?;
    }
    let (mut server, setup_s) = Valetd::start(&opts)?;
    setups.push(setup_s);
    println!(
        "  set-up (spawn to first STATS answer), ms: {:?}",
        setups
            .iter()
            .map(|s| (s * 1e5).round() / 1e2)
            .collect::<Vec<_>>()
    );
    let pass = run_pass(w, &mut server, args.seed, args.seconds)?;
    server.shutdown()?;
    print_pass(w, "measured", &pass);

    out.attempted = pass.issued;
    out.failed = pass.failed;
    out.correct = pass.failed == 0 && pass.accounting_ok;
    let reference = &pass.stats[w.reference_step()];
    out.set("setup_s", median(&setups));
    out.set("wall_s", pass.wall_s);
    out.set("peak_rss_mb", pass.peak_rss_mb);
    out.set("p50_us", reference.p50_us);
    out.set("p99_us", reference.p99_us);
    out.set("server_cpu_us_per_req", pass.cpu_us_per_req);
    let slo_rate = match w.limit_us() {
        Some(limit) => {
            let outcomes: Vec<StepOutcome> = pass.stats.iter().map(StepOutcome::from).collect();
            slo_rate(&outcomes, limit)
        }
        None => reference.achieved_rps,
    };
    out.set("slo_rate_rps", slo_rate);
    println!(
        "  failed_frac {:.6} ({} of {} issued requests)",
        pass.failed as f64 / pass.issued.max(1) as f64,
        pass.failed,
        pass.issued
    );
    Ok(out)
}

/// The traced run: an untraced pass and a traced pass of half the run
/// each, on identical inputs; per-layer metrics come from the traced
/// pass, and their difference is the tracing overhead.
fn traced(
    w: LiveWorkload,
    args: &RunArgs,
    opts: &ServerOpts,
    out: &mut Outcome,
) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let (mut server, _) = Valetd::start(opts)?;
    let plain = run_pass(w, &mut server, args.seed, half)?;
    server.shutdown()?;
    print_pass(w, "untraced", &plain);

    let dir = args.out_dir.join(w.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let store_path = dir.join("valetd.trace");
    let traced_opts = ServerOpts {
        trace: Some((store_path.clone(), u64::MAX)),
        metrics: true,
        ..*opts
    };
    let (mut server, _) = Valetd::start(&traced_opts)?;
    let mut rtts = Vec::with_capacity(STATS_PROBES);
    for _ in 0..STATS_PROBES {
        std::thread::sleep(Duration::from_micros(500));
        let t = now();
        server.stats()?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let pass = run_pass(w, &mut server, args.seed, half)?;
    let windows = server.metrics()?;
    let pid_threads = pass.threads;
    let rest = server.shutdown()?;
    print_pass(w, "traced", &pass);
    if !rest.contains("trace store sealed") {
        return Err(format!("valetd did not seal its trace store: {rest:?}"));
    }
    let store = telemetry::TraceStore::load(&store_path)?;
    let _ = std::fs::remove_file(&store_path);

    out.attempted = plain.issued + pass.issued;
    out.failed = plain.failed + pass.failed;
    out.correct = out.failed == 0 && plain.accounting_ok && pass.accounting_ok;

    let r = w.reference_step();
    let (base, reference) = (&plain.stats[r], &pass.stats[r]);
    out.set("live.traced.p50_us", reference.p50_us);
    out.set("live.traced.p99_us", reference.p99_us);
    out.set(
        "live.trace_overhead_p50_frac",
        reference.p50_us / base.p50_us - 1.0,
    );
    out.set(
        "live.trace_overhead_p99_frac",
        reference.p99_us / base.p99_us - 1.0,
    );
    out.set("live.client.send_late_p50_us", reference.late_p50_us);
    out.set("live.client.send_late_p99_us", reference.late_p99_us);
    let (encode_ns, decode_ns) = crate::layers::protocol_ns(1_000_000);
    out.set("live.protocol.encode_ns", encode_ns);
    out.set("live.protocol.decode_ns", decode_ns);
    out.set("live.server.stats_rtt_us", median(&rtts));
    out.set("live.server.threads", pid_threads as f64);
    out.set(
        "live.server.ctx_switches_per_req",
        pass.ctx_switches_per_req,
    );

    let (samples, busy, queued) = windows.windows.iter().fold((0u64, 0u64, 0u64), |acc, win| {
        (
            acc.0 + win.samples,
            acc.1 + win.busy_sum,
            acc.2 + win.queued_sum,
        )
    });
    let per_sample = |sum: u64| sum as f64 / samples.max(1) as f64;
    out.set("live.dispatch.queued_mean", per_sample(queued));
    out.set("live.dispatch.busy_mean", per_sample(busy));
    out.set(
        "live.dispatch.queue_high_water",
        pass.stats_after.queue_high_water as f64,
    );
    out.set(
        "live.dispatch.ring_high_water",
        pass.stats_after.ring_high_water as f64,
    );
    let per_worker: Vec<f64> = pass
        .stats_after
        .per_worker
        .iter()
        .zip(&pass.stats_before.per_worker)
        .map(|(a, b)| (a.completions - b.completions) as f64)
        .collect();
    out.set("live.dispatch.jain", metrics::jain_index(&per_worker));

    hop_split(&pass, r, &store, out);
    Ok(())
}

/// Joins the server's trace to the client's timings for the reference
/// step (the trace's request id is valetd's arrival sequence, which on
/// one connection is the client's request id) and splits the client p50
/// into send lateness, the four server hops, and an explicit residual.
fn hop_split(pass: &Pass, step: usize, store: &telemetry::TraceStore, out: &mut Outcome) {
    let segments: Vec<&Segment> = pass.segments.iter().filter(|s| s.step == step).collect();
    let latency_of = |req: u64| -> Option<u64> {
        let seg = segments
            .iter()
            .find(|s| (s.first_id..s.first_id + s.plan.len() as u64).contains(&req))?;
        seg.run.latency_ns[(req - seg.first_id) as usize]
    };
    let events: Vec<telemetry::TraceEvent> = store
        .events
        .iter()
        .filter(|e| {
            segments
                .iter()
                .any(|s| (s.first_id..s.first_id + s.plan.len() as u64).contains(&e.req))
        })
        .copied()
        .collect();
    let assembled = telemetry::assemble_timelines(&events);
    let summary = telemetry::summarize(&assembled);
    let outside: Vec<f64> = assembled
        .timelines
        .iter()
        .filter_map(|t| latency_of(t.req).map(|lat| (lat as f64 - t.total_ns()) / 1e3))
        .collect();
    let requests: usize = segments.iter().map(|s| s.plan.len()).sum();
    let names = ["reassembly", "dispatch", "core_queue", "processing"];
    let reference = &pass.stats[step];
    let mut explained = reference.late_p50_us;
    println!(
        "  p50 split of the reference step ({} of {} requests traced, {} trace events dropped):",
        assembled.timelines.len(),
        requests,
        store.dropped
    );
    println!(
        "    {:<24} {:>10.1} us",
        "client send lateness", reference.late_p50_us
    );
    for (i, hop) in summary.hops.iter().enumerate() {
        let p50 = hop.p50_ns / 1e3;
        explained += p50;
        println!("    {:<24} {:>10.1} us", names[i], p50);
    }
    let residual = reference.p50_us - explained;
    println!("    {:<24} {:>10.1} us", "residual", residual);
    println!("    {:<24} {:>10.1} us", "client p50", reference.p50_us);
    let metric = |i: usize, p99: bool| -> &'static str {
        const NAMES: [[&str; 2]; 4] = [
            ["live.hop.reassembly_us_p50", "live.hop.reassembly_us_p99"],
            ["live.hop.dispatch_us_p50", "live.hop.dispatch_us_p99"],
            ["live.hop.core_queue_us_p50", "live.hop.core_queue_us_p99"],
            ["live.hop.processing_us_p50", "live.hop.processing_us_p99"],
        ];
        NAMES[i][usize::from(p99)]
    };
    for (i, hop) in summary.hops.iter().enumerate() {
        out.set(metric(i, false), hop.p50_ns / 1e3);
        out.set(metric(i, true), hop.p99_ns / 1e3);
    }
    out.set("live.hop.residual_us_p50", residual);
    out.set(
        "live.hop.outside_server_us_p50",
        if outside.is_empty() {
            0.0
        } else {
            median(&outside)
        },
    );
    out.set(
        "live.hop.traced_frac",
        assembled.timelines.len() as f64 / requests.max(1) as f64,
    );
}
