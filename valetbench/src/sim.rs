//! The simulator workloads: `sim_fig8` (the full fig8 sweep) and
//! `sim_anatomy` (the traced latency-breakdown matrix, scaled up).

use std::process::Command;

use harness::{JobRecord, ScenarioMatrix, ScenarioParams, SweepReport, SweepTiming};

use crate::host::now;
use crate::layers;
use crate::procfs;
use crate::report::Outcome;
use crate::stats::{fnv1a_hex, median, slo_rate, StepOutcome};
use crate::RunArgs;

/// Seed variants: `--seed n` runs variant `n % VARIANTS`, whose outputs
/// are pinned below.
pub const VARIANTS: u64 = 8;

/// Per-job requests of `sim_anatomy` (the registry's 100 k, scaled up to
/// a multi-second matrix).
pub const ANATOMY_REQUESTS: u64 = 1_000_000;

/// `harness::digest_reports` of the full fig8 sweep per variant
/// (master seed `88 + variant`). Variant 0 is the paper-resolution fig8.
const FIG8_DIGESTS: [&str; VARIANTS as usize] = [
    "e52c345607e5208f",
    "5dd61ffe2e82a001",
    "e8fb0d7d2326bd99",
    "0c6a444a0daec956",
    "0a9ec17f3069be8f",
    "c7b58d90d2b48ce1",
    "8ac0c4c8434a8209",
    "e92326e6f60ffe39",
];

/// FNV-1a of the `latency_breakdown` artifact bytes per variant (master
/// seed `111 + variant`, [`ANATOMY_REQUESTS`] per job).
const ANATOMY_ARTIFACTS: [&str; VARIANTS as usize] = [
    "51740017b3ef17ef",
    "4308dbb4813919e2",
    "7c3c0c4c576146f3",
    "d19e9193da5d7a38",
    "1cc44ba819eed702",
    "a2809359a5f5a759",
    "e2e26bb017db7f6d",
    "8128153a24134852",
];

/// Set-up probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 31;

/// The two simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    Fig8,
    Anatomy,
}

impl SimWorkload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<SimWorkload> {
        match name {
            "sim_fig8" => Some(SimWorkload::Fig8),
            "sim_anatomy" => Some(SimWorkload::Anatomy),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SimWorkload::Fig8 => "sim_fig8",
            SimWorkload::Anatomy => "sim_anatomy",
        }
    }

    fn pins(self) -> &'static [&'static str; VARIANTS as usize] {
        match self {
            SimWorkload::Fig8 => &FIG8_DIGESTS,
            SimWorkload::Anatomy => &ANATOMY_ARTIFACTS,
        }
    }

    fn anatomy_params(seed: u64) -> ScenarioParams {
        ScenarioParams {
            seed: Some(111 + seed % VARIANTS),
            requests: Some(ANATOMY_REQUESTS),
            ..ScenarioParams::full()
        }
    }

    /// The matrix the workload runs for `seed`.
    pub fn matrix(self, seed: u64) -> ScenarioMatrix {
        match self {
            SimWorkload::Fig8 => {
                let mut m = ScenarioMatrix::named("fig8").expect("fig8 is a predefined matrix");
                m.master_seed = 88 + seed % VARIANTS;
                m
            }
            SimWorkload::Anatomy => {
                let scenario = harness::find_scenario("latency_breakdown")
                    .expect("latency_breakdown is registered");
                harness::build_matrices(scenario, &Self::anatomy_params(seed))
                    .pop()
                    .expect("latency_breakdown builds one matrix")
            }
        }
    }

    /// The job whose simulated latency the run reports: the hardware
    /// single queue on exponential service at about 70 % (fig8: 14 Mrps
    /// of ~19.5) or 50 % (anatomy: its middle load) of capacity.
    fn reference(self, job: &JobRecord) -> bool {
        let (workload, rate) = match self {
            SimWorkload::Fig8 => ("exp", 14.0e6),
            SimWorkload::Anatomy => ("exp600", 0.5 * 19.5e6),
        };
        job.workload == workload
            && job.policy_key.starts_with("hw-single")
            && (job.rate_rps - rate).abs() < 1.0
    }
}

/// One executed pass over the workload's matrix.
struct Pass {
    wall_s: f64,
    report: SweepReport,
    timing: SweepTiming,
    /// The digest or artifact hash the pins are checked against.
    check: String,
}

fn run_pass(w: SimWorkload, seed: u64, threads: usize) -> Pass {
    let start = now();
    match w {
        SimWorkload::Fig8 => {
            let (report, timing) = harness::run_matrix(&w.matrix(seed), threads);
            let wall_s = start.elapsed().as_secs_f64();
            let check = harness::digest_reports(std::slice::from_ref(&report));
            Pass {
                wall_s,
                report,
                timing,
                check,
            }
        }
        SimWorkload::Anatomy => {
            let scenario = harness::find_scenario("latency_breakdown")
                .expect("latency_breakdown is registered");
            let (mut run, artifacts) =
                harness::run_scenario(scenario, &SimWorkload::anatomy_params(seed), threads);
            let wall_s = start.elapsed().as_secs_f64();
            let artifact = artifacts
                .get("latency_breakdown")
                .expect("latency_breakdown derives its artifact");
            Pass {
                wall_s,
                report: run.reports.pop().expect("one report"),
                timing: run.timings.pop().expect("one timing"),
                check: fnv1a_hex(artifact.body.bytes().as_bytes()),
            }
        }
    }
}

/// The set-up a sim user pays before the sweep's first job: expanding
/// the matrix and building every job's simulator. Run in a child
/// process by [`setup_probe`]'s caller.
pub fn setup_probe(w: SimWorkload, seed: u64) {
    let jobs = w.matrix(seed).jobs();
    let sims: Vec<rpcvalet::ServerSim> = jobs
        .iter()
        .map(|job| rpcvalet::ServerSim::new(job.sim_config()))
        .collect();
    std::hint::black_box(sims);
}

/// Median wall time of [`SETUP_PROBES`] child processes that start,
/// run [`setup_probe`], and exit.
fn measure_setup(w: SimWorkload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let start = now();
        let status = Command::new(&exe)
            .args(["--setup-probe", w.name(), "--seed", &seed.to_string()])
            .status()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up probe exited with {status}"));
        }
    }
    Ok(median(&times))
}

fn check_pin(w: SimWorkload, seed: u64, pass: &Pass) -> Result<(), String> {
    let variant = (seed % VARIANTS) as usize;
    let pinned = w.pins()[variant];
    if pass.check == pinned {
        Ok(())
    } else {
        Err(format!(
            "{}: output {} differs from the pinned {pinned:?} (seed variant {variant})",
            w.name(),
            pass.check
        ))
    }
}

/// Prints the pinned values for every variant (maintenance helper for a
/// deliberate change of the simulator's outputs).
pub fn print_pins(w: SimWorkload, threads: usize) {
    for variant in 0..VARIANTS {
        let pass = run_pass(w, variant, threads);
        println!("{} variant {variant}: \"{}\"", w.name(), pass.check);
    }
}

/// Runs the workload: end-to-end metrics untraced, per-layer traced.
pub fn run(w: SimWorkload, args: &RunArgs) -> Result<Outcome, String> {
    let threads = args.threads;
    let mut out = Outcome::default();
    let jobs = w.matrix(args.seed).jobs();
    let requests: u64 = jobs.iter().map(|j| j.requests).sum();
    println!(
        "{}: {} jobs x {} requests, seed variant {}, {threads} pool threads",
        w.name(),
        jobs.len(),
        jobs.first().map_or(0, |j| j.requests),
        args.seed % VARIANTS
    );
    if !args.trace {
        out.set("setup_s", measure_setup(w, args.seed)?);
    }
    let cpu_before = procfs::self_cpu_s();
    let started = now();
    let mut passes = Vec::new();
    loop {
        let pass = run_pass(w, args.seed, threads);
        check_pin(w, args.seed, &pass)?;
        println!(
            "  pass {}: {:.3} s, output {} (pinned)",
            passes.len() + 1,
            pass.wall_s,
            pass.check
        );
        let last = pass.wall_s;
        passes.push(pass);
        if args.trace || started.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let cpu_s = procfs::self_cpu_s() - cpu_before;
    out.correct = true;
    out.attempted = (passes.len() * jobs.len()) as u64;
    let first = &passes[0];
    if args.trace {
        layer_metrics(w, args, first, &mut out);
        return Ok(out);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    out.set("wall_s", median(&walls));
    out.set(
        "peak_rss_mb",
        procfs::peak_rss_mb("self").ok_or("no VmHWM in /proc/self/status")?,
    );
    let reference = first
        .report
        .jobs
        .iter()
        .find(|j| w.reference(j))
        .ok_or("reference job missing from the report")?;
    out.set("p50_us", reference.p50_latency_ns / 1e3);
    out.set("p99_us", reference.p99_latency_ns / 1e3);
    out.set(
        "server_cpu_us_per_req",
        cpu_s * 1e6 / (requests * passes.len() as u64) as f64,
    );
    // The paper's SLO: p99 within 10x the mean service time measured at
    // the lightest load, over the reference policy's load points.
    let mut curve: Vec<&JobRecord> = first
        .report
        .jobs
        .iter()
        .filter(|j| j.workload == reference.workload && j.policy_key == reference.policy_key)
        .collect();
    curve.sort_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps));
    let limit_us = 10.0 * curve[0].mean_service_ns / 1e3;
    let steps: Vec<StepOutcome> = curve
        .iter()
        .map(|j| StepOutcome {
            achieved_rps: j.throughput_rps,
            p99_us: j.p99_latency_ns / 1e3,
            backlog_growing: false,
        })
        .collect();
    let slo_rps = slo_rate(&steps, limit_us);
    out.set("slo_rate_rps", slo_rps);
    println!(
        "  reference job (simulated time): {} {} at {:.1} Mrps, p50 {:.3} us, p99 {:.3} us; \
         throughput under the {:.2} us p99 SLO {:.3} Mrps",
        reference.workload,
        reference.policy,
        reference.rate_rps / 1e6,
        reference.p50_latency_ns / 1e3,
        reference.p99_latency_ns / 1e3,
        limit_us,
        slo_rps / 1e6
    );
    Ok(out)
}

/// Per-layer metrics from one traced pass: the harness timing sidecar,
/// one reference `ServerSim::run`, and replays of the blocked samplers,
/// the event queue and result recording at the pass's volume.
fn layer_metrics(w: SimWorkload, args: &RunArgs, pass: &Pass, out: &mut Outcome) {
    let timing = &pass.timing;
    let per_policy = |prefix: &str| {
        let (ms, events) = pass
            .report
            .jobs
            .iter()
            .zip(timing.job_wall_ms.iter().zip(&timing.job_events))
            .filter(|(job, _)| job.policy_key.starts_with(prefix))
            .fold((0.0, 0u64), |(ms, ev), (_, (&m, &e))| (ms + m, ev + e));
        if events == 0 {
            None
        } else {
            Some(ms * 1e6 / events as f64)
        }
    };
    if let Some(ns) = per_policy("hw-") {
        out.set("rpcvalet.ns_per_event.hw", ns);
    }
    if let Some(ns) = per_policy("sw-") {
        out.set("rpcvalet.ns_per_event.sw", ns);
    }
    out.set(
        "simkit.events",
        timing.job_events.iter().sum::<u64>() as f64,
    );
    out.set("simkit.overflow_pushes", timing.overflow_pushes as f64);
    out.set(
        "harness.pool_busy_frac",
        timing.cpu_ms / (timing.total_wall_ms * timing.threads as f64),
    );

    let jobs = w.matrix(args.seed).jobs();
    let reference = jobs
        .iter()
        .zip(&pass.report.jobs)
        .find(|(_, record)| w.reference(record))
        .map(|(spec, _)| spec.sim_config())
        .expect("reference job in the matrix");
    let (nodes, cores) = (reference.cluster_nodes, reference.chip.cores);
    let start = now();
    let result = rpcvalet::ServerSim::new(reference).run();
    let run_ns = start.elapsed().as_nanos() as f64;
    out.set(
        "rpcvalet.run_ns_per_event",
        run_ns / result.events_processed.max(1) as f64,
    );
    // Pending events: about one per request in flight (Little's law:
    // throughput × mean latency) plus one per core and the next arrival.
    let in_flight = result.throughput_rps * result.mean_latency_ns * 1e-9;
    let depth = in_flight.ceil() as usize + cores + 1;
    out.set(
        "simkit.queue_ns_per_op",
        layers::queue_ns_per_op(depth, result.events_processed, args.seed),
    );

    // One service distribution per workload label, drawn as often as
    // the pass drew it.
    let mut dists: Vec<(String, dist::ServiceDist, u64)> = Vec::new();
    let mut rates = Vec::new();
    for job in &jobs {
        let cfg = job.sim_config();
        let label = job.workload.label();
        match dists.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, _, n)) => *n += job.requests,
            None => dists.push((label, cfg.service.clone(), job.requests)),
        }
        rates.push((cfg.rate_rps, job.requests));
    }
    let dists: Vec<(dist::ServiceDist, u64)> = dists.into_iter().map(|(_, d, n)| (d, n)).collect();
    out.set("dist.sample_ns", layers::dist_sample_ns(&dists, args.seed));
    out.set(
        "sonuma.arrival_ns",
        layers::sonuma_arrival_ns(&rates, nodes, args.seed),
    );
    let per_job = jobs.first().map_or(0, |j| (j.requests - j.warmup) as usize);
    out.set(
        "metrics.record_ns",
        layers::metrics_record_ns(jobs.len() as u64, per_job, args.seed),
    );

    if w == SimWorkload::Anatomy {
        let mut untraced = w.matrix(args.seed);
        untraced.trace_capacity = 0;
        let (_, plain) = harness::run_matrix(&untraced, args.threads);
        out.set(
            "rpcvalet.trace_overhead_frac",
            timing.cpu_ms / plain.cpu_ms - 1.0,
        );
        println!(
            "  traced matrix {:.3} s of job time vs {:.3} s untraced",
            timing.cpu_ms / 1e3,
            plain.cpu_ms / 1e3
        );
    }
}
