//! # harness — parallel experiment orchestration
//!
//! The single entry point every experiment goes through: expand a
//! [`ScenarioMatrix`] (workload × policy × load point × replication) into
//! jobs, fan the jobs out over a pull-based dispatcher + worker pool
//! (each worker requests its next job when free, chroma-execution-engine
//! style), and collect a versioned, deterministic JSON [`SweepReport`].
//!
//! A job's [`JobKind`] selects its execution path — [`JobKind::ServerSim`]
//! (the full-system simulator, Figs. 7–8), [`JobKind::Queueing`] (the
//! theoretical Q×U models, Figs. 2 and 9), or [`JobKind::Live`] (real
//! loopback RPC serving via the `live` crate) — all through the same
//! matrix expansion, pool, and report machinery.
//!
//! The contract that makes parallelism safe to depend on: **a sweep's
//! report is byte-identical for any worker-thread count.** Job seeds
//! derive only from the matrix (`split_seed(master, load-point index)`,
//! the same convention the old sequential binaries used), results are
//! keyed by job index, and wall-clock data is segregated into a separate
//! [`SweepTiming`] sidecar. (Live jobs are exempt: they measure real
//! wall-clock behaviour, which is the point of running them.)
//!
//! ## Example
//!
//! ```
//! use harness::{RateGrid, ScenarioMatrix};
//! use rpcvalet::Policy;
//! use workloads::Workload;
//!
//! let matrix = ScenarioMatrix::new("demo", 42)
//!     .workloads(vec![Workload::Herd])
//!     .policies(vec![Policy::hw_single_queue()])
//!     .rates(RateGrid::Shared(vec![2.0e6, 10.0e6]))
//!     .requests(10_000, 1_000);
//! let (report, timing) = harness::run_matrix(&matrix, 2);
//! assert_eq!(report.jobs.len(), 2);
//! assert!(timing.total_wall_ms > 0.0);
//! let summary = &report.summaries()[0];
//! assert_eq!(summary.policy, "1x16");
//! assert!(summary.throughput_under_slo_rps > 0.0);
//! ```

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

pub mod catalog;
pub mod diff;
pub mod plot;
pub mod pool;
pub mod report;
pub mod resume;
pub mod scenario;
pub mod spec;
pub mod tracecmd;
pub mod trajectory;
pub mod watch;

pub use catalog::{
    catalog, find_scenario, readme_catalog_table, registry_problems, REQUIRED_SCENARIOS,
};
pub use diff::{diff_reports, BaselineDiff, Regression};
pub use plot::{
    latency_artifacts, series_artifacts, sparkline, svg_line_chart, text_panel,
    trajectory_artifacts, Series,
};
pub use watch::{
    live_spec_for_scenario, render_frame, watch_addr, watch_loopback, WatchConfig, WatchSummary,
};
pub use trajectory::{
    check_entry, current_commit, digest_reports, entry_from_run, migrate_legacy, params_for_entry,
    CheckReport, SidecarStats, TrajectoryEntry, TrajectoryMetric, TrajectoryStore, STORE_VERSION,
};
pub use pool::{
    default_threads, run_jobs, run_jobs_observed, run_jobs_series, JobDispatcher, JobOutcome,
};
pub use resume::{run_matrix_resumed, ResumeError};
pub use tracecmd::{
    capture_matrix, diff_stores, replay_store, schedule_from_events, summarize_store,
};
pub use scenario::{
    build_matrices, figures_dir, render_curve, run_scenario, validate_part, Artifact,
    ArtifactBody, Artifacts, Scenario, ScenarioParams, ScenarioRun,
};
pub use simkit::pool::effective_threads;
pub use report::{
    timing_from_outcomes, JobRecord, PointCi, PolicySummary, SweepReport, SweepTiming,
    REPORT_VERSION,
};
pub use spec::{
    policy_spec_key, set_prefetch_mode, ExperimentSpec, JobKind, LiveParams, Measurement,
    ObservedRun, PolicySpec, RateGrid, ScenarioMatrix, SeedMode, SimTune, WorkloadSpec,
};

/// Clamps a worker-thread count to 1 when any job is live: concurrent
/// loopback servers would contend for the same machine and corrupt each
/// other's wall-clock measurements.
pub fn threads_for_jobs(jobs: &[ExperimentSpec], threads: usize) -> usize {
    if jobs.iter().any(|j| j.kind() == JobKind::Live) {
        1
    } else {
        threads
    }
}

/// Runs a whole matrix on `threads` workers, returning the deterministic
/// report plus the wall-clock sidecar (which records the *effective*
/// worker count — `threads` clamped to the job count, and to 1 for
/// matrices with live jobs, which must own the machine).
pub fn run_matrix(matrix: &ScenarioMatrix, threads: usize) -> (SweepReport, SweepTiming) {
    let start = std::time::Instant::now(); // detlint: allow(D001, reason = "wall-clock sidecar; never enters the deterministic report")
    let jobs = matrix.jobs();
    let threads = threads_for_jobs(&jobs, threads);
    let effective = simkit::pool::effective_threads(threads, jobs.len());
    let outcomes = pool::run_jobs(jobs, threads);
    let total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = SweepReport::from_outcomes(matrix, &outcomes);
    let timing = report::timing_from_outcomes(matrix, &outcomes, effective, total_wall_ms);
    (report, timing)
}

/// [`run_matrix`], with request-lifecycle tracing: every job also
/// captures its first `capture` requests' hop events (see
/// [`run_jobs_observed`]). The report is byte-identical to the untraced
/// [`run_matrix`] report, and for sim/model matrices the event stream is
/// byte-identical for every `threads` value.
pub fn run_matrix_traced(
    matrix: &ScenarioMatrix,
    threads: usize,
    capture: usize,
) -> (SweepReport, SweepTiming, Vec<telemetry::TraceEvent>, u64) {
    let start = std::time::Instant::now(); // detlint: allow(D001, reason = "wall-clock sidecar; never enters the deterministic report")
    let jobs = matrix.jobs();
    let threads = threads_for_jobs(&jobs, threads);
    let effective = simkit::pool::effective_threads(threads, jobs.len());
    let (outcomes, events, dropped) = pool::run_jobs_observed(jobs, threads, capture);
    let total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = SweepReport::from_outcomes(matrix, &outcomes);
    let timing = report::timing_from_outcomes(matrix, &outcomes, effective, total_wall_ms);
    (report, timing, events, dropped)
}

/// [`run_matrix`], with windowed telemetry: every job also records a
/// time series at `series_interval_ps` (sim jobs sample simulated time
/// deterministically; live jobs window both server and client clocks).
/// The report is byte-identical to the unwindowed [`run_matrix`] report,
/// and for sim matrices the series collection is byte-identical for
/// every `threads` value.
pub fn run_matrix_series(
    matrix: &ScenarioMatrix,
    threads: usize,
    series_interval_ps: u64,
) -> (SweepReport, SweepTiming, Vec<telemetry::JobSeries>) {
    let start = std::time::Instant::now(); // detlint: allow(D001, reason = "wall-clock sidecar; never enters the deterministic report")
    let jobs = matrix.jobs();
    let threads = threads_for_jobs(&jobs, threads);
    let effective = simkit::pool::effective_threads(threads, jobs.len());
    let (outcomes, _events, _dropped, series) =
        pool::run_jobs_series(jobs, threads, 0, series_interval_ps);
    let total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = SweepReport::from_outcomes(matrix, &outcomes);
    let timing = report::timing_from_outcomes(matrix, &outcomes, effective, total_wall_ms);
    (report, timing, series)
}
