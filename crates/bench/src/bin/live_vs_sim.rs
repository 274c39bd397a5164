//! `live_vs_sim` — closes the sim-to-system loop.
//!
//! The paper's own discipline (Fig. 2 queueing models vs Fig. 7–9 system
//! measurements), applied to this repo: the queueing simulator predicts
//! a p99 ordering across dispatch disciplines — single queue ≤
//! partitioned ≤ RSS at high load — and this binary checks that *real
//! threads on real queues* (the `live` crate over loopback TCP)
//! reproduce it at matched load points.
//!
//! Both paths run through the same harness machinery: a
//! [`JobKind::Queueing`] matrix for the models and a [`JobKind::Live`]
//! matrix for the loopback system, sweeping identical load fractions.
//! Latencies are compared normalized to each side's mean service time
//! (the live side runs the same exponential profile scaled to µs-sleeps,
//! so worker "cores" overlap even on a 1-CPU machine).
//!
//! Exits non-zero if either side violates the ordering — the CI smoke
//! job runs `--quick` to keep the subsystem from bit-rotting.
//!
//! Usage: `cargo run -p bench --release --bin live_vs_sim [--quick]`

use std::process::ExitCode;

use bench::write_json;
use dist::{ServiceDist, SyntheticKind};
use harness::{
    default_threads, run_matrix, JobKind, LiveParams, RateGrid, ScenarioMatrix, SweepReport,
};
use live::{BurnMode, ClusterPlan, LivePolicy};
use queueing::QxU;
use serde::Serialize;
use workloads::Workload;

/// Matched load fractions; the ordering is asserted at the highest.
const LOADS: [f64; 2] = [0.5, 0.85];
const WORKERS: usize = 4;
/// 600 ns exponential profile × 500 -> 300 µs mean sleeps.
const SCALE: f64 = 500.0;
/// Adjacent-policy slack: the real gaps are ≥ 1.3×, scheduler noise is
/// not.
const TOLERANCE: f64 = 1.15;

#[derive(Serialize)]
struct PolicyRow {
    policy: String,
    sim_p99_over_s: f64,
    live_p99_over_s: f64,
    live_throughput_rps: f64,
    live_jain: f64,
}

#[derive(Serialize)]
struct LiveVsSim {
    load: f64,
    workers: u64,
    rows: Vec<PolicyRow>,
    sim_ordering_holds: bool,
    live_ordering_holds: bool,
}

/// p99 / S̄ at the given load for each policy group, in matrix policy
/// order.
fn normalized_p99s(report: &SweepReport, load: f64) -> Vec<(String, f64)> {
    report
        .summaries()
        .iter()
        .map(|s| {
            let point = s
                .curve
                .points
                .iter()
                .find(|p| p.offered_load == load)
                .unwrap_or_else(|| panic!("no point at load {load} for {}", s.policy));
            (s.policy.clone(), point.p99_latency_ns / s.mean_service_ns)
        })
        .collect()
}

/// single ≤ partitioned·tol ≤ rss·tol² on the first three entries.
fn ordering_holds(p99s: &[(String, f64)]) -> bool {
    p99s[0].1 <= p99s[1].1 * TOLERANCE && p99s[1].1 <= p99s[2].1 * TOLERANCE
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let requests = if quick { 1_000 } else { 4_000 };
    println!("=== live_vs_sim: measured loopback serving vs queueing models ===");
    println!(
        "  {WORKERS} workers, exponential service, loads {LOADS:?}, {requests} requests/point\n"
    );

    // The model side: 1xW, 2x(W/2), Wx1 — the paper's spectrum at this
    // worker count (plus nothing for replenish: its model *is* 1xW).
    let sim_matrix = ScenarioMatrix::new("live-vs-sim-model", 314)
        .service_workloads(vec![(
            "exp".to_owned(),
            ServiceDist::exponential_mean_ns(600.0),
        )])
        .model_policies(vec![
            QxU::new(1, WORKERS),
            QxU::new(2, WORKERS / 2),
            QxU::new(WORKERS, 1),
        ])
        .rates(RateGrid::Shared(LOADS.to_vec()))
        .requests(60_000, 6_000);
    assert!(sim_matrix.jobs().iter().all(|j| j.kind() == JobKind::Queueing));
    let (sim_report, _) = run_matrix(&sim_matrix, default_threads());

    // The system side: the same disciplines as software over loopback
    // TCP, plus replenish (RPCValet's, which emulates the single queue).
    let live_matrix = ScenarioMatrix::new("live-vs-sim-live", 314)
        .workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
        .live_policies(
            vec![
                LivePolicy::SingleQueue,
                LivePolicy::Partitioned { groups: 2 },
                LivePolicy::RssStatic,
                LivePolicy::Replenish,
            ],
            LiveParams {
                workers: WORKERS,
                burn: BurnMode::Sleep,
                connections: WORKERS * 2,
                scale: SCALE,
                replenish_batch: 1,
                cluster: ClusterPlan::default(),
            },
        )
        .rates(RateGrid::Shared(LOADS.to_vec()))
        .requests(requests, requests / 10);
    assert!(live_matrix.jobs().iter().all(|j| j.kind() == JobKind::Live));
    // Live jobs share the machine's real clock: run them one at a time
    // so concurrent servers don't contend for the same cores.
    let (live_report, _) = run_matrix(&live_matrix, 1);

    let top_load = LOADS[LOADS.len() - 1];
    let sim_p99s = normalized_p99s(&sim_report, top_load);
    let live_p99s = normalized_p99s(&live_report, top_load);
    let live_summaries = live_report.summaries();

    println!(
        "  {:<12} {:>16} {:>16} {:>14} {:>8}",
        "policy", "sim p99 (xS)", "live p99 (xS)", "live tput", "jain"
    );
    let mut rows = Vec::new();
    for (i, (policy, live_p99)) in live_p99s.iter().enumerate() {
        let sim_p99 = sim_p99s.get(i).map(|(_, v)| *v);
        let summary = &live_summaries[i];
        let point = summary
            .curve
            .points
            .iter()
            .find(|p| p.offered_load == top_load)
            .expect("top-load point");
        let jain = live_report
            .jobs
            .iter()
            .find(|j| j.policy_key == summary.policy_key && j.rate_rps == top_load)
            .map(|j| j.load_balance_jain)
            .unwrap_or(0.0);
        println!(
            "  {:<12} {:>16} {:>16.1} {:>14.0} {:>8.3}",
            policy,
            sim_p99.map_or("-".to_owned(), |v| format!("{v:.1}")),
            live_p99,
            point.throughput_rps,
            jain
        );
        rows.push(PolicyRow {
            policy: policy.clone(),
            sim_p99_over_s: sim_p99.unwrap_or(f64::NAN),
            live_p99_over_s: *live_p99,
            live_throughput_rps: point.throughput_rps,
            live_jain: jain,
        });
    }

    let sim_ok = ordering_holds(&sim_p99s);
    let live_ok = ordering_holds(&live_p99s);
    println!(
        "\n  at load {top_load}: sim ordering (1x{W} <= 2x{half} <= {W}x1): {}",
        if sim_ok { "HOLDS" } else { "VIOLATED" },
        W = WORKERS,
        half = WORKERS / 2,
    );
    println!(
        "  live ordering (single <= partitioned <= rss):  {}",
        if live_ok { "HOLDS" } else { "VIOLATED" }
    );
    println!("  (the live replenish row should track the single-queue row: it *is* the 1x{WORKERS} discipline, dispatched by a thread instead of an NI)");

    write_json(
        "live_vs_sim",
        &LiveVsSim {
            load: top_load,
            workers: WORKERS as u64,
            rows,
            sim_ordering_holds: sim_ok,
            live_ordering_holds: live_ok,
        },
    );

    if sim_ok && live_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
