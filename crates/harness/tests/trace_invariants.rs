//! Cross-layer invariants of unified request-lifecycle tracing: the
//! per-hop durations of every traced request must sum to its
//! end-to-end latency, in both simulator and live captures.
//!
//! All five hop stamps sit on one clock (virtual picoseconds in the
//! sim, one monotonic epoch in the live server), so the telescoping sum
//! `reassembly + dispatch + core_queue + processing = total` is exact
//! in integer picoseconds — up to one wrinkle: `core_queue` is
//! *saturating*, because a live worker can stamp `started` a hair
//! before the reader thread's post-submit `dispatched` stamp. The exact
//! invariant is therefore `sum = total + max(0, dispatched - started)`,
//! which these tests assert for every timeline; simulator timelines
//! must additionally all be monotone (zero saturation excess).

use dist::SyntheticKind;
use harness::{
    ExperimentSpec, LiveParams, PolicySpec, RateGrid, ScenarioMatrix, WorkloadSpec,
};
use live::{BurnMode, ClusterPlan, LivePolicy};
use rpcvalet::Policy;
use telemetry::{assemble_timelines, TraceEvent};
use workloads::Workload;

/// Asserts the hop-sum identity on every complete timeline; returns how
/// many timelines were non-monotone (saturated `core_queue`).
fn assert_hop_sums(events: &[TraceEvent]) -> (usize, usize) {
    let assembled = assemble_timelines(events);
    assert!(
        !assembled.timelines.is_empty(),
        "capture produced no complete timelines"
    );
    let mut saturated = 0;
    for t in &assembled.timelines {
        let excess_ps = t.dispatched_ps.saturating_sub(t.started_ps);
        if excess_ps > 0 {
            saturated += 1;
        }
        let sum = t.reassembly_ns() + t.dispatch_ns() + t.core_queue_ns() + t.processing_ns();
        let expected = t.total_ns() + excess_ps as f64 / 1_000.0;
        let tolerance = 1e-9 * expected.abs() + 1e-6;
        assert!(
            (sum - expected).abs() <= tolerance,
            "hop durations must sum to end-to-end latency: sum {sum} vs expected {expected} \
             (total {}, excess {excess_ps} ps) for {t:?}",
            t.total_ns()
        );
    }
    (assembled.timelines.len(), saturated)
}

#[test]
fn sim_hop_durations_sum_to_end_to_end() {
    let matrix = ScenarioMatrix::new("hop-sum-sim", 21)
        .service_workloads(vec![(
            "exp600".to_owned(),
            dist::ServiceDist::exponential_mean_ns(600.0),
        )])
        .policies(vec![Policy::hw_single_queue(), Policy::hw_static()])
        .rates(RateGrid::Shared(vec![8.0e6]))
        .requests(3_000, 300);
    for spec in matrix.jobs() {
        let observed = spec.run_observed(1_500, 0);
        let (timelines, saturated) = assert_hop_sums(&observed.events);
        assert_eq!(timelines, 1_500, "every captured request reassembles");
        assert_eq!(
            saturated, 0,
            "simulated stamps are monotone: started never precedes dispatched"
        );
        assert_eq!(observed.dropped, 0);
    }
}

#[test]
fn live_hop_durations_sum_to_end_to_end() {
    let spec = ExperimentSpec {
        workload: WorkloadSpec::Named(Workload::Synthetic(SyntheticKind::Exponential)),
        policy: PolicySpec::Live(
            LivePolicy::SingleQueue,
            LiveParams {
                workers: 2,
                burn: BurnMode::Sleep,
                connections: 4,
                scale: 50.0,
                replenish_batch: 1,
                cluster: ClusterPlan::default(),
            },
        ),
        rate_rps: 0.6,
        requests: 80,
        warmup: 8,
        seed: 5,
        replication: 0,
        chip: None,
        trace_capacity: 0,
    };
    let observed = spec.run_observed(80, 0);
    let (timelines, _saturated) = assert_hop_sums(&observed.events);
    assert!(
        timelines >= 60,
        "most of the 80 traced requests complete all five hops (got {timelines})"
    );
    // The STATS snapshot folded into the measurement: the server really
    // served the run.
    let m = &observed.measurement;
    assert!(m.measured > 0 && m.throughput_rps > 0.0);
    assert!(
        m.dispatcher_high_water >= 1,
        "a single shared queue under 4 connections shows a high-water mark"
    );
}
