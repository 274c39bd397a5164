//! End-to-end cluster runs: churn, drain, migration, multi-process
//! supervision, and the traced single node, each proving the
//! request-accounting invariant `completed + redirected + rejected ==
//! issued` with zero lost.

use std::sync::Mutex;

use live::cluster::{run_cluster, run_cluster_with, NodeLaunch};
use live::{ClusterPlan, FailureMode, LivePolicy, LiveRunConfig};

/// Wall-clock runs must own the machine (same discipline as
/// `tests/loopback.rs`): concurrent clusters on a 1-CPU container steal
/// each other's sleeps.
static MACHINE: Mutex<()> = Mutex::new(());

fn cluster_config(nodes: usize, failure: FailureMode, requests: u64, seed: u64) -> LiveRunConfig {
    LiveRunConfig::new(LivePolicy::SingleQueue)
        .requests(requests, requests / 10)
        .seed(seed)
        .cluster(ClusterPlan::new(nodes).failure(failure))
}

#[test]
fn reconnect_storm_accounts_for_every_request() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    // Two nodes, sockets severed twice mid-run: every request must
    // still land in exactly one terminal state.
    let outcome = run_cluster(&cluster_config(2, FailureMode::Churn, 3_000, 21)).unwrap();
    let acct = outcome.accounting;
    assert!(
        acct.balanced(),
        "reconnect storm lost requests: {acct} (lost {})",
        acct.lost()
    );
    assert_eq!(acct.lost(), 0);
    assert_eq!(acct.issued, 3_000);
    assert!(outcome.stats.measured > 0, "nothing measured");
    // Whether the severed sockets caught requests in flight is timing-
    // dependent (usually they do — visible as `redirected`); the
    // invariant that cannot flake is that nothing fell through.
    eprintln!("storm accounting: {acct}");
}

#[test]
fn drain_and_restart_loses_nothing() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    // Three nodes; one drains, restarts on a fresh port, and rejoins
    // mid-run. The zero-lost guarantee is the whole point.
    let outcome = run_cluster(&cluster_config(3, FailureMode::Drain, 4_000, 22)).unwrap();
    let acct = outcome.accounting;
    acct.assert_balanced("live_drain test");
    assert_eq!(acct.lost(), 0, "drain lost requests: {acct}");
    assert_eq!(acct.rejected, 0, "drain should redirect, not reject: {acct}");
    assert_eq!(outcome.node_stats.len(), 3);
    // Every node served something (the restarted node rejoins and its
    // pre-restart snapshot is preserved).
    for (node, snap) in outcome.node_stats.iter().enumerate() {
        assert!(
            snap.completions() > 0,
            "node {node} served nothing: {snap:?}"
        );
    }
}

#[test]
fn migration_remaps_flows_without_losing_requests() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let outcome = run_cluster(&cluster_config(3, FailureMode::Migrate, 3_000, 23)).unwrap();
    let acct = outcome.accounting;
    acct.assert_balanced("live migration test");
    assert_eq!(acct.lost(), 0);
    // All three nodes served work both before and after the reshuffle
    // (we can only check the total here, but it must cover all nodes).
    let served: u64 = outcome.node_stats.iter().map(|s| s.completions()).sum();
    assert!(served >= acct.completed, "nodes served {served} < {acct}");
}

#[test]
fn multi_process_cluster_drains_under_supervision() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    // Real valetd child processes, supervised purely over the wire
    // (DRAIN to retire, SHUTDOWN to stop) — no signals involved.
    let valetd = std::path::PathBuf::from(env!("CARGO_BIN_EXE_valetd"));
    let config = cluster_config(2, FailureMode::Drain, 2_000, 24);
    let outcome = run_cluster_with(&config, NodeLaunch::Process(valetd)).unwrap();
    let acct = outcome.accounting;
    acct.assert_balanced("multi-process drain test");
    assert_eq!(acct.lost(), 0);
    assert_eq!(outcome.node_stats.len(), 2);
}

#[test]
fn single_node_run_traces_and_accounts_for_every_request() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    // The default plan is one node: the single-server run, with the
    // in-process trace ring on for its first 50 requests.
    let config = LiveRunConfig::new(LivePolicy::SingleQueue)
        .requests(300, 30)
        .seed(7)
        .trace_requests(50);
    let outcome = run_cluster(&config).unwrap();
    let acct = outcome.accounting;
    acct.assert_balanced("traced single-node run");
    assert_eq!(acct.issued, 300);
    assert_eq!(outcome.node_stats.len(), 1);
    assert!(!outcome.events.is_empty(), "the trace ring captured nothing");
    // The client's mean service demand is the schedule's own, pinned
    // bit for bit in tests/schedule.rs.
    assert_eq!(outcome.stats.mean_service_ns.to_bits(), 0x4112_1460_7e4b_17e5);
}

#[test]
fn tracing_a_multi_node_tier_is_rejected() {
    // Trace sequence numbers are per server, so one capture cannot span
    // nodes; the run is refused before any node starts.
    let config = cluster_config(3, FailureMode::None, 300, 7).trace_requests(50);
    assert!(config.validate().unwrap_err().contains("single node"));
    let err = run_cluster(&config).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}
