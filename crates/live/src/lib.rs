//! # live — real loopback RPC serving, closing the sim-to-system loop
//!
//! Everything else in this workspace *simulates* RPCValet's dispatch
//! disciplines (ASPLOS '19 §4–6). This crate *runs* them: a
//! multi-threaded RPC server ([`Server`], shipped as the `valetd`
//! binary) and an open-loop Poisson load generator
//! ([`cluster::run_balancer`], the `loadgen` binary) speak a tiny
//! length-prefixed protocol over loopback TCP, with the paper's
//! dispatch policies implemented as software [`Dispatcher`]s:
//!
//! | policy | paper analogue |
//! |---|---|
//! | [`LivePolicy::SingleQueue`] | software 1×16 (shared lock-protected queue) |
//! | [`LivePolicy::Partitioned`] | 4×4 hardware partitioned dispatch |
//! | [`LivePolicy::RssStatic`] | 16×1 receive-side scaling |
//! | [`LivePolicy::Replenish`] | RPCValet: free workers post slots to a lock-free ring, a dispatch thread matches requests to them |
//!
//! The point is the paper's own model-vs-measurement discipline (its
//! Fig. 2 queueing models vs Fig. 7–9 system results): the simulator
//! predicts a p99 ordering across dispatch policies, and this crate
//! measures whether real threads on real queues reproduce it (see the
//! `live_vs_sim` bench binary).
//!
//! There is one client and one run entry point. Every in-process run
//! is described by one [`LiveRunConfig`] and executed by
//! [`cluster::run_cluster`]; a single server is the default plan, a
//! 1-node cluster, so it gets the same accounting, trace capture, and
//! client series as a multi-node tier with failure injection.
//!
//! ## In-process quickstart
//!
//! ```no_run
//! use live::cluster::run_cluster;
//! use live::{LivePolicy, LiveRunConfig};
//!
//! let config = LiveRunConfig::new(LivePolicy::Replenish)
//!     .connections(4)
//!     .seed(7);
//! let outcome = run_cluster(&config).unwrap();
//! println!("{}", outcome.stats.summary());
//! ```
//!
//! ## Cluster quickstart
//!
//! ```no_run
//! use live::cluster::run_cluster;
//! use live::{ClusterPlan, FailureMode, LivePolicy, LiveRunConfig};
//!
//! let config = LiveRunConfig::new(LivePolicy::Replenish)
//!     .cluster(ClusterPlan::new(3).failure(FailureMode::Drain));
//! let outcome = run_cluster(&config).unwrap();
//! outcome.accounting.assert_balanced("cluster quickstart");
//! ```

// This crate retains a handful of audited unsafe sites (see the
// adjacent // SAFETY: comments); new ones must be explicit.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cli;
pub mod cluster;
pub mod config;
pub mod dispatch;
pub mod exporter;
pub mod loadgen;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod stats;

pub use cluster::{Cluster, ClusterOutcome, NodeDirectory, NodeLaunch};
pub use config::{ClusterPlan, FailureMode, LiveRunConfig};
pub use dispatch::{
    make_dispatcher, make_dispatcher_batched, DispatchGauges, Dispatcher, LivePolicy, RouteKey,
};
pub use exporter::MetricsExporter;
pub use loadgen::{LiveRunStats, Schedule, ScheduledRequest};
pub use protocol::{
    encode_metrics_request, encode_stats_request, read_frame, write_frame, DrainAction, DrainReply,
    MetricsReply, MetricsWindow, Request, Response, StatsSnapshot, WorkerStats,
};
pub use ring::SlotRing;
pub use server::{BurnMode, Server, ServerConfig};
pub use stats::{render_prometheus, MetricsHub, ServerStats, TraceSink, SAMPLES_PER_WINDOW};

use std::io;
use std::net::{SocketAddr, TcpStream};

use protocol::{encode_drain_request, encode_shutdown_request};

/// Shrinks this thread's kernel timer slack to 1 ns (Linux
/// `PR_SET_TIMERSLACK`), so short `thread::sleep`s overshoot by
/// scheduling latency only instead of the default ~50 µs slack.
///
/// Called by every latency-sensitive thread (workers in sleep-burn mode,
/// the replenish dispatch thread, the load generator's sender): with the
/// default slack, each sleep-burned service time silently stretches by
/// tens of µs, which at µs-scale services shifts the *effective* load of
/// a run well above its nominal load. No-op off Linux or on failure.
pub fn reduce_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: i32 = 29;
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        // SAFETY: PR_SET_TIMERSLACK takes plain integer arguments and
        // only adjusts this thread's scheduling hint; the result is
        // checked nowhere because failure degrades to the default slack.
        unsafe {
            let _ = prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

/// Queries a running server's telemetry snapshot over a fresh
/// connection (the `STATS` verb).
pub fn query_stats(addr: SocketAddr) -> io::Result<StatsSnapshot> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &encode_stats_request())?;
    let payload = read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before the stats reply",
        )
    })?;
    StatsSnapshot::decode(&payload)
}

/// Queries a running server's sealed metrics windows with
/// `index >= since` over a fresh connection (the `METRICS` verb).
pub fn query_metrics(addr: SocketAddr, since: u64) -> io::Result<MetricsReply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &encode_metrics_request(since))?;
    let payload = read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before the metrics reply",
        )
    })?;
    MetricsReply::decode(&payload)
}

/// Sends a `DRAIN` command/query over a fresh connection and returns
/// the server's drain state ([`DrainAction::Query`] just observes).
pub fn query_drain(addr: SocketAddr, action: DrainAction) -> io::Result<DrainReply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &encode_drain_request(action))?;
    let payload = read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before the drain reply",
        )
    })?;
    DrainReply::decode(&payload)
}

/// Asks a remote server's host process to exit via the wire `SHUTDOWN`
/// verb, waiting for the acknowledgement (the process itself decides
/// when to stop serving — see `valetd`'s main loop).
pub fn request_remote_shutdown(addr: SocketAddr) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &encode_shutdown_request())?;
    read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before the shutdown acknowledgement",
        )
    })?;
    Ok(())
}
