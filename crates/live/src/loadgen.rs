//! The open-loop request schedule and the statistics a run reports.
//!
//! Open-loop means arrivals follow a precomputed Poisson schedule that
//! does **not** react to response times — the only methodology that
//! exposes queueing collapse (a closed-loop generator self-throttles and
//! hides it). Latency is measured from each request's *scheduled* send
//! time, so generator lag under overload shows up as latency, exactly as
//! it would for real clients.
//!
//! The client that walks the schedule is
//! [`run_balancer`](crate::cluster::run_balancer): one loop for a single
//! server and for a cluster alike (a single server is a 1-node
//! directory).

use std::time::{Duration, Instant};

use dist::ServiceDist;
use metrics::LatencyHistogram;
use rand::rngs::SmallRng;
use rand::Rng;
use simkit::rng::stream_rng;
use telemetry::JobSeries;

use crate::cluster::BalancerConfig;

/// Upper bound on worker ids tracked in balance statistics; responses
/// claiming a larger id are counted for latency but not balance (the id
/// is wire data and must not size allocations).
pub const MAX_TRACKED_WORKERS: usize = 4_096;

/// Measured outcome of one client run.
#[derive(Debug, Clone)]
pub struct LiveRunStats {
    /// End-to-end latency histogram over measured completions.
    pub hist: LatencyHistogram,
    /// Requests sent.
    pub sent: u64,
    /// Responses received (any id).
    pub received: u64,
    /// Responses counted in the histogram (post-warm-up).
    pub measured: u64,
    /// Wall-clock from first send to last receive.
    pub elapsed: Duration,
    /// Measured completions per second over the measurement window.
    pub throughput_rps: f64,
    /// Mean end-to-end latency (ns).
    pub mean_latency_ns: f64,
    /// Median end-to-end latency (ns).
    pub p50_latency_ns: f64,
    /// 99th-percentile end-to-end latency (ns).
    pub p99_latency_ns: f64,
    /// Mean *intended* service demand over sent requests (ns, scaled).
    pub mean_service_ns: f64,
    /// Post-warm-up completions per server worker (from response tags).
    pub worker_completions: Vec<u64>,
    /// Jain fairness index over [`LiveRunStats::worker_completions`].
    pub load_balance_jain: f64,
    /// Client-side windowed latency series (present when
    /// [`BalancerConfig::series_interval`] was set): arrivals at
    /// scheduled send times, completions with end-to-end latency at
    /// receive times, per-worker completion share as dispatch groups.
    pub series: Option<JobSeries>,
}

impl LiveRunStats {
    /// The one-paragraph human summary the `loadgen` binary prints.
    pub fn summary(&self) -> String {
        format!(
            "sent {} received {} measured {}\n\
             throughput {:.1} rps over {:.2} s\n\
             latency p50 {:.3} ms  p99 {:.3} ms  mean {:.3} ms (from scheduled send)\n\
             service mean {:.3} ms  load-balance Jain {:.3}",
            self.sent,
            self.received,
            self.measured,
            self.throughput_rps,
            self.elapsed.as_secs_f64(),
            self.p50_latency_ns / 1e6,
            self.p99_latency_ns / 1e6,
            self.mean_latency_ns / 1e6,
            self.mean_service_ns / 1e6,
            self.load_balance_jain,
        )
    }
}

/// One request of a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledRequest {
    /// Send-order id.
    pub req_id: u64,
    /// Scheduled send time, in ns since the client's epoch (the
    /// open-loop latency origin).
    pub sent_at_ns: u64,
    /// Scaled service demand the worker must burn, in ns.
    pub service_ns: u64,
    /// The client flow (connection) the request rides on.
    pub flow: usize,
}

/// The open-loop request stream of one run: exponential inter-arrival
/// gaps at the offered rate (RNG stream `(seed, 0)`), a uniformly drawn
/// flow per request (`(seed, 1)`), and a service demand sampled from
/// the profile and scaled (`(seed, 2)`).
///
/// A pure function of the config — no clock, no sockets — so the exact
/// stream a seed sends is pinned by test.
#[derive(Debug, Clone)]
pub struct Schedule {
    arrival_rng: SmallRng,
    route_rng: SmallRng,
    service_rng: SmallRng,
    service: ServiceDist,
    scale: f64,
    flows: usize,
    mean_gap_ns: f64,
    requests: u64,
    next_id: u64,
    next_send_ns: f64,
    service_sum_ns: f64,
}

impl Schedule {
    /// The schedule `cfg` sends.
    pub fn new(cfg: &BalancerConfig) -> Schedule {
        Schedule {
            arrival_rng: stream_rng(cfg.seed, 0),
            route_rng: stream_rng(cfg.seed, 1),
            service_rng: stream_rng(cfg.seed, 2),
            service: cfg.service.clone(),
            scale: cfg.scale,
            flows: cfg.flows,
            mean_gap_ns: 1e9 / cfg.rate_rps,
            requests: cfg.requests,
            next_id: 0,
            next_send_ns: 0.0,
            service_sum_ns: 0.0,
        }
    }

    /// Mean scaled service demand over the requests drawn so far (ns;
    /// 0 before the first).
    pub fn mean_service_ns(&self) -> f64 {
        if self.next_id > 0 {
            self.service_sum_ns / self.next_id as f64
        } else {
            0.0
        }
    }
}

impl Iterator for Schedule {
    type Item = ScheduledRequest;

    fn next(&mut self) -> Option<ScheduledRequest> {
        if self.next_id >= self.requests {
            return None;
        }
        let u: f64 = self.arrival_rng.gen();
        self.next_send_ns += -self.mean_gap_ns * (1.0 - u).ln();
        let service_ns =
            (self.service.sample_ns(&mut self.service_rng) * self.scale).max(0.0) as u64;
        self.service_sum_ns += service_ns as f64;
        let flow = self.route_rng.gen_range(0..self.flows);
        let req = ScheduledRequest {
            req_id: self.next_id,
            sent_at_ns: self.next_send_ns as u64,
            service_ns,
            flow,
        };
        self.next_id += 1;
        Some(req)
    }
}

/// Sleeps until `clock + target_ns`. Always sleeps — never spins — so
/// the sender cannot starve workers and readers on a 1-CPU machine; the
/// ~50 µs timer-slack oversleep this costs is an accepted send-jitter
/// (the schedule is absolute, so lateness does not compound).
pub(crate) fn wait_until(clock: Instant, target_ns: u64) {
    let target = Duration::from_nanos(target_ns);
    loop {
        let now = clock.elapsed();
        if now >= target {
            return;
        }
        std::thread::sleep(target - now);
    }
}
