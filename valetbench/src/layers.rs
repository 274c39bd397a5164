//! Layer replays: each times calls into one layer's public functions at
//! a workload's volume, from outside the program.

use std::hint::black_box;

use dist::ServiceDist;
use live::{Request, Response};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simkit::{EventQueue, SimDuration, SimTime};
use sonuma::{Arrival, NodeId, TrafficGenerator};

use crate::host::now;
use crate::rng::SplitMix64;

/// Block size of the blocked sampler calls, as the simulator's prefetch
/// stage uses them.
const BLOCK: usize = 256;

/// Host ns per variate of `ServiceDist::sample_block`, drawing
/// `draws[i]` variates from `dists[i]`.
pub fn dist_sample_ns(dists: &[(ServiceDist, u64)], seed: u64) -> f64 {
    let mut buf = [0.0f64; BLOCK];
    let mut total = 0u64;
    let start = now();
    for (i, (dist, draws)) in dists.iter().enumerate() {
        // detlint: allow(D004, reason = "replay input drawn from the benchmark's --seed")
        let mut rng = SmallRng::seed_from_u64(seed ^ i as u64);
        let mut left = *draws;
        while left > 0 {
            let n = left.min(BLOCK as u64) as usize;
            dist.sample_block(&mut rng, &mut buf[..n]);
            black_box(&buf);
            left -= n as u64;
        }
        total += draws;
    }
    start.elapsed().as_nanos() as f64 / total.max(1) as f64
}

/// Host ns per arrival of `TrafficGenerator::next_arrival_block`,
/// drawing `draws[i]` arrivals at `rates[i]` (requests/second) from a
/// `nodes`-node cluster.
pub fn sonuma_arrival_ns(rates: &[(f64, u64)], nodes: usize, seed: u64) -> f64 {
    let filler = Arrival {
        time: SimTime::ZERO,
        source: NodeId(0),
    };
    let mut buf = vec![filler; BLOCK];
    let mut total = 0u64;
    let start = now();
    for (i, &(rate, draws)) in rates.iter().enumerate() {
        let mut traffic = TrafficGenerator::new(nodes, rate, seed ^ i as u64);
        let mut left = draws;
        while left > 0 {
            let n = left.min(BLOCK as u64) as usize;
            traffic.next_arrival_block(&mut buf[..n]);
            black_box(&buf);
            left -= n as u64;
        }
        total += draws;
    }
    start.elapsed().as_nanos() as f64 / total.max(1) as f64
}

/// Host ns per `EventQueue` operation (one push or one pop) in a hold
/// model: `depth` events pending, each pop followed by a push a random
/// 0–2 µs later, `ops` pop/push pairs.
pub fn queue_ns_per_op(depth: usize, ops: u64, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let delta = |rng: &mut SplitMix64| SimDuration::from_ps(rng.below(2_000_000));
    for i in 0..depth {
        queue.push(SimTime::ZERO + delta(&mut rng), i as u32);
    }
    let start = now();
    for _ in 0..ops {
        let ev = queue.pop().expect("hold model keeps the queue non-empty");
        queue.push(ev.time + delta(&mut rng), black_box(ev.event));
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(queue.len());
    ns / (2 * ops.max(1)) as f64
}

/// Host ns per recorded sample of `metrics::Summary::record_block` plus
/// the p50/p99 `quantiles_unsorted` call, over `jobs` jobs of
/// `per_job` measured latencies each.
pub fn metrics_record_ns(jobs: u64, per_job: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let template: Vec<f64> = (0..per_job).map(|_| rng.exponential(600.0)).collect();
    let mut samples = template.clone();
    let mut elapsed_ns = 0u128;
    for _ in 0..jobs {
        samples.copy_from_slice(&template);
        let start = now();
        let mut summary = metrics::Summary::new();
        summary.record_block(&samples);
        let q = metrics::quantiles_unsorted(&mut samples, &[0.5, 0.99]);
        black_box((summary.mean_ns(), q));
        elapsed_ns += start.elapsed().as_nanos();
    }
    elapsed_ns as f64 / (jobs.max(1) as usize * per_job.max(1)) as f64
}

/// Host ns per request-plus-response `encode` and per `decode`, over
/// `n` round trips of `live::protocol` frames.
pub fn protocol_ns(n: u64) -> (f64, f64) {
    let request = |i: u64| Request {
        req_id: i,
        sent_at_ns: i * 500,
        service_ns: 6_000,
    };
    let response = |i: u64| Response {
        req_id: i,
        sent_at_ns: i * 500,
        service_ns: 6_000,
        worker: (i % 4) as u32,
    };
    let start = now();
    for i in 0..n {
        black_box((
            black_box(request(i)).encode(),
            black_box(response(i)).encode(),
        ));
    }
    let encode = start.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let (req, resp) = (request(7).encode(), response(7).encode());
    let start = now();
    for _ in 0..n {
        let r = Request::decode(black_box(&req[4..])).expect("valid request frame");
        let s = Response::decode(black_box(&resp[4..])).expect("valid response frame");
        black_box((r, s));
    }
    let decode = start.elapsed().as_nanos() as f64 / n.max(1) as f64;
    (encode, decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_report_positive_costs() {
        let dists = [(ServiceDist::exponential_mean_ns(600.0), 10_000)];
        assert!(dist_sample_ns(&dists, 1) > 0.0);
        assert!(sonuma_arrival_ns(&[(1e6, 10_000)], 200, 1) > 0.0);
        assert!(queue_ns_per_op(64, 10_000, 1) > 0.0);
        assert!(metrics_record_ns(2, 5_000, 1) > 0.0);
        let (enc, dec) = protocol_ns(10_000);
        assert!(enc > 0.0 && dec > 0.0);
    }
}
