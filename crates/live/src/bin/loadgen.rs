//! `loadgen` — the open-loop Poisson load generator.
//!
//! ```text
//! loadgen --load 0.7 --requests 50000
//! loadgen --addr 127.0.0.1:7117 --workload herd --scale 1000 --load 0.9
//! loadgen --addrs 127.0.0.1:7117,127.0.0.1:7118,127.0.0.1:7119 --load 0.7
//! loadgen --drain-node 127.0.0.1:7118
//! ```
//!
//! Offered load is either `--rate <rps>` (absolute) or `--load <frac>`
//! (fraction of `workers / scaled-mean-service`; pass the server's
//! `--workers` so capacity matches — with `--addrs`, per node). Prints a
//! p50/p99/throughput summary from the latency histogram when the run
//! drains.
//!
//! Every run goes through the client-side balancer; `--addr` is a
//! one-entry `--addrs`. With several nodes, flows map to nodes by
//! rendezvous hashing and redirects from draining nodes are followed.
//! The run ends with a request-accounting line proving nothing was
//! lost. `--window-ms` adds a per-window throughput/latency table from
//! the client's own clock. `--drain-node ADDR` sends the wire `DRAIN`
//! verb to one node and exits — pair it with a running `--addrs`
//! loadgen to watch a drain live.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dist::ServiceDist;
use live::cli::{parse_addr_list, resolve_addr, Flags};
use live::cluster::{run_balancer, BalancerConfig, NodeDirectory};
use live::protocol::DrainAction;
use live::query_drain;
use workloads::Workload;

struct Args {
    addrs: String,
    drain_node: Option<String>,
    load: Option<f64>,
    rate: Option<f64>,
    requests: u64,
    warmup: Option<u64>,
    workload: Workload,
    scale: f64,
    conns: usize,
    workers: usize,
    seed: u64,
    window_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addrs: "127.0.0.1:7117".to_owned(),
        drain_node: None,
        load: None,
        rate: None,
        requests: 10_000,
        warmup: None,
        workload: Workload::Synthetic(dist::SyntheticKind::Exponential),
        scale: 1_000.0,
        conns: 8,
        workers: 4,
        seed: 1,
        window_ms: None,
    };
    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => args.addrs = flags.value("--addr")?,
            "--addrs" => args.addrs = flags.value("--addrs")?,
            "--drain-node" => args.drain_node = Some(flags.value("--drain-node")?),
            "--load" => args.load = Some(flags.parse("--load")?),
            "--rate" => args.rate = Some(flags.parse("--rate")?),
            "--requests" => args.requests = flags.parse_positive("--requests")?,
            "--warmup" => args.warmup = Some(flags.parse("--warmup")?),
            "--workload" => {
                args.workload = flags.value("--workload")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--scale" => args.scale = flags.parse("--scale")?,
            "--conns" => args.conns = flags.parse_positive("--conns")? as usize,
            "--workers" => args.workers = flags.parse_positive("--workers")? as usize,
            "--seed" => args.seed = flags.parse("--seed")?,
            "--window-ms" => args.window_ms = Some(flags.parse_positive("--window-ms")?),
            "--help" | "-h" => {
                return Err("usage: loadgen [--addr host:port | --addrs a,b,c] \
                            (--load frac | --rate rps) [--requests n] [--warmup n] \
                            [--workload name] [--scale x] [--conns n] [--workers n] \
                            [--seed n] [--window-ms n] | loadgen --drain-node host:port"
                    .to_owned())
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.load.is_none() && args.rate.is_none() {
        args.load = Some(0.7);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(node) = &args.drain_node {
        return drain_node(node);
    }
    let service: ServiceDist = args.workload.service_dist();
    let mean_ns = service.mean_ns() * args.scale;
    let addrs = match parse_addr_list(&args.addrs) {
        Ok(addrs) => addrs,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let total_workers = args.workers * addrs.len();
    let rate_rps = match (args.rate, args.load) {
        (Some(rate), _) => rate,
        (None, Some(load)) => load * total_workers as f64 * 1e9 / mean_ns,
        (None, None) => unreachable!("defaulted above"),
    };
    let warmup = args.warmup.unwrap_or(args.requests / 10).min(args.requests - 1);
    let expected = Duration::from_secs_f64(args.requests as f64 / rate_rps);
    let drain_timeout = expected * 3 + Duration::from_secs(10);

    println!(
        "loadgen -> {} node(s) : {} requests at {:.0} rps ({} workload, mean service {:.3} ms, ~{:.1} s)",
        addrs.len(),
        args.requests,
        rate_rps,
        args.workload,
        mean_ns / 1e6,
        expected.as_secs_f64()
    );
    let directory = Arc::new(NodeDirectory::new(addrs));
    let cfg = BalancerConfig {
        flows: args.conns,
        requests: args.requests,
        warmup,
        rate_rps,
        service,
        scale: args.scale,
        seed: args.seed,
        workers_hint: total_workers,
        drain_timeout,
        churn: false,
        series_interval: args.window_ms.map(Duration::from_millis),
    };
    match run_balancer(&cfg, &directory) {
        Ok((stats, accounting, redirects)) => {
            println!("{}", stats.summary());
            if let Some(series) = &stats.series {
                let derived = telemetry::derive_series(
                    &series.windows,
                    args.window_ms.unwrap_or(1) * 1_000_000_000,
                    series.cores,
                );
                println!("window  throughput_rps  p50_ms  p99_ms");
                for p in &derived {
                    println!(
                        "{:>6}  {:>14.1}  {:>6.3}  {:>6.3}",
                        p.index,
                        p.throughput_rps,
                        p.p50_ns / 1e6,
                        p.p99_ns / 1e6,
                    );
                }
            }
            println!(
                "accounting: {accounting}, lost {} ({redirects} redirect frame(s))",
                accounting.lost()
            );
            if accounting.lost() > 0 {
                eprintln!("warning: {} request(s) lost", accounting.lost());
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen failed: {e} (are the valetd nodes running?)");
            ExitCode::FAILURE
        }
    }
}

/// `--drain-node`: flip one node into drain mode over the wire and
/// report its state.
fn drain_node(node: &str) -> ExitCode {
    let addr = match resolve_addr(node) {
        Ok(addr) => addr,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match query_drain(addr, DrainAction::Begin) {
        Ok(reply) => {
            println!(
                "{addr} draining: {} request(s) still in flight",
                reply.inflight
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("drain {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}
