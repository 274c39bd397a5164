//! The cluster serving tier: N supervised `valetd` nodes behind a
//! client-side balancer.
//!
//! Three pieces, mirroring how a real serving tier is built:
//!
//! * [`NodeDirectory`] — the shared routing table. Flows map to nodes
//!   by rendezvous (highest-random-weight) hashing over the *alive*
//!   nodes, so marking one node down remaps only the flows that lived
//!   there. Every mutation bumps an epoch the balancer watches.
//! * [`Cluster`] — the supervisor. Starts nodes [`NodeLaunch::InProcess`]
//!   (harness, tests) or as real `valetd` child processes
//!   ([`NodeLaunch::Process`]), and runs the graceful-drain cycle:
//!   drain over the wire, wait for in-flight zero, restart on a fresh
//!   port, rejoin the directory.
//! * [`run_balancer`] / [`run_cluster`] — the open-loop load generator
//!   (the workspace's only live client; a single server is a 1-node
//!   directory) taught about redirects and reconnects. Every request
//!   ends in exactly one of completed / redirected / rejected, tallied
//!   in a [`RequestAccounting`]; anything else is a *lost* request and
//!   the run's accounting check fails.
//!
//! The failure drivers ([`FailureMode`]) are the point: churn proves
//! the balancer survives a reconnect storm, drain proves a node can
//! leave and rejoin with zero lost in-flight requests, and migrate
//! proves flows can move between dispatch groups mid-run.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dist::ServiceDist;
use metrics::{jain_index, LatencyHistogram, RequestAccounting};
use simkit::rng::split_seed;
use simkit::SimDuration;
use telemetry::{EventRing, RingFlusher, SeriesRecorder, TraceEvent};

use crate::config::{ClusterPlan, FailureMode, LiveRunConfig};
use crate::loadgen::{wait_until, LiveRunStats, Schedule, MAX_TRACKED_WORKERS};
use crate::protocol::{
    read_frame, DrainAction, Redirect, Request, Response, StatsSnapshot, KIND_REDIRECT,
    KIND_RESPONSE,
};
use crate::server::{BurnMode, Server};
use crate::stats::TraceSink;
use crate::{query_drain, query_stats, request_remote_shutdown};

/// Resends per request before the balancer gives up and counts it
/// rejected (a redirect and a severed socket each cost one attempt).
pub const RETRY_LIMIT: u32 = 5;

/// One routing slot: where the node listens and whether it takes work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSlot {
    /// The node's listening address (changes across a restart).
    pub addr: SocketAddr,
    /// Down or draining nodes are skipped by [`NodeDirectory::route`].
    pub alive: bool,
}

#[derive(Debug)]
struct DirectoryState {
    nodes: Vec<NodeSlot>,
    epoch: u64,
    shuffle: u64,
}

/// The shared flow→node routing table.
///
/// Routing is rendezvous hashing keyed by `(flow, shuffle)`: each flow
/// independently ranks the nodes and takes the highest-ranked *alive*
/// one. Draining a node therefore moves only its own flows (everyone
/// else's top pick is unchanged), while [`NodeDirectory::migrate`]
/// bumps the shuffle salt and deliberately re-deals every flow.
///
/// Every mutation bumps `epoch`; the balancer compares epochs before
/// each send and re-resolves a flow's connection when stale. This is
/// the explicit migration-epoch contract: no connection is reused
/// across a routing change without re-checking the directory.
#[derive(Debug)]
pub struct NodeDirectory {
    state: Mutex<DirectoryState>,
}

impl NodeDirectory {
    /// A directory with every node alive, at epoch 0.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        NodeDirectory {
            state: Mutex::new(DirectoryState {
                nodes: addrs
                    .into_iter()
                    .map(|addr| NodeSlot { addr, alive: true })
                    .collect(),
                epoch: 0,
                shuffle: 0,
            }),
        }
    }

    /// The current epoch (bumped by every mutation).
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("directory").epoch
    }

    /// A consistent copy of the routing table.
    pub fn nodes(&self) -> Vec<NodeSlot> {
        self.state.lock().expect("directory").nodes.clone()
    }

    /// Marks a node up or down and bumps the epoch.
    pub fn set_alive(&self, node: usize, alive: bool) {
        let mut state = self.state.lock().expect("directory");
        state.nodes[node].alive = alive;
        state.epoch += 1;
    }

    /// Rejoins a restarted node at its new address and bumps the epoch.
    pub fn replace(&self, node: usize, addr: SocketAddr) {
        let mut state = self.state.lock().expect("directory");
        state.nodes[node] = NodeSlot { addr, alive: true };
        state.epoch += 1;
    }

    /// Re-deals every flow by bumping the rendezvous shuffle salt.
    pub fn migrate(&self) {
        let mut state = self.state.lock().expect("directory");
        state.shuffle += 1;
        state.epoch += 1;
    }

    /// Marks a node dead *only if* it is still alive at `addr` — the
    /// redirect-failover path. The address guard makes late redirect
    /// frames from a retired socket harmless: once the node restarts at
    /// a new address, they no longer match and change nothing.
    pub fn mark_dead_if(&self, node: usize, addr: SocketAddr) -> bool {
        let mut state = self.state.lock().expect("directory");
        let slot = &mut state.nodes[node];
        if slot.alive && slot.addr == addr {
            slot.alive = false;
            state.epoch += 1;
            true
        } else {
            false
        }
    }

    /// The node `flow` maps to right now: `(epoch, node index, addr)`,
    /// or `None` when no node is alive.
    pub fn route(&self, flow: u64) -> Option<(u64, usize, SocketAddr)> {
        let state = self.state.lock().expect("directory");
        state
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.alive)
            .max_by_key(|(node, _)| rendezvous_weight(flow, *node, state.shuffle))
            .map(|(node, slot)| (state.epoch, node, slot.addr))
    }
}

/// Rendezvous weight for `(flow, node)` under the current shuffle salt
/// — a pure SplitMix64 chain, so every balancer ranks identically.
fn rendezvous_weight(flow: u64, node: usize, shuffle: u64) -> u64 {
    split_seed(split_seed(flow, shuffle), node as u64 + 1)
}

/// How the supervisor obtains its nodes.
#[derive(Debug, Clone)]
pub enum NodeLaunch {
    /// [`Server::start`] in this process (harness and tests).
    InProcess,
    /// Spawn the real `valetd` binary at this path; nodes are separate
    /// processes supervised over the wire (`DRAIN` / `SHUTDOWN` verbs).
    Process(PathBuf),
}

enum NodeHandle {
    InProcess(Server),
    Process(Child),
}

/// A node's in-process request-lifecycle capture: a bounded ring its
/// hot path stamps into, drained by a background flusher (the server
/// never blocks on trace I/O; a full ring shows up as dropped events,
/// never as latency).
struct TraceCapture {
    ring: Arc<EventRing>,
    flusher: RingFlusher<Vec<TraceEvent>>,
}

/// A supervised set of live nodes sharing one [`NodeDirectory`].
pub struct Cluster {
    nodes: Mutex<Vec<Option<NodeHandle>>>,
    directory: Arc<NodeDirectory>,
    launch: NodeLaunch,
    config: LiveRunConfig,
    trace: Mutex<Option<TraceCapture>>,
}

impl Cluster {
    /// Starts `cfg.cluster` nodes (each `cfg.workers` workers of
    /// `cfg.policy`) and a directory listing them all alive. With
    /// [`LiveRunConfig::trace_requests`] set, the (single, in-process)
    /// node stamps its first requests' hops into a trace ring whose
    /// capture [`run_cluster`] returns in [`ClusterOutcome::events`].
    pub fn start(cfg: &LiveRunConfig, launch: NodeLaunch) -> io::Result<Cluster> {
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let ring = match (&launch, cfg.trace_requests) {
            (_, 0) => None,
            (NodeLaunch::InProcess, _) => Some(Arc::new(EventRing::with_capacity(8 * 1024))),
            (NodeLaunch::Process(_), _) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "request tracing needs an in-process node",
                ))
            }
        };
        let mut sink = ring
            .as_ref()
            .map(|ring| TraceSink::new(Arc::clone(ring), cfg.trace_requests));
        let plan = cfg.cluster;
        let mut nodes = Vec::with_capacity(plan.nodes);
        let mut addrs = Vec::with_capacity(plan.nodes);
        for _ in 0..plan.nodes {
            // `validate` allows tracing on one node only.
            let (handle, addr) = start_node(cfg, &launch, sink.take())?;
            nodes.push(Some(handle));
            addrs.push(addr);
        }
        // The flusher starts only once every node is up, so a failed
        // start leaves no thread behind (nothing is traced before the
        // first request anyway).
        let trace = ring.map(|ring| TraceCapture {
            flusher: RingFlusher::spawn(Arc::clone(&ring), Vec::new()),
            ring,
        });
        Ok(Cluster {
            nodes: Mutex::new(nodes),
            directory: Arc::new(NodeDirectory::new(addrs)),
            launch,
            config: cfg.clone(),
            trace: Mutex::new(trace),
        })
    }

    /// The trace capture and its dropped-event count (empty when
    /// tracing was off). Call after [`Cluster::stop`]: with the node
    /// stopped, the flusher's final drain returns the complete capture.
    fn finish_trace(&self) -> (Vec<TraceEvent>, u64) {
        match self.trace.lock().expect("cluster trace").take() {
            Some(capture) => (capture.flusher.finish(), capture.ring.dropped()),
            None => (Vec::new(), 0),
        }
    }

    /// The shared routing table (hand clones to balancers and drivers).
    pub fn directory(&self) -> Arc<NodeDirectory> {
        Arc::clone(&self.directory)
    }

    /// The graceful drain-and-restart cycle for one node:
    ///
    /// 1. put the node in drain mode over the wire (it starts answering
    ///    new requests with redirects),
    /// 2. mark it dead in the directory, remapping its flows,
    /// 3. poll its in-flight gauge to zero — every request it already
    ///    accepted completes normally,
    /// 4. stop it, start a replacement on a fresh port, rejoin.
    ///
    /// Returns the drained node's final telemetry snapshot (its
    /// redirect count outlives the restart this way).
    pub fn drain_and_restart(&self, node: usize) -> io::Result<StatsSnapshot> {
        let addr = self.directory.nodes()[node].addr;
        query_drain(addr, DrainAction::Begin)?;
        self.directory.set_alive(node, false);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let reply = query_drain(addr, DrainAction::Query)?;
            if reply.inflight == 0 {
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("node {node} still has {} in flight", reply.inflight),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let parting = query_stats(addr)?;
        let handle = self.nodes.lock().expect("cluster nodes")[node].take();
        if let Some(handle) = handle {
            stop_node(handle, addr, true)?;
        }
        let (handle, new_addr) = start_node(&self.config, &self.launch, None)?;
        self.nodes.lock().expect("cluster nodes")[node] = Some(handle);
        self.directory.replace(node, new_addr);
        Ok(parting)
    }

    /// Stops every node (plain stop — callers drain first if they care).
    pub fn stop(&self) {
        let mut nodes = self.nodes.lock().expect("cluster nodes");
        let slots = self.directory.nodes();
        for (node, handle) in nodes.iter_mut().enumerate() {
            if let Some(handle) = handle.take() {
                let _ = stop_node(handle, slots[node].addr, false);
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

fn start_node(
    cfg: &LiveRunConfig,
    launch: &NodeLaunch,
    trace: Option<TraceSink>,
) -> io::Result<(NodeHandle, SocketAddr)> {
    match launch {
        NodeLaunch::InProcess => {
            let server = Server::start(cfg.server_config(trace), "127.0.0.1:0")?;
            let addr = server.local_addr();
            Ok((NodeHandle::InProcess(server), addr))
        }
        NodeLaunch::Process(valetd) => {
            let mut child = Command::new(valetd)
                .args([
                    "--policy",
                    &cfg.policy.to_string(),
                    "--workers",
                    &cfg.workers.to_string(),
                    "--burn",
                    match cfg.burn {
                        BurnMode::Sleep => "sleep",
                        BurnMode::Spin => "spin",
                    },
                    "--port",
                    "0",
                ])
                .stdout(Stdio::piped())
                .spawn()?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("valetd child has no stdout"))?;
            match read_listening_addr(stdout) {
                Ok(addr) => Ok((NodeHandle::Process(child), addr)),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    Err(e)
                }
            }
        }
    }
}

/// Parses the child's startup banner (`valetd listening on ADDR (...)`)
/// and then detaches a thread to keep its stdout pipe drained.
fn read_listening_addr(stdout: std::process::ChildStdout) -> io::Result<SocketAddr> {
    use std::io::BufRead;
    let mut reader = io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "valetd exited before announcing its address",
            ));
        }
        if let Some(rest) = line.strip_prefix("valetd listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad banner: {line}"))
                })?;
            std::thread::Builder::new()
                .name("valetd-stdout".to_owned())
                .spawn(move || {
                    let mut sink = String::new();
                    while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                        sink.clear();
                    }
                })
                .expect("spawn stdout drain");
            return Ok(addr);
        }
    }
}

fn stop_node(handle: NodeHandle, addr: SocketAddr, drained: bool) -> io::Result<()> {
    match handle {
        NodeHandle::InProcess(server) => {
            if drained {
                server.stop_after_drain();
            } else {
                server.stop();
            }
            Ok(())
        }
        NodeHandle::Process(mut child) => {
            // Supervision is wire-only: ask politely, then wait. valetd
            // itself picks the drain-safe stop when it was draining.
            if request_remote_shutdown(addr).is_err() {
                let _ = child.kill();
            }
            child.wait()?;
            Ok(())
        }
    }
}

/// What one request still in flight looks like to the balancer.
#[derive(Debug)]
struct Pending {
    /// Scheduled send time (the open-loop latency origin — resends keep
    /// it, so redirect detours show up as latency).
    sent_at_ns: u64,
    service_ns: u64,
    /// Resends so far; past [`RETRY_LIMIT`] the request is rejected.
    attempts: u32,
    /// Owning flow (used to requeue when that flow's socket dies).
    flow: usize,
}

/// What the reply readers tally, folded into [`LiveRunStats`] once the
/// run ends.
struct Agg {
    hist: LatencyHistogram,
    worker_counts: Vec<u64>,
    received: u64,
    first_measured_ns: Option<u64>,
    last_measured_ns: Option<u64>,
    /// Completions with `req_id < warmup` are counted but not measured.
    warmup: u64,
    /// Client-side windowed series, when
    /// [`BalancerConfig::series_interval`] is set.
    series: Option<SeriesRecorder>,
}

impl Agg {
    fn new(cfg: &BalancerConfig) -> Agg {
        let workers = cfg.workers_hint.max(1);
        Agg {
            hist: LatencyHistogram::new(),
            worker_counts: vec![0; cfg.workers_hint],
            received: 0,
            first_measured_ns: None,
            last_measured_ns: None,
            warmup: cfg.warmup,
            series: cfg.series_interval.map(|interval| {
                let interval_ps = (interval.as_nanos() as u64).max(1).saturating_mul(1_000);
                SeriesRecorder::new(interval_ps, workers, workers)
            }),
        }
    }

    /// Tallies the first completion of `req_id`, scheduled at
    /// `sent_at_ns`, received at `now_ns`, served by tier-wide worker
    /// index `worker`.
    fn record(&mut self, req_id: u64, sent_at_ns: u64, now_ns: u64, worker: usize) {
        self.received += 1;
        if req_id < self.warmup {
            return;
        }
        let latency = now_ns.saturating_sub(sent_at_ns);
        self.hist.record(SimDuration::from_ns(latency));
        if let Some(rec) = self.series.as_mut() {
            rec.note_arrival(sent_at_ns.saturating_mul(1_000));
            rec.note_completion(
                now_ns.saturating_mul(1_000),
                latency.saturating_mul(1_000),
                worker,
            );
        }
        // The worker id comes off the wire: cap it so a corrupt frame
        // can't demand a giant allocation (latency still counts).
        if worker < MAX_TRACKED_WORKERS {
            if worker >= self.worker_counts.len() {
                self.worker_counts.resize(worker + 1, 0);
            }
            self.worker_counts[worker] += 1;
        }
        self.first_measured_ns.get_or_insert(now_ns);
        self.last_measured_ns = Some(now_ns);
    }

    /// Folds the tallies into the run's statistics.
    fn finish(&mut self, sent: u64, elapsed: Duration, mean_service_ns: f64) -> LiveRunStats {
        let measured = self.hist.count();
        let window_ns = match (self.first_measured_ns, self.last_measured_ns) {
            (Some(a), Some(b)) if b > a => (b - a) as f64,
            _ => 0.0,
        };
        let throughput_rps = if window_ns > 0.0 && measured > 1 {
            (measured - 1) as f64 / window_ns * 1e9
        } else {
            0.0
        };
        let (mean, p50, p99) = if measured > 0 {
            (
                self.hist.mean().as_ns_f64(),
                self.hist.percentile(0.50).as_ns_f64(),
                self.hist.percentile(0.99).as_ns_f64(),
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        let counts_f64: Vec<f64> = self.worker_counts.iter().map(|&c| c as f64).collect();
        LiveRunStats {
            hist: self.hist.clone(),
            sent,
            received: self.received,
            measured,
            elapsed,
            throughput_rps,
            mean_latency_ns: mean,
            p50_latency_ns: p50,
            p99_latency_ns: p99,
            mean_service_ns,
            load_balance_jain: jain_index(&counts_f64),
            worker_completions: self.worker_counts.clone(),
            series: self.series.take().map(|rec| rec.into_job("loadgen")),
        }
    }
}

/// State shared between the sender, the per-connection readers, and the
/// failure drivers. Terminal accounting transitions happen exactly once,
/// under the `outstanding` lock: whoever removes the entry counts it.
struct BalancerShared {
    outstanding: Mutex<BTreeMap<u64, Pending>>,
    retry: Mutex<VecDeque<u64>>,
    agg: Mutex<Agg>,
    completed: AtomicU64,
    redirected: AtomicU64,
    rejected: AtomicU64,
    redirect_frames: AtomicU64,
    /// Workers per node: response frames tag the *node-local* worker
    /// index, so balance statistics slot them at
    /// `node * workers_per_node + worker` to keep nodes distinct.
    workers_per_node: usize,
}

impl BalancerShared {
    /// Bumps `attempts` on a still-outstanding request and either
    /// requeues it or (past the retry limit) rejects it.
    fn penalize(&self, req_id: u64) {
        let mut outstanding = self.outstanding.lock().expect("outstanding");
        if let Some(pending) = outstanding.get_mut(&req_id) {
            pending.attempts += 1;
            if pending.attempts > RETRY_LIMIT {
                outstanding.remove(&req_id);
                self.rejected.fetch_add(1, Ordering::Relaxed);
            } else {
                drop(outstanding);
                self.retry.lock().expect("retry").push_back(req_id);
            }
        }
    }

    /// Requeues everything a severed flow still had in flight.
    fn penalize_flow(&self, flow: usize) {
        let ids: Vec<u64> = {
            let outstanding = self.outstanding.lock().expect("outstanding");
            outstanding
                .iter()
                .filter(|(_, p)| p.flow == flow)
                .map(|(id, _)| *id)
                .collect()
        };
        for id in ids {
            self.penalize(id);
        }
    }
}

/// One flow's current connection: the write half plus the directory
/// coordinates it was resolved at.
struct FlowConn {
    stream: TcpStream,
    node: usize,
    addr: SocketAddr,
    epoch: u64,
}

/// Balancer knobs, derived from [`LiveRunConfig`] by [`run_cluster`].
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Client flows (each pins one connection to its mapped node).
    pub flows: usize,
    /// Requests to send.
    pub requests: u64,
    /// Completions with `req_id < warmup` are excluded from statistics.
    pub warmup: u64,
    /// Offered load (requests/second, whole tier).
    pub rate_rps: f64,
    /// Service-demand distribution (ns, before scaling).
    pub service: ServiceDist,
    /// Multiplier applied to each sampled service time.
    pub scale: f64,
    /// RNG master seed (see [`Schedule`] for the stream split).
    pub seed: u64,
    /// Total workers across the tier, for balance statistics.
    pub workers_hint: usize,
    /// Give up waiting for stragglers after this long past the last send.
    pub drain_timeout: Duration,
    /// `true` severs every even-numbered flow's socket at 40 % and 60 %
    /// of the schedule — the reconnect storm.
    pub churn: bool,
    /// `Some(interval)` records a client-side windowed latency series
    /// ([`LiveRunStats::series`]), bucketed on the client's own clock.
    pub series_interval: Option<Duration>,
}

/// The sender-side half of the balancer: flow connections plus the
/// bookkeeping to open, re-point, and finally reap them.
struct Balancer {
    shared: Arc<BalancerShared>,
    directory: Arc<NodeDirectory>,
    flows: Vec<Option<FlowConn>>,
    readers: Vec<JoinHandle<()>>,
    /// Clones of every socket ever opened, for the final
    /// unblock-and-join (re-pointed flows leave their old reader
    /// draining until then).
    socks: Vec<TcpStream>,
    clock: Instant,
}

impl Balancer {
    /// Resends everything queued for retry (stragglers jump the Poisson
    /// schedule — they are already late).
    fn drain_retries(&mut self) {
        loop {
            let req_id = self.shared.retry.lock().expect("retry").pop_front();
            let Some(req_id) = req_id else { return };
            let pending = {
                let outstanding = self.shared.outstanding.lock().expect("outstanding");
                outstanding
                    .get(&req_id)
                    .map(|p| (p.sent_at_ns, p.service_ns, p.flow))
            };
            // Completed while queued (e.g. the "dead" socket delivered
            // after all): nothing to do.
            let Some((sent_at_ns, service_ns, flow)) = pending else {
                continue;
            };
            self.send_on_flow(flow, req_id, sent_at_ns, service_ns);
        }
    }

    /// Writes one request on its flow's connection, (re)resolving the
    /// flow against the directory first. A connect or write failure
    /// penalizes the request and leaves it to the retry queue.
    fn send_on_flow(&mut self, flow: usize, req_id: u64, sent_at_ns: u64, service_ns: u64) {
        if !self.ensure_flow(flow) {
            self.shared.penalize(req_id);
            return;
        }
        let frame = Request {
            req_id,
            sent_at_ns,
            service_ns,
        }
        .encode();
        let conn = self.flows[flow].as_mut().expect("flow just ensured");
        if (&conn.stream).write_all(&frame).is_err() {
            // The node died under us: drop the connection and let the
            // retry (re-resolved against the directory) find a live one.
            self.flows[flow] = None;
            self.shared.penalize(req_id);
        }
    }

    /// Makes sure `flow` has a connection resolved at the current
    /// directory epoch, opening or re-pointing it as needed. Old
    /// sockets are *not* closed on re-point — their readers keep
    /// draining responses the previous node still owes us.
    fn ensure_flow(&mut self, flow: usize) -> bool {
        if let Some(conn) = &self.flows[flow] {
            if conn.epoch == self.directory.epoch() {
                return true;
            }
            match self.directory.route(flow as u64) {
                // Same destination after the epoch bump; keep the socket.
                Some((epoch, node, addr)) if node == conn.node && addr == conn.addr => {
                    self.flows[flow].as_mut().expect("checked").epoch = epoch;
                    return true;
                }
                Some(_) => self.flows[flow] = None,
                None => return false,
            }
        }
        match self.open_flow(flow) {
            Ok((read_half, node, addr)) => {
                self.spawn_reader(read_half, node, addr);
                true
            }
            Err(_) => false,
        }
    }

    /// Connects `flow` to the node the directory maps it to now and
    /// returns the read half (with its node coordinates) for a reader.
    fn open_flow(&mut self, flow: usize) -> io::Result<(TcpStream, usize, SocketAddr)> {
        let (epoch, node, addr) = self.directory.route(flow as u64).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "no live node to route to")
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        self.socks.push(stream.try_clone()?);
        self.flows[flow] = Some(FlowConn {
            stream,
            node,
            addr,
            epoch,
        });
        Ok((read_half, node, addr))
    }

    /// Starts the reply reader for one connection, on the balancer's
    /// schedule clock.
    fn spawn_reader(&mut self, read_half: TcpStream, node: usize, addr: SocketAddr) {
        let shared = Arc::clone(&self.shared);
        let directory = Arc::clone(&self.directory);
        let clock = self.clock;
        self.readers.push(
            std::thread::Builder::new()
                .name("balancer-reader".to_owned())
                .spawn(move || reader_loop(read_half, shared, directory, node, addr, clock))
                .expect("spawn balancer reader"),
        );
    }

    /// The reconnect storm: sever every even flow's socket outright and
    /// requeue whatever was riding on it.
    fn sever_even_flows(&mut self) {
        for flow in (0..self.flows.len()).step_by(2) {
            if let Some(conn) = self.flows[flow].take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.shared.penalize_flow(flow);
            }
        }
    }
}

/// Everything one cluster run produces.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Folded client-side latency statistics (same shape as a
    /// single-node run).
    pub stats: LiveRunStats,
    /// Where every issued request ended up. `accounting.lost() == 0` is
    /// the run's zero-lost guarantee; [`run_cluster`] returns it
    /// unasserted so harness and tests choose their own severity.
    pub accounting: RequestAccounting,
    /// Redirect frames the balancer saw (the server-side view can lose
    /// a drained node's counter to its restart; this one can't).
    pub redirects: u64,
    /// Per-node final telemetry snapshots, indexed like the directory
    /// (a drained node's snapshot is taken just before its restart).
    pub node_stats: Vec<StatsSnapshot>,
    /// Request-lifecycle trace events (empty unless
    /// [`LiveRunConfig::trace_requests`] was set).
    pub events: Vec<TraceEvent>,
    /// Trace events lost to a full ring (0 means the capture is whole).
    pub dropped: u64,
}

/// Runs the full cluster experiment described by `cfg`: start nodes,
/// drive them through the balancer with the plan's failure injected
/// mid-run, fold per-node telemetry, stop everything.
pub fn run_cluster(cfg: &LiveRunConfig) -> io::Result<ClusterOutcome> {
    run_cluster_with(cfg, NodeLaunch::InProcess)
}

/// [`run_cluster`] with an explicit node launch mode.
pub fn run_cluster_with(cfg: &LiveRunConfig, launch: NodeLaunch) -> io::Result<ClusterOutcome> {
    let cluster = Arc::new(Cluster::start(cfg, launch)?);
    let driver = spawn_failure_driver(&cluster, cfg.cluster, cfg.expected_duration());
    let run = run_balancer(&cfg.balancer_config(), &cluster.directory());
    let driven = match driver {
        Some(handle) => handle.join().expect("failure driver"),
        None => Ok(None),
    };
    let node_stats = driven.and_then(|drained_snapshot| {
        let slots = cluster.directory.nodes();
        let snapshots = slots.iter().enumerate().map(|(node, slot)| {
            // The drained node's pre-restart snapshot replaces its
            // (fresh) replacement's where available.
            match &drained_snapshot {
                Some((drained, snap)) if *drained == node => Ok(snap.clone()),
                _ => query_stats(slot.addr),
            }
        });
        snapshots.collect::<io::Result<Vec<_>>>()
    });
    // Stop and reap the trace flusher before any error returns, so a
    // failed run leaves no thread behind.
    cluster.stop();
    let (events, dropped) = cluster.finish_trace();
    let (stats, accounting, redirects) = run?;
    let node_stats = node_stats?;
    Ok(ClusterOutcome {
        stats,
        accounting,
        redirects,
        node_stats,
        events,
        dropped,
    })
}

type DriverResult = io::Result<Option<(usize, StatsSnapshot)>>;

/// Spawns the mid-run failure driver the plan calls for (churn is
/// executed inside the balancer's schedule instead — it needs exact
/// request-count alignment, not wall-clock timing).
fn spawn_failure_driver(
    cluster: &Arc<Cluster>,
    plan: ClusterPlan,
    expected: Duration,
) -> Option<JoinHandle<DriverResult>> {
    let trigger = expected.mul_f64(0.4);
    match plan.failure {
        FailureMode::None | FailureMode::Churn => None,
        FailureMode::Drain => {
            let cluster = Arc::clone(cluster);
            Some(
                std::thread::Builder::new()
                    .name("cluster-drain".to_owned())
                    .spawn(move || {
                        std::thread::sleep(trigger);
                        let node = plan.nodes - 1;
                        let snap = cluster.drain_and_restart(node)?;
                        Ok(Some((node, snap)))
                    })
                    .expect("spawn drain driver"),
            )
        }
        FailureMode::Migrate => {
            let directory = cluster.directory();
            Some(
                std::thread::Builder::new()
                    .name("cluster-migrate".to_owned())
                    .spawn(move || {
                        std::thread::sleep(trigger);
                        directory.migrate();
                        Ok(None)
                    })
                    .expect("spawn migrate driver"),
            )
        }
    }
}

/// Drives a node directory's worth of servers with the open-loop
/// Poisson schedule, following redirects and surviving severed sockets.
/// Returns client statistics, the request accounting, and the number of
/// redirect frames observed.
pub fn run_balancer(
    cfg: &BalancerConfig,
    directory: &Arc<NodeDirectory>,
) -> io::Result<(LiveRunStats, RequestAccounting, u64)> {
    assert!(cfg.requests > 0, "need at least one request");
    assert!(cfg.flows > 0, "need at least one flow");
    assert!(
        cfg.rate_rps > 0.0 && cfg.rate_rps.is_finite(),
        "rate must be positive"
    );
    assert!(
        cfg.warmup < cfg.requests,
        "warmup ({}) must be below requests ({})",
        cfg.warmup,
        cfg.requests
    );

    let shared = Arc::new(BalancerShared {
        outstanding: Mutex::new(BTreeMap::new()),
        retry: Mutex::new(VecDeque::new()),
        agg: Mutex::new(Agg::new(cfg)),
        completed: AtomicU64::new(0),
        redirected: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        redirect_frames: AtomicU64::new(0),
        workers_per_node: (cfg.workers_hint / directory.nodes().len().max(1)).max(1),
    });
    let mut balancer = Balancer {
        shared: Arc::clone(&shared),
        directory: Arc::clone(directory),
        flows: (0..cfg.flows).map(|_| None).collect(),
        readers: Vec::new(),
        socks: Vec::new(),
        clock: Instant::now(),
    };
    // Open every flow before the schedule clock starts, so connection
    // setup never makes the first requests late. At this point every
    // node is alive, so a failed connect means the tier is unreachable.
    let mut opened = Vec::with_capacity(cfg.flows);
    for flow in 0..cfg.flows {
        opened.push(balancer.open_flow(flow)?);
    }
    balancer.clock = Instant::now();
    for (read_half, node, addr) in opened {
        balancer.spawn_reader(read_half, node, addr);
    }

    crate::reduce_timer_slack();
    // The reconnect storm severs even flows at these points in the
    // schedule (request counts, not wall-clock, so tests are exact).
    let churn_points: [u64; 2] = [cfg.requests * 2 / 5, cfg.requests * 3 / 5];
    let mut schedule = Schedule::new(cfg);
    for req in &mut schedule {
        balancer.drain_retries();
        if cfg.churn && churn_points.contains(&req.req_id) {
            balancer.sever_even_flows();
        }
        wait_until(balancer.clock, req.sent_at_ns);
        shared.outstanding.lock().expect("outstanding").insert(
            req.req_id,
            Pending {
                sent_at_ns: req.sent_at_ns,
                service_ns: req.service_ns,
                attempts: 0,
                flow: req.flow,
            },
        );
        balancer.send_on_flow(req.flow, req.req_id, req.sent_at_ns, req.service_ns);
    }
    let issued = cfg.requests;

    // Drain: keep servicing the retry queue until every request reaches
    // a terminal state or the timeout expires.
    let deadline = Instant::now() + cfg.drain_timeout;
    loop {
        balancer.drain_retries();
        let outstanding = shared.outstanding.lock().expect("outstanding").len();
        if outstanding == 0 || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = balancer.clock.elapsed();
    // Whatever is still outstanding is lost — drop it from the map so
    // the accounting shows it rather than hanging.
    shared.outstanding.lock().expect("outstanding").clear();

    for sock in &balancer.socks {
        let _ = sock.shutdown(Shutdown::Both);
    }
    for reader in balancer.readers {
        let _ = reader.join();
    }

    let accounting = RequestAccounting {
        issued,
        completed: shared.completed.load(Ordering::Relaxed),
        redirected: shared.redirected.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
    };
    let stats = shared.agg.lock().expect("agg").finish(
        issued,
        elapsed,
        schedule.mean_service_ns(),
    );
    Ok((
        stats,
        accounting,
        shared.redirect_frames.load(Ordering::Relaxed),
    ))
}

/// Per-connection reader: responses retire requests (exactly once),
/// redirect frames requeue them *and* fail the sending node over in
/// the directory — a redirect is the draining node telling clients
/// whose routing is stale to re-resolve, so retries never spin against
/// the same node until they exhaust into rejections.
fn reader_loop(
    mut half: TcpStream,
    shared: Arc<BalancerShared>,
    directory: Arc<NodeDirectory>,
    node: usize,
    addr: SocketAddr,
    clock: Instant,
) {
    while let Ok(Some(payload)) = read_frame(&mut half) {
        match payload.first().copied() {
            Some(KIND_RESPONSE) => {
                let Ok(resp) = Response::decode(&payload) else {
                    break;
                };
                let now_ns = clock.elapsed().as_nanos() as u64;
                let pending = shared
                    .outstanding
                    .lock()
                    .expect("outstanding")
                    .remove(&resp.req_id);
                // A duplicate completion (original arrived after we
                // requeued) was already counted — drop it.
                let Some(pending) = pending else { continue };
                if pending.attempts == 0 {
                    shared.completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.redirected.fetch_add(1, Ordering::Relaxed);
                }
                let worker = node * shared.workers_per_node + resp.worker as usize;
                shared.agg.lock().expect("agg").record(
                    resp.req_id,
                    pending.sent_at_ns,
                    now_ns,
                    worker,
                );
            }
            Some(KIND_REDIRECT) => {
                let Ok(redirect) = Redirect::decode(&payload) else {
                    break;
                };
                shared.redirect_frames.fetch_add(1, Ordering::Relaxed);
                directory.mark_dead_if(node, addr);
                shared.penalize(redirect.req_id);
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap())
            .collect()
    }

    #[test]
    fn draining_a_node_moves_only_its_own_flows() {
        let directory = NodeDirectory::new(addrs(3));
        let before: Vec<usize> = (0..64)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        directory.set_alive(1, false);
        let after: Vec<usize> = (0..64)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        for (flow, (b, a)) in before.iter().zip(&after).enumerate() {
            if *b == 1 {
                assert_ne!(*a, 1, "flow {flow} still routed to the dead node");
            } else {
                assert_eq!(a, b, "flow {flow} moved although its node stayed up");
            }
        }
        // Rejoin restores the original mapping exactly.
        directory.set_alive(1, true);
        let rejoined: Vec<usize> = (0..64)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        assert_eq!(rejoined, before);
    }

    #[test]
    fn migration_reshuffles_and_every_epoch_bump_is_visible() {
        let directory = NodeDirectory::new(addrs(4));
        assert_eq!(directory.epoch(), 0);
        let before: Vec<usize> = (0..128)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        directory.migrate();
        assert_eq!(directory.epoch(), 1);
        let after: Vec<usize> = (0..128)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(moved > 0, "migration moved no flows at all");
        directory.set_alive(2, false);
        assert_eq!(directory.epoch(), 2);
        directory.replace(2, "127.0.0.1:9999".parse().unwrap());
        assert_eq!(directory.epoch(), 3);
        assert!(directory.nodes()[2].alive);
    }

    #[test]
    fn route_is_none_only_when_everything_is_dead() {
        let directory = NodeDirectory::new(addrs(2));
        directory.set_alive(0, false);
        assert!(directory.route(7).is_some());
        directory.set_alive(1, false);
        assert!(directory.route(7).is_none());
    }
}
