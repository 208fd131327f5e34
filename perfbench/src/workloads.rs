//! The four workloads.
//!
//! Each one drives the program through its public API only: replicas
//! come from a [`ProtocolSpec`], clients are `paxi::ClosedLoopClient`
//! or this benchmark's [`OpenLoopClient`], and the run is driven by
//! `pig_runtime::{Runtime, NetRuntime}` or `simnet::Simulation` — the
//! same pieces `paxi::Experiment` assembles. The benchmark drives them
//! itself because `Experiment::run_threads`/`run_net` measure from the
//! first instant (set-up included) and drop the transport counters.
//!
//! A run repeats its workload several times — fresh clusters on the
//! real substrates, fresh seeds on the simulator — and pools the
//! measured windows, so one run yields several set-up times and enough
//! samples for a steady median.

use crate::openloop::{OpenLoopClient, OpenLoopLog, Outcome, DEADLINE, PERIOD};
use crate::sys::{cpu_seconds, steal_seconds, thread_count};
use crate::trace::{paxos_label, pig_label, TimedSpec, TraceSink, Tracer, Window};
use paxi::{
    BatchConfig, ClientRecorder, ClosedLoopClient, ClusterConfig, Envelope, ProtocolSpec,
    RequestId, TargetPolicy, Workload,
};
use paxos::{PaxosConfig, PaxosMsg};
use pigpaxos::{PigConfig, PigMsg};
use simnet::{
    Actor, Control, CpuCostModel, Message, NodeId, SimDuration, SimTime, Simulation, Topology, Wire,
};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// PigPaxos over TCP loopback under a fixed open-loop rate.
    PigTcpOpen,
    /// Batched Paxos over in-process channels, closed loop.
    PaxosThreadsBatched,
    /// PigPaxos at the paper's scale on the simulator, closed loop.
    PigSim25,
    /// PigPaxos leader crash on the simulator, open loop.
    PigSimFailover,
}

impl BenchWorkload {
    /// Every workload; `--workload all` runs them in this order.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::PigTcpOpen,
        BenchWorkload::PaxosThreadsBatched,
        BenchWorkload::PigSim25,
        BenchWorkload::PigSimFailover,
    ];

    /// The workloads `BENCHMARK.json` gates. `pig-tcp-open` is left
    /// out: its wall-clock latency follows the CPU time a shared host
    /// steals (p50 0.7 ms on a quiet host, 4 ms at 40 % steal), wider
    /// than any bound a regression gate can hold.
    pub const GATED: [BenchWorkload; 3] = [
        BenchWorkload::PaxosThreadsBatched,
        BenchWorkload::PigSim25,
        BenchWorkload::PigSimFailover,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::PigTcpOpen => "pig-tcp-open",
            BenchWorkload::PaxosThreadsBatched => "paxos-threads-batched",
            BenchWorkload::PigSim25 => "pig-sim-25",
            BenchWorkload::PigSimFailover => "pig-sim-failover",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---- shared settings --------------------------------------------------

/// Open-loop clients per open-loop workload: 2 × 500 ops/s = 1 000
/// ops/s.
const OPEN_CLIENTS: u64 = 2;
/// Closed-loop client retry timeout (the `Experiment` default).
const CLOSED_RETRY: SimDuration = SimDuration::from_millis(100);
/// Closed-loop clients of `paxos-threads-batched`.
const THREADS_CLIENTS: u64 = 2;
/// Requests each of them keeps in flight.
const THREADS_PIPELINE: u64 = 16;
/// Warm-up before the measured window on the real substrates.
const REAL_WARMUP: SimDuration = SimDuration::from_millis(500);
/// Wall seconds of run time per measured cluster on the real
/// substrates: long enough to warm up, short enough that a run holds
/// several clusters to take the median over.
const REAL_SEGMENT_S: f64 = 3.0;

/// Per-repetition seed derived from the run's seed (splitmix64).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// CPUs this process may run on.
pub fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

// ---- what a run measures ----------------------------------------------

/// Everything one run of a workload measured, pooled over its
/// repetitions.
#[derive(Debug, Default)]
pub struct Measured {
    /// Consensus replicas per cluster (nodes `0..replicas`).
    pub replicas: usize,
    /// Correctness problems found; the run is correct when empty.
    pub problems: Vec<String>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests refused, timed out or never answered.
    pub failed: u64,
    /// Requests completed in the measured windows.
    pub ops: u64,
    /// Total length of the measured windows in the clients' clock
    /// (virtual on the simulator, wall otherwise).
    pub window_s: f64,
    /// Total wall-clock length of the measured windows.
    pub wall_window_s: f64,
    /// CPU seconds over the measured windows in the clients' clock:
    /// process CPU on the real substrates, the cost model's simulated
    /// CPU (every node's busy time) on the simulator.
    pub cpu_s: f64,
    /// Process CPU seconds over the measured windows: on the simulator,
    /// what the simulator itself spent.
    pub host_cpu_s: f64,
    /// Client latency of each completed request, in the clients' clock.
    pub latencies_ms: Vec<f64>,
    /// Seconds of each set-up, in the clients' clock: wall time from the
    /// call into the program until the first reply on the real
    /// substrates, virtual time from the start of each simulation until
    /// its first reply on the simulator.
    pub setups_s: Vec<f64>,
    /// Client re-sends (timeouts and redirects).
    pub retries: u64,
    /// How late the open-loop generator sent each request.
    pub lateness_ms: Vec<f64>,
    /// Peak OS threads during a measured window.
    pub threads: usize,
    /// Transport reconnects + decode errors + dropped frames.
    pub transport_faults: u64,
    /// Leader crashes injected.
    pub crashes: u64,
    /// Time from each crash to the first successful reply to a request
    /// due after it.
    pub unavail_ms: Vec<f64>,
    /// Virtual busy fraction of the busiest replica (simulator only).
    pub sim_busy_frac: Vec<f64>,
    /// Messages the cluster's initial leader sent and received in the
    /// measured windows (simulator only, from its per-node counters).
    pub leader_msgs: u64,
    /// The same for each other replica, in node order.
    pub follower_msgs: Vec<u64>,
    /// Events the substrate handled (deliveries and timer firings):
    /// over the measured windows on the simulator, over whole runs on
    /// the real substrates.
    pub events: u64,
    /// Wall seconds over which `events` were counted.
    pub events_wall_s: f64,
    /// CPU seconds the host stole from this machine during the measured
    /// windows.
    pub steal_s: f64,
    /// Whether the clients' clock is virtual.
    pub simulated: bool,
    /// The end-to-end figures of each repetition.
    pub reps: Vec<RepStats>,
}

/// The end-to-end figures of one repetition (one measured cluster or
/// one simulation). On the real substrates a run reports the median
/// over its repetitions, so one disturbed cluster cannot move the
/// result; the simulator's virtual figures are pooled instead.
#[derive(Debug, Clone, Copy)]
pub struct RepStats {
    /// Completed operations per second of the clients' clock.
    pub ops_per_s: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// CPU µs per completed operation, in the clients' clock.
    pub cpu_us_per_op: f64,
    /// Share of the machine's CPU time the host stole in the window.
    pub steal_frac: f64,
}

/// Counters at the start of a repetition.
struct RepMark {
    ops: u64,
    lat: usize,
    window_s: f64,
    wall_window_s: f64,
    cpu_s: f64,
    steal_s: f64,
}

impl Measured {
    fn new(replicas: usize, simulated: bool) -> Self {
        Measured {
            replicas,
            simulated,
            ..Measured::default()
        }
    }

    fn mark(&self) -> RepMark {
        RepMark {
            ops: self.ops,
            lat: self.latencies_ms.len(),
            window_s: self.window_s,
            wall_window_s: self.wall_window_s,
            cpu_s: self.cpu_s,
            steal_s: self.steal_s,
        }
    }

    /// Record the figures of the repetition that started at `mark`.
    fn close_rep(&mut self, mark: RepMark) {
        let ops = self.ops - mark.ops;
        // Real substrates divide by the window's measured wall length.
        let window = if self.simulated {
            self.window_s - mark.window_s
        } else {
            self.wall_window_s - mark.wall_window_s
        };
        let mut lat = self.latencies_ms[mark.lat..].to_vec();
        self.reps.push(RepStats {
            ops_per_s: ops as f64 / window.max(f64::MIN_POSITIVE),
            p50_ms: crate::stats::summarize(&mut lat).map_or(0.0, |s| s.p50),
            cpu_us_per_op: (self.cpu_s - mark.cpu_s) * 1e6 / ops.max(1) as f64,
            steal_frac: (self.steal_s - mark.steal_s)
                / ((self.wall_window_s - mark.wall_window_s) * cpus()).max(f64::MIN_POSITIVE),
        });
    }

    fn check_safety(&mut self, cluster: &ClusterConfig) {
        for v in cluster.safety.violations() {
            self.problems.push(format!("safety violation: {v}"));
        }
    }

    /// Every acknowledged request must have been decided: an ack for a
    /// command the log never chose is a lost write.
    fn check_acked(&mut self, cluster: &ClusterConfig, acked: impl Iterator<Item = RequestId>) {
        let decided: HashSet<RequestId> = cluster
            .safety
            .decisions()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        let lost = acked.filter(|id| !decided.contains(id)).count();
        if lost > 0 {
            self.problems
                .push(format!("{lost} acknowledged requests were never decided"));
        }
    }

    /// Pool the open-loop requests due in `window`.
    fn account_open(&mut self, outcomes: &[Outcome], window: Window) {
        for o in outcomes
            .iter()
            .filter(|o| window.start <= o.due && o.due < window.end)
        {
            self.attempted += 1;
            self.lateness_ms.push(o.late.as_millis_f64());
            match o.latency() {
                Some(l) => {
                    self.ops += 1;
                    self.latencies_ms.push(l.as_millis_f64());
                }
                None => self.failed += 1,
            }
        }
    }

    /// A cluster that never answered: its `requests` count as attempted
    /// and failed. A stall is a liveness failure, not incorrect output.
    fn stalled(&mut self, requests: u64) {
        self.attempted += requests;
        self.failed += requests;
    }

    /// Pool the closed-loop samples completed in `(start, end]` (the
    /// `Experiment` window convention). A closed-loop client never
    /// gives up, so every re-send counts as a failed attempt and every
    /// completion as a successful one.
    fn account_closed(&mut self, recorder: &ClientRecorder, window: Window) {
        let samples = recorder.samples();
        for s in samples
            .iter()
            .filter(|s| window.start < s.completed && s.completed <= window.end)
        {
            self.ops += 1;
            self.latencies_ms.push(s.latency().as_millis_f64());
        }
        let retries = recorder.retries();
        self.attempted += samples.len() as u64 + retries;
        self.failed += retries;
        self.retries += retries;
    }
}

// ---- building clusters --------------------------------------------------

type Boxed<M> = Box<dyn Actor<M> + Send>;

fn replicas<P: ProtocolSpec>(
    spec: &P,
    cluster: &ClusterConfig,
    tracer: Option<&Tracer<Envelope<P::Msg>>>,
) -> Vec<Boxed<Envelope<P::Msg>>> {
    match tracer {
        None => cluster
            .replicas
            .iter()
            .map(|&i| spec.build_replica(i, cluster))
            .collect(),
        Some(t) => {
            let timed = TimedSpec {
                inner: spec.clone(),
                tracer: t.clone(),
            };
            cluster
                .replicas
                .iter()
                .map(|&i| timed.build_replica(i, cluster))
                .collect()
        }
    }
}

fn client<M: Message + Send, A: Actor<M> + Send + 'static>(
    actor: A,
    tracer: Option<&Tracer<M>>,
) -> Boxed<M> {
    match tracer {
        None => Box::new(actor),
        Some(t) => Box::new(t.wrap(actor)),
    }
}

fn open_clients<P: paxi::ProtoMessage + Send>(
    n: usize,
    stop_at: SimTime,
    log: &OpenLoopLog,
    tracer: Option<&Tracer<Envelope<P>>>,
) -> Vec<Boxed<Envelope<P>>> {
    (0..OPEN_CLIENTS)
        .map(|k| {
            let c = OpenLoopClient::<P>::new(
                (0..n).map(NodeId::from).collect(),
                // Interleave the clients so arrivals are evenly spaced.
                PERIOD / OPEN_CLIENTS * k,
                stop_at,
                log.clone(),
            );
            client(c, tracer)
        })
        .collect()
}

/// The cluster an open-loop client talks to. The client gives up on a
/// request at its deadline and never re-sends it, so its sequence
/// numbers have gaps; `client_gaps` tells the replicas not to hold later
/// requests back waiting for the abandoned ones.
fn open_loop_cluster(n: usize) -> ClusterConfig {
    let mut cluster = ClusterConfig::new(n);
    cluster.client_gaps = true;
    cluster
}

fn tracer<M>(
    sink: Option<&TraceSink>,
    label: crate::trace::LabelFn<M>,
    window: Window,
) -> Option<Tracer<M>> {
    sink.map(|s| Tracer {
        sink: s.clone(),
        label,
        window,
    })
}

// ---- real substrates ----------------------------------------------------

struct RealRun {
    /// When `run_for` was called.
    started: Instant,
    cpu_s: f64,
    wall_s: f64,
    steal_s: f64,
    threads: usize,
    faults: u64,
    events: u64,
    total_s: f64,
}

/// Reads CPU time at the window's edges and the peak thread count
/// inside it, on a thread of its own (which it leaves out of the
/// count).
fn sample_window(started: Instant, window: Window) -> (f64, f64, f64, usize) {
    let at = |t: SimTime| started + Duration::from_nanos(t.as_nanos());
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    sleep_until(at(window.start));
    let (c0, s0, w0) = (cpu_seconds(), steal_seconds(), Instant::now());
    let mut peak = thread_count();
    let end = at(window.end);
    while Instant::now() < end {
        std::thread::sleep(
            Duration::from_millis(50).min(end.saturating_duration_since(Instant::now())),
        );
        peak = peak.max(thread_count());
    }
    (
        cpu_seconds() - c0,
        w0.elapsed().as_secs_f64(),
        steal_seconds() - s0,
        peak - 1,
    )
}

fn run_real<M: Message + Wire + Send + 'static>(
    net: bool,
    seed: u64,
    actors: Vec<Boxed<M>>,
    window: Window,
    until: SimTime,
) -> RealRun {
    let started = Instant::now();
    let sampler = std::thread::spawn(move || sample_window(started, window));
    let (faults, events) = if net {
        let mut rt = pig_runtime::NetRuntime::new(seed);
        for a in actors {
            rt.add_actor(a);
        }
        let s = rt.run_for(Duration::from_nanos(until.as_nanos()));
        (
            s.reconnects + s.decode_errors + s.frames_dropped,
            s.msgs_delivered + s.timers_fired,
        )
    } else {
        let mut rt = pig_runtime::Runtime::new(seed);
        for a in actors {
            rt.add_actor(a);
        }
        let s = rt.run_for(Duration::from_nanos(until.as_nanos()));
        (0, s.msgs_delivered + s.timers_fired)
    };
    let total_s = started.elapsed().as_secs_f64();
    let (cpu_s, wall_s, steal_s, threads) = sampler.join().expect("window sampler panicked");
    RealRun {
        started,
        cpu_s,
        wall_s,
        steal_s,
        threads,
        faults,
        events,
        total_s,
    }
}

fn note_real(m: &mut Measured, run: &RealRun, window: Window) {
    m.window_s += secs(window.end.saturating_sub(window.start));
    m.wall_window_s += run.wall_s;
    m.cpu_s += run.cpu_s;
    m.host_cpu_s += run.cpu_s;
    m.steal_s += run.steal_s;
    m.threads = m.threads.max(run.threads);
    m.transport_faults += run.faults;
    m.events += run.events;
    m.events_wall_s += run.total_s;
}

/// Measured window of each real-substrate segment, for a run of
/// `seconds` in total.
fn real_window(seconds: f64, tail: SimDuration) -> Window {
    let setups = SETUP_ONLY as f64 * (secs(SETUP_RUN) + 0.05);
    let per = (seconds - setups) / real_segments(seconds) as f64 - secs(REAL_WARMUP) - secs(tail);
    let measure = SimDuration::from_secs_f64(per.max(0.2));
    Window {
        start: SimTime::ZERO + REAL_WARMUP,
        end: SimTime::ZERO + REAL_WARMUP + measure,
    }
}

/// Measured clusters per real-substrate run (at least three, for a
/// median).
fn real_segments(seconds: f64) -> u64 {
    ((seconds / REAL_SEGMENT_S).round() as u64).max(3)
}

/// Extra clusters per real-substrate run that are only set up: started,
/// timed to their first reply and stopped, so `setup_s` is a median of
/// many set-ups rather than of the few measured segments.
const SETUP_ONLY: u32 = 6;
/// How long a set-up-only cluster runs.
const SETUP_RUN: SimDuration = SimDuration::from_millis(150);

/// The repetitions of a real-substrate run of `seconds`: `SETUP_ONLY`
/// set-up-only clusters, then the measured ones, each with its own
/// seed.
fn real_reps(
    seed: u64,
    seconds: f64,
    tail: SimDuration,
    mut rep: impl FnMut(u64, Option<Window>, SimTime),
) {
    let window = real_window(seconds, tail);
    for k in 0..SETUP_ONLY {
        rep(
            sub_seed(seed, 1000 + k as u64),
            None,
            SimTime::ZERO + SETUP_RUN,
        );
    }
    for k in 0..real_segments(seconds) {
        rep(sub_seed(seed, k), Some(window), window.end + tail);
    }
}

/// `pig-tcp-open`: PigPaxos, n = 5 in 2 relay groups, unbatched, over
/// TCP loopback; 2 open-loop clients × 500 ops/s of 8 B writes.
pub fn pig_tcp_open(seed: u64, seconds: f64, sink: Option<&TraceSink>) -> Measured {
    let n = 5;
    let tail = DEADLINE + SimDuration::from_millis(10);
    let mut m = Measured::new(n, false);
    real_reps(seed, seconds, tail, |seed, measured, until| {
        let w = measured.unwrap_or(Window {
            start: until,
            end: until,
        });
        let tr = tracer(sink, pig_label, w);
        let call = Instant::now();
        let cluster = open_loop_cluster(n);
        let log = OpenLoopLog::default();
        let mut actors = replicas(&PigConfig::lan(2), &cluster, tr.as_ref());
        actors.extend(open_clients::<PigMsg>(
            n,
            w.end.max(until),
            &log,
            tr.as_ref(),
        ));
        let run = run_real(true, seed, actors, w, until);
        let outcomes = log.outcomes();
        match log.first_reply() {
            Some(t) => m.setups_s.push(t.duration_since(call).as_secs_f64()),
            // A measured cluster's requests are pooled below.
            None if measured.is_none() => m.stalled(outcomes.len() as u64),
            None => {}
        }
        m.check_safety(&cluster);
        m.check_acked(
            &cluster,
            outcomes.iter().filter(|o| o.done.is_some()).map(|o| o.id),
        );
        if measured.is_some() {
            let mark = m.mark();
            m.account_open(&outcomes, w);
            m.retries += log.retries();
            note_real(&mut m, &run, w);
            m.close_rep(mark);
        }
    });
    m
}

/// `paxos-threads-batched`: Paxos, n = 5, adaptive batches of up to 16
/// within 500 µs, over in-process channels; 2 closed-loop clients ×
/// pipeline 16 on the paper's mix.
pub fn paxos_threads_batched(seed: u64, seconds: f64, sink: Option<&TraceSink>) -> Measured {
    let n = 5;
    let tail = SimDuration::from_millis(10);
    let spec =
        PaxosConfig::lan().with_batch(BatchConfig::adaptive(16, SimDuration::from_micros(500)));
    let mut m = Measured::new(n, false);
    real_reps(seed, seconds, tail, |seed, measured, until| {
        let w = measured.unwrap_or(Window {
            start: until,
            end: until,
        });
        let tr = tracer(sink, paxos_label, w);
        let call = Instant::now();
        let cluster = ClusterConfig::new(n);
        let recorder = ClientRecorder::new();
        let mut actors = replicas(&spec, &cluster, tr.as_ref());
        for _ in 0..THREADS_CLIENTS {
            let c = ClosedLoopClient::<PaxosMsg>::new(
                TargetPolicy::Fixed(NodeId(0)),
                Workload::paper_default(),
                recorder.clone(),
                CLOSED_RETRY,
            )
            .with_pipeline(THREADS_PIPELINE as usize);
            actors.push(client(c, tr.as_ref()));
        }
        let run = run_real(false, seed, actors, w, until);
        // The runtime's clock starts at `run_for`; completions are
        // stamped in it.
        match recorder.samples().iter().map(|s| s.completed).min() {
            Some(first) => m.setups_s.push(
                run.started.duration_since(call).as_secs_f64() + first.as_nanos() as f64 / 1e9,
            ),
            // Every request in flight, and every re-send, failed. A
            // measured cluster's re-sends are pooled below.
            None if measured.is_none() => {
                m.stalled(THREADS_CLIENTS * THREADS_PIPELINE + recorder.retries())
            }
            None => {}
        }
        m.check_safety(&cluster);
        let decided = cluster.safety.decided_count();
        if decided < recorder.len() as u64 {
            m.problems.push(format!(
                "{} operations acknowledged but only {decided} slots decided",
                recorder.len()
            ));
        }
        if measured.is_some() {
            let mark = m.mark();
            m.account_closed(&recorder, w);
            note_real(&mut m, &run, w);
            m.close_rep(mark);
        }
    });
    m
}

// ---- simulator -----------------------------------------------------------

/// A simulation set up and ready to start.
struct SimCluster<M: Message> {
    sim: Simulation<M>,
    cluster: ClusterConfig,
}

fn sim_cluster<P: ProtocolSpec>(
    spec: &P,
    cluster: ClusterConfig,
    seed: u64,
    tracer: Option<&Tracer<Envelope<P::Msg>>>,
    clients: impl FnOnce() -> Vec<Boxed<Envelope<P::Msg>>>,
) -> SimCluster<Envelope<P::Msg>> {
    let clients = clients();
    let mut topology = Topology::lan(cluster.n());
    topology.add_nodes(clients.len(), 0);
    let mut sim = Simulation::new(topology, CpuCostModel::calibrated(), seed);
    for r in replicas(spec, &cluster, tracer) {
        sim.add_actor(r);
    }
    for c in clients {
        sim.add_actor(c);
    }
    SimCluster { sim, cluster }
}

/// Run the measured window of a simulation, recording its simulated
/// CPU (the cost model's busy time, summed over every node), the host
/// CPU and wall time the simulator itself took, the busiest replica's
/// virtual utilization, and the messages each replica sent and received
/// (as `paxi::Experiment` counts them for its `RunResult`).
fn sim_window<M: Message>(sc: &mut SimCluster<M>, window: Window, m: &mut Measured) {
    let n = sc.cluster.n();
    let leader = sc.cluster.leader.index();
    let sim = &mut sc.sim;
    let read = |sim: &Simulation<M>| -> Vec<(u64, u64)> {
        sim.stats()
            .nodes
            .iter()
            .map(|s| (s.busy_time.as_nanos(), s.msgs_total()))
            .collect()
    };
    sim.run_until(window.start);
    let before = read(sim);
    let (c0, s0, w0) = (cpu_seconds(), steal_seconds(), Instant::now());
    m.events += sim.run_until(window.end);
    m.host_cpu_s += cpu_seconds() - c0;
    m.steal_s += steal_seconds() - s0;
    m.wall_window_s += w0.elapsed().as_secs_f64();
    m.events_wall_s += w0.elapsed().as_secs_f64();
    let len = window.end.saturating_sub(window.start);
    m.window_s += secs(len);
    let delta: Vec<(u64, u64)> = read(sim)
        .iter()
        .zip(before.iter().chain(std::iter::repeat(&(0, 0))))
        .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
        .collect();
    m.cpu_s += delta.iter().map(|d| d.0).sum::<u64>() as f64 / 1e9;
    let peak = delta.iter().take(n).map(|d| d.0).max().unwrap_or(0);
    m.sim_busy_frac.push(peak as f64 / len.as_nanos() as f64);
    m.leader_msgs += delta[leader].1;
    m.follower_msgs.resize(n - 1, 0);
    let followers = (0..n).filter(|&i| i != leader).map(|i| delta[i].1);
    for (sum, msgs) in m.follower_msgs.iter_mut().zip(followers) {
        *sum += msgs;
    }
}

/// Virtual warm-up of `pig-sim-25`.
const SIM25_WARMUP: SimDuration = SimDuration::from_millis(300);
/// Virtual measured window of each `pig-sim-25` simulation.
const SIM25_MEASURE: SimDuration = SimDuration::from_millis(500);
/// Closed-loop clients of `pig-sim-25`: enough to saturate the leader.
const SIM25_CLIENTS: usize = 80;

/// A `pig-sim-25` cluster: PigPaxos, n = 25 in 3 relay groups, 80
/// closed-loop clients on the paper's mix.
fn sim25_cluster(
    seed: u64,
    tr: Option<&Tracer<Envelope<PigMsg>>>,
    recorder: &ClientRecorder,
) -> SimCluster<Envelope<PigMsg>> {
    sim_cluster(&PigConfig::lan(3), ClusterConfig::new(25), seed, tr, || {
        (0..SIM25_CLIENTS)
            .map(|_| {
                let c = ClosedLoopClient::<PigMsg>::new(
                    TargetPolicy::Fixed(NodeId(0)),
                    Workload::paper_default(),
                    recorder.clone(),
                    CLOSED_RETRY,
                );
                client(c, tr)
            })
            .collect()
    })
}

/// One measured `pig-sim-25` simulation.
pub fn pig_sim25_once(seed: u64, sink: Option<&TraceSink>, m: &mut Measured) {
    let window = Window {
        start: SimTime::ZERO + SIM25_WARMUP,
        end: SimTime::ZERO + SIM25_WARMUP + SIM25_MEASURE,
    };
    let tr = tracer(sink, pig_label, window);
    let recorder = ClientRecorder::new();
    let mut sc = sim25_cluster(seed, tr.as_ref(), &recorder);
    let mark = m.mark();
    sim_window(&mut sc, window, m);
    if let Some(first) = recorder.samples().iter().map(|s| s.completed).min() {
        m.setups_s.push(first.as_nanos() as f64 / 1e9);
    }
    m.account_closed(&recorder, window);
    m.close_rep(mark);
    m.check_safety(&sc.cluster);
    let decided = sc.cluster.safety.decided_count();
    if decided < recorder.len() as u64 {
        m.problems.push(format!(
            "{} operations acknowledged but only {decided} slots decided",
            recorder.len()
        ));
    }
}

/// `pig-sim-25`: as many simulations as fit `seconds` on the reference
/// machine, each with its own seed.
pub fn pig_sim25(seed: u64, seconds: f64, sink: Option<&TraceSink>) -> Measured {
    let mut m = Measured::new(25, true);
    for k in 0..sims_for(seconds, SIM25_PER_SEC) {
        pig_sim25_once(sub_seed(seed, k), sink, &mut m);
    }
    m
}

/// Warm-up of `pig-sim-failover`: the initial election is long over.
const FAIL_WARMUP: SimDuration = SimDuration::from_millis(500);
/// When the leader (node 0) crash-stops.
const FAIL_CRASH: SimTime = SimTime::from_millis(1_000);
/// End of the measured window (no request falls due after it).
const FAIL_END: SimTime = SimTime::from_millis(2_500);

/// A `pig-sim-failover` cluster: PigPaxos, n = 5 in 2 relay groups,
/// the open-loop clients of `pig-tcp-open`, leader crash at 1 s.
fn failover_cluster(
    seed: u64,
    tr: Option<&Tracer<Envelope<PigMsg>>>,
    log: &OpenLoopLog,
) -> SimCluster<Envelope<PigMsg>> {
    let n = 5;
    let mut sc = sim_cluster(&PigConfig::lan(2), open_loop_cluster(n), seed, tr, || {
        open_clients::<PigMsg>(n, FAIL_END, log, tr)
    });
    sc.sim
        .schedule_control(FAIL_CRASH, Control::Crash(NodeId(0)));
    sc
}

/// One measured `pig-sim-failover` simulation.
pub fn pig_failover_once(seed: u64, sink: Option<&TraceSink>, m: &mut Measured) {
    let window = Window {
        start: SimTime::ZERO + FAIL_WARMUP,
        end: FAIL_END,
    };
    let tr = tracer(sink, pig_label, window);
    let log = OpenLoopLog::default();
    let mut sc = failover_cluster(seed, tr.as_ref(), &log);
    let mark = m.mark();
    sim_window(&mut sc, window, m);
    // Let every request due in the window reach its deadline.
    sc.sim
        .run_until(window.end + DEADLINE + SimDuration::from_millis(10));
    m.crashes += 1;

    let outcomes = log.outcomes();
    if let Some(first) = outcomes.iter().filter_map(|o| o.done).min() {
        m.setups_s.push(first.as_nanos() as f64 / 1e9);
    }
    m.account_open(&outcomes, window);
    m.close_rep(mark);
    m.retries += log.retries();
    // If no request succeeded after the crash, every one due after it
    // has already counted as failed.
    if let Some(t) = outcomes
        .iter()
        .filter(|o| o.due >= FAIL_CRASH)
        .filter_map(|o| o.done)
        .min()
    {
        m.unavail_ms
            .push(t.saturating_sub(FAIL_CRASH).as_millis_f64());
    }
    m.check_safety(&sc.cluster);
    m.check_acked(
        &sc.cluster,
        outcomes.iter().filter(|o| o.done.is_some()).map(|o| o.id),
    );
}

/// `pig-sim-failover`: as many crash simulations as fit `seconds`.
pub fn pig_sim_failover(seed: u64, seconds: f64, sink: Option<&TraceSink>) -> Measured {
    let mut m = Measured::new(5, true);
    for k in 0..sims_for(seconds, FAILOVER_PER_SEC) {
        pig_failover_once(sub_seed(seed, k), sink, &mut m);
    }
    m
}

/// Simulations per wall second of run time, measured on a 2-core x86-64
/// container. The count is fixed by `--seconds` alone, so the virtual
/// metrics of a seed stay bit-exact from machine to machine.
const SIM25_PER_SEC: f64 = 1.5;
/// Failover simulations per wall second of run time.
const FAILOVER_PER_SEC: f64 = 30.0;

fn sims_for(seconds: f64, per_sec: f64) -> u64 {
    ((seconds * per_sec).round() as u64).max(1)
}

/// Run `workload` for `seconds`, traced into `sink` when given.
pub fn run(workload: BenchWorkload, seed: u64, seconds: f64, sink: Option<&TraceSink>) -> Measured {
    match workload {
        BenchWorkload::PigTcpOpen => pig_tcp_open(seed, seconds, sink),
        BenchWorkload::PaxosThreadsBatched => paxos_threads_batched(seed, seconds, sink),
        BenchWorkload::PigSim25 => pig_sim25(seed, seconds, sink),
        BenchWorkload::PigSimFailover => pig_sim_failover(seed, seconds, sink),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::Experiment;

    #[test]
    fn direct_simulation_matches_experiment() {
        // The benchmark drives the simulator itself; it must reproduce
        // what `Experiment::run_sim` measures for the same settings.
        let seed = 17;
        let mut m = Measured::new(25, true);
        pig_sim25_once(seed, None, &mut m);
        let r = Experiment::lan(PigConfig::lan(3), 25)
            .clients(SIM25_CLIENTS)
            .warmup(SIM25_WARMUP)
            .measure(SIM25_MEASURE)
            .run_sim(seed);
        assert_eq!(m.ops as usize, r.samples);
        let lat = &m.latencies_ms;
        assert_eq!(paxi::metrics::percentile(lat, 50.0), r.p50_latency_ms);
        assert_eq!(paxi::metrics::percentile(lat, 99.0), r.p99_latency_ms);
        let report = crate::report::sim_msgs_per_op(&m);
        assert_eq!(report, (r.leader_msgs_per_op, r.follower_msgs_per_op));
        assert!(m.problems.is_empty(), "{:?}", m.problems);
    }

    #[test]
    fn failover_counts_the_outage() {
        let mut m = Measured::new(5, true);
        pig_failover_once(3, None, &mut m);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert_eq!(m.crashes, 1);
        let due = (FAIL_END.as_nanos() - FAIL_WARMUP.as_nanos()) / PERIOD.as_nanos();
        assert_eq!(
            m.attempted,
            due * OPEN_CLIENTS,
            "every due request is attempted"
        );
        assert!(m.failed > 0, "requests due while no leader exists fail");
        let unavail = m.unavail_ms[0];
        assert!(
            unavail > 50.0 && unavail < 1000.0,
            "unavailable for {unavail} ms"
        );
        // Deterministic: the same seed repeats exactly.
        let mut again = Measured::new(5, true);
        pig_failover_once(3, None, &mut again);
        assert_eq!((again.ops, again.failed), (m.ops, m.failed));
        assert_eq!(again.cpu_s, m.cpu_s, "simulated CPU is exact too");
        assert_eq!(again.latencies_ms, m.latencies_ms);
    }
}
