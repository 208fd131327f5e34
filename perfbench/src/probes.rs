//! Single-layer probes run by the traced run: transport hop latency,
//! wire codec, state-machine apply, the leader decide wave and the
//! relay aggregation round. Each drives one layer through its public
//! functions, or through the existing `pigpaxos_bench::hotpath`
//! drivers, with nothing else in the loop.

use paxi::{Ballot, Command, Envelope, KvStore, Operation, RequestId, Value, Workload};
use paxos::{P2bVote, PaxosMsg};
use pigpaxos_bench::hotpath;
use rand::SeedableRng;
use simnet::{Actor, Bytes, Context, NodeId, SimTime, TimerId};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The single-command accept request that dominates unbatched traffic.
pub fn sample_p2a() -> PaxosMsg {
    PaxosMsg::P2a {
        ballot: Ballot::new(1, NodeId(0)),
        slot: 42,
        command: Command {
            id: RequestId {
                client: NodeId(5),
                seq: 7,
            },
            op: Operation::Put(7, Value::zeros(8)),
        },
        commit_up_to: 41,
    }
}

/// The single-vote answer to [`sample_p2a`].
pub fn sample_p2b() -> PaxosMsg {
    let ballot = Ballot::new(1, NodeId(0));
    PaxosMsg::P2b {
        ballot,
        slot: 42,
        votes: vec![P2bVote {
            node: NodeId(1),
            ballot,
            slot: 42,
            ok: true,
        }],
    }
}

/// Relay group shape of `pig-tcp-open`: n = 5 in 2 groups puts the
/// relay and one peer in each group.
const RELAY_GROUP: usize = 2;

/// Median nanoseconds per call of `f`, over rounds of `per_round` calls
/// repeated until `budget` is spent.
fn ns_per_call(budget: Duration, per_round: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_round {
            f();
        }
        rounds.push(t.elapsed().as_nanos() as f64 / per_round as f64);
    }
    crate::stats::median(&rounds)
}

/// Codec probe results, in ns per message.
pub struct WireTimes {
    /// `P2a` encode.
    pub p2a_encode_ns: f64,
    /// `P2a` decode from a frozen frame.
    pub p2a_decode_ns: f64,
    /// `P2b` decode from a frozen frame.
    pub p2b_decode_ns: f64,
}

/// Time the codec on single-command messages.
pub fn wire_times(budget: Duration) -> WireTimes {
    let p2a = sample_p2a();
    let p2a_frame = Bytes::from(hotpath::encode_message(&p2a));
    let p2b_frame = Bytes::from(hotpath::encode_message(&sample_p2b()));
    assert_eq!(
        hotpath::decode_message(&p2a_frame),
        p2a,
        "P2a must round-trip"
    );
    WireTimes {
        p2a_encode_ns: ns_per_call(budget, 1000, || {
            black_box(hotpath::encode_message(black_box(&p2a)));
        }),
        p2a_decode_ns: ns_per_call(budget, 1000, || {
            black_box(hotpath::decode_message(black_box(&p2a_frame)));
        }),
        p2b_decode_ns: ns_per_call(budget, 1000, || {
            black_box(hotpath::decode_message(black_box(&p2b_frame)));
        }),
    }
}

/// `KvStore::apply` over the paper's mix (1 000 uniform keys, half
/// reads, 8 B values), in ns per operation.
pub fn kv_apply_ns(budget: Duration, seed: u64) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let workload = Workload::paper_default();
    let ops: Vec<Operation> = (0..4096).map(|_| workload.next_op(&mut rng)).collect();
    let mut kv = KvStore::new();
    let mut i = 0;
    ns_per_call(budget, 1000, || {
        black_box(kv.apply(black_box(&ops[i % ops.len()])));
        i += 1;
    })
}

/// The leader decide wave of `hotpath::LeaderPipeline` at B = 16,
/// n = 5, in ns per decided command.
pub fn decide_ns_per_cmd(budget: Duration) -> f64 {
    let mut pipe = hotpath::LeaderPipeline::new(5, 16);
    pipe.run(8);
    ns_per_call(budget, 16, || {
        black_box(pipe.drive_wave());
    }) / 16.0
}

/// One relay aggregation round for an unbatched slot over the
/// `pig-tcp-open` group shape, in ns.
pub fn relay_round_ns(budget: Duration) -> f64 {
    let ballot = Ballot::new(1, NodeId(0));
    let mut slot = 0u64;
    ns_per_call(budget, 1000, || {
        slot += 1;
        black_box(hotpath::relay_aggregate_round(ballot, slot, 1, RELAY_GROUP));
    })
}

type HopMsg = Envelope<PaxosMsg>;

fn hop_msg(k: u64) -> HopMsg {
    Envelope::Proto(PaxosMsg::Heartbeat {
        ballot: Ballot::new(1, NodeId(0)),
        commit_up_to: k,
    })
}

/// Round trips skipped before recording, so connection set-up and cold
/// caches do not count.
const HOP_WARMUP: u64 = 200;

/// Node 0 of the ping-pong pair: sends one message, waits for the echo,
/// records the round trip, repeats.
struct Pinger {
    sent_at: SimTime,
    k: u64,
    rtts_ns: Arc<Mutex<Vec<u64>>>,
}

impl Actor<HopMsg> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<HopMsg>) {
        self.sent_at = ctx.now();
        ctx.send(NodeId(1), hop_msg(0));
    }
    fn on_message(&mut self, from: NodeId, _m: HopMsg, ctx: &mut Context<HopMsg>) {
        self.k += 1;
        if self.k > HOP_WARMUP {
            let rtt = ctx.now().saturating_sub(self.sent_at).as_nanos();
            self.rtts_ns.lock().expect("pinger poisoned").push(rtt);
        }
        self.sent_at = ctx.now();
        ctx.send(from, hop_msg(self.k));
    }
    fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<HopMsg>) {}
}

/// Node 1 of the pair: echoes every message.
struct Ponger;

impl Actor<HopMsg> for Ponger {
    fn on_message(&mut self, from: NodeId, m: HopMsg, ctx: &mut Context<HopMsg>) {
        ctx.send(from, m);
    }
    fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<HopMsg>) {}
}

/// Median one-way hop latency in µs between two actors on the TCP
/// (`net`) or the channel runtime, over `wall` of ping-pong.
pub fn hop_us(net: bool, wall: Duration) -> f64 {
    let rtts = Arc::new(Mutex::new(Vec::new()));
    let pinger = Pinger {
        sent_at: SimTime::ZERO,
        k: 0,
        rtts_ns: rtts.clone(),
    };
    if net {
        let mut rt = pig_runtime::NetRuntime::new(1);
        rt.add_actor(pinger);
        rt.add_actor(Ponger);
        rt.run_for(wall);
    } else {
        let mut rt = pig_runtime::Runtime::new(1);
        rt.add_actor(pinger);
        rt.add_actor(Ponger);
        rt.run_for(wall);
    }
    let mut us: Vec<f64> = rtts
        .lock()
        .expect("pinger poisoned")
        .iter()
        .map(|&ns| ns as f64 / 2e3)
        .collect();
    crate::stats::summarize(&mut us)
        .expect("the ping-pong pair completed round trips")
        .p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_something() {
        let budget = Duration::from_millis(5);
        let w = wire_times(budget);
        assert!(w.p2a_encode_ns > 0.0 && w.p2a_decode_ns > 0.0 && w.p2b_decode_ns > 0.0);
        assert!(kv_apply_ns(budget, 1) > 0.0);
        assert!(decide_ns_per_cmd(budget) > 0.0);
        assert!(relay_round_ns(budget) > 0.0);
        let chan = hop_us(false, Duration::from_millis(100));
        let tcp = hop_us(true, Duration::from_millis(100));
        assert!(chan > 0.0 && tcp > 0.0, "chan {chan} µs, tcp {tcp} µs");
    }
}
