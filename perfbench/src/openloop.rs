//! The open-loop client actor shared by `pig-tcp-open` and
//! `pig-sim-failover`.
//!
//! A closed-loop client sends its next request only when the previous
//! one returns, so a stalled cluster simply receives less load and the
//! stall hides inside a lower throughput. This client sends on a fixed
//! schedule instead: request `k` falls due at `offset + k * PERIOD`, is
//! sent when due (or as soon after as the substrate lets the timer
//! fire), and is timed *from its due time*. A request that has no
//! successful reply by `due + DEADLINE` counts as failed, so requests
//! that fall due while the cluster has no leader show up as failures
//! rather than vanishing.
//!
//! Redirect hints are followed; a timeout (after `RETRY`) rotates to the
//! next replica.

use paxi::{ClientReply, ClientRequest, Command, Envelope, ProtoMessage, RequestId, Workload};
use simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Timer kind of the send schedule; retry timers use the request's
/// sequence number, which starts at 1.
const TICK: u64 = 0;

/// Due-time spacing of one client's requests: 500 ops/s.
pub const PERIOD: SimDuration = SimDuration::from_millis(2);
/// Re-send (to the next replica) after this long without a reply.
pub const RETRY: SimDuration = SimDuration::from_millis(50);
/// A request unanswered this long after its due time has failed.
pub const DEADLINE: SimDuration = SimDuration::from_millis(100);
/// Bytes of each written value.
const VALUE_BYTES: usize = 8;

/// What became of one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The request's id.
    pub id: RequestId,
    /// When it fell due.
    pub due: SimTime,
    /// How late the generator actually sent it.
    pub late: SimDuration,
    /// When its first successful reply arrived, if one did.
    pub done: Option<SimTime>,
    /// Whether its deadline passed without a successful reply.
    pub failed: bool,
}

impl Outcome {
    /// Latency from due time to reply, for answered requests.
    pub fn latency(&self) -> Option<SimDuration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }
}

#[derive(Debug, Default)]
struct Log {
    outcomes: Vec<Outcome>,
    retries: u64,
    first_reply: Option<Instant>,
}

/// Shared record of every request a set of open-loop clients
/// scheduled. Thread-safe so it serves every substrate.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopLog(Arc<Mutex<Log>>);

impl OpenLoopLog {
    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.0.lock().expect("an open-loop client panicked")
    }

    /// Every scheduled request so far, in issue order per client.
    pub fn outcomes(&self) -> Vec<Outcome> {
        self.lock().outcomes.clone()
    }

    /// Re-sends after a timeout or a redirect.
    pub fn retries(&self) -> u64 {
        self.lock().retries
    }

    /// Wall-clock instant of the first successful reply to any client.
    pub fn first_reply(&self) -> Option<Instant> {
        self.lock().first_reply
    }
}

struct Pending {
    due: SimTime,
    command: Command,
    entry: usize,
    /// Index into `replicas` of the replica it was last sent to.
    sent_to: usize,
}

/// An open-loop client actor, generic over the protocol message type.
///
/// It writes 8 B values, one every [`PERIOD`], to `replicas` (first to
/// `replicas[0]`), re-sends after [`RETRY`] and gives a request up at
/// [`DEADLINE`].
pub struct OpenLoopClient<P> {
    replicas: Vec<NodeId>,
    stop_at: SimTime,
    workload: Workload,
    log: OpenLoopLog,
    target: usize,
    seq: u64,
    next_due: SimTime,
    pending: HashMap<u64, Pending>,
    _proto: PhantomData<P>,
}

impl<P> OpenLoopClient<P> {
    /// A client whose first request falls due at `offset` and whose
    /// last falls due before `stop_at`, recording into `log`.
    pub fn new(
        replicas: Vec<NodeId>,
        offset: SimDuration,
        stop_at: SimTime,
        log: OpenLoopLog,
    ) -> Self {
        assert!(!replicas.is_empty(), "a client needs a replica");
        OpenLoopClient {
            replicas,
            stop_at,
            workload: Workload::write_only(VALUE_BYTES),
            log,
            target: 0,
            seq: 0,
            next_due: SimTime::ZERO + offset,
            pending: HashMap::new(),
            _proto: PhantomData,
        }
    }
}

impl<P: ProtoMessage> OpenLoopClient<P> {
    /// Move on from the replica `seq` was last sent to. Every request in
    /// flight to a dead replica times out; only the first of them
    /// rotates, so the rest follow the client to its new target instead
    /// of rotating it further.
    fn move_on(&mut self, seq: u64) {
        if self.pending[&seq].sent_to == self.target {
            self.target = (self.target + 1) % self.replicas.len();
        }
    }

    fn send(&mut self, seq: u64, ctx: &mut Context<Envelope<P>>) {
        let target = self.target;
        let p = self.pending.get_mut(&seq).expect("sending a pending request");
        p.sent_to = target;
        let command = p.command.clone();
        ctx.send(
            self.replicas[target],
            Envelope::Request(ClientRequest { command }),
        );
    }

    /// Arm the retry timer of `seq`, never past its deadline.
    fn arm(&mut self, seq: u64, due: SimTime, ctx: &mut Context<Envelope<P>>) {
        let left = (due + DEADLINE).saturating_sub(ctx.now());
        ctx.set_timer(RETRY.min(left), seq);
    }

    fn issue(&mut self, due: SimTime, ctx: &mut Context<Envelope<P>>) {
        self.seq += 1;
        let id = RequestId {
            client: ctx.node(),
            seq: self.seq,
        };
        let op = self.workload.next_op(ctx.rng());
        let entry = {
            let mut log = self.log.lock();
            log.outcomes.push(Outcome {
                id,
                due,
                late: ctx.now().saturating_sub(due),
                done: None,
                failed: false,
            });
            log.outcomes.len() - 1
        };
        let command = Command { id, op };
        self.pending.insert(
            self.seq,
            Pending {
                due,
                command,
                entry,
                sent_to: self.target,
            },
        );
        self.send(self.seq, ctx);
        self.arm(self.seq, due, ctx);
    }

    fn handle_reply(&mut self, reply: ClientReply, ctx: &mut Context<Envelope<P>>) {
        let seq = reply.id.seq;
        if reply.id.client != ctx.node() || !self.pending.contains_key(&seq) {
            return; // a late duplicate of an answered or failed request
        }
        if reply.ok {
            let p = self.pending.remove(&seq).expect("checked");
            let mut log = self.log.lock();
            log.outcomes[p.entry].done = Some(ctx.now());
            log.first_reply.get_or_insert_with(Instant::now);
            return;
        }
        match reply
            .redirect
            .and_then(|n| self.replicas.iter().position(|&r| r == n))
        {
            Some(i) => self.target = i,
            None => self.move_on(seq),
        }
        self.log.lock().retries += 1;
        self.send(seq, ctx);
    }
}

impl<P: ProtoMessage> Actor<Envelope<P>> for OpenLoopClient<P> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        if self.next_due < self.stop_at {
            ctx.set_timer(self.next_due.saturating_sub(ctx.now()), TICK);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Envelope<P>, ctx: &mut Context<Envelope<P>>) {
        match msg {
            Envelope::Reply(r) => self.handle_reply(r, ctx),
            Envelope::ReplyBatch(rs) => {
                for r in rs {
                    self.handle_reply(r, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<Envelope<P>>) {
        let now = ctx.now();
        if kind == TICK {
            // Send everything that has fallen due, so a late timer
            // produces a burst rather than a slower schedule.
            while self.next_due <= now && self.next_due < self.stop_at {
                let due = self.next_due;
                self.issue(due, ctx);
                self.next_due += PERIOD;
            }
            if self.next_due < self.stop_at {
                ctx.set_timer(self.next_due.saturating_sub(now), TICK);
            }
            return;
        }
        let Some(p) = self.pending.get(&kind) else {
            return; // answered already
        };
        let due = p.due;
        if now >= due + DEADLINE {
            let p = self.pending.remove(&kind).expect("checked");
            self.log.lock().outcomes[p.entry].failed = true;
            return;
        }
        self.move_on(kind);
        self.log.lock().retries += 1;
        self.send(kind, ctx);
        self.arm(kind, due, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::{Ctx, Replica, ReplicaActor, ReplicaCtx};
    use simnet::{Control, CpuCostModel, Simulation, Topology};

    #[derive(Debug, Clone)]
    struct NoProto;
    impl ProtoMessage for NoProto {
        fn wire_size(&self) -> usize {
            0
        }
    }

    /// Acknowledges every request at once.
    struct Ack;
    impl Replica<NoProto> for Ack {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            ctx.reply(client, ClientReply::ok(req.command.id, None));
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    /// Redirects every request to `to`.
    struct Redirect {
        to: NodeId,
    }
    impl Replica<NoProto> for Redirect {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            ctx.reply(client, ClientReply::redirect(req.command.id, Some(self.to)));
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    /// A client of replicas `0..replicas`, first due at 0.5 ms, with
    /// nothing due from `stop_ms` on; node ids follow the replicas'.
    fn sim(
        replicas: Vec<Box<dyn Actor<Envelope<NoProto>>>>,
        stop_ms: u64,
    ) -> (Simulation<Envelope<NoProto>>, OpenLoopLog) {
        let n = replicas.len();
        let mut sim = Simulation::new(Topology::lan(n + 1), CpuCostModel::free(), 11);
        for r in replicas {
            sim.add_actor(r);
        }
        let log = OpenLoopLog::default();
        sim.add_actor(Box::new(OpenLoopClient::<NoProto>::new(
            (0..n).map(NodeId::from).collect(),
            SimDuration::from_micros(500),
            SimTime::from_millis(stop_ms),
            log.clone(),
        )));
        (sim, log)
    }

    fn due_ms(o: &Outcome) -> f64 {
        o.due.as_nanos() as f64 / 1e6
    }

    #[test]
    fn schedule_is_exact_on_the_simulator() {
        let (mut sim, log) = sim(vec![Box::new(ReplicaActor(Ack))], 200);
        sim.run_until(SimTime::from_millis(300));
        let out = log.outcomes();
        // Due at 0.5, 2.5, …, 198.5 ms: exactly 100 requests.
        assert_eq!(out.len(), 100);
        for (k, o) in out.iter().enumerate() {
            assert_eq!(o.due, SimTime::from_micros(500) + PERIOD * k as u64);
            assert_eq!(o.late, SimDuration::ZERO, "simulated timers fire on time");
            assert!(o.done.is_some() && !o.failed);
            assert!(o.latency().expect("answered") < SimDuration::from_millis(2));
        }
        assert_eq!(log.retries(), 0);
    }

    #[test]
    fn requests_due_during_an_outage_fail() {
        // The only replica is down from 100 to 300 ms. A request due at
        // t in the outage is dropped, re-sent at t + 50 ms and given up
        // at t + 100 ms: it fails if the re-send also falls in the
        // outage (t < 250 ms) and succeeds otherwise.
        let (mut sim, log) = sim(vec![Box::new(ReplicaActor(Ack))], 500);
        sim.schedule_control(SimTime::from_millis(100), Control::Crash(NodeId(0)));
        sim.schedule_control(SimTime::from_millis(300), Control::Recover(NodeId(0)));
        sim.run_until(SimTime::from_millis(700));
        let out = log.outcomes();
        assert_eq!(out.len(), 250);
        for o in &out {
            let due = due_ms(o);
            if (100.0..250.0).contains(&due) {
                assert!(o.failed && o.done.is_none(), "due {due} ms must fail");
            } else {
                assert!(o.done.is_some() && !o.failed, "due {due} ms must succeed");
            }
        }
        assert_eq!(
            log.retries(),
            out.iter().filter(|o| due_ms(o) >= 100.0 && due_ms(o) < 300.0).count() as u64,
            "each request due in the outage is re-sent once"
        );
    }

    #[test]
    fn timeouts_rotate_and_redirects_are_followed() {
        // Node 0 is dead from the start, node 1 redirects to node 2,
        // node 2 answers. The first request times out, rotates to node 1
        // and is redirected to node 2; the requests sent to node 0 after
        // it time out too, but follow the client to node 2 rather than
        // rotating it on (back to node 0, where they would fail). Every
        // request succeeds, and later ones go straight to node 2.
        let replicas: Vec<Box<dyn Actor<Envelope<NoProto>>>> = vec![
            Box::new(ReplicaActor(Ack)),
            Box::new(ReplicaActor(Redirect { to: NodeId(2) })),
            Box::new(ReplicaActor(Ack)),
        ];
        let (mut sim, log) = sim(replicas, 200);
        sim.crash(NodeId(0));
        sim.run_until(SimTime::from_millis(400));
        let out = log.outcomes();
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|o| o.done.is_some()), "every request succeeds");
        let timed_out = out
            .iter()
            .filter(|o| o.latency().expect("answered") >= RETRY)
            .count() as u64;
        assert_eq!(timed_out, 25, "the requests due in the first 50 ms time out");
        assert!(out
            .iter()
            .filter(|o| due_ms(o) > 52.0)
            .all(|o| o.latency().expect("answered") < SimDuration::from_millis(1)));
        // One re-send per timeout, and two redirects: the request due at
        // 50.5 ms goes to node 1 while the first redirect is in flight.
        assert_eq!(log.retries(), timed_out + 2);
    }
}
