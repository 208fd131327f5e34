//! Handler timing for the traced run.
//!
//! [`Timed`] wraps any actor and times each `on_message` / `on_timer`
//! call that falls inside the measured window, keyed by node and by
//! message label. [`TimedSpec`] is the same decorator as a
//! [`ProtocolSpec`], so every replica a protocol builds is wrapped
//! without the protocol knowing. The benchmark's own client actors are
//! wrapped directly. Nothing here runs in an untraced run, whose
//! end-to-end numbers therefore carry no tracing cost.

use paxi::{ClusterConfig, Envelope, ProtocolSpec};
use simnet::{Actor, Context, Message, NodeId, SimTime, TimerId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Labels a message for the trace.
pub type LabelFn<M> = fn(&M) -> &'static str;

/// Label of timer firings.
pub const TIMER: &str = "timer";

/// Accumulated handler work under one `(node, label)` key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Handler invocations.
    pub calls: u64,
    /// Wall nanoseconds spent inside the handler.
    pub ns: u64,
    /// Wire bytes of the handled messages (0 for timers).
    pub bytes: u64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.bytes += other.bytes;
    }
}

/// Where every [`Timed`] actor of a run deposits its costs when it is
/// dropped at the end of the run.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Arc<Mutex<BTreeMap<(NodeId, &'static str), Cost>>>);

impl TraceSink {
    /// All costs, keyed by `(node, label)`.
    pub fn costs(&self) -> BTreeMap<(NodeId, &'static str), Cost> {
        self.0.lock().expect("a timed actor panicked").clone()
    }

    /// Sum of the costs whose key satisfies `pick`.
    pub fn total(&self, pick: impl Fn(NodeId, &str) -> bool) -> Cost {
        let mut sum = Cost::default();
        for (&(node, label), &c) in self.0.lock().expect("a timed actor panicked").iter() {
            if pick(node, label) {
                sum.add(c);
            }
        }
        sum
    }
}

/// The window, in the substrate's own clock, whose handler calls count.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// First instant counted.
    pub start: SimTime,
    /// First instant no longer counted.
    pub end: SimTime,
}

impl Window {
    fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// An actor whose handler calls are timed.
pub struct Timed<A, M> {
    inner: A,
    label: LabelFn<M>,
    window: Window,
    sink: TraceSink,
    node: NodeId,
    local: BTreeMap<&'static str, Cost>,
}

impl<A: Actor<M>, M: Message> Timed<A, M> {
    /// Wrap `inner`; its costs reach `sink` when the wrapper drops.
    pub fn new(inner: A, label: LabelFn<M>, window: Window, sink: TraceSink) -> Self {
        Timed {
            inner,
            label,
            window,
            sink,
            node: NodeId(u32::MAX),
            local: BTreeMap::new(),
        }
    }

    /// Run `f` on the inner actor, timing it when `ctx.now()` is in the
    /// window.
    fn timed(
        &mut self,
        label: &'static str,
        bytes: u64,
        ctx: &mut Context<M>,
        f: impl FnOnce(&mut A, &mut Context<M>),
    ) {
        if !self.window.contains(ctx.now()) {
            return f(&mut self.inner, ctx);
        }
        let t = Instant::now();
        f(&mut self.inner, ctx);
        let ns = t.elapsed().as_nanos() as u64;
        self.local.entry(label).or_default().add(Cost {
            calls: 1,
            ns,
            bytes,
        });
    }
}

impl<A: Actor<M>, M: Message> Actor<M> for Timed<A, M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.node = ctx.node();
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>) {
        let label = (self.label)(&msg);
        let bytes = msg.wire_size() as u64;
        self.timed(label, bytes, ctx, |a, c| a.on_message(from, msg, c));
    }

    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<M>) {
        self.timed(TIMER, 0, ctx, |a, c| a.on_timer(id, kind, c));
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

impl<A, M> Drop for Timed<A, M> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned sink just loses this actor's
        // costs, and the panic that poisoned it fails the run anyway.
        if let Ok(mut sink) = self.sink.0.lock() {
            for (&label, &c) in &self.local {
                sink.entry((self.node, label)).or_default().add(c);
            }
        }
    }
}

/// Everything a run needs to time its actors.
pub struct Tracer<M> {
    /// Where costs go.
    pub sink: TraceSink,
    /// Labels messages.
    pub label: LabelFn<M>,
    /// Window whose calls count.
    pub window: Window,
}

impl<M> Clone for Tracer<M> {
    fn clone(&self) -> Self {
        Tracer {
            sink: self.sink.clone(),
            label: self.label,
            window: self.window,
        }
    }
}

impl<M: Message> Tracer<M> {
    /// Wrap an actor.
    pub fn wrap<A: Actor<M>>(&self, actor: A) -> Timed<A, M> {
        Timed::new(actor, self.label, self.window, self.sink.clone())
    }
}

/// A [`ProtocolSpec`] whose replicas are wrapped in [`Timed`].
#[derive(Clone)]
pub struct TimedSpec<P: ProtocolSpec> {
    /// The protocol being traced.
    pub inner: P,
    /// How its replicas are timed.
    pub tracer: Tracer<Envelope<P::Msg>>,
}

impl<P: ProtocolSpec> ProtocolSpec for TimedSpec<P>
where
    P::Msg: Send,
{
    type Msg = P::Msg;

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn build_replica(
        &self,
        node: NodeId,
        cluster: &ClusterConfig,
    ) -> Box<dyn Actor<Envelope<P::Msg>> + Send> {
        Box::new(self.tracer.wrap(self.inner.build_replica(node, cluster)))
    }

    fn default_target(&self, replicas: &[NodeId]) -> paxi::TargetPolicy {
        self.inner.default_target(replicas)
    }
}

/// Trace label of a PigPaxos message: relay traffic is named after the
/// Paxos message it carries, so relay work can be told apart by phase.
pub fn pig_label(msg: &Envelope<pigpaxos::PigMsg>) -> &'static str {
    use paxos::PaxosMsg as P;
    use pigpaxos::PigMsg;
    match msg {
        Envelope::Proto(PigMsg::ToRelay { inner, .. }) => match inner {
            P::P1a { .. } => "to_relay.p1a",
            P::P2a { .. } => "to_relay.p2a",
            P::P2aBatch { .. } => "to_relay.p2a_batch",
            P::Heartbeat { .. } => "to_relay.heartbeat",
            _ => "to_relay.other",
        },
        other => other.label(),
    }
}

/// Trace label of a Paxos message: its wire label.
pub fn paxos_label(msg: &Envelope<paxos::PaxosMsg>) -> &'static str {
    msg.label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::Experiment;
    use simnet::SimDuration;

    #[test]
    fn timing_changes_nothing_the_protocol_does() {
        // The decorator passes every call through unchanged, so a traced
        // simulation must be bit-identical to an untraced one.
        fn exp<P: ProtocolSpec>(spec: P) -> Experiment<P> {
            Experiment::lan(spec, 5)
                .clients(4)
                .warmup(SimDuration::from_millis(100))
                .measure(SimDuration::from_millis(300))
                .capture_trace()
        }
        let plain = exp(pigpaxos::PigConfig::lan(2)).run_sim(5);
        let sink = TraceSink::default();
        let timed = exp(TimedSpec {
            inner: pigpaxos::PigConfig::lan(2),
            tracer: Tracer {
                sink: sink.clone(),
                label: pig_label,
                window: Window {
                    start: SimTime::from_millis(100),
                    end: SimTime::from_millis(400),
                },
            },
        })
        .run_sim(5);
        assert_eq!(plain.trace_fingerprint, timed.trace_fingerprint);
        assert_eq!(plain.samples, timed.samples);

        let costs = sink.costs();
        let leader = sink.total(|n, _| n == NodeId(0));
        assert!(leader.calls > 0 && leader.ns > 0 && leader.bytes > 0);
        assert!(costs.contains_key(&(NodeId(0), "request")));
        assert!(costs
            .keys()
            .any(|(n, l)| *n != NodeId(0) && *l == "to_relay.p2a"));
        // Requests reach only the leader, one per completed operation
        // (give or take the operations in flight at the window edges).
        let requests = sink.total(|_, l| l == "request").calls as usize;
        assert!(
            requests.abs_diff(timed.samples) <= 4,
            "{requests} vs {}",
            timed.samples
        );
    }
}
