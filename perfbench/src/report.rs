//! Turning measurements into the named metrics of `BENCHMARK.json`.

use crate::probes;
use crate::stats::{median, percentile_sorted, summarize};
use crate::trace::{TraceSink, TIMER};
use crate::workloads::{Measured, RepStats};
use simnet::NodeId;
use std::time::Duration;

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
///
/// Every workload reports all of them, each in the clock its clients
/// live in: on the simulator all three of `ops_per_s`, `p50_ms` and
/// `cpu_us_per_op` are virtual-time figures (deterministic per seed);
/// the simulator's own speed is the per-layer `simnet.events_per_s`.
/// Tail latency is printed with every run but carries no bound: on TCP
/// loopback its run-to-run spread is wider than any bound a regression
/// gate can use.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pig_runtime.overhead_us_per_op", "us"),
    ("pig_runtime.tcp_hop_us", "us"),
    ("pig_runtime.chan_hop_us", "us"),
    ("pig_runtime.wire_msgs_per_op", "count"),
    ("pig_runtime.wire_bytes_per_op", "B"),
    ("pig_runtime.os_threads", "count"),
    ("pig_runtime.transport_faults", "count"),
    ("wire.p2a_encode_ns", "ns"),
    ("wire.p2a_decode_ns", "ns"),
    ("wire.p2b_decode_ns", "ns"),
    ("wire.decode_allocs_per_msg", "count"),
    ("paxos.leader_busy_frac", "ratio"),
    ("paxos.leader_us_per_op", "us"),
    ("paxos.cmds_per_batch", "count"),
    ("paxos.decide_ns_per_cmd", "ns"),
    ("paxos.decide_allocs_per_cmd", "count"),
    ("paxos.leader_msgs_per_op", "count"),
    ("paxos.p1a_per_failover", "count"),
    ("paxos.unavail_ms", "ms"),
    ("pigpaxos.relay_us_per_op", "us"),
    ("pigpaxos.relay_round_ns", "ns"),
    ("pigpaxos.follower_msgs_per_op", "count"),
    ("paxi.kv_apply_ns", "ns"),
    ("paxi.retries_per_op", "count"),
    ("paxi.client_us_per_op", "us"),
    ("simnet.msgs_per_op", "count"),
    ("simnet.handler_ns_per_event", "ns"),
    ("simnet.loop_ns_per_event", "ns"),
    ("simnet.events_per_s", "1/s"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Samples behind it, for the human-readable report.
    pub n: u64,
}

fn per(x: f64, ops: u64) -> f64 {
    x / ops.max(1) as f64
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The end-to-end metrics of an untraced run.
///
/// On the real substrates each figure is the median over the run's
/// measured clusters, so one disturbed cluster cannot move the result.
/// On the simulator every figure is in virtual time — `cpu_us_per_op`
/// is the cost model's CPU per operation — and pooled over all the
/// run's simulations, so a seed's figures repeat exactly. `ok_frac`
/// pools every request, and `setup_s` is the median over every set-up.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let reps = m.reps.len() as u64;
    let over = |f: fn(&RepStats) -> f64| -> f64 {
        let v: Vec<f64> = m.reps.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let (ops_per_s, p50_ms, cpu_us_per_op) = if m.simulated {
        (
            m.ops as f64 / m.window_s.max(f64::MIN_POSITIVE),
            summarize(&mut m.latencies_ms.clone()).map_or(0.0, |s| s.p50),
            per(m.cpu_s * 1e6, m.ops),
        )
    } else {
        (
            over(|r| r.ops_per_s),
            over(|r| r.p50_ms),
            over(|r| r.cpu_us_per_op),
        )
    };
    let metric = |name, value, n| Metric { name, value, n };
    vec![
        metric("ops_per_s", ops_per_s, reps),
        metric("p50_ms", p50_ms, reps),
        metric("cpu_us_per_op", cpu_us_per_op, reps),
        metric(
            "ok_frac",
            1.0 - m.failed as f64 / m.attempted.max(1) as f64,
            m.attempted,
        ),
        metric(
            "setup_s",
            if m.setups_s.is_empty() {
                0.0
            } else {
                median(&m.setups_s)
            },
            m.setups_s.len() as u64,
        ),
    ]
}

/// The paper's `Ml` and `Mf` on the simulator: messages the cluster's
/// initial leader, and the mean other replica, sent and received per
/// completed operation — the expressions `paxi::Experiment` uses for
/// `RunResult::{leader_msgs_per_op, follower_msgs_per_op}`.
pub fn sim_msgs_per_op(m: &Measured) -> (f64, f64) {
    let followers: Vec<f64> = m
        .follower_msgs
        .iter()
        .map(|&c| per(c as f64, m.ops))
        .collect();
    (per(m.leader_msgs as f64, m.ops), paxi::metrics::mean(&followers))
}

/// Layer probes that need no workload.
pub struct Probes {
    /// Codec timings.
    pub wire: probes::WireTimes,
    /// One-way TCP hop, µs.
    pub tcp_hop_us: f64,
    /// One-way channel hop, µs.
    pub chan_hop_us: f64,
    /// `KvStore::apply`, ns.
    pub kv_apply_ns: f64,
    /// Leader decide wave, ns per command.
    pub decide_ns_per_cmd: f64,
    /// Relay aggregation round, ns.
    pub relay_round_ns: f64,
    /// Allocation counts from the counting-allocator binary, by name.
    pub allocs: Vec<(String, f64)>,
}

impl Probes {
    /// Run every probe (about two seconds).
    pub fn measure(seed: u64, allocs: Vec<(String, f64)>) -> Self {
        let budget = Duration::from_millis(200);
        Probes {
            wire: probes::wire_times(budget),
            tcp_hop_us: probes::hop_us(true, Duration::from_millis(400)),
            chan_hop_us: probes::hop_us(false, Duration::from_millis(400)),
            kv_apply_ns: probes::kv_apply_ns(budget, seed),
            decide_ns_per_cmd: probes::decide_ns_per_cmd(budget),
            relay_round_ns: probes::relay_round_ns(budget),
            allocs,
        }
    }

    fn alloc(&self, name: &str) -> f64 {
        self.allocs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("allocation probe reported no {name}"))
    }
}

fn is_accept(label: &str) -> bool {
    matches!(
        label,
        "p2a" | "p2a_batch" | "to_relay.p2a" | "to_relay.p2a_batch"
    )
}

fn is_vote(label: &str) -> bool {
    matches!(label, "p1b" | "p2b" | "p2b_batch")
}

/// The per-layer metrics of a traced run `m` (costs in `sink`), with
/// `base` the untraced run of the same workload and length made
/// alongside it.
///
/// The probes are measured on every run. A figure taken from the
/// workload itself belongs to the substrate it ran on: the
/// `pig_runtime` figures read 0 on the simulator, and the `simnet`
/// figures (and `Ml`, `Mf`, which come from the simulator's per-node
/// counters) read 0 on the real substrates.
pub fn per_layer(m: &Measured, base: &Measured, sink: &TraceSink, probes: &Probes) -> Vec<Metric> {
    let ops = m.ops;
    let n = m.replicas;
    let sim = m.simulated;
    let real = !sim;
    // `v` where the figure applies to this workload, 0 elsewhere.
    let only = |applies: bool, v: f64| if applies { v } else { 0.0 };
    let is_replica = |node: NodeId| node.index() < n;
    let costs = sink.costs();
    // The leader is whichever replica clients' requests reached most.
    let leader = (0..n)
        .map(NodeId::from)
        .max_by_key(|&r| costs.get(&(r, "request")).map_or(0, |c| c.calls))
        .unwrap_or(NodeId(0));
    let all = sink.total(|_, _| true);
    let msgs = sink.total(|_, l| l != TIMER);
    let clients = sink.total(|node, _| !is_replica(node));
    let lead = sink.total(|node, _| node == leader);
    let relay = sink.total(|node, l| {
        is_replica(node) && node != leader && (l.starts_with("to_relay") || is_vote(l))
    });
    let accepts = (0..n)
        .map(NodeId::from)
        .filter(|&f| f != leader)
        .map(|f| sink.total(|node, l| node == f && is_accept(l)).calls)
        .max()
        .unwrap_or(0);
    let p1a = sink.total(|_, l| l == "p1a" || l == "to_relay.p1a").calls;
    let (ml, mf) = sim_msgs_per_op(m);
    let cpu_ns = m.host_cpu_s * 1e9;
    let busy_frac = if sim {
        median(&m.sim_busy_frac)
    } else {
        lead.ns as f64 / (m.wall_window_s * 1e9).max(1.0)
    };
    let mut late = m.lateness_ms.clone();
    late.sort_by(f64::total_cmp);
    let cpu_per_op = |x: &Measured| per(x.host_cpu_s * 1e6, x.ops);
    let values: Vec<(&'static str, f64, u64)> = vec![
        (
            "pig_runtime.overhead_us_per_op",
            only(real, per(cpu_ns / 1e3 - all.ns as f64 / 1e3, ops)),
            ops,
        ),
        ("pig_runtime.tcp_hop_us", probes.tcp_hop_us, 1),
        ("pig_runtime.chan_hop_us", probes.chan_hop_us, 1),
        (
            "pig_runtime.wire_msgs_per_op",
            only(real, per(msgs.calls as f64, ops)),
            ops,
        ),
        (
            "pig_runtime.wire_bytes_per_op",
            only(real, per(msgs.bytes as f64, ops)),
            ops,
        ),
        ("pig_runtime.os_threads", only(real, m.threads as f64), 1),
        (
            "pig_runtime.transport_faults",
            only(real, m.transport_faults as f64),
            1,
        ),
        ("wire.p2a_encode_ns", probes.wire.p2a_encode_ns, 1),
        ("wire.p2a_decode_ns", probes.wire.p2a_decode_ns, 1),
        ("wire.p2b_decode_ns", probes.wire.p2b_decode_ns, 1),
        (
            "wire.decode_allocs_per_msg",
            probes.alloc("wire.decode_allocs_per_msg"),
            1,
        ),
        ("paxos.leader_busy_frac", busy_frac, 1),
        (
            "paxos.leader_us_per_op",
            per(lead.ns as f64 / 1e3, ops),
            ops,
        ),
        ("paxos.cmds_per_batch", per(ops as f64, accepts), accepts),
        ("paxos.decide_ns_per_cmd", probes.decide_ns_per_cmd, 1),
        (
            "paxos.decide_allocs_per_cmd",
            probes.alloc("paxos.decide_allocs_per_cmd"),
            1,
        ),
        ("paxos.leader_msgs_per_op", only(sim, ml), ops),
        (
            "paxos.p1a_per_failover",
            only(m.crashes > 0, per(p1a as f64, m.crashes)),
            m.crashes,
        ),
        (
            "paxos.unavail_ms",
            if m.unavail_ms.is_empty() {
                0.0
            } else {
                median(&m.unavail_ms)
            },
            m.unavail_ms.len() as u64,
        ),
        (
            "pigpaxos.relay_us_per_op",
            per(relay.ns as f64 / 1e3, ops),
            ops,
        ),
        ("pigpaxos.relay_round_ns", probes.relay_round_ns, 1),
        ("pigpaxos.follower_msgs_per_op", only(sim, mf), ops),
        ("paxi.kv_apply_ns", probes.kv_apply_ns, 1),
        ("paxi.retries_per_op", per(m.retries as f64, ops), ops),
        (
            "paxi.client_us_per_op",
            per(clients.ns as f64 / 1e3, ops),
            ops,
        ),
        (
            "simnet.msgs_per_op",
            only(sim, per(msgs.calls as f64, ops)),
            ops,
        ),
        (
            "simnet.handler_ns_per_event",
            only(sim, per(all.ns as f64, all.calls)),
            all.calls,
        ),
        (
            "simnet.loop_ns_per_event",
            only(sim, per(cpu_ns - all.ns as f64, all.calls)),
            all.calls,
        ),
        (
            "simnet.events_per_s",
            only(
                sim,
                base.events as f64 / base.events_wall_s.max(f64::MIN_POSITIVE),
            ),
            base.events,
        ),
        (
            "bench.gen_late_p99_ms",
            if late.is_empty() {
                0.0
            } else {
                percentile_sorted(&late, 99.0)
            },
            late.len() as u64,
        ),
        (
            "bench.trace_overhead_frac",
            cpu_per_op(m) / cpu_per_op(base).max(f64::MIN_POSITIVE) - 1.0,
            ops,
        ),
    ];
    values
        .into_iter()
        .map(|(name, value, n)| Metric { name, value, n })
        .collect()
}

/// Human-readable lines for a run: every metric with unit and sample
/// count, the latency summary, and the names the end-to-end table of
/// the benchmark's documentation uses for them on this workload.
pub fn describe(m: &Measured, metrics: &[Metric], simulated: bool) -> Vec<String> {
    let mut out = Vec::new();
    for x in metrics {
        out.push(format!(
            "  {:<32} {:>16.6} {:<6} (n={})",
            x.name,
            x.value,
            unit_of(x.name),
            x.n
        ));
    }
    let clock = if simulated { "virtual" } else { "wall" };
    let mut lat = m.latencies_ms.clone();
    let p99 = summarize(&mut lat).map(|s| {
        out.push(format!("  latency ms ({clock} clock): {s}"));
        percentile_sorted(&lat, 99.0)
    });
    if let Some(s) = summarize(&mut m.lateness_ms.clone()) {
        out.push(format!("  generator lateness ms: {s}"));
    }
    if let Some(s) = summarize(&mut m.setups_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()) {
        out.push(format!("  set-up ms: {s}"));
    }
    if !simulated {
        for (k, r) in m.reps.iter().enumerate() {
            out.push(format!(
                "  repetition {k}: {:.1} ops/s, p50 {:.4} ms, {:.2} us/op, host steal {:.1}%",
                r.ops_per_s,
                r.p50_ms,
                r.cpu_us_per_op,
                100.0 * r.steal_frac
            ));
        }
    }
    let cpus = crate::workloads::cpus();
    out.push(format!(
        "  host steal {:.1}% of {cpus} CPUs over the measured windows ({:.2} s of {:.2} s)",
        100.0 * m.steal_s / (m.wall_window_s * cpus).max(f64::MIN_POSITIVE),
        m.steal_s,
        m.wall_window_s
    ));
    let err = m.failed as f64 / m.attempted.max(1) as f64;
    out.push(format!(
        "  err_frac {err:.6} ratio (failed {} of {} attempted), retries {}, transport_faults {}",
        m.failed, m.attempted, m.retries, m.transport_faults
    ));
    if let Some(p99) = p99 {
        let p = if simulated { "sim_" } else { "" };
        out.push(format!(
            "  {p}p99_ms {p99:.4} ms (n={}, pooled over repetitions)",
            m.latencies_ms.len()
        ));
    }
    if simulated {
        out.push(format!(
            "  sim_ops_per_s and sim_p50_ms are ops_per_s and p50_ms above; \
             sim_events_per_s {:.0} msgs/s (n={} events); \
             the simulator spent {:.2} us of host CPU per simulated op",
            m.events as f64 / m.events_wall_s.max(f64::MIN_POSITIVE),
            m.events,
            per(m.host_cpu_s * 1e6, m.ops)
        ));
    }
    if let Some(s) = summarize(&mut m.unavail_ms.clone()) {
        out.push(format!("  unavail_ms over {} crashes: {s}", m.crashes));
    }
    out
}

/// The result line: one JSON object with the run's verdict and
/// metrics, every value printed with all its digits.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            assert!(x.value.is_finite(), "metric {} is not finite", x.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                x.value,
                unit_of(x.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::BenchWorkload;

    /// `BENCHMARK.json` must declare exactly the metrics this binary
    /// prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = json.matches("\"name\":").count();
        let gated = BenchWorkload::GATED;
        assert_eq!(declared, gated.len() + END_TO_END.len() + PER_LAYER.len());
        for w in BenchWorkload::ALL {
            let listed = json.contains(&format!("\"name\": \"{}\"", w.name()));
            assert_eq!(listed, gated.contains(&w), "{}", w.name());
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_line_prints_every_digit() {
        let line = json_line(
            true,
            3,
            0,
            &[Metric {
                name: "p50_ms",
                value: 1.234_567_890_123,
                n: 3,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
    }
}
