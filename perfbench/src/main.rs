//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or each in turn, for `all`) and prints a
//! human-readable report followed by one JSON line per workload:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when a run's outputs are incorrect (a safety
//! violation, or an acknowledged request that was never decided).

use perfbench::report::{self, Metric, Probes};
use perfbench::trace::TraceSink;
use perfbench::workloads::{self, BenchWorkload, Measured};
use std::process::ExitCode;

struct Args {
    workloads: Vec<BenchWorkload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => BenchWorkload::ALL.to_vec(),
                    name => {
                        vec![BenchWorkload::parse(name).ok_or(format!("unknown workload {name}"))?]
                    }
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
        return Err(format!("--seconds must be within 1..=600, not {seconds}"));
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Allocation counts come from a sibling binary that installs the
/// counting global allocator; installing it here would put two atomic
/// increments on every allocation of every measured run.
fn alloc_probe() -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let probe = exe.with_file_name(format!("perfbench-alloc{}", std::env::consts::EXE_SUFFIX));
    let out = std::process::Command::new(&probe)
        .output()
        .map_err(|e| format!("run {}: {e}", probe.display()))?;
    if !out.status.success() {
        return Err(format!("{} failed: {}", probe.display(), out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| {
            let (k, v) = l.split_once(' ').ok_or(format!("bad probe line {l}"))?;
            Ok((k.to_string(), v.parse::<f64>().map_err(|e| e.to_string())?))
        })
        .collect()
}

/// Run one workload, print its report and result line, and return
/// whether its outputs were correct.
fn run_one(workload: BenchWorkload, args: &Args, allocs: &[(String, f64)]) -> bool {
    let simulated = matches!(
        workload,
        BenchWorkload::PigSim25 | BenchWorkload::PigSimFailover
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let (runs, metrics): (Vec<Measured>, Vec<Metric>) = if args.trace {
        // The untraced reference is what the tracing overhead and the
        // simulator's event rate are measured against. It runs as long
        // as the traced run, so run length cannot pass for tracing cost.
        let base = workloads::run(workload, args.seed, args.seconds, None);
        let sink = TraceSink::default();
        let traced = workloads::run(workload, args.seed, args.seconds, Some(&sink));
        let probes = Probes::measure(args.seed, allocs.to_vec());
        let metrics = report::per_layer(&traced, &base, &sink, &probes);
        (vec![traced, base], metrics)
    } else {
        let m = workloads::run(workload, args.seed, args.seconds, None);
        let metrics = report::end_to_end(&m);
        (vec![m], metrics)
    };

    let m = &runs[0];
    for line in report::describe(m, &metrics, simulated) {
        println!("{line}");
    }
    let problems: Vec<&String> = runs.iter().flat_map(|r| &r.problems).collect();
    for p in &problems {
        println!("INCORRECT: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::json_line(correct, m.attempted, m.failed, &metrics)
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let allocs = if args.trace {
        match alloc_probe() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("perfbench: allocation probe: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        Vec::new()
    };
    let mut correct = true;
    for &w in &args.workloads {
        correct &= run_one(w, &args, &allocs);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
