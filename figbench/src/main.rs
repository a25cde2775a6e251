//! The repository benchmark: figure-traffic workloads, end-to-end host
//! metrics, and a per-layer cost ledger measured from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path figbench/Cargo.toml -- \
//!     --workload <server_detail|spec_sampled|multicore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md for
//! what each metric means and why each workload exists.

mod calib;
mod layers;
mod passes;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use morrigan_runner::json::{json_f64, json_string};
use morrigan_runner::WorkloadCache;
use morrigan_workloads::fnv1a;

use layers::{LayerCosts, Rates};
use passes::{Outcome, Pass, Reference, Span};
use workloads::{members, without_prefetcher, Op, Role, Scale, Workload};

/// The only `MORRIGAN_*` variable a run may carry; the benchmark sets it.
const AUDIT_VAR: &str = "MORRIGAN_AUDIT";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 40f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Refuses any `MORRIGAN_*` knob but the audit switch: several of them
/// change the stepping path, the warming or the trace cache, and a number
/// taken on a non-default path must not pass for the default. Then turns
/// the audit on, so every checkpoint checks the conservation laws.
fn guard_knobs(vars: impl Iterator<Item = (String, String)>) -> Result<(), String> {
    let set: Vec<String> = vars
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MORRIGAN_") && k != AUDIT_VAR)
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default paths only",
            set.join(", ")
        ))
    }
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one run of the benchmark reports.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Fold of every op's record digest over the first pass.
    digest: u64,
    passes: usize,
    /// Medians over passes of the probe's host seconds, and of `mips` and
    /// `setup_s` unscaled: printed beside the metrics, not as metrics.
    probe_s: f64,
    raw_mips: f64,
    raw_setup_s: f64,
    spans: Vec<Span>,
}

pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// The epoch-driver width a spec runs at on this host.
fn machine_width(ops: &[Op]) -> usize {
    ops.iter()
        .map(|op| op.spec.host_threads(None))
        .max()
        .unwrap_or(1)
}

fn workload_digest(pass: &Pass) -> u64 {
    let mut bytes = Vec::new();
    for outcome in &pass.outcomes {
        if let Outcome::Ran { digest, .. } = outcome {
            bytes.extend_from_slice(&digest.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Runs passes for `seconds` (at least one; with `trace`, alternating
/// untraced and traced ones, at least one of each), then the references.
fn measure(args: &Args, scale: &Scale) -> Report {
    let epoch = Instant::now();
    let mut spans = Vec::new();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    loop {
        if let Some((_, previous)) = passes.last_mut() {
            previous.runner = None;
        }
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = passes::run_pass(
            args.workload,
            args.seed,
            scale,
            epoch,
            traced.then_some(&mut spans),
        );
        eprintln!(
            "figbench: pass {} ({}): setup {:.3} s, simulate {:.3} s, {:.3} MIPS \
             (unscaled {:.3} s, {:.3} s, {:.3} MIPS; probe {:.2} ms)",
            passes.len(),
            if traced { "traced" } else { "untraced" },
            pass.setup_s,
            pass.sim_s,
            pass.mips(),
            pass.raw_setup_s,
            pass.raw_sim_s,
            pass.raw_mips(),
            pass.probe_s * 1e3
        );
        passes.push((traced, pass));
        let enough = !args.trace || passes.len() >= 2;
        if enough && epoch.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let ops = args.workload.ops(args.seed, scale);
    let (_, last) = passes.last().expect("at least one pass ran");
    let references = passes::run_references(&ops, last);
    let all: Vec<&Pass> = passes.iter().map(|(_, p)| p).collect();
    let (attempted, failures) = passes::judge(&all, &references);
    let metrics = if args.trace {
        traced_metrics(scale, &ops, &passes, &references, epoch, &mut spans)
    } else {
        vec![
            (
                "mips",
                median(all.iter().map(|p| p.mips()).collect()),
                "Minstr/s",
            ),
            (
                "setup_s",
                median(all.iter().map(|p| p.setup_s).collect()),
                "s",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    Report {
        attempted,
        failures,
        metrics,
        digest: workload_digest(all[0]),
        passes: all.len(),
        probe_s: median(all.iter().map(|p| p.probe_s).collect()),
        raw_mips: median(all.iter().map(|p| p.raw_mips()).collect()),
        raw_setup_s: median(all.iter().map(|p| p.raw_setup_s).collect()),
        spans,
    }
}

/// The per-layer metrics of a traced run.
fn traced_metrics(
    scale: &Scale,
    ops: &[Op],
    passes: &[(bool, Pass)],
    references: &[Reference],
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !*t).map(|(_, p)| p).collect();
    let last = &passes.last().expect("at least one pass ran").1;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(|p| f(p)).collect());
    let exec_s = |outcome: &Outcome| match outcome {
        Outcome::Ran {
            record, seconds, ..
        } => seconds - record.phases.trace_build(),
        Outcome::Panicked(_) => 0.0,
    };
    let role_s = |pass: &Pass, pick: &dyn Fn(Role) -> bool| -> f64 {
        ops.iter()
            .zip(&pass.outcomes)
            .filter(|(op, _)| pick(op.role))
            .map(|(_, o)| exec_s(o))
            .fold(0.0, |a, b| a + b)
    };

    // Model counts over the measurement windows of one pass's records.
    let records: Vec<(&Op, &morrigan_runner::RunRecord)> = ops
        .iter()
        .zip(&last.outcomes)
        .filter_map(|(op, o)| match o {
            Outcome::Ran { record, .. } => Some((op, &**record)),
            Outcome::Panicked(_) => None,
        })
        .collect();
    let sum = |f: &dyn Fn(&morrigan_runner::RunRecord) -> u64, morrigan_only: bool| -> f64 {
        records
            .iter()
            .filter(|(op, _)| !morrigan_only || op.role.is_morrigan())
            .map(|(_, r)| f(r) as f64)
            .sum()
    };
    let kinstr = sum(&|r| r.metrics.instructions, false) / 1000.0;

    // A baseline cost for workloads that carry no baseline spec: the same
    // specs without prefetching, timed once on the last pass's traces.
    let has_baseline = ops.iter().any(|op| !op.role.is_morrigan());
    let spec_cost_ratio = if has_baseline {
        per_pass(&|p| {
            ratio(
                role_s(p, &|r| r.is_morrigan()),
                role_s(p, &|r| !r.is_morrigan()),
            )
        })
    } else {
        let runner = last
            .runner
            .as_ref()
            .expect("the last pass keeps its runner");
        let base: f64 = ops
            .iter()
            .map(|op| {
                let t = Instant::now();
                let record = runner.run_one(&without_prefetcher(&op.spec));
                t.elapsed().as_secs_f64() - record.phases.trace_build()
            })
            .sum();
        ratio(role_s(last, &|_| true), base)
    };

    let width = machine_width(ops);
    // Single-core workloads step on one thread; with no epoch driver to
    // speed up, their speedup is 1.
    let parallel_speedup = references
        .iter()
        .zip(&last.outcomes)
        .find_map(|(r, o)| match (&r.width1, o) {
            (Some(Ok((_, serial))), Outcome::Ran { record, .. }) => {
                Some(ratio(*serial, record.phases.simulate()))
            }
            _ => None,
        })
        .unwrap_or(1.0);

    let sim_len = WorkloadCache::trace_len(
        scale.sim.warmup_instructions,
        scale.sim.measure_instructions,
    );
    let all_members: Vec<_> = ops.iter().flat_map(|op| members(&op.spec)).collect();
    let (costs, rates): (LayerCosts, HashMap<String, Rates>) =
        layers::measure(&all_members, sim_len, epoch, spans);
    let ledgers: Vec<layers::Ledger> = traced
        .iter()
        .map(|p| layers::ledger(&costs, &rates, ops, p))
        .collect();
    let share = |f: &dyn Fn(&layers::Ledger) -> f64| {
        median(ledgers.iter().map(|l| ratio(f(l), l.run_s)).collect())
    };
    let ipc_err = passes::ipc_errors(last, references);

    vec![
        (
            "workloads.capture_ns_per_instr",
            costs.capture.ns(),
            "ns/instr",
        ),
        (
            "workloads.replay_ns_per_instr",
            costs.replay.ns(),
            "ns/instr",
        ),
        (
            "workloads.trace_bytes_per_instr",
            ratio(costs.resident_bytes as f64, costs.capture.ops as f64),
            "B/instr",
        ),
        (
            "runner.trace_build_s",
            per_pass(&|p| p.phases.trace_build()),
            "s",
        ),
        (
            "runner.workload_gen_s",
            per_pass(&|p| p.phases.workload_gen()),
            "s",
        ),
        ("runner.simulate_s", per_pass(&|p| p.phases.simulate()), "s"),
        (
            "runner.streams_per_trace",
            ratio(last.cache.streams_served as f64, last.cache.built as f64),
            "ratio",
        ),
        (
            "sim.run_s",
            per_pass(&|p| p.outcomes.iter().map(exec_s).sum()),
            "s",
        ),
        (
            "sim.elided_share",
            ratio(
                last.elision.probes_elided as f64,
                (last.elision.probes_issued + last.elision.probes_elided) as f64,
            ),
            "ratio",
        ),
        (
            "sim.probes_issued_per_kinstr",
            ratio(
                last.elision.probes_issued as f64,
                last.instructions as f64 / 1000.0,
            ),
            "1/kinstr",
        ),
        (
            "sim.smt_share",
            per_pass(&|p| {
                ratio(
                    role_s(p, &|r| r.is_smt()),
                    p.outcomes.iter().map(exec_s).sum(),
                )
            }),
            "ratio",
        ),
        (
            "sim.residual_share",
            share(&|l| l.run_s - l.explained()),
            "ratio",
        ),
        ("sim.machine.width", width as f64, "threads"),
        ("sim.machine.parallel_speedup", parallel_speedup, "x"),
        ("vm.itlb.lookup_ns", costs.itlb.ns(), "ns"),
        ("vm.dtlb.lookup_ns", costs.dtlb.ns(), "ns"),
        ("vm.stlb.lookup_ns", costs.stlb.ns(), "ns"),
        ("vm.walker.walk_ns", costs.walk.ns(), "ns"),
        ("vm.pb.take_ns", costs.pb.ns(), "ns"),
        (
            "vm.istlb_mpki",
            ratio(sum(&|r| r.metrics.mmu.istlb_misses, false), kinstr),
            "MPKI",
        ),
        (
            "vm.dstlb_mpki",
            ratio(sum(&|r| r.metrics.mmu.dstlb_misses, false), kinstr),
            "MPKI",
        ),
        (
            "vm.walks_per_kinstr",
            ratio(
                sum(
                    &|r| {
                        let w = &r.metrics.walker;
                        w.demand_instr_walks + w.demand_data_walks + w.prefetch_walks
                    },
                    false,
                ),
                kinstr,
            ),
            "1/kinstr",
        ),
        (
            "vm.coverage",
            ratio(
                sum(&|r| r.metrics.mmu.istlb_covered, true),
                sum(&|r| r.metrics.mmu.istlb_misses, true),
            ),
            "ratio",
        ),
        (
            "vm.prefetch_accuracy",
            ratio(
                sum(&|r| r.metrics.pb.hits(), true),
                sum(&|r| r.metrics.pb.inserts, true),
            ),
            "ratio",
        ),
        ("core.morrigan.miss_ns", costs.morrigan.ns(), "ns"),
        (
            "core.morrigan.decisions_per_miss",
            ratio(costs.decisions as f64, costs.morrigan.ops as f64),
            "ratio",
        ),
        ("core.morrigan.spec_cost_ratio", spec_cost_ratio, "x"),
        ("mem.access_ns", costs.access.ns(), "ns"),
        ("mem.warm_ns", costs.warm.ns(), "ns"),
        ("icache.on_fetch_ns", costs.on_fetch.ns(), "ns"),
        ("ledger.workloads_share", share(&|l| l.workloads), "ratio"),
        ("ledger.vm_share", share(&|l| l.vm), "ratio"),
        ("ledger.core_share", share(&|l| l.core), "ratio"),
        ("ledger.mem_share", share(&|l| l.mem), "ratio"),
        ("ledger.icache_share", share(&|l| l.icache), "ratio"),
        (
            "ipc_err",
            ipc_err.iter().sum::<f64>() / ipc_err.len().max(1) as f64,
            "ratio",
        ),
        (
            "trace_overhead_share",
            1.0 - ratio(
                median(traced.iter().map(|p| p.mips()).collect()),
                median(untraced.iter().map(|p| p.mips()).collect()),
            ),
            "ratio",
        ),
    ]
}

/// A digest of the sources the benchmark builds: the workspace manifests
/// and every file under `crates/` and the benchmark's own sources. The
/// checkout the benchmark runs in need not be a git repository, so this
/// stands in for the revision.
fn source_digest() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    let mut stack: Vec<std::path::PathBuf> = ["crates", "figbench/src"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    for f in ["Cargo.toml", "Cargo.lock", "figbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(content) = std::fs::read(f) {
            bytes.extend_from_slice(
                f.strip_prefix(&root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.extend_from_slice(&content);
        }
    }
    format!("src:{:016x}", fnv1a(&bytes))
}

fn spans_json(spans: &[Span]) -> String {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.end_s - s.start_s;
        }
    }
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_string(k)))
                .collect();
            format!(
                "{{\"id\": {i}, \"name\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}, \
                 \"self_s\": {}, \"counts\": {{{}}}}}",
                json_string(&s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_f64(s.start_s),
                json_f64(s.end_s),
                json_f64(s.end_s - s.start_s - child_s[i]),
                counts.join(", ")
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_f64(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("figbench: {e}");
            eprintln!("usage: figbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard_knobs(std::env::vars()) {
        eprintln!("figbench: {e}");
        return ExitCode::from(2);
    }
    // Set before any thread exists; every simulator built after this
    // audits its checkpoints.
    std::env::set_var(AUDIT_VAR, "1");

    let scale = Scale::figure();
    let report = measure(&args, &scale);
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MORRIGAN_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "manifest: revision={} nproc={nproc} machine_width={} seed={} workload={} trace={} \
         passes={} digest={:016x} probe_ms={:.3} unscaled_mips={:.4} unscaled_setup_s={:.4} \
         env={}",
        source_digest(),
        machine_width(&args.workload.ops(args.seed, &scale)),
        args.seed,
        args.workload.name(),
        args.trace as u8,
        report.passes,
        report.digest,
        report.probe_s * 1e3,
        report.raw_mips,
        report.raw_setup_s,
        knobs.join(",")
    );
    for failure in &report.failures {
        println!("failed: {failure}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans_json(&report.spans)));
        if let Err(e) = written {
            eprintln!("figbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {}",
            report.spans.len(),
            path.display()
        );
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_runner::jsonval;

    /// The metric names and units `BENCHMARK.json` lists under `list`.
    fn listed(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = jsonval::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        doc.get(list)
            .expect("list present")
            .items()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 5,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn every_listed_metric_is_printed_with_its_unit() {
        for workload in Workload::ALL {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = measure(&args(workload, trace), &Scale::tiny());
                assert!(report.failures.is_empty(), "{:?}", report.failures);
                let line = result_json(&report);
                let doc = jsonval::parse(&line).expect("the result line is JSON");
                let metrics = doc.get("metrics").expect("metrics");
                let expected = listed(list);
                for (name, unit) in &expected {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
                    assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit.as_str()));
                    assert!(m.get("value").and_then(|v| v.as_f64()).is_some(), "{name}");
                }
                assert_eq!(
                    report.metrics.len(),
                    expected.len(),
                    "{}: no extra metrics",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn traced_records_equal_untraced_records() {
        let scale = Scale::tiny();
        for workload in Workload::ALL {
            let epoch = Instant::now();
            let mut spans = Vec::new();
            let untraced = passes::run_pass(workload, 9, &scale, epoch, None);
            let traced = passes::run_pass(workload, 9, &scale, epoch, Some(&mut spans));
            assert!(!spans.is_empty());
            let digests = |p: &Pass| -> Vec<u64> {
                p.outcomes
                    .iter()
                    .map(|o| match o {
                        Outcome::Ran { digest, .. } => *digest,
                        Outcome::Panicked(msg) => panic!("{msg}"),
                    })
                    .collect()
            };
            assert_eq!(digests(&untraced), digests(&traced), "{}", workload.name());
        }
    }

    #[test]
    fn knob_guard_admits_only_the_audit_switch() {
        let vars = |names: &[&str]| {
            names
                .iter()
                .map(|n| (n.to_string(), "1".to_string()))
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(guard_knobs(vars(&["PATH", AUDIT_VAR])).is_ok());
        for knob in [
            "MORRIGAN_NO_PAGE_RUNS",
            "MORRIGAN_WORKLOAD_CACHE",
            "MORRIGAN_SAMPLE",
        ] {
            let err = guard_knobs(vars(&[AUDIT_VAR, knob])).expect_err(knob);
            assert!(err.contains(knob), "{err}");
        }
    }

    #[test]
    fn malformed_arguments_are_refused() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        assert!(parse(&[
            "--workload",
            "multicore",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(parse(&["--seed", "3"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "multicore", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "multicore", "--seconds"]).is_err());
        assert!(parse(&["--workload", "multicore", "--bogus", "1"]).is_err());
    }
}
