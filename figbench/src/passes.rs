//! Timed figure regenerations, their reference runs, and the per-op
//! correctness verdicts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use morrigan_obs::PhaseProfile;
use morrigan_runner::json::record_json;
use morrigan_runner::{RunRecord, RunSpec, Runner, WorkloadCacheStats};
use morrigan_sim::ElisionCounters;
use morrigan_workloads::fnv1a;

use crate::calib;
use crate::workloads::{flip_sampling, Op, Scale, Workload};

/// A host-time span the traced run records around one call into the
/// program. Spans stay in memory and are written when the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Seconds since the run started.
    pub start_s: f64,
    pub end_s: f64,
    /// Counts measured where the work happened.
    pub counts: Vec<(&'static str, u64)>,
}

/// One spec's execution within a pass.
pub enum Outcome {
    Ran {
        record: Arc<RunRecord>,
        digest: u64,
        /// Host seconds of this spec's `run_one` call.
        seconds: f64,
    },
    Panicked(String),
}

/// One figure regeneration: set-up, then every spec in order.
pub struct Pass {
    /// Spec construction plus the trace materialization the runner books,
    /// in host seconds scaled to the reference host speed.
    pub setup_s: f64,
    /// The specs' host seconds minus that trace materialization, scaled
    /// likewise.
    pub sim_s: f64,
    /// `setup_s` and `sim_s` as the host clock read them, unscaled.
    pub raw_setup_s: f64,
    pub raw_sim_s: f64,
    /// Median host seconds of the pass's probes.
    pub probe_s: f64,
    /// Simulated instructions (warmup + measure, all cores).
    pub instructions: u64,
    pub outcomes: Vec<Outcome>,
    pub phases: PhaseProfile,
    pub elision: ElisionCounters,
    pub cache: WorkloadCacheStats,
    /// Kept so reference runs replay the pass's materialized traces;
    /// dropped once a later pass exists, so only one pass's traces are
    /// resident at a time.
    pub runner: Option<Runner>,
}

impl Pass {
    /// Simulated instructions per scaled host second, in millions.
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.sim_s / 1e6
    }

    /// The same per unscaled host second.
    pub fn raw_mips(&self) -> f64 {
        self.instructions as f64 / self.raw_sim_s / 1e6
    }
}

/// The record's identity: a hash of its JSON rendering, which holds every
/// deterministic field and none of the host-time ones.
fn digest(record: &RunRecord) -> u64 {
    fnv1a(record_json(record).as_bytes())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs `spec` on `runner`, turning a panic (a violated audit law among
/// them) into an error instead of aborting the other specs.
fn run_caught(runner: &Runner, spec: &RunSpec) -> Result<Arc<RunRecord>, String> {
    catch_unwind(AssertUnwindSafe(|| runner.run_one(spec))).map_err(panic_message)
}

/// Runs one figure regeneration of `workload`. With `spans`, records a
/// span per spec with its trace-capture and execute children.
///
/// The host-speed probe runs before the first spec and after each spec;
/// a spec's seconds are scaled by the mean of the two probes around it,
/// and the construction before the first spec by the first probe.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    epoch: Instant,
    mut spans: Option<&mut Vec<Span>>,
) -> Pass {
    let start = Instant::now();
    let root = spans.as_deref_mut().map(|spans| {
        spans.push(Span {
            name: format!("workload {}", workload.name()),
            parent: None,
            start_s: start.duration_since(epoch).as_secs_f64(),
            end_s: 0.0,
            counts: Vec::new(),
        });
        spans.len() - 1
    });
    let ops = workload.ops(seed, scale);
    let runner = Runner::new(1);
    let construct_s = start.elapsed().as_secs_f64();
    let mut probes = vec![calib::probe_s()];
    let mut setup_s = construct_s * calib::REFERENCE_S / probes[0];
    let (mut raw_setup_s, mut sim_s, mut raw_sim_s) = (construct_s, 0.0, 0.0);
    let mut outcomes = Vec::with_capacity(ops.len());
    for op in &ops {
        let t0 = Instant::now();
        let result = run_caught(&runner, &op.spec);
        let seconds = t0.elapsed().as_secs_f64();
        let before = probes[probes.len() - 1];
        let after = calib::probe_s();
        probes.push(after);
        let speed = 2.0 * calib::REFERENCE_S / (before + after);
        let build = result.as_ref().map_or(0.0, |r| r.phases.trace_build());
        raw_setup_s += build;
        raw_sim_s += seconds - build;
        setup_s += build * speed;
        sim_s += (seconds - build) * speed;
        if let Some(spans) = spans.as_deref_mut() {
            let begin = t0.duration_since(epoch).as_secs_f64();
            let end = begin + seconds;
            let parent = spans.len();
            let counts = match &result {
                Ok(r) => vec![
                    ("instructions", op.spec.instructions_cost()),
                    ("probes_issued", r.elision.probes_issued),
                    ("istlb_misses", r.metrics.mmu.istlb_misses),
                ],
                Err(_) => vec![("panicked", 1)],
            };
            spans.push(Span {
                name: format!(
                    "spec {} / {}",
                    op.spec.workload.name(),
                    op.spec.prefetcher.name()
                ),
                parent: root,
                start_s: begin,
                end_s: end,
                counts,
            });
            // The runner materializes a spec's traces before stepping it.
            spans.push(Span {
                name: "trace capture".into(),
                parent: Some(parent),
                start_s: begin,
                end_s: begin + build,
                counts: Vec::new(),
            });
            spans.push(Span {
                name: "execute".into(),
                parent: Some(parent),
                start_s: begin + build,
                end_s: end,
                counts: Vec::new(),
            });
        }
        outcomes.push(match result {
            Ok(record) => Outcome::Ran {
                digest: digest(&record),
                record,
                seconds,
            },
            Err(msg) => Outcome::Panicked(msg),
        });
    }
    if let (Some(spans), Some(root)) = (spans, root) {
        spans[root].end_s = epoch.elapsed().as_secs_f64();
        spans[root].counts = vec![("specs", ops.len() as u64)];
    }
    Pass {
        setup_s,
        sim_s,
        raw_setup_s,
        raw_sim_s,
        probe_s: crate::median(probes),
        instructions: runner.instructions_simulated(),
        outcomes,
        phases: runner.phase_totals(),
        elision: runner.elision_totals(),
        cache: runner.workload_cache_stats(),
        runner: Some(runner),
    }
}

/// What the reference runs say about one op's spec.
pub struct Reference {
    /// The spec run the other way (sampled vs full detail): its record,
    /// or the panic it raised.
    pub flipped: Result<Arc<RunRecord>, String>,
    /// Multi-core only: the digest of the same machine at width 1, and
    /// that run's simulate-phase seconds.
    pub width1: Option<Result<(u64, f64), String>>,
}

/// Runs every op's references on the last pass's runner, outside any
/// timed region: the flipped-sampling run for every op, and the width-1
/// machine for multi-core ops.
pub fn run_references(ops: &[Op], pass: &Pass) -> Vec<Reference> {
    let runner = pass
        .runner
        .as_ref()
        .expect("the last pass keeps its runner");
    ops.iter()
        .map(|op| {
            let flipped = run_caught(runner, &flip_sampling(&op.spec));
            let width1 = (op.spec.workload.cores() > 1).then(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    let record =
                        op.spec
                            .execute_cached(None, None, Some(1), runner.workload_cache());
                    (digest(&record), record.phases.simulate())
                }))
                .map_err(panic_message)
            });
            Reference { flipped, width1 }
        })
        .collect()
}

/// Why an op failed, or `None` when every check holds.
fn verdict(outcome: &Outcome, first_digest: Option<u64>, reference: &Reference) -> Option<String> {
    let (record, digest) = match outcome {
        Outcome::Panicked(msg) => return Some(format!("panicked: {msg}")),
        Outcome::Ran { record, digest, .. } => (record, *digest),
    };
    match &record.audit {
        None => return Some("no audit report: the conservation laws did not run".into()),
        Some(audit) if !audit.violations.is_empty() => {
            return Some(format!("audit violations: {:?}", audit.violations))
        }
        Some(_) => {}
    }
    if first_digest.is_some_and(|d| d != digest) {
        return Some("record digest differs between repeats".into());
    }
    match &reference.flipped {
        Err(msg) => return Some(format!("reference run panicked: {msg}")),
        Ok(other) if other.metrics.mmu.istlb_misses != record.metrics.mmu.istlb_misses => {
            return Some(format!(
                "iSTLB misses {} differ from the {} reference's {}",
                record.metrics.mmu.istlb_misses,
                if other.spec.sampling.is_some() {
                    "sampled"
                } else {
                    "full-detail"
                },
                other.metrics.mmu.istlb_misses
            ))
        }
        _ => {}
    }
    match &reference.width1 {
        Some(Err(msg)) => Some(format!("width-1 machine panicked: {msg}")),
        Some(Ok((d, _))) if *d != digest => {
            Some("machine record at width 1 differs from full width".into())
        }
        _ => None,
    }
}

/// Judges every op of every pass against the first pass's digests and
/// the references: (attempted, failure reasons).
pub fn judge(passes: &[&Pass], references: &[Reference]) -> (u64, Vec<String>) {
    let mut attempted = 0;
    let mut failures = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        for (i, outcome) in pass.outcomes.iter().enumerate() {
            attempted += 1;
            let first = match &passes[0].outcomes[i] {
                Outcome::Ran { digest, .. } => Some(*digest),
                Outcome::Panicked(_) => None,
            };
            if let Some(why) = verdict(outcome, first, &references[i]) {
                failures.push(format!("pass {p} op {i}: {why}"));
            }
        }
    }
    (attempted, failures)
}

/// |sampled − full| / full IPC per op, from whichever of the timed record
/// and its flipped reference is the sampled one.
pub fn ipc_errors(pass: &Pass, references: &[Reference]) -> Vec<f64> {
    pass.outcomes
        .iter()
        .zip(references)
        .filter_map(|(outcome, reference)| {
            let Outcome::Ran { record, .. } = outcome else {
                return None;
            };
            let Ok(other) = &reference.flipped else {
                return None;
            };
            let (sampled, full) = if record.spec.sampling.is_some() {
                (record, other)
            } else {
                (other, record)
            };
            let full_ipc = full.metrics.ipc();
            Some((sampled.metrics.ipc() - full_ipc).abs() / full_ipc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mismatched_reference_is_one_failed_op() {
        let scale = Scale::tiny();
        let epoch = Instant::now();
        let pass = run_pass(Workload::SpecSampled, 3, &scale, epoch, None);
        let ops = Workload::SpecSampled.ops(3, &scale);
        let mut references = run_references(&ops, &pass);
        let passes = [&pass];
        let (attempted, failures) = judge(&passes, &references);
        assert_eq!(attempted as usize, ops.len());
        assert!(failures.is_empty(), "{failures:?}");

        let Ok(reference) = &references[0].flipped else {
            panic!("the reference ran");
        };
        let mut wrong = (**reference).clone();
        wrong.metrics.mmu.istlb_misses += 1;
        references[0].flipped = Ok(Arc::new(wrong));
        let (attempted, failures) = judge(&passes, &references);
        assert_eq!(attempted as usize, ops.len());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("iSTLB misses"), "{failures:?}");
    }
}
