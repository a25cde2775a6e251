//! Property tests: page-run stepping is *byte-identical* to
//! per-instruction stepping.
//!
//! Each test builds two simulators over the same deterministic workload
//! and configuration: one delivers instructions in blocks of the swept
//! size, the reference in blocks of one (`set_fill_block(1)`). A
//! one-instruction block makes every consume take one instruction and
//! start unprobed, so the reference issues every translation probe a
//! per-instruction stepper would: no probe can be elided. Every
//! observable output must match exactly: the full metrics struct, the
//! stats-invariant audit report (check counts included), and — in the
//! traced variants — the complete MMU event stream. The space swept
//! covers arbitrary delivery block sizes, sampled and full-detail
//! schedules, SMT colocation, and context-switch intervals that land
//! mid-block, mid-run, and on run boundaries. Absolute output is pinned
//! separately by the runner's single-core fixture.

use morrigan::{Morrigan, MorriganConfig};
use morrigan_obs::TraceRecorder;
use morrigan_sim::{SamplingConfig, SimConfig, Simulator, SystemConfig};
use morrigan_workloads::{
    InstructionStream, PackedReplay, PackedTrace, ServerWorkload, ServerWorkloadConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

fn server(seed: u64) -> Box<ServerWorkload> {
    Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
        format!("t{seed}"),
        seed,
    )))
}

/// The `which`-th deterministic SMT pair, one stream per thread.
fn smt_pair(which: usize) -> Vec<Box<dyn InstructionStream>> {
    let pair = morrigan_workloads::suites::smt_pairs(which + 1)
        .pop()
        .expect("smt_pairs returns the requested count");
    vec![
        Box::new(ServerWorkload::new(pair.0)),
        Box::new(ServerWorkload::new(pair.1)),
    ]
}

/// One run at the given delivery block size (1 = the per-instruction
/// reference); audit always on so the full law set is part of the
/// comparison.
fn run_one(
    workloads: Vec<Box<dyn InstructionStream>>,
    system: SystemConfig,
    cfg: SimConfig,
    sampling: Option<SamplingConfig>,
    fill_block: usize,
) -> (morrigan_sim::Metrics, String, u64) {
    let mut sim = Simulator::new_smt(
        system,
        workloads,
        Box::new(Morrigan::new(MorriganConfig::default())),
    );
    sim.set_audit(true);
    sim.set_sampling(sampling);
    sim.set_fill_block(fill_block);
    let metrics = sim.run(cfg);
    let report = sim
        .audit_report()
        .expect("audit was enabled")
        .render()
        .to_string();
    let c = sim.elision_counters();
    assert_eq!(
        c.probes_issued + c.probes_elided,
        cfg.warmup_instructions + cfg.measure_instructions,
        "fetch-side probe conservation"
    );
    assert!(c.runs_consumed > 0, "run stepping must actually engage");
    if fill_block == 1 {
        assert_eq!(
            c.runs_consumed,
            cfg.warmup_instructions + cfg.measure_instructions,
            "one-instruction blocks consume one run per instruction"
        );
    }
    (metrics, report, c.probes_elided)
}

/// [`run_one`] over a single server stream.
fn run_server(
    seed: u64,
    system: SystemConfig,
    cfg: SimConfig,
    sampling: Option<SamplingConfig>,
    fill_block: usize,
) -> (morrigan_sim::Metrics, String, u64) {
    run_one(vec![server(seed)], system, cfg, sampling, fill_block)
}

/// Delivery block sizes worth sweeping: the degenerate 1 (the reference
/// itself), small odd sizes that misalign refills against runs, and the
/// production 1024.
const FILL_BLOCKS: [usize; 6] = [1, 3, 7, 17, 257, 1024];

/// Context-switch schedules: off, or an interval landing mid-block.
fn cs_interval(sel: u64, raw: u64) -> Option<u64> {
    (sel > 0).then_some(500 + raw % 4_500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-detail runs: arbitrary seeds, block sizes (including the
    /// degenerate 1), and context-switch intervals.
    #[test]
    fn detail_path_matches_per_instruction(
        seed in 0u64..1000,
        fill_sel in 0usize..6,
        cs_sel in 0u64..3,
        cs_raw in 0u64..4_500,
    ) {
        let fill_block = FILL_BLOCKS[fill_sel];
        let system = SystemConfig {
            context_switch_interval: cs_interval(cs_sel, cs_raw),
            ..SystemConfig::default()
        };
        let cfg = SimConfig { warmup_instructions: 3_000, measure_instructions: 9_000 };
        let batched = run_server(seed, system, cfg, None, fill_block);
        let reference = run_server(seed, system, cfg, None, 1);
        prop_assert_eq!(batched.0, reference.0, "metrics must be byte-identical");
        prop_assert_eq!(batched.1, reference.1, "audit reports must be identical");
        prop_assert!(batched.2 >= reference.2, "batching can only elide more probes");
    }

    /// Sampled runs: the batched fast-forward must reproduce the
    /// fixed-point clock reconstruction exactly, across schedules whose
    /// window edges land anywhere relative to block and run boundaries.
    #[test]
    fn sampled_path_matches_per_instruction(
        seed in 0u64..1000,
        fill_sel in 0usize..6,
        detail in 50u64..400,
        skip in 50u64..2_000,
        cs_sel in 0u64..3,
        cs_raw in 0u64..4_500,
    ) {
        let fill_block = FILL_BLOCKS[fill_sel];
        let system = SystemConfig {
            context_switch_interval: cs_interval(cs_sel, cs_raw),
            ..SystemConfig::default()
        };
        let cfg = SimConfig { warmup_instructions: 3_000, measure_instructions: 9_000 };
        let s = Some(SamplingConfig { detail, skip });
        let batched = run_server(seed, system, cfg, s, fill_block);
        let reference = run_server(seed, system, cfg, s, 1);
        prop_assert_eq!(batched.0, reference.0, "metrics must be byte-identical");
        prop_assert_eq!(batched.1, reference.1, "audit reports must be identical");
        prop_assert!(batched.2 >= reference.2, "batching can only elide more probes");
    }

    /// SMT colocation: segments end at every `smt_block` slice, so each
    /// thread's page runs are consumed a slice at a time, full and
    /// sampled, with and without context switches.
    #[test]
    fn smt_path_matches_per_instruction(
        which in 0usize..8,
        fill_sel in 0usize..6,
        sampled in any::<bool>(),
        cs_sel in 0u64..3,
        cs_raw in 0u64..4_500,
    ) {
        let fill_block = FILL_BLOCKS[fill_sel];
        let system = SystemConfig {
            context_switch_interval: cs_interval(cs_sel, cs_raw),
            ..SystemConfig::default()
        };
        let cfg = SimConfig { warmup_instructions: 3_000, measure_instructions: 9_000 };
        let s = sampled.then_some(SamplingConfig { detail: 300, skip: 1_700 });
        let batched = run_one(smt_pair(which), system, cfg, s, fill_block);
        let reference = run_one(smt_pair(which), system, cfg, s, 1);
        prop_assert_eq!(batched.0, reference.0, "metrics must be byte-identical");
        prop_assert_eq!(batched.1, reference.1, "audit reports must be identical");
        prop_assert!(batched.2 >= reference.2, "batching can only elide more probes");
    }

    /// Replay through a persisted `.mpt` run index must match live
    /// generation with a fresh per-block scan *and* the per-instruction
    /// reference: three deliveries of the same instruction stream, one
    /// set of results.
    #[test]
    fn persisted_index_replay_matches_live_generation(
        seed in 0u64..500,
        fill_sel in 0usize..6,
    ) {
        let fill_block = FILL_BLOCKS[fill_sel];
        let cfg = SimConfig { warmup_instructions: 2_000, measure_instructions: 6_000 };
        let total = cfg.warmup_instructions + cfg.measure_instructions
            + morrigan_workloads::REPLAY_SLACK;
        let trace = Arc::new(PackedTrace::capture(&mut *server(seed), total));
        let system = SystemConfig::default();
        let replay_batched = run_one(
            vec![Box::new(PackedReplay::new(Arc::clone(&trace)))],
            system, cfg, None, fill_block,
        );
        let live_batched = run_server(seed, system, cfg, None, fill_block);
        let live_reference = run_server(seed, system, cfg, None, 1);
        prop_assert_eq!(&replay_batched.0, &live_batched.0);
        prop_assert_eq!(&replay_batched.1, &live_batched.1);
        prop_assert_eq!(&live_batched.0, &live_reference.0);
        prop_assert_eq!(&live_batched.1, &live_reference.1);
    }
}

/// The recorded MMU event stream — every translation, walk, prefetch,
/// and I-cache-crossing event with its cycle stamp — is identical under
/// batching: elided probes are exactly the calls that record nothing.
#[test]
fn traced_event_stream_is_identical() {
    let run = |fill_block: usize| {
        let mut sim = Simulator::with_recorder(
            SystemConfig {
                context_switch_interval: Some(7_919),
                ..SystemConfig::default()
            },
            vec![server(7) as Box<dyn InstructionStream>],
            Box::new(Morrigan::new(MorriganConfig::default())),
            TraceRecorder::new(),
        );
        sim.set_audit(true);
        sim.set_fill_block(fill_block);
        let metrics = sim.run(SimConfig {
            warmup_instructions: 10_000,
            measure_instructions: 40_000,
        });
        let rec = sim.into_recorder();
        let events: Vec<_> = rec.events().copied().collect();
        (metrics, events)
    };
    let (bm, bev) = run(1024);
    let (lm, lev) = run(1);
    assert_eq!(bm, lm, "metrics diverged under tracing");
    assert_eq!(bev.len(), lev.len(), "event counts diverged");
    assert_eq!(bev, lev, "event streams diverged");
}

/// Sampled + traced: the reconstructed fast-forward clock stamps events
/// at exactly the cycles the per-step accumulator would.
#[test]
fn sampled_traced_event_stream_is_identical() {
    let run = |fill_block: usize| {
        let mut sim = Simulator::with_recorder(
            SystemConfig::default(),
            vec![server(11) as Box<dyn InstructionStream>],
            Box::new(Morrigan::new(MorriganConfig::default())),
            TraceRecorder::new(),
        );
        sim.set_audit(true);
        sim.set_sampling(Some(SamplingConfig {
            detail: 300,
            skip: 1_700,
        }));
        sim.set_fill_block(fill_block);
        let metrics = sim.run(SimConfig {
            warmup_instructions: 10_000,
            measure_instructions: 40_000,
        });
        let rec = sim.into_recorder();
        let events: Vec<_> = rec.events().copied().collect();
        (metrics, events)
    };
    let (bm, bev) = run(1024);
    let (lm, lev) = run(1);
    assert_eq!(bm, lm, "metrics diverged under sampled tracing");
    assert_eq!(bev, lev, "event streams diverged under sampled tracing");
}

/// SMT colocation consumes page runs a slice at a time and keeps the
/// probe-conservation law: every retired instruction either issued its
/// fetch-side probe or had it elided.
#[test]
fn smt_run_stepping_conserves_probes() {
    let mut sim = Simulator::new_smt(
        SystemConfig::default(),
        smt_pair(0),
        Box::new(Morrigan::new(MorriganConfig::default())),
    );
    let cfg = SimConfig {
        warmup_instructions: 5_000,
        measure_instructions: 15_000,
    };
    sim.run(cfg);
    let c = sim.elision_counters();
    assert_eq!(c.probes_issued + c.probes_elided, 20_000);
    assert!(
        c.probes_elided > 0,
        "same-line fetches still count as elided"
    );
    let slices = 20_000 / SystemConfig::default().core.smt_block;
    assert!(
        c.runs_consumed >= slices,
        "every SMT slice consumes at least one run: {} < {slices}",
        c.runs_consumed
    );
}
