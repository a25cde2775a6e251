//! The single-core equivalence pin: a canonical document capturing the
//! `cores=1, processes=1` simulator behaviour byte for byte.
//!
//! The document covers the three single-core workload classes (server,
//! SPEC, SMT) at test scale, full and sampled, with and without context
//! switches, and with the interval sampler on — every edge the stepping
//! loop clips a segment at (detail/skip window, context switch, SMT
//! slice, interval epoch). It renders each record's JSON followed by its
//! audit report. `examples/gen_single_core_pin.rs` writes it to
//! `tests/fixtures/single_core_pin.txt`; `tests/single_core_pin.rs`
//! regenerates it with the current build and compares against the
//! committed copy, so any refactor that perturbs single-core results —
//! metrics, JSON rendering, or the audit's check count — fails loudly.

use morrigan_sim::{SamplingConfig, SimConfig, SystemConfig};
use morrigan_workloads::suites;

use crate::json::record_json;
use crate::spec::{PrefetcherKind, RunSpec};

/// The sampled schedule of the pin's sampled cases: 80 k instructions
/// cross ten schedule periods, so window edges land all over the
/// delivery blocks and page runs.
const PIN_SAMPLING: SamplingConfig = SamplingConfig {
    detail: 2_000,
    skip: 6_000,
};

/// Context-switch interval of the pin's switching cases (prime, so
/// switches drift against the schedule, the blocks, and the SMT slice).
const PIN_CONTEXT_SWITCH: u64 = 7_919;

/// Interval-sampler epoch length of the pin's time-series cases.
const PIN_INTERVAL: u64 = 7_000;

/// The cases the pin document runs, each a spec plus the interval the
/// record is produced with (see [`RunSpec::execute_observed`]): a server
/// baseline and Morrigan point, a SPEC workload, and an SMT pair at full
/// detail; the same server, SPEC and SMT points sampled; a switching
/// server, full and sampled, and a switching SMT pair; and interval
/// time-series runs of the server point and the SMT pair.
pub fn single_core_pin_specs() -> Vec<(RunSpec, Option<u64>)> {
    let sim = SimConfig {
        warmup_instructions: 20_000,
        measure_instructions: 60_000,
    };
    let system = SystemConfig::default();
    let switching = SystemConfig {
        context_switch_interval: Some(PIN_CONTEXT_SWITCH),
        ..system
    };
    let server = suites::qmm_suite_subset(1).remove(0);
    let spec = suites::spec_suite().remove(0);
    let pair = suites::smt_pairs(1).remove(0);
    let sampled = |mut s: RunSpec| {
        s.sampling = Some(PIN_SAMPLING);
        s
    };
    let srv = RunSpec::server(&server, system, sim, PrefetcherKind::Morrigan);
    let spc = RunSpec::spec_cpu(&spec, system, sim, PrefetcherKind::Morrigan);
    let smt = RunSpec::smt(&pair, system, sim, PrefetcherKind::MorriganSmt);
    let srv_cs = RunSpec::server(&server, switching, sim, PrefetcherKind::Morrigan);
    let smt_cs = RunSpec::smt(&pair, switching, sim, PrefetcherKind::MorriganSmt);
    vec![
        (
            RunSpec::server(&server, system, sim, PrefetcherKind::None),
            None,
        ),
        (srv.clone(), None),
        (spc.clone(), None),
        (smt.clone(), None),
        (sampled(srv.clone()), None),
        (sampled(spc), None),
        (sampled(smt.clone()), None),
        (srv_cs.clone(), None),
        (sampled(srv_cs), None),
        (smt_cs, None),
        (srv, Some(PIN_INTERVAL)),
        (smt, Some(PIN_INTERVAL)),
    ]
}

/// Executes the pin cases and renders the canonical document.
///
/// # Panics
///
/// Panics if auditing is disabled (the document includes each audit
/// report, so run under `MORRIGAN_AUDIT=1` in release builds).
pub fn single_core_pin_document() -> String {
    let mut doc = String::new();
    for (spec, interval) in single_core_pin_specs() {
        let record = spec.execute_observed(interval);
        doc.push_str(&record_json(&record));
        doc.push('\n');
        let audit = record
            .audit
            .as_ref()
            .expect("the pin document requires auditing (MORRIGAN_AUDIT=1)");
        doc.push_str(&audit.render());
        doc.push('\n');
    }
    doc
}
