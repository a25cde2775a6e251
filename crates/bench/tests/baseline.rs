//! Pins the committed `BENCH_simloop.json` baseline's shape and claims.
//!
//! These tests parse the checked-in document (no simulation runs), so
//! they catch a regenerated baseline that silently re-commits a bug the
//! bench gates only check at run time:
//!
//! * every figure row — including the multi-core `fig21_multicore` one —
//!   must report a nonzero `simulate_seconds` (the machine used to drop
//!   its per-core phase profiles, zeroing the row);
//! * the bench-scale sampled pass must actually deliver a real speedup
//!   (`sampled_speedup >= 1.15` — functional cache warming, the fix for
//!   the fig03 frozen-cache IPC bias, spends roughly a third of the
//!   sampled pass, so the pre-warming 2x headline no longer holds) at
//!   honest accuracy (`sampled_mpki_rel_err <= 0.01`, per-figure
//!   `sampled_ipc_rel_err <= 0.04`).

/// The committed baseline at the workspace root.
fn committed_baseline() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simloop.json");
    std::fs::read_to_string(path).expect("committed BENCH_simloop.json at the workspace root")
}

/// Extracts `"key": <number>` from `obj` (the same narrow convention as
/// simbench's own baseline parser: it reads exactly what `render` wrote).
fn field(obj: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\": ");
    let start = obj
        .find(&needle)
        .unwrap_or_else(|| panic!("field {key:?} in {obj:.120}"))
        + needle.len();
    let value = &obj[start..];
    let end = value
        .find(|c: char| c != '.' && c != '-' && c != 'e' && !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end]
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key:?}, got {:?}", &value[..end]))
}

/// The figure-row objects of the document, in order.
fn figure_rows(doc: &str) -> Vec<&str> {
    let body = &doc[doc.find("\"figures\": [").expect("figures array")..];
    let body = &body[..body
        .find("\"total\"")
        .expect("total object follows the figures")];
    let rows: Vec<&str> = body
        .split("{\"figure\": ")
        .skip(1)
        .map(|row| &row[..row.find('}').expect("row object closes")])
        .collect();
    assert!(
        rows.len() >= 20,
        "all 19 figures plus the 8-core scaling row present, got {}",
        rows.len()
    );
    rows
}

#[test]
fn committed_baseline_is_schema_v7() {
    let doc = committed_baseline();
    assert!(
        doc.contains("\"schema\": \"morrigan-bench-simloop-v7\""),
        "baseline must be the v7 schema (regenerate with `simbench --out`)"
    );
    assert!(
        doc.contains("\"sampling\": \""),
        "v7 baselines record the sampled pass's schedule"
    );
    assert!(
        doc.contains("\"figure\": \"fig21_multicore_8core\""),
        "v7 baselines carry the 8-core scaling row"
    );
    assert!(
        doc.contains("\"probes_elided\": "),
        "v7 baselines carry the page-run elision telemetry"
    );
}

#[test]
fn every_figure_row_reports_a_real_simulate_phase() {
    let doc = committed_baseline();
    let mut saw_multi_core = false;
    for row in figure_rows(&doc) {
        let cores = field(row, "cores");
        saw_multi_core |= cores > 1.0;
        let simulate = field(row, "simulate_seconds");
        assert!(
            simulate > 0.0,
            "row with cores={cores} reports simulate_seconds={simulate}: {row:.120}"
        );
        assert!(
            field(row, "sampled_simulate_seconds") > 0.0,
            "sampled pass must report a real simulate phase too: {row:.120}"
        );
    }
    assert!(
        saw_multi_core,
        "the baseline must carry a multi-core row (fig21) — the zero-seconds bug hid there"
    );
}

#[test]
fn committed_sampled_speedup_and_accuracy_hold() {
    let doc = committed_baseline();
    let total = &doc[doc.rfind("\"total\"").expect("total object")..];
    // 1.15x, not the pre-warming 2x: the sampled fast-forward
    // functionally warms the full cache hierarchy (DESIGN.md §11), which
    // buys the per-figure IPC bound below at roughly a third of the
    // sampled pass. The warming is unconditional; the 2x it cost is
    // recorded history, not a mode this baseline can be measured in.
    let speedup = field(total, "sampled_speedup");
    assert!(
        speedup >= 1.15,
        "bench-scale sampled simulate-phase speedup must be >= 1.15x, got {speedup:.2}x"
    );
    let mpki_err = field(total, "sampled_mpki_rel_err");
    assert!(
        mpki_err <= 0.01,
        "bench-scale sampled MPKI deviation must be <= 1%, got {mpki_err:.4}"
    );
    let ipc_err = field(total, "sampled_ipc_rel_err");
    assert!(
        ipc_err.abs() <= 0.01,
        "bench-scale sampled IPC deviation must be <= 1%, got {ipc_err:.4}"
    );
}

#[test]
fn committed_multi_core_rows_report_parallel_scaling() {
    // Every multi-core row must say how wide its epoch driver ran
    // (`machine_threads`) and what that width bought
    // (`parallel_speedup`; 0.0 = unmeasured, recorded on hosts whose
    // effective width was already 1). A baseline regenerated on a host
    // with >= 4 spare cores must demonstrate real 4-core scaling —
    // that's the headline claim of the threaded machine.
    let doc = committed_baseline();
    let mut multi_core_rows = 0;
    for row in figure_rows(&doc) {
        if field(row, "cores") <= 1.0 {
            continue;
        }
        multi_core_rows += 1;
        let width = field(row, "machine_threads");
        assert!(width >= 1.0, "machine_threads must be positive: {row:.120}");
        let speedup = field(row, "parallel_speedup");
        if width >= 4.0 {
            assert!(
                speedup >= 2.0,
                "a width-{width} epoch driver must deliver >= 2x over serial, \
                 got {speedup:.2}x: {row:.120}"
            );
        } else if width <= 1.0 {
            assert!(
                speedup == 0.0,
                "width-1 rows record the unmeasured sentinel 0.0: {row:.120}"
            );
        }
    }
    assert!(
        multi_core_rows >= 2,
        "the 4-core fig21 row and the 8-core scaling row must both be multi-core, \
         got {multi_core_rows}"
    );
}

#[test]
fn committed_per_figure_ipc_deviation_is_bounded() {
    // IPC is *extrapolated* (the fast-forward's cycles are recharged
    // from the detail windows' CPI regression), so unlike MPKI it can
    // drift per figure while the aggregate averages it away — fig03 sat
    // at 6.4 % that way. With functional warming the worst figure (the
    // shared-LLC multicore rows) measures ~2.7 %; 4 % bounds it.
    let doc = committed_baseline();
    for row in figure_rows(&doc) {
        let err = field(row, "sampled_ipc_rel_err");
        assert!(
            err.abs() <= 0.04,
            "per-figure sampled IPC deviation must be <= 4%: {row:.120}"
        );
    }
}

#[test]
fn committed_figures_all_elide_probes() {
    // The page-run index must be engaged on every figure — including
    // the SMT and multi-core rows that take the per-instruction
    // fallback paths, which elide via the same-line fast path.
    let doc = committed_baseline();
    for row in figure_rows(&doc) {
        assert!(
            field(row, "probes_elided") > 0.0,
            "every figure must elide same-page probes: {row:.120}"
        );
        assert!(
            field(row, "probes_issued") > 0.0,
            "every figure must still issue real probes: {row:.120}"
        );
    }
}

#[test]
fn committed_per_figure_mpki_deviation_is_bounded() {
    // MPKI is *measured* during fast-forward (every translation runs the
    // real MMU paths), so per-figure deviation should be essentially
    // zero; 1 % bounds the second-order timestamp effects on the
    // timing-sensitive structures (PB, walker) without flakiness.
    let doc = committed_baseline();
    for row in figure_rows(&doc) {
        let err = field(row, "sampled_mpki_rel_err");
        assert!(
            err.abs() <= 0.01,
            "per-figure sampled MPKI deviation must be <= 1%: {row:.120}"
        );
    }
}
