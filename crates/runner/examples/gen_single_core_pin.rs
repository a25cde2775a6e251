//! Regenerates `tests/fixtures/single_core_pin.txt`, the byte-identity
//! fixture for the standing single-core equivalence test.
//!
//! The fixture pins the `cores=1, processes=1` configuration: RunRecord
//! JSON plus the rendered audit report for every case of
//! `morrigan_runner::single_core_pin_specs` (server, SPEC and SMT specs
//! at test scale; full, sampled, context-switching and interval runs).
//! `tests/single_core_pin.rs` asserts the current build still reproduces
//! it byte for byte.
//!
//! Run with auditing forced on, from the workspace root:
//!
//! ```text
//! MORRIGAN_AUDIT=1 cargo run --release -p morrigan-runner \
//!     --example gen_single_core_pin
//! ```

fn main() {
    let doc = morrigan_runner::single_core_pin_document();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/single_core_pin.txt"
    );
    std::fs::write(path, &doc).expect("write fixture");
    eprintln!("wrote {path} ({} bytes)", doc.len());
}
