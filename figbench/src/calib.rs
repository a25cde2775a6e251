//! The host-speed probe. The host this benchmark runs on is shared, and
//! its speed drifts by tens of percent over minutes: the same pass reads
//! very different host seconds a few minutes apart. The probe is a fixed
//! unit of work that uses none of the program's code. It runs between the
//! specs of a pass, and each spec's host seconds are scaled to what they
//! would have been had the probe taken `REFERENCE_S` around it. A change
//! to the program moves the scaled seconds as it moves the raw ones; a
//! slower or faster stretch of the host moves the probe with them and
//! cancels out.

use std::time::Instant;

/// About the probe's host seconds on the 2-CPU host the benchmark was
/// written on. Scaled times read as host seconds there.
pub const REFERENCE_S: f64 = 0.036;

/// Sets of the probe's tag array: 16 K sets × 8 ways of 8-byte tags is
/// 1 MiB, which stays in the host's L2 the way the simulator's L1 and TLB
/// models do.
const SETS: usize = 1 << 14;
const WAYS: usize = 8;
/// Lookups per probe: about `REFERENCE_S` of host time.
const LOOKUPS: u64 = 1 << 21;

/// One step of SplitMix64.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the probe once and returns its host seconds. The work is the kind
/// the simulator spends its time on: LRU lookups in a set-associative tag
/// array, over a fixed line stream that mostly steps a line or two and
/// now and then jumps within 64 MiB.
///
/// A spec's host time moves with the probe's at an elasticity of 1 to
/// 1.8, depending on the workload and on how the host is slowed, so the
/// scaling removes most of the host's drift but not all of it. A probe
/// that also spilled to the host's LLC tracked some slow stretches better
/// and over-reacted in others, reversing the drift; this one never did.
pub fn probe_s() -> f64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut state = 0x5eed_u64;
    let mut line = 0u64;
    let mut hits = 0u64;
    let t = Instant::now();
    for _ in 0..LOOKUPS {
        let r = mix(&mut state);
        line = if r & 7 == 0 {
            (r >> 8) & ((1 << 20) - 1)
        } else {
            line.wrapping_add((r >> 4) & 3)
        };
        let set = &mut tags[(line as usize % SETS) * WAYS..][..WAYS];
        let way = set.iter().position(|&t| t == line).unwrap_or(WAYS - 1);
        hits += (set[way] == line) as u64;
        set.copy_within(0..way, 1);
        set[0] = line;
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64()
}
