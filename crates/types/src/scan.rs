//! Set-associative lookup kernels shared by every SoA structure (TLB
//! sets, PSC sets, cache sets): a branch-free tag scan and a packed
//! recency word that orders one set's ways for LRU replacement.
//!
//! Every lookup hot path in the simulator reduces to "find the first
//! slot in a short `u64` tag array equal to a key". The naive
//! `iter().position(..)` form compiles to a compare-and-branch per way;
//! [`find_tag`] accumulates a branch-free equality bitmask over the
//! whole set instead, in straight-line code for the configured widths.
//!
//! ## Recency words
//!
//! Each set keeps one `u64` whose 4-bit nibble at rank `r` holds the
//! index of the way that is `r`-th most recently used: rank 0 is MRU,
//! rank `ways - 1` is LRU, so a set holds at most [`MAX_WAYS`] ways.
//! Nibbles above the set's width hold `0xF`, which no way index of a
//! narrower set can equal. A touch is [`promote`] (a SWAR nibble search
//! plus a shift), the replacement victim is [`lru`] (one shift), and an
//! invalidated way goes to the LRU end with [`demote`].
//!
//! Callers keep one invariant: **empty ways always sit at the LRU end
//! (highest ranks)**. A fill takes the LRU way and promotes it;
//! invalidation demotes; a flush resets the word with [`init`]. So the
//! LRU way is an empty one whenever the set has room, and the true
//! least-recently-used line otherwise — the same victim *tag* the
//! classic "first free way, else min-timestamp way" scan picks. Only the
//! physical way a line lands in can differ, which no caller observes.
//!
//! [`prefetch_tags`] issues a software prefetch of a set's tag array so
//! batched probes can overlap the tag-array loads of the next set with
//! the scan of the current one. It is a hint: a no-op on non-x86_64
//! targets and never required for correctness.

/// Maximum number of keys a batched probe inspects per decoded block.
pub const BATCH: usize = 8;

/// Widest set the branch-free kernels cover with a single `u64` mask;
/// wider slices (none are configured today) fall back to the scalar
/// scan they are pinned against.
const MASK_WIDTH: usize = 64;

/// Most ways a recency word can order: 16 ranks of 4-bit way indices.
pub const MAX_WAYS: usize = 16;

/// `0x1` in every nibble.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// First index in `tags` equal to `key`.
///
/// Semantically identical to `tags.iter().position(|&t| t == key)`.
/// The compares fold into a bitmask without branching, and the set
/// widths the simulator configures get a fixed-length body the compiler
/// fully unrolls: the width dispatch is one well-predicted jump, where a
/// loop over a runtime length pays loop control and a remainder path on
/// every probe.
#[inline(always)]
pub fn find_tag(tags: &[u64], key: u64) -> Option<usize> {
    let mask = match tags.len() {
        4 => equal_mask::<4>(tags, key),
        6 => equal_mask::<6>(tags, key),
        8 => equal_mask::<8>(tags, key),
        16 => equal_mask::<16>(tags, key),
        n if n <= MASK_WIDTH => tags
            .iter()
            .enumerate()
            .fold(0, |mask, (i, &t)| mask | ((t == key) as u64) << i),
        _ => return tags.iter().position(|&t| t == key),
    };
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// Bit `i` set iff `tags[i] == key`, for a slice of exactly `N` tags.
#[inline(always)]
fn equal_mask<const N: usize>(tags: &[u64], key: u64) -> u64 {
    let tags: &[u64; N] = tags.try_into().expect("caller matched the length");
    let mut mask = 0;
    for (i, &t) in tags.iter().enumerate() {
        mask |= ((t == key) as u64) << i;
    }
    mask
}

/// Mask of the nibbles for ranks `0..ranks` (`ranks <= 16`).
#[inline(always)]
fn rank_mask(ranks: usize) -> u64 {
    if ranks >= MAX_WAYS {
        u64::MAX
    } else {
        (1u64 << (4 * ranks)) - 1
    }
}

/// The recency word of an empty `ways`-way set. Rank `r` holds way
/// `ways - 1 - r`, so a cold set fills way 0 first, then way 1, and so
/// on — the same physical order as a first-free-way scan.
///
/// # Panics
///
/// Panics if `ways` is zero or above [`MAX_WAYS`].
pub fn init(ways: usize) -> u64 {
    assert!(
        (1..=MAX_WAYS).contains(&ways),
        "a recency word orders 1 to {MAX_WAYS} ways, got {ways}"
    );
    (0..MAX_WAYS).fold(0, |word, rank| {
        let way = if rank < ways { ways - 1 - rank } else { 0xF };
        word | (way as u64) << (4 * rank)
    })
}

/// The lowest set bit of `word`'s has-zero-nibble flags after the
/// nibbles equal to `way` are zeroed: bit `4r + 3` where `r` is `way`'s
/// rank. Borrows can only set flags *above* the first zero nibble, so
/// the lowest flag is exact. `way` must be one of the set's ways.
#[inline(always)]
fn rank_flag(word: u64, way: usize) -> u64 {
    let x = word ^ (way as u64).wrapping_mul(NIBBLE_ONES);
    let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
    debug_assert_ne!(zero, 0, "way {way} is not in recency word {word:#x}");
    zero & zero.wrapping_neg()
}

/// `word` with `way` moved to rank 0 (MRU); the ways above it in
/// recency shift down one rank.
///
/// Straight-line and short: consecutive touches of one set form a
/// dependency chain through this word.
#[inline(always)]
pub fn promote(word: u64, way: usize) -> u64 {
    let flag = rank_flag(word, way);
    // Ranks `0..r` and ranks `0..=r`; at rank 15 the shift wraps to 0
    // and the subtraction to all ones, which is the right mask.
    let below = (flag >> 3).wrapping_sub(1);
    let through = (flag << 1).wrapping_sub(1);
    (word & !through) | (word & below) << 4 | way as u64
}

/// `word` with `way` moved to rank `ways - 1` (LRU); the ways below it
/// in recency shift up one rank. Invalidation demotes, which keeps
/// empty ways at the LRU end.
#[inline(always)]
pub fn demote(word: u64, way: usize, ways: usize) -> u64 {
    let below = (rank_flag(word, way) >> 3).wrapping_sub(1);
    let keep = below | !rank_mask(ways);
    let shifted = (word >> 4) & rank_mask(ways - 1) & !below;
    (word & keep) | shifted | (way as u64) << (4 * (ways - 1))
}

/// The least-recently-used way of a `ways`-way set: the replacement
/// victim, which is an empty way whenever the set has one.
#[inline(always)]
pub fn lru(word: u64, ways: usize) -> usize {
    ((word >> (4 * (ways - 1))) & 0xF) as usize
}

/// Software-prefetches the cache line(s) holding `tags` into L1.
///
/// A pure scheduling hint for batched probes that know the next set
/// they will scan; correctness never depends on it.
#[inline(always)]
pub fn prefetch_tags(tags: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // A 16-way set of u64 tags spans two 64-byte lines; prefetch
        // both ends so any configured geometry is covered.
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = tags.as_ptr() as *const i8;
        _mm_prefetch(base, _MM_HINT_T0);
        if tags.len() > 8 {
            _mm_prefetch(base.add(tags.len() - 1).cast(), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = tags;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar reference the tag kernel is pinned against.
    fn scalar_find(tags: &[u64], key: u64) -> Option<usize> {
        tags.iter().position(|&t| t == key)
    }

    /// A recency word unpacked into its rank order, MRU first.
    fn ranks(word: u64, ways: usize) -> Vec<usize> {
        (0..ways)
            .map(|r| ((word >> (4 * r)) & 0xF) as usize)
            .collect()
    }

    /// The nibbles above the set's width, which must stay `0xF`.
    fn padding(word: u64, ways: usize) -> u64 {
        word & !rank_mask(ways)
    }

    /// Every set geometry the simulator configures: 2-way (PML4
    /// cache), 4-way (dtlb, psc), 6-way (stlb), 8-way (itlb, l1, l2),
    /// 15-way (fig18's STLB), 16-way (llc).
    const GEOMETRIES: [usize; 7] = [1, 2, 4, 6, 8, 15, 16];

    #[test]
    fn find_tag_matches_position_on_configured_geometries() {
        for ways in GEOMETRIES {
            let tags: Vec<u64> = (0..ways as u64).map(|i| i * 7 + 3).collect();
            for key in 0..(ways as u64 * 8) {
                assert_eq!(find_tag(&tags, key), scalar_find(&tags, key));
            }
            // Duplicate tags: first match must win.
            let dup = vec![9u64; ways];
            assert_eq!(find_tag(&dup, 9), Some(0));
        }
    }

    #[test]
    fn init_orders_way_zero_as_lru_and_pads_with_f() {
        assert_eq!(init(4), 0xFFFF_FFFF_FFFF_0123);
        assert_eq!(init(16), 0x0123_4567_89AB_CDEF);
        for ways in GEOMETRIES {
            let word = init(ways);
            assert_eq!(lru(word, ways), 0, "{ways} ways");
            assert_eq!(padding(word, ways), !rank_mask(ways));
        }
    }

    #[test]
    #[should_panic(expected = "1 to 16 ways")]
    fn init_rejects_seventeen_ways() {
        let _ = init(17);
    }

    #[test]
    fn cold_fills_take_ways_in_index_order() {
        for ways in GEOMETRIES {
            let mut word = init(ways);
            for expect in 0..ways {
                let victim = lru(word, ways);
                assert_eq!(victim, expect, "{ways} ways");
                word = promote(word, victim);
            }
            // Full: the first-filled way is now LRU.
            assert_eq!(lru(word, ways), 0);
        }
    }

    #[test]
    fn promote_and_demote_on_a_known_word() {
        // Ranks (MRU first) 3, 2, 1, 0.
        let word = init(4);
        assert_eq!(ranks(promote(word, 1), 4), vec![1, 3, 2, 0]);
        assert_eq!(ranks(promote(word, 3), 4), vec![3, 2, 1, 0]);
        assert_eq!(ranks(promote(word, 0), 4), vec![0, 3, 2, 1]);
        assert_eq!(ranks(demote(word, 2, 4), 4), vec![3, 1, 0, 2]);
        assert_eq!(ranks(demote(word, 0, 4), 4), vec![3, 2, 1, 0]);
        assert_eq!(ranks(demote(word, 3, 4), 4), vec![2, 1, 0, 3]);
        // The top rank of a full 16-way word moves too.
        let wide = init(16);
        assert_eq!(lru(promote(wide, 0), 16), 1);
        assert_eq!(ranks(demote(wide, 15, 16), 16)[15], 15);
    }

    #[test]
    fn prefetch_is_a_safe_hint() {
        prefetch_tags(&[1, 2, 3, 4]);
        prefetch_tags(&[0u64; 16]);
    }

    /// A touch (move to front) or an invalidation (move to back)
    /// applied to a plain LRU list of ways, MRU first.
    fn list_apply(list: &mut Vec<usize>, way: usize, promote_it: bool) {
        let pos = list.iter().position(|&w| w == way).unwrap();
        list.remove(pos);
        if promote_it {
            list.insert(0, way);
        } else {
            list.push(way);
        }
    }

    proptest! {
        #[test]
        fn find_tag_equals_scalar(
            tags in prop::collection::vec(0u64..32, 1..80),
            key in 0u64..32,
        ) {
            prop_assert_eq!(find_tag(&tags, key), scalar_find(&tags, key));
        }

        /// Promote and demote agree with a plain move-to-front /
        /// move-to-back list on every configured geometry, the padding
        /// nibbles never change, and the word stays a permutation.
        #[test]
        fn recency_word_equals_list_model(
            geometry in 0usize..GEOMETRIES.len(),
            ops in prop::collection::vec((0usize..16, 0u8..5), 0..200),
        ) {
            let ways = GEOMETRIES[geometry];
            let mut word = init(ways);
            let mut list = ranks(word, ways);
            for (pick, kind) in ops {
                // Four touches to every invalidation.
                let (way, promote_it) = (pick % ways, kind < 4);
                word = if promote_it {
                    promote(word, way)
                } else {
                    demote(word, way, ways)
                };
                list_apply(&mut list, way, promote_it);
                prop_assert_eq!(ranks(word, ways), list.clone());
                prop_assert_eq!(lru(word, ways), *list.last().unwrap());
                prop_assert_eq!(padding(word, ways), !rank_mask(ways));
            }
        }
    }
}
