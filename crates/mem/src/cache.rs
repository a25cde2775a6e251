//! A generic set-associative cache over 64-byte line numbers.
//!
//! The same structure backs every level of the hierarchy; TLBs use their own
//! generic buffer in `morrigan-vm` because they key on pages, not lines.

use morrigan_types::scan;
use morrigan_types::CacheLine;
use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Lookup latency in cycles charged when this level is probed.
    pub latency: u64,
}

impl CacheConfig {
    /// A configuration from total capacity in bytes and associativity,
    /// assuming 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a positive power of two or if
    /// `ways` is zero or above 16.
    pub fn from_capacity(bytes: usize, ways: usize, latency: u64) -> Self {
        check_ways(ways);
        let lines = bytes / 64;
        assert!(
            lines.is_multiple_of(ways),
            "capacity must be divisible by ways*64"
        );
        let sets = lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        Self {
            sets,
            ways,
            latency,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * 64
    }
}

/// Line-number sentinel marking an empty way. Real line numbers are
/// physical addresses shifted right by 6, so they can never reach it.
const NO_LINE: u64 = u64::MAX;

/// Rejects set geometries a recency word cannot order.
fn check_ways(ways: usize) {
    assert!(ways > 0, "cache must have at least one way");
    assert!(
        ways <= scan::MAX_WAYS,
        "cache sets hold at most {} ways, got {ways}",
        scan::MAX_WAYS
    );
}

/// A set-associative, LRU-replacement cache of line numbers.
///
/// Tags live in one packed vector (structure-of-arrays), so a set probe
/// scans one contiguous run of tags, and each set's LRU order is one
/// packed recency word ([`scan::promote`]). An empty way holds the
/// [`NO_LINE`] tag and always sits at the LRU end of its set's word, so
/// a fill replaces the LRU way and evicts only when that way is live.
///
/// # Examples
///
/// ```
/// use morrigan_mem::{Cache, CacheConfig};
/// use morrigan_types::CacheLine;
///
/// let mut cache = Cache::new(CacheConfig { sets: 2, ways: 2, latency: 4 });
/// let line = CacheLine::new(8);
/// assert!(!cache.probe(line));
/// cache.fill(line);
/// assert!(cache.probe(line));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets - 1`; the constructor asserts a power-of-two set count.
    set_mask: usize,
    lines: Vec<u64>,
    /// One recency word per set, MRU way in the low nibble.
    recency: Vec<u64>,
    /// Index of the most recently hit/filled way, as a one-entry memo.
    /// Sound without invalidation hooks: a line only ever resides in its
    /// own set, so `lines[last_idx] == key` proves `last_idx` is the live
    /// way for `key`; and that way is always its set's MRU.
    last_idx: usize,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a positive power of two or `ways` is zero
    /// or above 16.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two() && cfg.sets > 0,
            "sets must be a power of two"
        );
        check_ways(cfg.ways);
        Self {
            cfg,
            set_mask: cfg.sets - 1,
            lines: vec![NO_LINE; cfg.sets * cfg.ways],
            recency: vec![scan::init(cfg.ways); cfg.sets],
            last_idx: 0,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The set `key` maps to.
    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key as usize) & self.set_mask
    }

    #[inline]
    fn set_range(&self, line: CacheLine) -> std::ops::Range<usize> {
        let start = self.set_of(line.raw()) * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// Installs `key` over the LRU way of `set`, promoting it to MRU.
    /// Returns the tag it replaced ([`NO_LINE`] if the way was empty).
    #[inline(always)]
    fn replace_lru(&mut self, set: usize, key: u64) -> u64 {
        let word = self.recency[set];
        let way = scan::lru(word, self.cfg.ways);
        let idx = set * self.cfg.ways + way;
        let old = std::mem::replace(&mut self.lines[idx], key);
        self.recency[set] = scan::promote(word, way);
        self.last_idx = idx;
        old
    }

    /// Whether flat way `idx` is the MRU way of its set.
    fn is_mru(&self, idx: usize) -> bool {
        let (set, way) = (idx / self.cfg.ways, idx % self.cfg.ways);
        scan::promote(self.recency[set], way) == self.recency[set]
    }

    /// Finds `key`, promoting its way to MRU; returns the set it maps
    /// to and, on a hit, the way's flat index.
    ///
    /// The memo is checked first: instruction fetch probes the same line
    /// for runs of consecutive instructions, so the previous hit's way
    /// usually answers with a single compare. A memo hit needs no
    /// promote, because every promote and fill moves the memo to the way
    /// it makes MRU.
    #[inline(always)]
    fn find_promote(&mut self, key: u64) -> (usize, Option<usize>) {
        debug_assert_ne!(key, NO_LINE);
        let set = self.set_of(key);
        let li = self.last_idx;
        if self.lines[li] == key {
            debug_assert!(self.is_mru(li), "memo way {li} is not MRU");
            return (set, Some(li));
        }
        // One slice per probe: the branch-free kernel scans the set's
        // contiguous tags as one or two vector compares.
        let start = set * self.cfg.ways;
        let Some(way) = scan::find_tag(&self.lines[start..start + self.cfg.ways], key) else {
            return (set, None);
        };
        self.recency[set] = scan::promote(self.recency[set], way);
        self.last_idx = start + way;
        (set, Some(start + way))
    }

    /// Looks up `line`, promoting it to MRU on a hit. Returns whether it hit.
    pub fn probe(&mut self, line: CacheLine) -> bool {
        self.find_promote(line.raw()).1.is_some()
    }

    /// Whether `line` is resident, without disturbing LRU state.
    pub fn contains(&self, line: CacheLine) -> bool {
        let key = line.raw();
        self.lines[self.set_range(line)].contains(&key)
    }

    /// Software-prefetches the tag array of the set `line` maps to — a
    /// scheduling hint for the fast-forward front end; never required
    /// for correctness.
    #[inline]
    pub fn prefetch_set(&self, line: CacheLine) {
        scan::prefetch_tags(&self.lines[self.set_range(line)]);
    }

    /// Installs `line` as MRU, returning the evicted victim line, if any.
    ///
    /// Filling a line that is already resident only refreshes its LRU
    /// position (no duplicate is created).
    pub fn fill(&mut self, line: CacheLine) -> Option<CacheLine> {
        let key = line.raw();
        let (set, hit) = self.find_promote(key);
        if hit.is_some() {
            return None;
        }
        let old = self.replace_lru(set, key);
        (old != NO_LINE).then(|| CacheLine::new(old))
    }

    /// Probes for `line`, promoting it to MRU on a hit; on a miss,
    /// installs it as MRU over the LRU way. Returns whether it hit.
    ///
    /// The final resident/MRU state is exactly a probe-then-fill pair's,
    /// but in one set scan — the fast-forward warming kernel
    /// (`MemoryHierarchy::warm` in `morrigan-mem`) runs this on every
    /// demand line of a skip stretch, where the halved scan cost is the
    /// difference between warming paying for itself and not.
    pub fn warm_fill(&mut self, line: CacheLine) -> bool {
        let key = line.raw();
        let (set, hit) = self.find_promote(key);
        if hit.is_none() {
            self.replace_lru(set, key);
        }
        hit.is_some()
    }

    /// Removes `line` if resident; returns whether it was present.
    pub fn invalidate(&mut self, line: CacheLine) -> bool {
        let key = line.raw();
        let set = self.set_of(key);
        let range = self.set_range(line);
        match scan::find_tag(&self.lines[range], key) {
            Some(way) => {
                self.lines[set * self.cfg.ways + way] = NO_LINE;
                self.recency[set] = scan::demote(self.recency[set], way, self.cfg.ways);
                true
            }
            None => false,
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.lines.fill(NO_LINE);
        self.recency.fill(scan::init(self.cfg.ways));
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != NO_LINE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            latency: 1,
        })
    }

    /// Lines mapping to set 0 of a 2-set cache: even line numbers.
    fn set0_line(i: u64) -> CacheLine {
        CacheLine::new(i * 2)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let line = CacheLine::new(5);
        assert!(!c.probe(line));
        assert_eq!(c.fill(line), None);
        assert!(c.probe(line));
        assert!(c.contains(line));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        // Touch line 1 so line 2 becomes LRU.
        assert!(c.probe(set0_line(1)));
        let victim = c.fill(set0_line(3));
        assert_eq!(victim, Some(set0_line(2)));
        assert!(c.contains(set0_line(1)));
        assert!(c.contains(set0_line(3)));
        assert!(!c.contains(set0_line(2)));
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(1));
        assert_eq!(c.occupancy(), 1);
        // A second distinct fill must not evict: the set still has room.
        assert_eq!(c.fill(set0_line(2)), None);
    }

    #[test]
    fn refill_refreshes_lru() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        c.fill(set0_line(1)); // refresh 1 → 2 is LRU
        assert_eq!(c.fill(set0_line(3)), Some(set0_line(2)));
    }

    #[test]
    fn contains_does_not_promote() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        // `contains` must not refresh line 1's recency.
        assert!(c.contains(set0_line(1)));
        assert_eq!(c.fill(set0_line(3)), Some(set0_line(1)));
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = tiny();
        c.fill(set0_line(1));
        assert!(c.invalidate(set0_line(1)));
        assert!(!c.invalidate(set0_line(1)));
        c.fill(set0_line(1));
        c.fill(CacheLine::new(3));
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Fill set 0 to capacity, then fill set 1; set 0 must be untouched.
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        assert_eq!(c.fill(CacheLine::new(1)), None);
        assert_eq!(c.fill(CacheLine::new(3)), None);
        assert!(c.contains(set0_line(1)));
        assert!(c.contains(set0_line(2)));
    }

    #[test]
    fn from_capacity_math() {
        let cfg = CacheConfig::from_capacity(32 * 1024, 8, 4);
        assert_eq!(cfg.sets, 64);
        assert_eq!(cfg.ways, 8);
        assert_eq!(cfg.capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_capacity_rejects_non_pow2() {
        let _ = CacheConfig::from_capacity(24 * 1024, 8, 4);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn from_capacity_rejects_seventeen_ways() {
        let _ = CacheConfig::from_capacity(17 * 64 * 4, 17, 4);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn new_rejects_seventeen_ways() {
        let _ = Cache::new(CacheConfig {
            sets: 4,
            ways: 17,
            latency: 1,
        });
    }

    #[test]
    fn sixteen_way_sets_fill_then_evict_lru() {
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            ways: 16,
            latency: 1,
        });
        for i in 0..16 {
            assert_eq!(c.fill(CacheLine::new(i)), None);
        }
        assert!(c.probe(CacheLine::new(0)));
        assert_eq!(c.fill(CacheLine::new(16)), Some(CacheLine::new(1)));
        assert_eq!(c.occupancy(), 16);
    }

    #[test]
    fn invalidated_way_is_refilled_before_any_eviction() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        assert!(c.invalidate(set0_line(2)));
        // The freed way takes the next fill; line 1 (older) survives.
        assert_eq!(c.fill(set0_line(3)), None);
        assert!(c.contains(set0_line(1)));
        assert_eq!(c.fill(set0_line(4)), Some(set0_line(1)));
    }

    #[test]
    fn warm_fill_hit_promotes_like_probe() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        assert!(c.warm_fill(set0_line(1))); // hit: promote 1 → 2 is LRU
        assert_eq!(c.fill(set0_line(3)), Some(set0_line(2)));
    }

    #[test]
    fn warm_fill_miss_installs_over_lru() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        assert!(!c.warm_fill(set0_line(3))); // miss: install over LRU 1
        assert!(c.contains(set0_line(3)));
        assert!(c.contains(set0_line(2)));
        assert!(!c.contains(set0_line(1)));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn warm_fill_equals_probe_then_fill() {
        // The merged scan must leave the same final state as the
        // two-pass probe-or-fill it replaces, across a mixed access
        // sequence exercising hits, misses, and repeats.
        let seq = [1u64, 3, 1, 5, 7, 3, 9, 1, 5, 11, 3, 3, 7];
        let mut merged = tiny();
        let mut two_pass = tiny();
        for &i in &seq {
            let line = set0_line(i);
            merged.warm_fill(line);
            if !two_pass.probe(line) {
                two_pass.fill(line);
            }
        }
        for &i in &seq {
            assert_eq!(
                merged.contains(set0_line(i)),
                two_pass.contains(set0_line(i)),
                "divergent residency for line {i}"
            );
        }
        // And the LRU order matches: the same victim falls out next.
        assert_eq!(merged.fill(set0_line(13)), two_pass.fill(set0_line(13)));
    }
}
