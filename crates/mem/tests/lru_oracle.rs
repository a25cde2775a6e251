//! Oracle tests: the recency-word `Cache` and the linked-list
//! `L2Prefetcher` against reference models that keep LRU order the
//! classic way — a monotone tick, a per-way timestamp, and a
//! "first free way, else minimum stamp" victim scan.
//!
//! Random operation sequences drive both sides in lockstep over every
//! configured set geometry; every return value, every evicted tag and
//! the occupancy after every operation must agree. Only the physical
//! way a line lands in may differ, and nothing outside the structure
//! can observe it.

use morrigan_mem::{Cache, CacheConfig, L2Prefetcher, L2PrefetcherConfig};
use morrigan_types::CacheLine;
use proptest::prelude::*;

/// Empty-way tag of the reference models.
const EMPTY: u64 = u64::MAX;

/// The stamp-LRU cache: an empty way holds stamp 0, live stamps are
/// ≥ 1, and the victim is the first way holding the minimum stamp.
struct RefCache {
    ways: usize,
    sets: usize,
    lines: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            ways: cfg.ways,
            sets: cfg.sets,
            lines: vec![EMPTY; cfg.sets * cfg.ways],
            stamps: vec![0; cfg.sets * cfg.ways],
            tick: 0,
        }
    }

    fn start(&self, key: u64) -> usize {
        (key as usize % self.sets) * self.ways
    }

    /// The hit way, else the first minimum-stamp way.
    fn hit_or_victim(&self, key: u64) -> (usize, bool) {
        let start = self.start(key);
        let mut victim = start;
        for i in start..start + self.ways {
            if self.lines[i] == key {
                return (i, true);
            }
            if self.stamps[i] < self.stamps[victim] {
                victim = i;
            }
        }
        (victim, false)
    }

    fn probe(&mut self, key: u64) -> bool {
        self.tick += 1;
        let (i, hit) = self.hit_or_victim(key);
        if hit {
            self.stamps[i] = self.tick;
        }
        hit
    }

    fn fill(&mut self, key: u64) -> Option<u64> {
        self.tick += 1;
        let (i, hit) = self.hit_or_victim(key);
        let evicted = (!hit && self.stamps[i] != 0).then_some(self.lines[i]);
        self.lines[i] = key;
        self.stamps[i] = self.tick;
        evicted
    }

    fn warm_fill(&mut self, key: u64) -> bool {
        self.tick += 1;
        let (i, hit) = self.hit_or_victim(key);
        self.lines[i] = key;
        self.stamps[i] = self.tick;
        hit
    }

    fn invalidate(&mut self, key: u64) -> bool {
        let start = self.start(key);
        for i in start..start + self.ways {
            if self.lines[i] == key {
                self.lines[i] = EMPTY;
                self.stamps[i] = 0;
                return true;
            }
        }
        false
    }

    fn clear(&mut self) {
        self.lines.fill(EMPTY);
        self.stamps.fill(0);
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != EMPTY).count()
    }

    fn contains(&self, key: u64) -> bool {
        let start = self.start(key);
        self.lines[start..start + self.ways].contains(&key)
    }
}

/// The stamp-LRU L2 prefetcher: a linear page match, then the first
/// minimum-stamp tracker (unused trackers hold stamp 0).
struct RefL2 {
    degree: usize,
    pages: Vec<u64>,
    lru: Vec<u64>,
    last_offset: Vec<u8>,
    last_delta: Vec<i8>,
    tick: u64,
    issued: u64,
}

impl RefL2 {
    fn new(cfg: L2PrefetcherConfig) -> Self {
        Self {
            degree: cfg.degree,
            pages: vec![EMPTY; cfg.trackers],
            lru: vec![0; cfg.trackers],
            last_offset: vec![0; cfg.trackers],
            last_delta: vec![0; cfg.trackers],
            tick: 0,
            issued: 0,
        }
    }

    fn train(&mut self, line: CacheLine, out: &mut Vec<CacheLine>) {
        self.tick += 1;
        let page = line.raw() / 64;
        let offset = line.raw() % 64;
        let Some(slot) = self.pages.iter().position(|&p| p == page) else {
            let mut victim = 0;
            for (i, &l) in self.lru.iter().enumerate() {
                if l < self.lru[victim] {
                    victim = i;
                }
            }
            self.pages[victim] = page;
            self.lru[victim] = self.tick;
            self.last_offset[victim] = offset as u8;
            self.last_delta[victim] = 0;
            return;
        };
        self.lru[slot] = self.tick;
        let delta = offset as i64 - self.last_offset[slot] as i64;
        let confident = delta != 0 && delta == self.last_delta[slot] as i64;
        self.last_delta[slot] = delta as i8;
        self.last_offset[slot] = offset as u8;
        if !confident {
            return;
        }
        let mut next = offset as i64;
        for _ in 0..self.degree {
            next += delta;
            if !(0..64).contains(&next) {
                break;
            }
            out.push(CacheLine::new(page * 64 + next as u64));
            self.issued += 1;
        }
    }
}

/// Every cache associativity the simulator configures (the 2-way sets
/// appear in the unit-test hierarchies), plus 15 for the widest
/// non-power-of-two set.
const WAYS: [usize; 6] = [2, 4, 6, 8, 15, 16];

/// Tracker counts: 1 is the recency list's single-node edge case; 1, 2
/// and 4 take only the tail path of the chunked page match, and the
/// default 64 takes its full chunks.
const TRACKERS: [usize; 4] = [1, 2, 4, 64];

fn check_cache(ways: usize, sets: usize, ops: &[(u8, u64)]) {
    let cfg = CacheConfig {
        sets,
        ways,
        latency: 1,
    };
    let mut new = Cache::new(cfg);
    let mut old = RefCache::new(cfg);
    // Keys span about twice the capacity so sets overflow and evict.
    let span = (sets * ways * 2) as u64;
    for (n, &(op, raw)) in ops.iter().enumerate() {
        let key = raw % span;
        let line = CacheLine::new(key);
        let ctx = format!("{ways}w x {sets}s, op #{n} ({op}, {key})");
        match op {
            0..=14 => assert_eq!(new.probe(line), old.probe(key), "probe {ctx}"),
            15..=34 => assert_eq!(
                new.fill(line).map(CacheLine::raw),
                old.fill(key),
                "fill {ctx}"
            ),
            35..=54 => assert_eq!(new.warm_fill(line), old.warm_fill(key), "warm {ctx}"),
            55..=62 => assert_eq!(new.invalidate(line), old.invalidate(key), "inval {ctx}"),
            _ => {
                new.clear();
                old.clear();
            }
        }
        assert_eq!(new.occupancy(), old.occupancy(), "occupancy {ctx}");
    }
    for key in 0..span {
        assert_eq!(new.contains(CacheLine::new(key)), old.contains(key));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Probe, fill, warm_fill, invalidate and clear agree with the
    /// stamp-LRU reference on every geometry, one set and four. Clears
    /// are rare (1 op in 64) so even 16-way sets fill up and evict.
    #[test]
    fn cache_matches_stamp_lru_reference(
        ops in prop::collection::vec((0u8..64, any::<u64>()), 1..400),
    ) {
        for ways in WAYS {
            for sets in [1, 4] {
                check_cache(ways, sets, &ops);
            }
        }
    }

    /// Training agrees with the stamp-LRU reference: the same prefetch
    /// lines in the same order and the same `issued` count. Each page
    /// walks its offsets by its own stride, which changes on about one
    /// access in five, so deltas repeat and confident prefetches fire.
    #[test]
    fn l2_prefetcher_matches_stamp_lru_reference(
        ops in prop::collection::vec((0u64..128, 0u8..5), 1..600),
        degree in 1usize..4,
    ) {
        for trackers in TRACKERS {
            let cfg = L2PrefetcherConfig { trackers, degree, enabled: true };
            let mut new = L2Prefetcher::new(cfg);
            let mut old = RefL2::new(cfg);
            // One page more than the trackers forces evictions.
            let pages = trackers as u64 + 1;
            let mut cursor = vec![(0i64, 0usize); pages as usize];
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for (n, &(raw, change)) in ops.iter().enumerate() {
                let page = raw % pages;
                let (offset, stride) = &mut cursor[page as usize];
                if change == 0 {
                    *stride = (*stride + 1) % 4;
                }
                *offset = (*offset + [1, 2, 3, -2][*stride]).rem_euclid(64);
                let line = CacheLine::new(page * 64 + *offset as u64);
                new.train(line, &mut a);
                old.train(line, &mut b);
                prop_assert_eq!(&a, &b, "{} trackers, op #{}", trackers, n);
                prop_assert_eq!(new.issued(), old.issued);
            }
            if trackers > 1 && ops.len() > 100 {
                prop_assert!(new.issued() > 0, "{} trackers: strides never fired", trackers);
            }
        }
    }
}
