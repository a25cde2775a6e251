//! A lightweight signature-path (SPP-style) L2 data prefetcher.
//!
//! Table 1 of the paper lists SPP [Kim et al., MICRO 2016] at the L2. Its
//! only role in the reproduced experiments is background realism: it keeps
//! the L2/LLC populated with data lines so page-walk references compete for
//! cache space the way they do in the paper's setup. We therefore implement
//! the core of SPP — per-page last-offset tracking, a delta signature, and
//! lookahead prefetch on a confident delta — without the full confidence
//! path/throttling machinery, and document that simplification in DESIGN.md.

use morrigan_types::{scan, CacheLine};
use serde::{Deserialize, Serialize};

const LINES_PER_PAGE: u64 = 64; // 4 KB page / 64 B line

/// Page sentinel marking an unused tracker. Tracked pages are physical
/// line numbers shifted right by 6, so they can never reach it.
const NO_PAGE: u64 = u64::MAX;

/// Configuration of the L2 prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2PrefetcherConfig {
    /// Number of page trackers (fully associative, LRU).
    pub trackers: usize,
    /// Maximum lookahead depth per trained access.
    pub degree: usize,
    /// Whether the prefetcher is active.
    pub enabled: bool,
}

impl Default for L2PrefetcherConfig {
    fn default() -> Self {
        Self {
            trackers: 64,
            degree: 2,
            enabled: true,
        }
    }
}

impl L2PrefetcherConfig {
    /// A disabled prefetcher (used by unit tests that need determinism).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Trackers compared per step of the page match: a fixed-width chunk the
/// compiler turns into straight-line vector compares.
const CHUNK: usize = 8;

/// First slot of `pages` holding `page`, scanned in fixed-size
/// branch-free chunks that stop at the first chunk with a match.
#[inline(always)]
fn find_page(pages: &[u64], page: u64) -> Option<usize> {
    let mut chunks = pages.chunks_exact(CHUNK);
    for (c, chunk) in (&mut chunks).enumerate() {
        if let Some(i) = scan::find_tag(chunk, page) {
            return Some(c * CHUNK + i);
        }
    }
    let base = pages.len() - chunks.remainder().len();
    scan::find_tag(chunks.remainder(), page).map(|i| base + i)
}

/// SPP-style stride/signature prefetcher trained on L2 data accesses.
///
/// Tracker state lives in parallel packed arrays (structure-of-arrays):
/// `train` runs on every L2 data access, and the page-match scan over a
/// contiguous `u64` run is what makes that affordable. LRU order is an
/// intrusive doubly linked list over the slots (`prev`/`next`), so
/// promotion and victim selection are O(1). An unused tracker holds the
/// [`NO_PAGE`] page, and the list starts with the unused slots at its
/// LRU end in index order (slot 0 is the tail), so the tail is the
/// first free slot while one exists and the least-recently-used page
/// afterwards.
#[derive(Debug, Clone)]
pub struct L2Prefetcher {
    cfg: L2PrefetcherConfig,
    pages: Vec<u64>,
    last_offset: Vec<u8>,
    last_delta: Vec<i8>,
    /// Neighbour toward the MRU end, per slot (unused at the head).
    prev: Vec<u32>,
    /// Neighbour toward the LRU end, per slot (unused at the tail).
    next: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the allocation victim.
    tail: u32,
    issued: u64,
}

impl L2Prefetcher {
    /// Creates an idle prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if an enabled prefetcher has no trackers.
    pub fn new(cfg: L2PrefetcherConfig) -> Self {
        assert!(
            !cfg.enabled || cfg.trackers > 0,
            "an enabled L2 prefetcher needs at least one tracker"
        );
        let n = cfg.trackers as u32;
        Self {
            cfg,
            pages: vec![NO_PAGE; cfg.trackers],
            last_offset: vec![0; cfg.trackers],
            last_delta: vec![0; cfg.trackers],
            prev: (1..=n).collect(),
            next: (0..n).map(|i| i.wrapping_sub(1)).collect(),
            head: n.saturating_sub(1),
            tail: 0,
            issued: 0,
        }
    }

    /// Number of prefetch lines issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Unlinks `slot` from the recency list and relinks it as the head.
    #[inline(always)]
    fn move_to_front(&mut self, slot: u32) {
        if slot == self.head {
            return;
        }
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        self.next[p as usize] = n;
        if slot == self.tail {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.next[slot as usize] = self.head;
        self.prev[self.head as usize] = slot;
        self.head = slot;
    }

    /// Trains on one L2 data access, appending the lines to prefetch to
    /// `out` (which is not cleared).
    ///
    /// A delta that repeats twice for the same page becomes confident and
    /// triggers `degree` lookahead lines, clipped at the page boundary (SPP
    /// does not cross pages; that restriction is exactly why I-side page
    /// crossings need a TLB prefetcher).
    pub fn train(&mut self, line: CacheLine, out: &mut Vec<CacheLine>) {
        if !self.cfg.enabled {
            return;
        }
        let page = line.raw() / LINES_PER_PAGE;
        let offset = line.raw() % LINES_PER_PAGE;

        let slot = match find_page(&self.pages, page) {
            Some(i) => i,
            None => {
                let victim = self.tail;
                self.move_to_front(victim);
                let victim = victim as usize;
                self.pages[victim] = page;
                self.last_offset[victim] = offset as u8;
                self.last_delta[victim] = 0;
                return;
            }
        };

        self.move_to_front(slot as u32);
        let delta = offset as i64 - self.last_offset[slot] as i64;
        let confident = delta != 0 && delta == self.last_delta[slot] as i64;
        self.last_delta[slot] = delta as i8;
        self.last_offset[slot] = offset as u8;

        if !confident {
            return;
        }
        let mut next = offset as i64;
        for _ in 0..self.cfg.degree {
            next += delta;
            if !(0..LINES_PER_PAGE as i64).contains(&next) {
                break;
            }
            out.push(CacheLine::new(page * LINES_PER_PAGE + next as u64));
            self.issued += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(page: u64, offset: u64) -> CacheLine {
        CacheLine::new(page * LINES_PER_PAGE + offset)
    }

    fn train(p: &mut L2Prefetcher, l: CacheLine) -> Vec<CacheLine> {
        let mut out = Vec::new();
        p.train(l, &mut out);
        out
    }

    #[test]
    fn stride_becomes_confident_after_two_repeats() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 4,
            degree: 2,
            enabled: true,
        });
        assert!(
            train(&mut p, line(7, 0)).is_empty(),
            "first touch allocates"
        );
        assert!(train(&mut p, line(7, 2)).is_empty(), "first delta observed");
        let out = train(&mut p, line(7, 4));
        assert_eq!(out, vec![line(7, 6), line(7, 8)]);
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn never_crosses_page_boundary() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 4,
            degree: 4,
            enabled: true,
        });
        train(&mut p, line(3, 59));
        train(&mut p, line(3, 61));
        let out = train(&mut p, line(3, 63));
        assert!(out.is_empty(), "offset 65 would leave the page: {out:?}");
    }

    #[test]
    fn irregular_pattern_stays_quiet() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig::default());
        train(&mut p, line(1, 0));
        train(&mut p, line(1, 5));
        assert!(train(&mut p, line(1, 7)).is_empty());
        assert!(train(&mut p, line(1, 20)).is_empty());
    }

    #[test]
    fn disabled_is_inert() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig::disabled());
        for i in 0..10 {
            assert!(train(&mut p, line(1, i * 2)).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn tracker_eviction_reuses_slots() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 2,
            degree: 1,
            enabled: true,
        });
        train(&mut p, line(1, 0));
        train(&mut p, line(2, 0));
        train(&mut p, line(3, 0)); // evicts page 1
        train(&mut p, line(1, 2)); // re-allocates page 1, no history
        assert!(
            train(&mut p, line(1, 4)).is_empty(),
            "history was lost on eviction"
        );
        let out = train(&mut p, line(1, 6));
        assert_eq!(out, vec![line(1, 8)]);
    }

    #[test]
    fn negative_stride_works() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 4,
            degree: 2,
            enabled: true,
        });
        train(&mut p, line(9, 30));
        train(&mut p, line(9, 25));
        let out = train(&mut p, line(9, 20));
        assert_eq!(out, vec![line(9, 15), line(9, 10)]);
    }
}
