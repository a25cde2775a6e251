//! Oracle test: the recency-word `Tlb` against a reference model that
//! keeps LRU order the classic way — a monotone tick, a per-way
//! timestamp, and a "first free way, else minimum stamp" victim scan.
//!
//! Random operation sequences drive both sides in lockstep over every
//! configured TLB associativity. Every return value, every evicted VPN,
//! both cross-class contention counters, and the total and per-ASID
//! occupancy after every operation must agree.

use morrigan_types::{PhysPage, VirtPage};
use morrigan_vm::{Tlb, TlbConfig};
use proptest::prelude::*;

/// Empty-way tag of the reference model.
const EMPTY: u64 = u64::MAX;

/// The stamp-LRU TLB: an empty way holds stamp 0, live stamps are ≥ 1,
/// and the victim is the first way holding the minimum stamp.
struct RefTlb {
    ways: usize,
    sets: usize,
    vpns: Vec<u64>,
    pfns: Vec<u64>,
    stamps: Vec<u64>,
    instr: Vec<bool>,
    tick: u64,
    instr_evicted_by_data: u64,
    data_evicted_by_instr: u64,
}

impl RefTlb {
    fn new(cfg: TlbConfig) -> Self {
        Self {
            ways: cfg.ways,
            sets: cfg.entries / cfg.ways,
            vpns: vec![EMPTY; cfg.entries],
            pfns: vec![0; cfg.entries],
            stamps: vec![0; cfg.entries],
            instr: vec![false; cfg.entries],
            tick: 0,
            instr_evicted_by_data: 0,
            data_evicted_by_instr: 0,
        }
    }

    fn start(&self, key: u64) -> usize {
        (key as usize % self.sets) * self.ways
    }

    fn find(&self, key: u64) -> Option<usize> {
        let start = self.start(key);
        (start..start + self.ways).find(|&i| self.vpns[i] == key)
    }

    fn lookup(&mut self, key: u64) -> Option<u64> {
        self.tick += 1;
        let i = self.find(key)?;
        self.stamps[i] = self.tick;
        Some(self.pfns[i])
    }

    fn touch_repeat(&mut self, key: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.tick += count;
        let i = self.find(key).expect("resident");
        self.stamps[i] = self.tick;
    }

    fn insert(&mut self, key: u64, pfn: u64, instruction: bool) -> Option<u64> {
        self.tick += 1;
        let start = self.start(key);
        let i = self.find(key).unwrap_or_else(|| {
            (start..start + self.ways)
                .min_by_key(|&i| self.stamps[i])
                .unwrap()
        });
        let evicted = (self.vpns[i] != key && self.stamps[i] != 0).then(|| {
            if self.instr[i] && !instruction {
                self.instr_evicted_by_data += 1;
            } else if !self.instr[i] && instruction {
                self.data_evicted_by_instr += 1;
            }
            self.vpns[i]
        });
        self.vpns[i] = key;
        self.pfns[i] = pfn;
        self.instr[i] = instruction;
        self.stamps[i] = self.tick;
        evicted
    }

    fn drop_way(&mut self, i: usize) {
        self.vpns[i] = EMPTY;
        self.stamps[i] = 0;
    }

    fn invalidate(&mut self, key: u64) -> bool {
        let found = self.find(key);
        if let Some(i) = found {
            self.drop_way(i);
        }
        found.is_some()
    }

    fn invalidate_asid(&mut self, asid: u16) -> usize {
        let victims: Vec<usize> = (0..self.vpns.len())
            .filter(|&i| self.vpns[i] != EMPTY && VirtPage::new(self.vpns[i]).asid() == asid)
            .collect();
        for &i in &victims {
            self.drop_way(i);
        }
        victims.len()
    }

    fn flush(&mut self) {
        self.vpns.fill(EMPTY);
        self.stamps.fill(0);
    }

    fn occupancy_for_asid(&self, asid: u16) -> usize {
        self.vpns
            .iter()
            .filter(|&&v| v != EMPTY && VirtPage::new(v).asid() == asid)
            .count()
    }
}

/// Every TLB/STLB associativity the simulator configures: 4 (dTLB),
/// 6 (STLB), 8 (iTLB), 15 (fig18's enlarged STLB), plus 2 and the
/// 16-way ceiling.
const WAYS: [usize; 6] = [2, 4, 6, 8, 15, 16];

const ASIDS: u16 = 3;

fn check_tlb(ways: usize, sets: usize, ops: &[(u8, u64, u8)]) {
    let cfg = TlbConfig {
        entries: ways * sets,
        ways,
        latency: 1,
    };
    let mut new = Tlb::new(cfg);
    let mut old = RefTlb::new(cfg);
    // Keys span twice the capacity per ASID so sets overflow and evict.
    let span = (sets * ways * 2) as u64;
    for (n, &(op, raw, arg)) in ops.iter().enumerate() {
        let asid = (raw / span % ASIDS as u64) as u16;
        let key = VirtPage::new(raw % span).with_asid(asid);
        let ctx = format!("{ways}w x {sets}s, op #{n} ({op}, {key:?}, {arg})");
        match op {
            0..=19 => assert_eq!(
                new.lookup(key).map(PhysPage::raw),
                old.lookup(key.raw()),
                "lookup {ctx}"
            ),
            20..=44 => {
                // The pfn varies per insert so refreshes are visible.
                let pfn = raw.rotate_left(7) & 0xf_ffff;
                let instruction = arg & 1 == 1;
                assert_eq!(
                    new.insert(key, PhysPage::new(pfn), instruction)
                        .map(VirtPage::raw),
                    old.insert(key.raw(), pfn, instruction),
                    "insert {ctx}"
                );
            }
            45..=54 => {
                // The elision contract: only resident entries.
                if old.find(key.raw()).is_some() {
                    new.touch_repeat(key, arg as u64);
                    old.touch_repeat(key.raw(), arg as u64);
                }
            }
            55..=60 => assert_eq!(
                new.invalidate(key),
                old.invalidate(key.raw()),
                "invalidate {ctx}"
            ),
            61 | 62 => {
                let victim = arg as u16 % ASIDS;
                assert_eq!(
                    new.invalidate_asid(victim),
                    old.invalidate_asid(victim),
                    "invalidate_asid {ctx}"
                );
            }
            _ => {
                new.flush();
                old.flush();
            }
        }
        assert_eq!(
            new.instr_evicted_by_data, old.instr_evicted_by_data,
            "instr_evicted_by_data {ctx}"
        );
        assert_eq!(
            new.data_evicted_by_instr, old.data_evicted_by_instr,
            "data_evicted_by_instr {ctx}"
        );
        for a in 0..ASIDS {
            assert_eq!(
                new.occupancy_for_asid(a),
                old.occupancy_for_asid(a),
                "occupancy of asid {a}, {ctx}"
            );
        }
    }
    assert_eq!(
        new.occupancy(),
        old.vpns.iter().filter(|&&v| v != EMPTY).count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lookup, insert, touch_repeat, invalidate, invalidate_asid and
    /// flush agree with the stamp-LRU reference on every geometry, one
    /// set and four. Flushes are rare (1 op in 64) so even 16-way sets
    /// fill up and evict.
    #[test]
    fn tlb_matches_stamp_lru_reference(
        ops in prop::collection::vec((0u8..64, any::<u64>(), 0u8..8), 1..400),
    ) {
        for ways in WAYS {
            for sets in [1, 4] {
                check_tlb(ways, sets, &ops);
            }
        }
    }
}
