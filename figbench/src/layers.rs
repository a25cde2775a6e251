//! The per-layer cost ledger, measured from outside the program.
//!
//! Each distinct workload trace of a figure regeneration is captured
//! again, drained, and turned into operand streams: page-run heads, data
//! pages, fetched lines, and the miss streams each TLB level leaves for
//! the next. Each stream is then replayed through one public function of
//! one crate against a standalone instance of its structure, giving
//! ns/op. Multiplied by the op counts of the real run, the layer costs
//! are reconciled against the measured simulate time; what is left over
//! is the stepping cost no layer explains.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use morrigan::{Morrigan, MorriganConfig};
use morrigan_icache::{ICachePrefetcher, LinePrefetch, NextLinePrefetcher};
use morrigan_mem::{AccessClass, MemoryHierarchy};
use morrigan_sim::SystemConfig;
use morrigan_types::{
    CacheLine, MissContext, PhysPage, PrefetchDecision, PrefetchOrigin, ThreadId, TlbPrefetcher,
    VirtAddr, VirtPage, LINE_SHIFT, PAGE_SHIFT,
};
use morrigan_vm::{PageTable, PrefetchBuffer, Tlb, TlbConfig, WalkKind, Walker};
use morrigan_workloads::{InstructionStream, PackedReplay, PackedTrace, TraceInstruction};

use crate::median;
use crate::passes::{Outcome, Pass, Span};
use crate::workloads::{detail_fraction, members, Member, Op};

/// Replays of each stream; the median total is kept.
const REPS: usize = 3;

/// Host time and op count accumulated for one layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub seconds: f64,
    pub ops: u64,
}

impl Cost {
    fn add(&mut self, seconds: f64, ops: u64) {
        self.seconds += seconds;
        self.ops += ops;
    }

    /// Nanoseconds per op (0 when no op ran).
    pub fn ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.seconds * 1e9 / self.ops as f64
        }
    }
}

/// Standalone costs over every trace of a workload.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// Generator construction plus `PackedTrace::capture`, per instruction.
    pub capture: Cost,
    /// Draining `PackedReplay::fill_block`, per instruction.
    pub replay: Cost,
    pub resident_bytes: u64,
    pub itlb: Cost,
    pub dtlb: Cost,
    pub stlb: Cost,
    pub walk: Cost,
    pub pb: Cost,
    pub morrigan: Cost,
    /// Prefetch decisions Morrigan returned over its misses.
    pub decisions: u64,
    pub access: Cost,
    pub warm: Cost,
    pub on_fetch: Cost,
}

/// Per-instruction rates of one trace, for turning a run's instruction
/// count into op counts the record does not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// New-line fetches per instruction.
    pub lines: f64,
    /// Hierarchy references (fetched lines + data accesses) per instruction.
    pub mem: f64,
}

/// The operand streams of one trace.
struct Streams {
    /// Virtual lines of new-line fetches, in program order.
    ilines: Vec<u64>,
    /// Program-ordered hierarchy references: physical line and whether it
    /// is an instruction fetch.
    mem: Vec<(CacheLine, bool)>,
    /// Fetch page-run heads: (program-order index, VPN, PC).
    ipages: Vec<(u32, VirtPage, VirtAddr)>,
    /// Every data access's page: (program-order index, VPN).
    dpages: Vec<(u32, VirtPage)>,
}

/// Times `body` `REPS` times (each on fresh state it builds itself) and
/// returns the median seconds.
fn timed(mut body: impl FnMut() -> u64) -> (f64, u64) {
    let mut ops = 0;
    let secs = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            ops = std::hint::black_box(body());
            t.elapsed().as_secs_f64()
        })
        .collect();
    (median(secs), ops)
}

/// Decodes the whole trace through `PackedReplay::fill_block`, handing
/// each block to `f`.
fn for_each_block(trace: &Arc<PackedTrace>, mut f: impl FnMut(&[TraceInstruction])) {
    let mut replay = PackedReplay::new(Arc::clone(trace));
    let mut block: Vec<TraceInstruction> = Vec::with_capacity(1 << 16);
    let mut left = trace.len() as usize;
    while left > 0 {
        let n = left.min(1 << 16);
        block.clear();
        replay.fill_block(&mut block, n);
        left -= n;
        f(&block);
    }
}

fn physical_line(pt: &PageTable, addr: VirtAddr) -> CacheLine {
    let pfn = pt
        .translate(VirtPage::new(addr.raw() >> PAGE_SHIFT))
        .expect("trace addresses lie in the trace's mapped regions");
    CacheLine::new(pfn.raw() << (PAGE_SHIFT - LINE_SHIFT) | (addr.page_offset() >> LINE_SHIFT))
}

fn decode(trace: &Arc<PackedTrace>, pt: &PageTable) -> Streams {
    let mut s = Streams {
        ilines: Vec::new(),
        mem: Vec::new(),
        ipages: Vec::new(),
        dpages: Vec::new(),
    };
    let (mut line, mut page) = (u64::MAX, u64::MAX);
    let mut i = 0u32;
    for_each_block(trace, |block| {
        for instr in block {
            let vline = instr.pc.raw() >> LINE_SHIFT;
            if vline != line {
                line = vline;
                s.ilines.push(vline);
                s.mem.push((physical_line(pt, instr.pc), true));
            }
            let vpn = instr.pc.raw() >> PAGE_SHIFT;
            if vpn != page {
                page = vpn;
                s.ipages.push((i, VirtPage::new(vpn), instr.pc));
            }
            if let Some(m) = instr.mem {
                s.mem.push((physical_line(pt, m.addr), false));
                s.dpages
                    .push((i, VirtPage::new(m.addr.raw() >> PAGE_SHIFT)));
            }
            i += 1;
        }
    });
    s
}

/// A translation request: program-order index, VPN, instruction side.
type Probe = (u32, VirtPage, bool);

/// Times `Tlb::lookup` (with `insert` on a miss) over `probes` against a
/// fresh TLB, then returns the probes that missed: the next level's stream.
fn tlb_level(cfg: TlbConfig, probes: &[Probe], cost: &mut Cost) -> Vec<Probe> {
    let run = |mut on_miss: Box<dyn FnMut(Probe) + '_>| {
        let mut tlb = Tlb::new(cfg);
        for &probe @ (_, vpn, instr) in probes {
            if tlb.lookup(vpn).is_none() {
                tlb.insert(vpn, PhysPage::new(vpn.raw()), instr);
                on_miss(probe);
            }
        }
        probes.len() as u64
    };
    let (secs, ops) = timed(|| run(Box::new(|_| {})));
    cost.add(secs, ops);
    let mut misses = Vec::new();
    run(Box::new(|p| misses.push(p)));
    misses
}

/// Replays every layer over one captured trace.
fn replay_trace(trace: Arc<PackedTrace>, costs: &mut LayerCosts) {
    let system = SystemConfig::default();
    let mut pt = PageTable::new(1);
    for (base, count) in [trace.code_region(), trace.data_region()] {
        pt.map_range(base, count);
    }
    let len = trace.len();

    let (secs, _) = timed(|| {
        let mut n = 0;
        for_each_block(&trace, |block| n += block.len() as u64);
        n
    });
    costs.replay.add(secs, len);

    let s = decode(&trace, &pt);

    let (secs, ops) = timed(|| {
        let mut p = NextLinePrefetcher::new();
        let mut out: Vec<LinePrefetch> = Vec::with_capacity(4);
        for &vline in &s.ilines {
            out.clear();
            p.on_fetch(vline, &mut out);
        }
        s.ilines.len() as u64
    });
    costs.on_fetch.add(secs, ops);

    let (secs, ops) = timed(|| {
        let mut mem = MemoryHierarchy::new(system.mem);
        let mut latency = 0;
        for &(line, instr) in &s.mem {
            let class = if instr {
                AccessClass::IFetch
            } else {
                AccessClass::Data
            };
            latency += mem.access(line, class).latency;
        }
        std::hint::black_box(latency);
        s.mem.len() as u64
    });
    costs.access.add(secs, ops);

    let (secs, ops) = timed(|| {
        let mut mem = MemoryHierarchy::new(system.mem);
        for &(line, instr) in &s.mem {
            mem.warm(line, instr);
        }
        s.mem.len() as u64
    });
    costs.warm.add(secs, ops);

    // Translation: L1 TLBs, then the STLB over their merged misses, then
    // the walker over the STLB's.
    let ipages: Vec<Probe> = s.ipages.iter().map(|&(i, vpn, _)| (i, vpn, true)).collect();
    let dpages: Vec<Probe> = s.dpages.iter().map(|&(i, vpn)| (i, vpn, false)).collect();
    let mut merged = tlb_level(system.mmu.itlb, &ipages, &mut costs.itlb);
    merged.extend(tlb_level(system.mmu.dtlb, &dpages, &mut costs.dtlb));
    merged.sort_by_key(|&(i, _, instr)| (i, !instr));
    let stlb_misses = tlb_level(system.mmu.stlb, &merged, &mut costs.stlb);

    let (secs, ops) = timed(|| {
        let mut walker = Walker::new(system.mmu.walker);
        let mut mem = MemoryHierarchy::new(system.mem);
        let mut now = 0;
        for &(_, vpn, instr) in &stlb_misses {
            let kind = if instr {
                WalkKind::DemandInstruction
            } else {
                WalkKind::DemandData
            };
            let walk = walker.walk(&pt, &mut mem, vpn, kind, now);
            now = walk.map_or(now, |w| w.completed_at) + 1;
        }
        stlb_misses.len() as u64
    });
    costs.walk.add(secs, ops);

    // Morrigan over the iSTLB misses, fed PB hits the way the MMU feeds
    // them. A dry run with a buffer records each miss's context and the
    // buffer traffic; the timed runs then replay the prefetcher and the
    // buffer separately over those recordings.
    let pcs: HashMap<u32, VirtAddr> = s.ipages.iter().map(|&(i, _, pc)| (i, pc)).collect();
    let mut contexts: Vec<(MissContext, Option<PrefetchOrigin>)> = Vec::new();
    let mut pb_ops: Vec<(VirtPage, Vec<PrefetchDecision>)> = Vec::new();
    {
        let mut morrigan = Morrigan::new(MorriganConfig::default());
        let mut pb = PrefetchBuffer::new(system.mmu.pb_entries, system.mmu.pb_latency);
        let mut out = Vec::new();
        for (cycle, &(i, vpn, _)) in stlb_misses.iter().filter(|m| m.2).enumerate() {
            let now = cycle as u64 * 100;
            let hit = pb.take(vpn, now);
            let ctx = MissContext {
                vpn,
                pc: pcs[&i],
                thread: ThreadId::ZERO,
                pb_hit: hit.is_some(),
                cycle: now,
            };
            let origin = hit.and_then(|h| h.origin);
            if let Some(o) = &origin {
                morrigan.on_prefetch_hit(o);
            }
            out.clear();
            morrigan.on_stlb_miss(&ctx, &mut out);
            for d in &out {
                pb.insert(
                    d.vpn,
                    PhysPage::new(d.vpn.raw()),
                    now + 100,
                    d.origin,
                    d.component,
                );
            }
            contexts.push((ctx, origin));
            pb_ops.push((vpn, out.clone()));
        }
    }
    let (secs, ops) = timed(|| {
        let mut morrigan = Morrigan::new(MorriganConfig::default());
        let mut out = Vec::new();
        let mut decisions = 0;
        for (ctx, origin) in &contexts {
            if let Some(o) = origin {
                morrigan.on_prefetch_hit(o);
            }
            out.clear();
            morrigan.on_stlb_miss(ctx, &mut out);
            decisions += out.len() as u64;
        }
        std::hint::black_box(decisions);
        contexts.len() as u64
    });
    costs.morrigan.add(secs, ops);
    costs.decisions += pb_ops.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
    let (secs, ops) = timed(|| {
        let mut pb = PrefetchBuffer::new(system.mmu.pb_entries, system.mmu.pb_latency);
        let mut n = 0;
        for (cycle, (vpn, decisions)) in pb_ops.iter().enumerate() {
            let now = cycle as u64 * 100;
            std::hint::black_box(pb.take(*vpn, now));
            for d in decisions {
                pb.insert(
                    d.vpn,
                    PhysPage::new(d.vpn.raw()),
                    now + 100,
                    d.origin,
                    d.component,
                );
            }
            n += 1 + decisions.len() as u64;
        }
        n
    });
    costs.pb.add(secs, ops);
}

/// Distinct traces the layer replays run over; the rest are only scanned
/// for their rates. Replaying every trace would cost a traced run more
/// time than its passes without sharpening ns/op.
const REPLAYED_TRACES: usize = 4;

/// Fetched-line and hierarchy-reference rates of a trace, by one scan.
fn scan_rates(trace: &Arc<PackedTrace>) -> Rates {
    let (mut lines, mut data, mut line) = (0u64, 0u64, u64::MAX);
    for_each_block(trace, |block| {
        for instr in block {
            let vline = instr.pc.raw() >> LINE_SHIFT;
            if vline != line {
                line = vline;
                lines += 1;
            }
            data += instr.mem.is_some() as u64;
        }
    });
    let len = trace.len() as f64;
    Rates {
        lines: lines as f64 / len,
        mem: (lines + data) as f64 / len,
    }
}

/// Captures every distinct member stream once (timing the capture) and
/// scans it for its rates; the first [`REPLAYED_TRACES`] also go through
/// the layer replays. Records a span per capture and per replay. Returns
/// the costs and each member key's rates.
pub fn measure(
    members: &[Member],
    len: u64,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> (LayerCosts, HashMap<String, Rates>) {
    let mut costs = LayerCosts::default();
    let mut rates = HashMap::new();
    let at = |t: Instant| t.duration_since(epoch).as_secs_f64();
    for member in members {
        let key = member.key();
        if rates.contains_key(&key) {
            continue;
        }
        let start = Instant::now();
        let mut live = member.build();
        let trace = Arc::new(PackedTrace::capture(live.as_mut(), len));
        drop(live);
        let captured = Instant::now();
        costs
            .capture
            .add(captured.duration_since(start).as_secs_f64(), len);
        costs.resident_bytes += trace.resident_bytes();
        rates.insert(key, scan_rates(&trace));
        let parent = spans.len();
        spans.push(Span {
            name: format!("layers {}", member.name()),
            parent: None,
            start_s: at(start),
            end_s: 0.0,
            counts: vec![("instructions", len)],
        });
        spans.push(Span {
            name: "trace capture".into(),
            parent: Some(parent),
            start_s: at(start),
            end_s: at(captured),
            counts: vec![("instructions", len)],
        });
        if rates.len() <= REPLAYED_TRACES {
            let replay_start = Instant::now();
            replay_trace(trace, &mut costs);
            spans.push(Span {
                name: "layer replays".into(),
                parent: Some(parent),
                start_s: at(replay_start),
                end_s: epoch.elapsed().as_secs_f64(),
                counts: Vec::new(),
            });
        }
        spans[parent].end_s = epoch.elapsed().as_secs_f64();
    }
    (costs, rates)
}

/// One pass's host seconds per layer: standalone ns/op times the op
/// counts of the real run, next to the measured execute time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    pub workloads: f64,
    pub vm: f64,
    pub core: f64,
    pub mem: f64,
    pub icache: f64,
    /// Execute seconds summed over the pass's specs (wall time; a
    /// machine's epoch-driver threads overlap within it).
    pub run_s: f64,
}

impl Ledger {
    pub fn explained(&self) -> f64 {
        self.workloads + self.vm + self.core + self.mem + self.icache
    }
}

/// Reconciles `costs` against one pass. Counts the record does not carry
/// (fetched lines, hierarchy references) come from the trace's own rates;
/// window counters are scaled to the whole run by instructions.
pub fn ledger(
    costs: &LayerCosts,
    rates: &HashMap<String, Rates>,
    ops: &[Op],
    pass: &Pass,
) -> Ledger {
    let ns = 1e-9;
    let mut l = Ledger::default();
    for (op, outcome) in ops.iter().zip(&pass.outcomes) {
        let Outcome::Ran {
            record, seconds, ..
        } = outcome
        else {
            continue;
        };
        l.run_s += seconds - record.phases.trace_build();
        let run_instr = op.spec.instructions_cost() as f64;
        let scale = run_instr / record.metrics.instructions.max(1) as f64;
        let detail = detail_fraction(&op.spec);
        let member_rates: Vec<Rates> = members(&op.spec).iter().map(|m| rates[&m.key()]).collect();
        let n = member_rates.len() as f64;
        let lines = member_rates.iter().map(|r| r.lines).sum::<f64>() / n * run_instr;
        let refs = member_rates.iter().map(|r| r.mem).sum::<f64>() / n * run_instr;
        let m = &record.metrics.mmu;
        let w = &record.metrics.walker;

        l.workloads += costs.replay.ns() * run_instr * ns;
        l.icache += costs.on_fetch.ns() * lines * detail * ns;
        l.mem += (costs.access.ns() * detail + costs.warm.ns() * (1.0 - detail)) * refs * ns;
        l.vm += (costs.itlb.ns() * record.elision.probes_issued as f64
            + scale
                * (costs.dtlb.ns() * m.data_translations as f64
                    + costs.stlb.ns() * (m.itlb_misses + m.dtlb_misses) as f64
                    + costs.walk.ns()
                        * (w.demand_instr_walks + w.demand_data_walks + w.prefetch_walks) as f64
                    + costs.pb.ns() * (m.istlb_misses + m.prefetches_issued) as f64))
            * ns;
        if op.role.is_morrigan() {
            l.core += costs.morrigan.ns() * m.istlb_misses as f64 * scale * ns;
        }
    }
    l
}
