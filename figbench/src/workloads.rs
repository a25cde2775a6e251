//! The three workloads: batches of `RunSpec`s shaped like the figure
//! regenerations the simulator serves, with every config derived from the
//! benchmark's seed.

use morrigan_experiments::fig21_multicore::{SCHEDULE_QUANTUM, SHOOTDOWN_INTERVAL};
use morrigan_runner::{PrefetcherKind, RunSpec, WorkloadSpec};
use morrigan_sim::{SamplingConfig, SimConfig, SystemConfig, TopologyConfig};
use morrigan_types::{SplitMix64, VirtPage};
use morrigan_workloads::{
    AsidStream, InstructionStream, ServerWorkload, ServerWorkloadConfig, SpecWorkload,
    SpecWorkloadConfig,
};

/// The data strides `SpecWorkloadConfig::spec_like` draws from. Stride
/// sets a SPEC-like config's data-side TLB pressure and with it most of
/// its host cost (a 4096-byte stride touches a new page per access), so
/// `spec_sampled` takes the same number of configs from each stride: an
/// unstratified draw would swing the workload's MIPS with the seed.
const SPEC_STRIDES: [u64; 4] = [8, 16, 64, 4096];

/// How much one figure regeneration simulates.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Warmup + measure instructions per core, as `figures` runs them.
    pub sim: SimConfig,
    /// Server configs in `server_detail` (each runs baseline + Morrigan).
    pub server_configs: usize,
    /// SPEC-like configs per data stride in `spec_sampled`.
    pub spec_per_stride: usize,
    /// Cores of the `multicore` machine.
    pub cores: usize,
    /// Tenants per core of the `multicore` machine.
    pub tenants: usize,
}

impl Scale {
    /// The figures' default (`quick`) run length: 1 M warmup + 3 M measure.
    pub fn figure() -> Self {
        Scale {
            sim: SimConfig {
                warmup_instructions: 1_000_000,
                measure_instructions: 3_000_000,
            },
            server_configs: 4,
            spec_per_stride: 3,
            cores: 4,
            tenants: 2,
        }
    }

    /// A seconds-long scale for the self-tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Scale {
            sim: SimConfig {
                warmup_instructions: 20_000,
                measure_instructions: 60_000,
            },
            server_configs: 1,
            spec_per_stride: 1,
            cores: 2,
            tenants: 2,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QMM-like servers, full detail, baseline + Morrigan per config, plus
    /// one SMT-colocated pair.
    ServerDetail,
    /// SPEC-like configs with Morrigan under the default SMARTS schedule.
    SpecSampled,
    /// One 4-core machine, 2 tenants per core, on fig21's contended
    /// topology, Morrigan, full detail.
    Multicore,
}

/// What a spec is within its workload; the ledger pairs roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A no-prefetch single-thread baseline.
    Baseline,
    /// A Morrigan single-thread run.
    Morrigan,
    /// The SMT pair without prefetching.
    SmtBaseline,
    /// The SMT pair with Morrigan.
    SmtMorrigan,
    /// The multi-core machine with Morrigan.
    Machine,
}

impl Role {
    pub fn is_smt(self) -> bool {
        matches!(self, Role::SmtBaseline | Role::SmtMorrigan)
    }

    pub fn is_morrigan(self) -> bool {
        matches!(self, Role::Morrigan | Role::SmtMorrigan | Role::Machine)
    }
}

/// One operation: a spec the workload simulates, and its role.
#[derive(Debug, Clone)]
pub struct Op {
    pub spec: RunSpec,
    pub role: Role,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServerDetail,
        Workload::SpecSampled,
        Workload::Multicore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServerDetail => "server_detail",
            Workload::SpecSampled => "spec_sampled",
            Workload::Multicore => "multicore",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Salt that keeps the workloads' seed-derived configs apart.
    fn salt(self) -> u64 {
        match self {
            Workload::ServerDetail => 0x5e4e_de7a,
            Workload::SpecSampled => 0x57ec_5a3b,
            Workload::Multicore => 0x3c04_e5ed,
        }
    }

    /// The specs of one figure regeneration, in the order it runs them.
    pub fn ops(self, seed: u64, scale: &Scale) -> Vec<Op> {
        let mut seeds = SplitMix64::new(seed ^ self.salt());
        let sim = scale.sim;
        let system = SystemConfig::default();
        let mut ops = Vec::new();
        match self {
            Workload::ServerDetail => {
                for i in 0..scale.server_configs {
                    let cfg = ServerWorkloadConfig::qmm_like(format!("srv{i}"), seeds.next_u64());
                    for (kind, role) in [
                        (PrefetcherKind::None, Role::Baseline),
                        (PrefetcherKind::Morrigan, Role::Morrigan),
                    ] {
                        ops.push(Op {
                            spec: RunSpec::server(&cfg, system, sim, kind),
                            role,
                        });
                    }
                }
                // Colocated the way `suites::smt_pairs` colocates: the
                // second thread's regions move above bit 30.
                let first = ServerWorkloadConfig::qmm_like("smt0", seeds.next_u64());
                let mut second = ServerWorkloadConfig::qmm_like("smt0+smt1", seeds.next_u64());
                second.code_base = VirtPage::new(second.code_base.raw() | 1 << 30);
                second.data_base = VirtPage::new(second.data_base.raw() | 1 << 30);
                let pair = (first, second);
                for (kind, role) in [
                    (PrefetcherKind::None, Role::SmtBaseline),
                    (PrefetcherKind::Morrigan, Role::SmtMorrigan),
                ] {
                    ops.push(Op {
                        spec: RunSpec::smt(&pair, system, sim, kind),
                        role,
                    });
                }
            }
            Workload::SpecSampled => {
                let mut taken = [0usize; SPEC_STRIDES.len()];
                let mut n = 0;
                while taken.iter().any(|&t| t < scale.spec_per_stride) {
                    let cfg = SpecWorkloadConfig::spec_like(format!("spec{n}"), seeds.next_u64());
                    n += 1;
                    let stratum = SPEC_STRIDES
                        .iter()
                        .position(|&s| s == cfg.data_stride)
                        .expect("spec_like draws its stride from SPEC_STRIDES");
                    if taken[stratum] == scale.spec_per_stride {
                        continue;
                    }
                    taken[stratum] += 1;
                    let mut spec = RunSpec::spec_cpu(&cfg, system, sim, PrefetcherKind::Morrigan);
                    spec.sampling = Some(SamplingConfig::default_schedule());
                    ops.push(Op {
                        spec,
                        role: Role::Morrigan,
                    });
                }
            }
            Workload::Multicore => {
                let mixes = (0..scale.cores)
                    .map(|c| {
                        (0..scale.tenants)
                            .map(|t| {
                                ServerWorkloadConfig::qmm_like(
                                    format!("c{c}t{t}"),
                                    seeds.next_u64(),
                                )
                            })
                            .collect()
                    })
                    .collect();
                let system = SystemConfig {
                    topology: TopologyConfig {
                        cores: scale.cores,
                        shared_stlb: true,
                        llc_shards: 4,
                        shootdown_interval: Some(SHOOTDOWN_INTERVAL),
                    },
                    ..system
                };
                ops.push(Op {
                    spec: RunSpec::multi(
                        mixes,
                        SCHEDULE_QUANTUM,
                        system,
                        sim,
                        PrefetcherKind::Morrigan,
                    ),
                    role: Role::Machine,
                });
            }
        }
        ops
    }
}

/// The same spec without prefetching: the ledger's cost baseline for
/// workloads that carry no baseline spec of their own.
pub fn without_prefetcher(spec: &RunSpec) -> RunSpec {
    RunSpec {
        prefetcher: PrefetcherKind::None.into(),
        ..spec.clone()
    }
}

/// The same spec run the other way: sampled if it was full detail, full
/// detail if it was sampled.
pub fn flip_sampling(spec: &RunSpec) -> RunSpec {
    RunSpec {
        sampling: match spec.sampling {
            Some(_) => None,
            None => Some(SamplingConfig::default_schedule()),
        },
        ..spec.clone()
    }
}

/// Instructions `spec` runs under detailed timing (the rest fast-forward).
pub fn detail_fraction(spec: &RunSpec) -> f64 {
    spec.sampling.map_or(1.0, |s| s.detail_fraction())
}

/// A member stream of a spec: the generator config, and for servers the
/// ASID the stream is wrapped in (0 when it is not wrapped).
pub enum Member {
    Server(ServerWorkloadConfig, u16),
    Spec(SpecWorkloadConfig),
}

impl Member {
    /// Identifies the stream's content (configs render losslessly).
    pub fn key(&self) -> String {
        match self {
            Member::Server(cfg, asid) => format!("{cfg:?}#asid={asid}"),
            Member::Spec(cfg) => format!("{cfg:?}"),
        }
    }

    pub fn name(&self) -> String {
        match self {
            Member::Server(cfg, asid) => format!("{} asid {asid}", cfg.name),
            Member::Spec(cfg) => cfg.name.clone(),
        }
    }

    /// A live generator of the stream.
    pub fn build(&self) -> Box<dyn InstructionStream> {
        match self {
            Member::Server(cfg, 0) => Box::new(ServerWorkload::new(cfg.clone())),
            Member::Server(cfg, asid) => {
                Box::new(AsidStream::new(ServerWorkload::new(cfg.clone()), *asid))
            }
            Member::Spec(cfg) => Box::new(SpecWorkload::new(cfg.clone())),
        }
    }
}

/// A spec's member streams, with ASIDs assigned the way the runner
/// assigns them (1, 2, ... in (core, tenant) order on a machine).
pub fn members(spec: &RunSpec) -> Vec<Member> {
    match &spec.workload {
        WorkloadSpec::Server(cfg) => vec![Member::Server(cfg.clone(), 0)],
        WorkloadSpec::Spec(cfg) => vec![Member::Spec(cfg.clone())],
        WorkloadSpec::Smt(cfgs) => cfgs.iter().map(|c| Member::Server(c.clone(), 0)).collect(),
        WorkloadSpec::Multi { mixes, .. } => mixes
            .iter()
            .flatten()
            .zip(1u16..)
            .map(|(c, asid)| Member::Server(c.clone(), asid))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changing_the_seed_changes_the_configs() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            let a: Vec<String> = w
                .ops(1, &scale)
                .iter()
                .map(|o| o.spec.content_key())
                .collect();
            let again: Vec<String> = w
                .ops(1, &scale)
                .iter()
                .map(|o| o.spec.content_key())
                .collect();
            let b: Vec<String> = w
                .ops(2, &scale)
                .iter()
                .map(|o| o.spec.content_key())
                .collect();
            assert_eq!(
                a,
                again,
                "{}: the same seed must give the same specs",
                w.name()
            );
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x != y),
                "{}: every spec must change with the seed",
                w.name()
            );
        }
    }

    #[test]
    fn spec_sampled_takes_every_stride_equally() {
        let scale = Scale::figure();
        let ops = Workload::SpecSampled.ops(7, &scale);
        assert_eq!(ops.len(), SPEC_STRIDES.len() * scale.spec_per_stride);
        for stride in SPEC_STRIDES {
            let n = ops
                .iter()
                .filter(|o| matches!(&o.spec.workload, WorkloadSpec::Spec(c) if c.data_stride == stride))
                .count();
            assert_eq!(n, scale.spec_per_stride, "stride {stride}");
        }
    }
}
