//! What one pass runs: a list of members, each a way to build launches
//! on a fresh `Gpu` plus the verdict the detector must reach on it.

use barracuda::BinaryKind;
use gpu_sim::asm::KernelBuilder;
use gpu_sim::ir::Special;
use gpu_sim::kernel::Kernel;
use gpu_sim::machine::Gpu;
use iguard::IguardConfig;
use workloads::{Launch, Size, Workload};

use crate::spec::{self, Kind};

/// The reference a member's site count is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Exactly(usize),
    NonEmpty,
}

impl Expect {
    pub fn holds(self, sites: usize) -> bool {
        match self {
            Expect::Exactly(n) => sites == n,
            Expect::NonEmpty => sites > 0,
        }
    }
}

/// Allocates and initialises the member's buffers on `gpu` and returns
/// its launches with the detector configuration to run them under.
type Build = Box<dyn Fn(&mut Gpu) -> (Vec<Launch>, IguardConfig)>;

pub struct Member {
    pub name: String,
    pub build: Build,
    pub expect: Expect,
    /// How the member is packaged, for Barracuda's front-end gate. `None`
    /// keeps the baseline arm off the member: its happens-before state
    /// grows with the square of the thread count (16 GB and rising at
    /// 128 Ki threads), so it runs on the zoo's grids only.
    pub baseline: Option<BinaryKind>,
}

fn zoo_member(name: &str) -> Workload {
    workloads::by_name(name).unwrap_or_else(|| panic!("`{name}` is not in the workload zoo"))
}

/// Zoo members at `Size::Bench`. At the paper's seed a racey member must
/// report exactly `paper_races` sites; at any other seed the schedule
/// differs, so it must report some, and a clean member always none.
pub fn zoo(names: &[&str], seed: u64) -> Vec<Member> {
    names
        .iter()
        .map(|name| {
            let w = zoo_member(name);
            let expect = if w.paper_races == 0 || seed == spec::PAPER_SEED {
                Expect::Exactly(w.paper_races)
            } else {
                Expect::NonEmpty
            };
            Member {
                name: (*name).to_string(),
                build: Box::new(move |gpu| (w.build(gpu, Size::Bench), IguardConfig::default())),
                expect,
                baseline: Some(if w.multi_file {
                    BinaryKind::MultiFile
                } else {
                    BinaryKind::SingleFile
                }),
            }
        })
        .collect()
}

/// One pass of the stencil: `dst[g + 1] = (src[g] + src[g + 1] + src[g + 2]) * 2 / 7`.
fn stencil_pass(name: &str) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let src = b.param(0);
    let dst = b.param(1);
    let g = b.special(Special::GlobalTid);
    let off = b.mul(g, 4u32);
    let sa = b.add(src, off);
    let v0 = b.ld(sa, 0);
    let v1 = b.ld(sa, 1);
    let v2 = b.ld(sa, 2);
    let s01 = b.add(v0, v1);
    let s = b.add(s01, v2);
    let scaled = b.mul(s, 2u32);
    let result = b.div(scaled, 7u32);
    let da = b.add(dst, off);
    b.st(da, 1, result);
    b.build()
}

/// The benchmark's own race-free double-buffered 3-point stencil
/// (hotspot's pattern: 4 accesses per thread, two launches ordered by
/// the kernel boundary) at each rung of the thread ladder.
pub fn ladder() -> Vec<Member> {
    spec::LADDER_THREADS
        .iter()
        .map(|&threads| Member {
            name: format!("stencil-{}Ki", threads >> 10),
            build: Box::new(move |gpu| {
                let n = threads as usize + 2;
                let a = gpu.alloc(n).expect("stencil buffer a fits");
                let b = gpu.alloc(n).expect("stencil buffer b fits");
                for i in 0..n {
                    gpu.write(a, i, (i % 17) as u32 + 1);
                }
                let launch = |name: &str, params: Vec<u32>| Launch {
                    kernel: stencil_pass(name),
                    grid: threads / spec::LADDER_BLOCK,
                    block: spec::LADDER_BLOCK,
                    params,
                };
                (
                    vec![
                        launch("stencil_pass1", vec![a, b]),
                        launch("stencil_pass2", vec![b, a]),
                    ],
                    IguardConfig::default(),
                )
            }),
            expect: Expect::Exactly(0),
            baseline: None,
        })
        .collect()
}

/// fig14's d_reduce with its buffers logically inflated to each
/// footprint: `alloc_logical` claims the footprint and `addr_scale`
/// spreads the metadata touches over it.
pub fn footprints() -> Vec<Member> {
    let w = zoo_member("d_reduce");
    spec::FOOTPRINTS_GB
        .iter()
        .map(|&gb| Member {
            name: format!("d_reduce-{gb}GB"),
            build: Box::new(move |gpu| {
                let footprint = gb << 30;
                let before = gpu.allocated_bytes();
                let launches = w.build(gpu, Size::Bench);
                let backing = gpu.allocated_bytes() - before;
                gpu.alloc_logical(16, footprint.saturating_sub(gpu.allocated_bytes()))
                    .expect("logical footprint fits the device");
                let mut cfg = IguardConfig::default();
                cfg.addr_scale = (footprint / backing.max(1)).max(1);
                (launches, cfg)
            }),
            expect: Expect::Exactly(0),
            baseline: None,
        })
        .collect()
}

pub fn for_workload(kind: Kind, seed: u64) -> Vec<Member> {
    match kind {
        Kind::Zoo(names) => zoo(names, seed),
        Kind::Ladder => ladder(),
        Kind::Footprints => footprints(),
        Kind::Service { .. } => panic!("a service workload has jobs, not members"),
    }
}
