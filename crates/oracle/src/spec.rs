//! The oracle's one spec language: tiny multi-actor kernels over four
//! shared words, with an optional final-state assertion.
//!
//! A [`Spec`] describes a kernel the oracle can reason about
//! exhaustively:
//!
//! - **2–4 actors**, each a straight-line sequence of operations over
//!   **named shared locations** `x`, `y`, `z`, `u` (slots 0–3 of the
//!   oracle pool);
//! - plain loads/stores, scoped `atomicAdd`/`atomicExch` RMWs, scoped
//!   fences, and (same-warp only) aligned barriers;
//! - an optional **final-state assertion clause**: a conjunction of
//!   per-actor register conditions (`1:r0=1` — actor 1's first plain
//!   load observed 1) and final-memory conditions (`[x]=1`).
//!
//! Compact form (`v2;` header, actors `/`-separated, assertion after
//! `;?`, conditions `&`-joined):
//!
//! ```text
//! v2;CB;Sx/Lx                               # cross-block store/load race
//! v2;SW;Sx.w/w.Lx                           # same-warp, barrier-ordered
//! v2;CB;Sx.fD.Sy/Ly.Lx;?1:r0=1&1:r1=0       # message passing (MP)
//! v2;CB;Sx/Sy/Lx.Ly/Ly.Lx                   # IRIW, no assertion
//! ```
//!
//! Two generators draw from the language: [`Spec::random_race`], the
//! two-actor, assertion-free stream `fuzz` diffs (Table 4's race classes),
//! and [`Spec::random_litmus`], the 2–4-actor stream with assertions that
//! `fuzz --litmus` diffs on the weak machine.
//!
//! The family is deliberately narrow so that three properties hold:
//!
//! 1. **No passenger lanes.** Every thread of the launch is an actor
//!    (`SW` uses one block of `n` lanes, `CB` uses `n` one-thread
//!    blocks), so the schedule space is exactly the interleavings of the
//!    actors' instruction sequences.
//! 2. **Schedule-independent control flow.** Branches depend only on
//!    `tid`/`blockIdx`, never on loaded data, so the k-th dynamic access
//!    of a thread is the *same static operation* in every schedule —
//!    which is what lets the oracle identify access instances across
//!    schedules and decide race-ness by order variance.
//! 3. **Single-lane memory operations.** All global accesses happen
//!    inside per-actor regions, after divergence, so coalescing and
//!    same-split simultaneity never muddy the observed order.
//!
//! Parsing never panics: every malformed input maps to a typed
//! [`SpecError`]. The classic MP/SB/LB/IRIW/WRC shapes have constructors
//! ([`Spec::mp`] etc.) parameterized on fence scope.

use std::fmt;

use gpu_sim::ir::Scope;
use gpu_sim::kernel::Kernel;
use gpu_sim::prelude::{KernelBuilder, Special};
use rand::rngs::SmallRng;
use rand::RngExt;

/// Number of 4-byte slots in the shared address pool.
pub const NUM_SLOTS: u8 = 4;

/// Inclusive actor-count bounds of the language.
pub const MIN_ACTORS: usize = 2;
pub const MAX_ACTORS: usize = 4;

/// Location names, in slot order: `x`→slot 0 … `u`→slot 3.
pub const LOC_NAMES: [char; NUM_SLOTS as usize] = ['x', 'y', 'z', 'u'];

fn loc_name(loc: u8) -> char {
    LOC_NAMES[loc as usize]
}

fn loc_of(c: char) -> Option<u8> {
    LOC_NAMES.iter().position(|&n| n == c).map(|i| i as u8)
}

/// Where the actors live relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The actors are lanes of one warp (`grid=1, block=n`); races here
    /// are intra-warp ITS races, the paper's headline class.
    SameWarp,
    /// The actors are the sole threads of `n` different blocks
    /// (`grid=n, block=1`); races here are inter-block (DR) or
    /// insufficient-atomic-scope (AS) races.
    CrossBlock,
}

/// One operation of an actor. Stores and exchanges write the constant 1
/// (litmus tests distinguish "saw the write" from "didn't", not which of
/// several values arrived), `atomicAdd` adds 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Plain global load of a location (`Lx`).
    Load { loc: u8 },
    /// Plain global store of 1 (`Sx`).
    Store { loc: u8 },
    /// `atomicAdd(&loc, 1)` at the given scope (`aBx` / `aDx`).
    AtomicAdd { loc: u8, scope: Scope },
    /// `atomicExch(&loc, 1)` at the given scope (`eBx` / `eDx`).
    AtomicExch { loc: u8, scope: Scope },
    /// `__threadfence[_block]()` (`fB` / `fD`).
    Fence { scope: Scope },
    /// `__syncwarp()` (`w`; same-warp placement only).
    SyncWarp,
    /// `__syncthreads()` (`t`; same-warp placement only).
    SyncThreads,
}

impl Op {
    fn token(self) -> String {
        let sc = |s: Scope| if s == Scope::Block { 'B' } else { 'D' };
        match self {
            Op::Load { loc } => format!("L{}", loc_name(loc)),
            Op::Store { loc } => format!("S{}", loc_name(loc)),
            Op::AtomicAdd { loc, scope } => format!("a{}{}", sc(scope), loc_name(loc)),
            Op::AtomicExch { loc, scope } => format!("e{}{}", sc(scope), loc_name(loc)),
            Op::Fence { scope } => format!("f{}", sc(scope)),
            Op::SyncWarp => "w".into(),
            Op::SyncThreads => "t".into(),
        }
    }

    fn parse(tok: &str) -> Result<Op, SpecError> {
        let loc_arg = |rest: &str| -> Result<u8, SpecError> {
            let mut chars = rest.chars();
            match (chars.next().and_then(loc_of), chars.next()) {
                (Some(loc), None) => Ok(loc),
                _ => Err(SpecError::UnknownLocation {
                    token: tok.to_string(),
                }),
            }
        };
        match tok {
            "w" => Ok(Op::SyncWarp),
            "t" => Ok(Op::SyncThreads),
            "fB" => Ok(Op::Fence {
                scope: Scope::Block,
            }),
            "fD" => Ok(Op::Fence {
                scope: Scope::Device,
            }),
            _ if tok.starts_with("aB") => Ok(Op::AtomicAdd {
                loc: loc_arg(&tok[2..])?,
                scope: Scope::Block,
            }),
            _ if tok.starts_with("aD") => Ok(Op::AtomicAdd {
                loc: loc_arg(&tok[2..])?,
                scope: Scope::Device,
            }),
            _ if tok.starts_with("eB") => Ok(Op::AtomicExch {
                loc: loc_arg(&tok[2..])?,
                scope: Scope::Block,
            }),
            _ if tok.starts_with("eD") => Ok(Op::AtomicExch {
                loc: loc_arg(&tok[2..])?,
                scope: Scope::Device,
            }),
            _ if tok.starts_with('L') => Ok(Op::Load {
                loc: loc_arg(&tok[1..])?,
            }),
            _ if tok.starts_with('S') => Ok(Op::Store {
                loc: loc_arg(&tok[1..])?,
            }),
            _ => Err(SpecError::UnknownOp {
                token: tok.to_string(),
            }),
        }
    }

    /// Whether this op writes a location.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Op::Store { .. } | Op::AtomicAdd { .. } | Op::AtomicExch { .. }
        )
    }
}

/// One conjunct of the final-state assertion clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// The `load`-th plain load of `actor` observed `value` (`0:r1=1`).
    Reg { actor: u8, load: u8, value: u32 },
    /// The location holds `value` in the final coherent memory (`[x]=1`).
    Mem { loc: u8, value: u32 },
}

impl Cond {
    fn token(self) -> String {
        match self {
            Cond::Reg { actor, load, value } => format!("{actor}:r{load}={value}"),
            Cond::Mem { loc, value } => format!("[{}]={value}", loc_name(loc)),
        }
    }
}

/// Typed parse/validation error. Every malformed input is one of these —
/// no panicking parse paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Input does not start with the `v2;` version tag.
    Version { found: String },
    /// Header structure (placement / actors segments) is missing.
    Header { found: String },
    /// Placement is neither `CB` nor `SW`.
    Placement { found: String },
    /// Actor count outside `MIN_ACTORS..=MAX_ACTORS`.
    ActorCount { count: usize },
    /// An actor has no operations.
    EmptyActor { actor: usize },
    /// Unrecognized operation token.
    UnknownOp { token: String },
    /// Operation names no known location (`x`/`y`/`z`/`u`).
    UnknownLocation { token: String },
    /// `w`/`t` barrier in a cross-block spec (meaningless there: each
    /// block is a single thread that releases its own barrier instantly).
    BarrierUnderCrossBlock { token: String },
    /// Assertion clause is syntactically malformed.
    Assertion { clause: String },
    /// Assertion condition names a nonexistent actor.
    ActorRef { actor: usize, actors: usize },
    /// Assertion condition names a plain-load ordinal the actor never
    /// executes.
    LoadRef {
        actor: usize,
        load: usize,
        loads: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Version { found } => write!(f, "unknown spec version in {found:?}"),
            SpecError::Header { found } => write!(f, "bad spec header in {found:?}"),
            SpecError::Placement { found } => write!(f, "unknown placement {found:?}"),
            SpecError::ActorCount { count } => {
                write!(f, "actor count {count} outside {MIN_ACTORS}..={MAX_ACTORS}")
            }
            SpecError::EmptyActor { actor } => write!(f, "actor {actor} has no ops"),
            SpecError::UnknownOp { token } => write!(f, "unknown op token {token:?}"),
            SpecError::UnknownLocation { token } => {
                write!(f, "unknown location in op {token:?}")
            }
            SpecError::BarrierUnderCrossBlock { token } => {
                write!(f, "barrier {token:?} is meaningless under CB placement")
            }
            SpecError::Assertion { clause } => write!(f, "bad assertion clause {clause:?}"),
            SpecError::ActorRef { actor, actors } => {
                write!(f, "assertion names actor {actor} of {actors}")
            }
            SpecError::LoadRef { actor, load, loads } => write!(
                f,
                "assertion names load r{load} of actor {actor}, which has {loads} loads"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A multi-actor kernel, fully describing what the oracle explores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub placement: Placement,
    /// 2–4 actors' operation sequences.
    pub actors: Vec<Vec<Op>>,
    /// Conjunction of final-state conditions; empty = no assertion.
    pub assertion: Vec<Cond>,
}

impl Spec {
    /// `(grid_dim, block_dim)`: one single-thread block per actor under
    /// `CB` (each block lands on its own SM in the oracle GPU config), or
    /// one block whose lanes are the actors under `SW`.
    #[must_use]
    pub fn grid_block(&self) -> (u32, u32) {
        let n = self.actors.len() as u32;
        match self.placement {
            Placement::SameWarp => (1, n),
            Placement::CrossBlock => (n, 1),
        }
    }

    /// Whether any actor contains a fence (the detectors model fences as
    /// release-side approximations, so fence kernels can produce
    /// *explained* divergences).
    #[must_use]
    pub fn has_fence(&self) -> bool {
        self.actors
            .iter()
            .flatten()
            .any(|o| matches!(o, Op::Fence { .. }))
    }

    /// Number of plain loads actor `a` executes (the `r0..` register file
    /// the assertion clause can name).
    #[must_use]
    pub fn num_loads(&self, a: usize) -> usize {
        self.actors[a]
            .iter()
            .filter(|o| matches!(o, Op::Load { .. }))
            .count()
    }

    /// Structural validity check backing [`Spec::parse`]; also used on
    /// programmatically built specs before exploration.
    pub fn validate(&self) -> Result<(), SpecError> {
        let n = self.actors.len();
        if !(MIN_ACTORS..=MAX_ACTORS).contains(&n) {
            return Err(SpecError::ActorCount { count: n });
        }
        for (i, ops) in self.actors.iter().enumerate() {
            if ops.is_empty() {
                return Err(SpecError::EmptyActor { actor: i });
            }
            if self.placement == Placement::CrossBlock {
                if let Some(bar) = ops
                    .iter()
                    .find(|o| matches!(o, Op::SyncWarp | Op::SyncThreads))
                {
                    return Err(SpecError::BarrierUnderCrossBlock { token: bar.token() });
                }
            }
        }
        for c in &self.assertion {
            if let Cond::Reg { actor, load, .. } = *c {
                let (actor, load) = (actor as usize, load as usize);
                if actor >= n {
                    return Err(SpecError::ActorRef { actor, actors: n });
                }
                let loads = self.num_loads(actor);
                if load >= loads {
                    return Err(SpecError::LoadRef { actor, load, loads });
                }
            }
        }
        Ok(())
    }

    /// Serializes to the versioned single-line form, e.g.
    /// `v2;CB;Sx.fD.Sy/Ly.Lx;?1:r0=1&1:r1=0`.
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let place = match self.placement {
            Placement::SameWarp => "SW",
            Placement::CrossBlock => "CB",
        };
        let actors = self
            .actors
            .iter()
            .map(|ops| ops.iter().map(|o| o.token()).collect::<Vec<_>>().join("."))
            .collect::<Vec<_>>()
            .join("/");
        let mut s = format!("v2;{place};{actors}");
        if !self.assertion.is_empty() {
            s.push_str(";?");
            s.push_str(
                &self
                    .assertion
                    .iter()
                    .map(|c| c.token())
                    .collect::<Vec<_>>()
                    .join("&"),
            );
        }
        s
    }

    /// Parses the form produced by [`Spec::to_compact_string`].
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let rest = s.strip_prefix("v2;").ok_or_else(|| SpecError::Version {
            found: s.to_string(),
        })?;
        let mut segs = rest.splitn(3, ';');
        let place = segs.next().unwrap_or_default();
        let body = segs.next().ok_or_else(|| SpecError::Header {
            found: s.to_string(),
        })?;
        let placement = match place {
            "SW" => Placement::SameWarp,
            "CB" => Placement::CrossBlock,
            other => {
                return Err(SpecError::Placement {
                    found: other.to_string(),
                })
            }
        };
        let actors: Vec<Vec<Op>> = body
            .split('/')
            .map(|part| {
                if part.is_empty() {
                    Ok(Vec::new())
                } else {
                    part.split('.').map(Op::parse).collect()
                }
            })
            .collect::<Result<_, _>>()?;
        let assertion = match segs.next() {
            None => Vec::new(),
            Some(a) => {
                let conds = a.strip_prefix('?').ok_or_else(|| SpecError::Assertion {
                    clause: a.to_string(),
                })?;
                conds
                    .split('&')
                    .map(Self::parse_cond)
                    .collect::<Result<_, _>>()?
            }
        };
        let spec = Spec {
            placement,
            actors,
            assertion,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn parse_cond(clause: &str) -> Result<Cond, SpecError> {
        let bad = || SpecError::Assertion {
            clause: clause.to_string(),
        };
        let (lhs, value) = clause.split_once('=').ok_or_else(bad)?;
        let value: u32 = value.parse().map_err(|_| bad())?;
        if let Some(loc_part) = lhs.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let mut chars = loc_part.chars();
            let loc = match (chars.next().and_then(loc_of), chars.next()) {
                (Some(l), None) => l,
                _ => return Err(bad()),
            };
            return Ok(Cond::Mem { loc, value });
        }
        let (actor, reg) = lhs.split_once(':').ok_or_else(bad)?;
        let actor: u8 = actor.parse().map_err(|_| bad())?;
        let load: u8 = reg
            .strip_prefix('r')
            .ok_or_else(bad)?
            .parse()
            .map_err(|_| bad())?;
        Ok(Cond::Reg { actor, load, value })
    }

    /// Builds the kernel: a chain of `eq`/`bra_ifnot` dispatches on the
    /// actor id (`tid` under `SW`, `blockIdx` under `CB`) into per-actor
    /// straight-line regions that each end in `exit`.
    #[must_use]
    pub fn build(&self) -> Kernel {
        let mut b = KernelBuilder::new("oracle_gen");
        let base = b.param(0);
        let id = match self.placement {
            Placement::SameWarp => b.special(Special::Tid),
            Placement::CrossBlock => b.special(Special::BlockId),
        };
        let n = self.actors.len();
        for (a, ops) in self.actors.iter().enumerate() {
            if a + 1 == n {
                // Last actor is the fallthrough of the dispatch chain.
                Self::emit_region(&mut b, base, ops);
            } else {
                let is_a = b.eq(id, a as u32);
                let skip = b.fwd_label();
                b.bra_ifnot(is_a, skip);
                Self::emit_region(&mut b, base, ops);
                b.bind(skip);
            }
        }
        b.build()
    }

    fn emit_region(b: &mut KernelBuilder, base: gpu_sim::ir::Reg, ops: &[Op]) {
        let src = ops.iter().any(|o| o.is_write()).then(|| b.imm(1));
        for op in ops {
            match *op {
                Op::Load { loc } => {
                    let _ = b.ld(base, i32::from(loc));
                }
                Op::Store { loc } => b.st(base, i32::from(loc), src.unwrap()),
                Op::AtomicAdd { loc, scope } => {
                    let _ = b.atomic_add(scope, base, i32::from(loc), src.unwrap());
                }
                Op::AtomicExch { loc, scope } => {
                    let _ = b.atomic_exch(scope, base, i32::from(loc), src.unwrap());
                }
                Op::Fence { scope } => b.membar(scope),
                Op::SyncWarp => b.syncwarp(),
                Op::SyncThreads => b.syncthreads(),
            }
        }
        b.exit();
    }

    /// Instructions each actor executes, dispatch prologue included — for
    /// cross-block specs, the sequence lengths whose interleaving count is
    /// the full (non-POR) schedule-space size.
    #[cfg(test)]
    pub(crate) fn path_lengths(&self) -> Vec<usize> {
        let n = self.actors.len();
        self.actors
            .iter()
            .enumerate()
            .map(|(a, ops)| {
                // param + special, then one eq + bra_ifnot per dispatch
                // test this actor passes through.
                let prologue = 2 + 2 * (a + 1).min(n - 1);
                let src = usize::from(ops.iter().any(|o| o.is_write()));
                prologue + src + ops.len() + 1 // + exit
            })
            .collect()
    }

    // ----- classic shapes ---------------------------------------------
    //
    // Locations: x = slot 0, y = slot 1. `fence` inserts a scoped fence at
    // the canonical position of each actor (between the two accesses);
    // `None` gives the plain variant.

    fn f(fence: Option<Scope>) -> Vec<Op> {
        fence.map(|scope| Op::Fence { scope }).into_iter().collect()
    }

    /// Message passing: `Sx [f] Sy / Ly [f] Lx`, forbidden outcome
    /// "saw the flag, missed the data" (`1:r0=1 & 1:r1=0`).
    #[must_use]
    pub fn mp(placement: Placement, fence: Option<Scope>) -> Spec {
        let mut a0 = vec![Op::Store { loc: 0 }];
        a0.extend(Self::f(fence));
        a0.push(Op::Store { loc: 1 });
        let mut a1 = vec![Op::Load { loc: 1 }];
        a1.extend(Self::f(fence));
        a1.push(Op::Load { loc: 0 });
        Spec {
            placement,
            actors: vec![a0, a1],
            assertion: vec![
                Cond::Reg {
                    actor: 1,
                    load: 0,
                    value: 1,
                },
                Cond::Reg {
                    actor: 1,
                    load: 1,
                    value: 0,
                },
            ],
        }
    }

    /// Store buffering: `Sx [f] Ly / Sy [f] Lx`, forbidden outcome "both
    /// loads miss" (`0:r0=0 & 1:r0=0`).
    #[must_use]
    pub fn sb(placement: Placement, fence: Option<Scope>) -> Spec {
        let mut a0 = vec![Op::Store { loc: 0 }];
        a0.extend(Self::f(fence));
        a0.push(Op::Load { loc: 1 });
        let mut a1 = vec![Op::Store { loc: 1 }];
        a1.extend(Self::f(fence));
        a1.push(Op::Load { loc: 0 });
        Spec {
            placement,
            actors: vec![a0, a1],
            assertion: vec![
                Cond::Reg {
                    actor: 0,
                    load: 0,
                    value: 0,
                },
                Cond::Reg {
                    actor: 1,
                    load: 0,
                    value: 0,
                },
            ],
        }
    }

    /// Load buffering: `Lx [f] Sy / Ly [f] Sx`, forbidden outcome "both
    /// loads see the other's future store" (`0:r0=1 & 1:r0=1`).
    #[must_use]
    pub fn lb(placement: Placement, fence: Option<Scope>) -> Spec {
        let mut a0 = vec![Op::Load { loc: 0 }];
        a0.extend(Self::f(fence));
        a0.push(Op::Store { loc: 1 });
        let mut a1 = vec![Op::Load { loc: 1 }];
        a1.extend(Self::f(fence));
        a1.push(Op::Store { loc: 0 });
        Spec {
            placement,
            actors: vec![a0, a1],
            assertion: vec![
                Cond::Reg {
                    actor: 0,
                    load: 0,
                    value: 1,
                },
                Cond::Reg {
                    actor: 1,
                    load: 0,
                    value: 1,
                },
            ],
        }
    }

    /// Independent reads of independent writes: `Sx / Sy / Lx [f] Ly /
    /// Ly [f] Lx`, forbidden outcome "the two readers disagree on the
    /// write order" (`2:r0=1 & 2:r1=0 & 3:r0=1 & 3:r1=0`).
    #[must_use]
    pub fn iriw(placement: Placement, fence: Option<Scope>) -> Spec {
        let mut a2 = vec![Op::Load { loc: 0 }];
        a2.extend(Self::f(fence));
        a2.push(Op::Load { loc: 1 });
        let mut a3 = vec![Op::Load { loc: 1 }];
        a3.extend(Self::f(fence));
        a3.push(Op::Load { loc: 0 });
        Spec {
            placement,
            actors: vec![
                vec![Op::Store { loc: 0 }],
                vec![Op::Store { loc: 1 }],
                a2,
                a3,
            ],
            assertion: vec![
                Cond::Reg {
                    actor: 2,
                    load: 0,
                    value: 1,
                },
                Cond::Reg {
                    actor: 2,
                    load: 1,
                    value: 0,
                },
                Cond::Reg {
                    actor: 3,
                    load: 0,
                    value: 1,
                },
                Cond::Reg {
                    actor: 3,
                    load: 1,
                    value: 0,
                },
            ],
        }
    }

    /// Write-read causality: `Sx / Lx [f] Sy / Ly [f] Lx`, forbidden
    /// outcome "causality chain observed, origin missed"
    /// (`1:r0=1 & 2:r0=1 & 2:r1=0`).
    #[must_use]
    pub fn wrc(placement: Placement, fence: Option<Scope>) -> Spec {
        let mut a1 = vec![Op::Load { loc: 0 }];
        a1.extend(Self::f(fence));
        a1.push(Op::Store { loc: 1 });
        let mut a2 = vec![Op::Load { loc: 1 }];
        a2.extend(Self::f(fence));
        a2.push(Op::Load { loc: 0 });
        Spec {
            placement,
            actors: vec![vec![Op::Store { loc: 0 }], a1, a2],
            assertion: vec![
                Cond::Reg {
                    actor: 1,
                    load: 0,
                    value: 1,
                },
                Cond::Reg {
                    actor: 2,
                    load: 0,
                    value: 1,
                },
                Cond::Reg {
                    actor: 2,
                    load: 1,
                    value: 0,
                },
            ],
        }
    }

    // ----- generators -------------------------------------------------

    /// Draws a two-actor race spec with no assertion — the `fuzz` stream.
    /// Operation mix: mostly plain loads/stores with occasional scoped
    /// `atomicAdd`s and (rarely) fences; same-warp specs get an aligned
    /// barrier pair about half the time, which is what produces genuinely
    /// clean synchronized kernels.
    #[must_use]
    pub fn random_race(rng: &mut SmallRng) -> Self {
        let placement = if rng.random_bool(0.5) {
            Placement::SameWarp
        } else {
            Placement::CrossBlock
        };
        let mut actors = vec![Vec::new(), Vec::new()];
        for ops in &mut actors {
            let k = rng.random_range(1usize..=3);
            for _ in 0..k {
                let loc = rng.random_range(0..NUM_SLOTS);
                let roll = rng.random_range(0u32..100);
                ops.push(match roll {
                    0..=37 => Op::Load { loc },
                    38..=75 => Op::Store { loc },
                    76..=86 => Op::AtomicAdd {
                        loc,
                        scope: Scope::Block,
                    },
                    87..=94 => Op::AtomicAdd {
                        loc,
                        scope: Scope::Device,
                    },
                    _ => Op::Fence {
                        scope: if roll >= 98 {
                            Scope::Block
                        } else {
                            Scope::Device
                        },
                    },
                });
            }
        }
        let mut spec = Spec {
            placement,
            actors,
            assertion: Vec::new(),
        };
        if placement == Placement::SameWarp && rng.random_bool(0.5) {
            spec.insert_aligned_barrier(rng);
        }
        spec
    }

    /// Draws a litmus spec — the `fuzz --litmus` stream: 2–4 actors, 1–3 ops
    /// each, mostly plain loads/stores with occasional RMWs and fences;
    /// about half the specs carry an assertion over their loads/locations.
    #[must_use]
    pub fn random_litmus(rng: &mut SmallRng) -> Self {
        let placement = if rng.random_bool(0.3) {
            Placement::SameWarp
        } else {
            Placement::CrossBlock
        };
        let n = rng.random_range(MIN_ACTORS..=MAX_ACTORS);
        let mut actors = Vec::with_capacity(n);
        for _ in 0..n {
            let k = rng.random_range(1usize..=3);
            let mut ops = Vec::with_capacity(k);
            for _ in 0..k {
                let loc = rng.random_range(0..NUM_SLOTS);
                let scope = if rng.random_bool(0.5) {
                    Scope::Block
                } else {
                    Scope::Device
                };
                let roll = rng.random_range(0u32..100);
                ops.push(match roll {
                    0..=39 => Op::Load { loc },
                    40..=77 => Op::Store { loc },
                    78..=85 => Op::AtomicAdd { loc, scope },
                    86..=91 => Op::AtomicExch { loc, scope },
                    _ => Op::Fence { scope },
                });
            }
            actors.push(ops);
        }
        let mut spec = Spec {
            placement,
            actors,
            assertion: Vec::new(),
        };
        if placement == Placement::SameWarp && rng.random_bool(0.4) {
            spec.insert_aligned_barrier(rng);
        }
        if rng.random_bool(0.5) {
            let conds = rng.random_range(1usize..=2);
            for _ in 0..conds {
                let cond = if rng.random_bool(0.3) {
                    Cond::Mem {
                        loc: rng.random_range(0..NUM_SLOTS),
                        value: u32::from(rng.random_bool(0.5)),
                    }
                } else {
                    // Pick a random existing load, if any actor has one.
                    let with_loads: Vec<usize> = (0..spec.actors.len())
                        .filter(|&a| spec.num_loads(a) > 0)
                        .collect();
                    match with_loads.as_slice() {
                        [] => continue,
                        choices => {
                            let a = choices[rng.random_range(0..choices.len())];
                            let load = rng.random_range(0..spec.num_loads(a));
                            Cond::Reg {
                                actor: a as u8,
                                load: load as u8,
                                value: u32::from(rng.random_bool(0.5)),
                            }
                        }
                    }
                };
                spec.assertion.push(cond);
            }
        }
        debug_assert!(spec.validate().is_ok());
        spec
    }

    /// Inserts a `w` or `t` barrier at the same gap in every actor, so it
    /// actually orders the accesses around it.
    fn insert_aligned_barrier(&mut self, rng: &mut SmallRng) {
        let bar = if rng.random_bool(0.5) {
            Op::SyncWarp
        } else {
            Op::SyncThreads
        };
        let max_gap = self.actors.iter().map(Vec::len).min().unwrap_or(0);
        let gap = rng.random_range(0..=max_gap);
        for ops in &mut self.actors {
            ops.insert(gap, bar);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn spec_roundtrips_through_compact_string() {
        let spec = Spec {
            placement: Placement::SameWarp,
            actors: vec![
                vec![
                    Op::Store { loc: 0 },
                    Op::SyncWarp,
                    Op::Load { loc: 1 },
                    Op::Fence {
                        scope: Scope::Device,
                    },
                ],
                vec![
                    Op::AtomicAdd {
                        loc: 2,
                        scope: Scope::Block,
                    },
                    Op::SyncThreads,
                ],
            ],
            assertion: Vec::new(),
        };
        let s = spec.to_compact_string();
        assert_eq!(s, "v2;SW;Sx.w.Ly.fD/aBz.t");
        assert_eq!(Spec::parse(&s).unwrap(), spec);

        let single = Spec::parse("v2;CB;Lu/Lu").unwrap();
        assert_eq!(Spec::parse(&single.to_compact_string()).unwrap(), single);
        assert!(Spec::parse("v1;SW;Lx/Lx").is_err());
        assert!(Spec::parse("v2;XX;Lx/Lx").is_err());
        assert!(Spec::parse("v2;SW;L9/Lx").is_err());
        assert!(Spec::parse("v2;SW;Lx").is_err());
    }

    #[test]
    fn built_kernels_run_and_path_lengths_match() {
        use gpu_sim::hook::NullHook;
        use gpu_sim::machine::{Gpu, GpuConfig};
        for s in ["v2;CB;Sx.Ly/Lx", "v2;CB;Sx/Sy/Lx.fD.Ly/Ly.Lx"] {
            let spec = Spec::parse(s).unwrap();
            let k = spec.build();
            let mut gpu = Gpu::new(GpuConfig {
                mem_words: 256,
                num_sms: 4,
                max_steps: 10_000,
                ..GpuConfig::default()
            });
            let buf = gpu.alloc(usize::from(NUM_SLOTS)).unwrap();
            let (grid, block) = spec.grid_block();
            let stats = gpu.launch(&k, grid, block, &[buf], &mut NullHook).unwrap();
            // Every step executes one split; with one thread per block the
            // total dynamic instruction count is exactly the path lengths.
            assert_eq!(
                stats.dyn_instrs as usize,
                spec.path_lengths().iter().sum::<usize>(),
                "{s}"
            );
        }
    }

    #[test]
    fn random_race_specs_are_well_formed() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let spec = Spec::random_race(&mut rng);
            let s = spec.to_compact_string();
            assert_eq!(Spec::parse(&s).unwrap(), spec);
            assert_eq!(spec.actors.len(), 2);
            assert!(spec.assertion.is_empty());
            assert!(spec.actors.iter().all(|a| !a.is_empty()));
            // Barrier ops only appear under SameWarp (aligned insertion).
            if spec.placement == Placement::CrossBlock {
                assert!(!spec
                    .actors
                    .iter()
                    .flatten()
                    .any(|o| matches!(o, Op::SyncWarp | Op::SyncThreads)));
            }
        }
    }

    #[test]
    fn classic_shapes_roundtrip() {
        let mp = Spec::mp(Placement::CrossBlock, Some(Scope::Device));
        assert_eq!(
            mp.to_compact_string(),
            "v2;CB;Sx.fD.Sy/Ly.fD.Lx;?1:r0=1&1:r1=0"
        );
        assert_eq!(Spec::parse(&mp.to_compact_string()).unwrap(), mp);

        let iriw = Spec::iriw(Placement::CrossBlock, None);
        assert_eq!(
            iriw.to_compact_string(),
            "v2;CB;Sx/Sy/Lx.Ly/Ly.Lx;?2:r0=1&2:r1=0&3:r0=1&3:r1=0"
        );
        assert_eq!(Spec::parse(&iriw.to_compact_string()).unwrap(), iriw);

        for spec in [
            Spec::sb(Placement::SameWarp, None),
            Spec::lb(Placement::CrossBlock, Some(Scope::Block)),
            Spec::wrc(Placement::CrossBlock, Some(Scope::Device)),
        ] {
            spec.validate().unwrap();
            assert_eq!(Spec::parse(&spec.to_compact_string()).unwrap(), spec);
        }
    }

    #[test]
    fn malformed_specs_map_to_typed_errors() {
        use SpecError as E;
        let err = |s: &str| Spec::parse(s).unwrap_err();
        assert!(matches!(err("v1;CB;Sx/Lx"), E::Version { .. }));
        assert!(matches!(err("v2;CB"), E::Header { .. }));
        assert!(matches!(err("v2;XX;Sx/Lx"), E::Placement { .. }));
        assert!(matches!(err("v2;CB;Sx"), E::ActorCount { count: 1 }));
        assert!(matches!(
            err("v2;CB;Sx/Lx/Lx/Lx/Lx"),
            E::ActorCount { count: 5 }
        ));
        assert!(matches!(err("v2;CB;Sx//Lx"), E::EmptyActor { actor: 1 }));
        assert!(matches!(err("v2;CB;Qx/Lx"), E::UnknownOp { .. }));
        assert!(matches!(err("v2;CB;S9/Lx"), E::UnknownLocation { .. }));
        assert!(matches!(err("v2;CB;Sxx/Lx"), E::UnknownLocation { .. }));
        assert!(matches!(
            err("v2;CB;Sx.w/Lx"),
            E::BarrierUnderCrossBlock { .. }
        ));
        assert!(matches!(err("v2;CB;Sx/Lx;?garbage"), E::Assertion { .. }));
        assert!(matches!(err("v2;CB;Sx/Lx;?[q]=1"), E::Assertion { .. }));
        assert!(matches!(
            err("v2;CB;Sx/Lx;?5:r0=1"),
            E::ActorRef {
                actor: 5,
                actors: 2
            }
        ));
        assert!(matches!(
            err("v2;CB;Sx/Lx;?0:r0=1"),
            E::LoadRef {
                actor: 0,
                load: 0,
                loads: 0
            }
        ));
        assert!(matches!(
            err("v2;CB;Sx/Lx;?1:r3=0"),
            E::LoadRef {
                actor: 1,
                load: 3,
                loads: 1
            }
        ));
        // Errors render and are std errors.
        let e: Box<dyn std::error::Error> = Box::new(err("v2;CB;Sx"));
        assert!(e.to_string().contains("actor count"));
    }

    #[test]
    fn random_litmus_specs_roundtrip_and_validate() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..300 {
            let spec = Spec::random_litmus(&mut rng);
            spec.validate().unwrap();
            let s = spec.to_compact_string();
            assert_eq!(Spec::parse(&s).unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn built_kernels_execute_every_actor() {
        use gpu_sim::hook::NullHook;
        use gpu_sim::machine::{Gpu, GpuConfig};
        let spec = Spec::iriw(Placement::CrossBlock, Some(Scope::Device));
        let k = spec.build();
        let mut gpu = Gpu::new(GpuConfig {
            mem_words: 64,
            num_sms: 4,
            max_steps: 10_000,
            ..GpuConfig::default()
        });
        let buf = gpu.alloc(usize::from(NUM_SLOTS)).unwrap();
        let (grid, block) = spec.grid_block();
        gpu.launch(&k, grid, block, &[buf], &mut NullHook).unwrap();
        // Both writers ran: final memory has x = y = 1.
        assert_eq!(gpu.read_slice(buf, 2), vec![1, 1]);
    }
}
