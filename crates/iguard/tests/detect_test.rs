//! End-to-end detection tests: each race class from the paper's examples
//! (Figures 1, 2/8, 3, 9, 10) seeded into a kernel and detected by iGUARD
//! running under instrumentation on the simulated GPU — plus the matching
//! corrected kernels, which must report nothing.

use gpu_sim::prelude::*;
use iguard::{Iguard, IguardConfig, RaceKind};
use nvbit_sim::Instrumented;

fn run(kernel: &Kernel, grid: u32, block: u32, words: usize, seed: u64) -> Instrumented<Iguard> {
    run_with(kernel, grid, block, words, seed, IguardConfig::default())
}

fn run_with(
    kernel: &Kernel,
    grid: u32,
    block: u32,
    words: usize,
    seed: u64,
    cfg: IguardConfig,
) -> Instrumented<Iguard> {
    let gcfg = GpuConfig {
        seed,
        max_steps: 5_000_000,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(gcfg);
    let buf = gpu.alloc(words).unwrap();
    let mut tool = Instrumented::new(Iguard::new(cfg));
    gpu.launch(kernel, grid, block, &[buf], &mut tool).unwrap();
    tool
}

/// Counts the memory events the simulator fires.
#[derive(Default)]
struct MemEvents(u64);

impl Hook for MemEvents {
    fn on_mem_access(&mut self, _a: &MemAccess<'_>, _clock: &mut Clock) {
        self.0 += 1;
    }
}

fn kinds(tool: &mut Instrumented<Iguard>) -> Vec<RaceKind> {
    let mut ks: Vec<RaceKind> = tool.tool_mut().races().iter().map(|r| r.kind).collect();
    ks.sort();
    ks.dedup();
    ks
}

// ---- ITS races (Figure 2 / Figure 8) --------------------------------------

fn warp_handoff(with_syncwarp: bool) -> Kernel {
    let mut b = KernelBuilder::new(if with_syncwarp {
        "handoff_ok"
    } else {
        "handoff_racy"
    });
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let is1 = b.eq(tid, 1u32);
    let after = b.fwd_label();
    b.bra_ifnot(is1, after);
    let v = b.imm(77);
    b.loc("store sdata[tid+1]");
    b.st(base, 1, v);
    b.bind(after);
    if with_syncwarp {
        b.syncwarp();
    }
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    b.loc("load sdata[tid+1]");
    let got = b.ld(base, 1);
    b.st(base, 0, got);
    b.bind(fin);
    b.build()
}

#[test]
fn its_race_detected_on_missing_syncwarp() {
    let mut t = run(&warp_handoff(false), 1, 32, 4, 3);
    assert!(
        kinds(&mut t).contains(&RaceKind::IntraWarp),
        "Figure 8's ITS race must be caught"
    );
}

#[test]
fn its_race_detected_regardless_of_schedule() {
    // The check is order-insensitive: every seed must catch it.
    for seed in 0..12 {
        let mut t = run(&warp_handoff(false), 1, 32, 4, seed);
        assert!(kinds(&mut t).contains(&RaceKind::IntraWarp), "seed {seed}");
    }
}

#[test]
fn syncwarp_silences_its_race() {
    for seed in 0..12 {
        let t = run(&warp_handoff(true), 1, 32, 4, seed);
        assert_eq!(
            t.tool().unique_races(),
            0,
            "seed {seed}: corrected kernel must be clean"
        );
    }
}

// ---- scoped-atomic races (Figure 1) ----------------------------------------

/// Every block's leader bumps a shared counter; the scope decides safety.
fn scoped_counter(scope: Scope) -> Kernel {
    let name = if scope == Scope::Block {
        "counter_block_scope"
    } else {
        "counter_dev_scope"
    };
    let mut b = KernelBuilder::new(name);
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let one = b.imm(1);
    b.loc("atomicAdd(&nextHead, NTHREADS)");
    let _ = b.atomic_add(scope, base, 0, one);
    b.bind(fin);
    b.build()
}

#[test]
fn underscoped_atomic_race_detected() {
    let mut t = run(&scoped_counter(Scope::Block), 4, 32, 4, 1);
    assert!(
        kinds(&mut t).contains(&RaceKind::AtomicScope),
        "Figure 1's insufficient-scope race must be caught, got {:?}",
        kinds(&mut t)
    );
}

#[test]
fn device_scope_atomics_are_clean() {
    for seed in 0..6 {
        let t = run(&scoped_counter(Scope::Device), 4, 32, 4, seed);
        assert_eq!(t.tool().unique_races(), 0, "seed {seed}");
    }
}

#[test]
fn block_scope_atomic_in_single_block_is_clean() {
    // Narrow scope is fine when all participants share the block.
    let t = run(&scoped_counter(Scope::Block), 1, 64, 4, 1);
    assert_eq!(t.tool().unique_races(), 0);
}

// ---- intra-block races (missing __syncthreads) ------------------------------

fn block_handoff(with_barrier: bool) -> Kernel {
    let mut b = KernelBuilder::new(if with_barrier { "blk_ok" } else { "blk_racy" });
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    // Thread 40 (warp 1) writes; thread 0 (warp 0) reads.
    let is40 = b.eq(tid, 40u32);
    let after = b.fwd_label();
    b.bra_ifnot(is40, after);
    let v = b.imm(5);
    b.st(base, 1, v);
    b.bind(after);
    if with_barrier {
        b.syncthreads();
    }
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let got = b.ld(base, 1);
    b.st(base, 0, got);
    b.bind(fin);
    b.build()
}

#[test]
fn intra_block_race_detected() {
    let mut t = run(&block_handoff(false), 1, 64, 4, 2);
    assert!(
        kinds(&mut t).contains(&RaceKind::IntraBlock),
        "got {:?}",
        kinds(&mut t)
    );
}

#[test]
fn syncthreads_silences_intra_block_race() {
    for seed in 0..8 {
        let t = run(&block_handoff(true), 1, 64, 4, seed);
        assert_eq!(t.tool().unique_races(), 0, "seed {seed}");
    }
}

// ---- inter-block races (Figure 10's missing fence) --------------------------

/// Producer block writes data then sets a flag; consumer block spins and
/// reads. `fenced` controls whether the *producer* device-fences its data
/// write before raising the flag (the Figure 10 bug is the missing fence).
fn grid_handoff(fenced: bool) -> Kernel {
    let mut b = KernelBuilder::new(if fenced { "grid_ok" } else { "grid_racy" });
    let base = b.param(0); // [flag, data, out]
    let bid = b.special(Special::BlockId);
    let is_prod = b.eq(bid, 0u32);
    let consumer = b.fwd_label();
    b.bra_ifnot(is_prod, consumer);
    let v = b.imm(99);
    b.st(base, 1, v);
    if fenced {
        b.membar(Scope::Device);
    }
    let one = b.imm(1);
    // Flag raise via device atomic (always properly synchronized itself).
    let _ = b.atomic_exch(Scope::Device, base, 0, one);
    let endl = b.fwd_label();
    b.bra(endl);
    b.bind(consumer);
    let spin = b.here();
    let f = b.ld_volatile(base, 0);
    let unset = b.eq(f, 0u32);
    b.bra_if(unset, spin);
    let got = b.ld(base, 1);
    b.st(base, 2, got);
    b.bind(endl);
    b.build()
}

#[test]
fn inter_block_race_detected_without_device_fence() {
    let mut t = run(&grid_handoff(false), 2, 1, 4, 4);
    assert!(
        kinds(&mut t).contains(&RaceKind::InterBlock),
        "got {:?}",
        kinds(&mut t)
    );
}

#[test]
fn device_fence_silences_inter_block_race() {
    for seed in 0..8 {
        let mut t = run(&grid_handoff(true), 2, 1, 4, seed);
        let ks = kinds(&mut t);
        assert!(
            !ks.contains(&RaceKind::InterBlock),
            "seed {seed}: got {ks:?}"
        );
    }
}

// ---- lock races (Figure 9) ---------------------------------------------------

/// Per-thread locks protecting per-warp data: the Figure 9 bug (two threads
/// of a warp hold *different* locks while updating the same word).
fn locking_kernel(shared_lock: bool) -> Kernel {
    let mut b = KernelBuilder::new(if shared_lock { "lock_ok" } else { "lock_racy" });
    let tid = b.special(Special::Tid);
    let base = b.param(0); // [lock0, lock1, data, ...]
                           // Only lanes 0 and 1 participate.
    let lt2 = b.lt(tid, 2u32);
    let fin = b.fwd_label();
    b.bra_ifnot(lt2, fin);
    // lockId = shared ? 0 : tid
    let lock_off = if shared_lock {
        b.imm(0)
    } else {
        b.mul(tid, 4u32)
    };
    let lock_addr = b.add(base, lock_off);
    b.lock(Scope::Device, lock_addr, 0);
    // data += tid  (data is word 2)
    let d = b.ld(base, 2);
    let d2 = b.add(d, tid);
    b.loc("data[warpId] += value[threadId]");
    b.st(base, 2, d2);
    b.unlock(Scope::Device, lock_addr, 0);
    b.bind(fin);
    b.build()
}

#[test]
fn per_thread_distinct_locks_race_detected() {
    let mut found = false;
    for seed in 0..16 {
        let mut t = run(&locking_kernel(false), 1, 32, 8, seed);
        if kinds(&mut t).contains(&RaceKind::Locking) {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "Figure 9's improper-locking race must be caught on some schedule"
    );
}

#[test]
fn common_lock_is_clean() {
    for seed in 0..10 {
        let t = run(&locking_kernel(true), 1, 32, 8, seed);
        assert_eq!(t.tool().unique_races(), 0, "seed {seed}");
    }
}

#[test]
fn per_warp_leader_locking_across_blocks_is_clean() {
    // Classic per-warp lock: each block's leader locks, updates, unlocks.
    let mut b = KernelBuilder::new("warp_lock_ok");
    let tid = b.special(Special::Tid);
    let base = b.param(0); // [lock, counter]
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    b.lock(Scope::Device, base, 0);
    let v = b.ld(base, 1);
    let v1 = b.add(v, 1u32);
    b.st(base, 1, v1);
    b.unlock(Scope::Device, base, 0);
    b.bind(fin);
    let k = b.build();
    for seed in 0..6 {
        let mut t = run(&k, 4, 32, 8, seed);
        assert_eq!(
            t.tool().unique_races(),
            0,
            "seed {seed}: got {:?}",
            kinds(&mut t)
        );
    }
}

// ---- misc properties ---------------------------------------------------------

#[test]
fn race_free_tree_reduction_is_clean() {
    // A properly barriered in-global-memory tree reduction.
    let mut b = KernelBuilder::new("tree_reduce");
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let stride = b.imm(32);
    let top = b.here();
    let done = b.eq(stride, 0u32);
    let exit_l = b.fwd_label();
    b.bra_if(done, exit_l);
    let active = b.lt(tid, stride);
    let skip = b.fwd_label();
    b.bra_ifnot(active, skip);
    let off = b.mul(tid, 4u32);
    let a = b.add(base, off);
    let mine = b.ld(a, 0);
    let oidx = b.add(tid, stride);
    let ooff = b.mul(oidx, 4u32);
    let oa = b.add(base, ooff);
    let theirs = b.ld(oa, 0);
    let sum = b.add(mine, theirs);
    b.st(a, 0, sum);
    b.bind(skip);
    b.syncthreads();
    let half = b.shr(stride, 1u32);
    b.mov(stride, half);
    b.bra(top);
    b.bind(exit_l);
    let k = b.build();
    for seed in 0..6 {
        let mut t = run(&k, 1, 64, 64, seed);
        assert_eq!(
            t.tool().unique_races(),
            0,
            "seed {seed}: got {:?}",
            kinds(&mut t)
        );
    }
}

#[test]
fn coalescing_does_not_miss_races() {
    // Warp 0 loads words warp 1 wrote without synchronization, its lanes
    // grouped on them three ways: all 32 on one word; 16 on each of two;
    // 16 consecutive words twice over. With coalescing the lowest lane of
    // each group checks for it — every word's race must still appear.
    type Index = fn(&mut KernelBuilder, Reg) -> Reg;
    let shapes: [(&str, u32, Index); 3] = [
        ("one word", 1, |b, _| b.imm(0)),
        ("two words", 2, |b, tid| b.shr(tid, 4u32)),
        ("sixteen words twice", 16, |b, tid| b.and(tid, 15u32)),
    ];
    for (shape, words, index) in shapes {
        let mut b = KernelBuilder::new("broadcast_racy");
        let tid = b.special(Special::Tid);
        let base = b.param(0);
        // Warp 1's first `words` lanes write one word each.
        let lane = b.sub(tid, 32u32);
        let writes = b.lt(lane, words);
        let after = b.fwd_label();
        b.bra_ifnot(writes, after);
        let off = b.mul(lane, 4u32);
        let a = b.add(base, off);
        let v = b.imm(1);
        b.st(a, 0, v);
        b.bind(after);
        // Warp 0 (all lanes) reads them.
        let lt32 = b.lt(tid, 32u32);
        let fin = b.fwd_label();
        b.bra_ifnot(lt32, fin);
        let word = index(&mut b, tid);
        let off = b.mul(word, 4u32);
        let a = b.add(base, off);
        let _ = b.ld(a, 0);
        b.bind(fin);
        let k = b.build();
        for seed in [5, 6, 9] {
            let mut with = run(&k, 1, 64, 16, seed);
            let mut without = run_with(
                &k,
                1,
                64,
                16,
                seed,
                IguardConfig {
                    coalescing: false,
                    ..IguardConfig::default()
                },
            );
            let (kw, kwo) = (kinds(&mut with), kinds(&mut without));
            assert_eq!(kw, [RaceKind::IntraBlock], "{shape}, seed {seed}");
            assert_eq!(
                kw, kwo,
                "{shape}, seed {seed}: §6.5 optimizations must not change detection results"
            );
            // Whichever side ran second finds the race, once a word: a
            // store per word, or the one lane standing for a load group.
            assert_eq!(
                with.tool().stats().race_hits[2],
                u64::from(words),
                "{shape}, seed {seed}: one hit per racy word"
            );
            assert!(
                with.tool().stats().coalesced_saved > 0,
                "{shape}, seed {seed}: coalescing must actually trigger"
            );
        }
    }
}

#[test]
fn races_survive_watchdog_timeout() {
    // A kernel that races and then livelocks: the timeout kills it, but the
    // collected reports remain available (§5 "Race reporting").
    let mut b = KernelBuilder::new("racy_livelock");
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let is1 = b.eq(tid, 1u32);
    let after = b.fwd_label();
    b.bra_ifnot(is1, after);
    let v = b.imm(1);
    b.st(base, 1, v);
    b.bind(after);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let _ = b.ld(base, 1); // the race
    let spin = b.here();
    b.bra(spin); // livelock
    b.bind(fin);
    let k = b.build();
    let cfg = GpuConfig {
        max_steps: 20_000,
        seed: 1,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    let buf = gpu.alloc(4).unwrap();
    let mut tool = Instrumented::new(Iguard::default());
    let err = gpu.launch(&k, 1, 32, &[buf], &mut tool).unwrap_err();
    assert!(matches!(err, SimError::Timeout { .. }));
    assert!(
        tool.tool().unique_races() > 0,
        "races must be reported despite the timeout"
    );
}

#[test]
fn no_false_positives_across_kernel_launches() {
    // Kernel 1 writes a[i] per thread; kernel 2 reads a[i] from *different*
    // threads. The inter-kernel implicit barrier orders them: no race.
    let mut w = KernelBuilder::new("writer_k");
    let tid = w.special(Special::GlobalTid);
    let base = w.param(0);
    let off = w.mul(tid, 4u32);
    let addr = w.add(base, off);
    w.st(addr, 0, tid);
    let writer = w.build();

    let mut r = KernelBuilder::new("reader_k");
    let tid = r.special(Special::GlobalTid);
    let n = r.special(Special::BlockDim);
    let base = r.param(0);
    // read a[(tid+1) % n] — guaranteed cross-thread.
    let t1 = r.add(tid, 1u32);
    let idx = r.rem(t1, n);
    let off = r.mul(idx, 4u32);
    let addr = r.add(base, off);
    let _ = r.ld(addr, 0);
    let reader = r.build();

    let mut gpu = Gpu::new(GpuConfig::default());
    let buf = gpu.alloc(64).unwrap();
    let mut tool = Instrumented::new(Iguard::default());
    gpu.launch(&writer, 1, 64, &[buf], &mut tool).unwrap();
    gpu.launch(&reader, 1, 64, &[buf], &mut tool).unwrap();
    assert_eq!(
        tool.tool().unique_races(),
        0,
        "kernel boundary is a global barrier"
    );
}

#[test]
fn detection_is_deterministic_given_a_schedule() {
    let k = warp_handoff(false);
    let mut a = run(&k, 1, 32, 4, 9);
    let mut b2 = run(&k, 1, 32, 4, 9);
    let ra: Vec<String> = a
        .tool_mut()
        .races()
        .iter()
        .map(ToString::to_string)
        .collect();
    let rb: Vec<String> = b2
        .tool_mut()
        .races()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(ra, rb);
}

#[test]
fn race_report_carries_debug_line_info() {
    let mut t = run(&warp_handoff(false), 1, 32, 4, 3);
    let races = t.tool_mut().races();
    let its = races
        .iter()
        .find(|r| r.kind == RaceKind::IntraWarp)
        .expect("ITS race");
    assert!(
        its.line.is_some(),
        "builder .loc() annotations must surface in reports"
    );
}

#[test]
fn history_ablation_finds_no_additional_races() {
    // §6.7: tracking 2/4/8 accessors instead of 1 found no new races.
    for depth in [1usize, 2, 4, 8] {
        let cfg = IguardConfig::with_history(depth);
        let t = run_with(&warp_handoff(false), 1, 32, 4, 3, cfg);
        assert_eq!(t.tool().unique_races(), 1, "depth {depth}");
    }
}

#[test]
fn shared_memory_stays_outside_the_detector() {
    // §4: scratchpad races are prior tools' domain. An unbarriered
    // `__shared__` handoff (thread 40 of warp 1 writes sdata[1], thread 0
    // of warp 0 reads it) next to per-thread global stores: nothing is
    // reported, and only the global splits reach the framework.
    let mut b = KernelBuilder::new("shared_handoff");
    b.shared(8);
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let off = b.mul(tid, 4u32);
    let addr = b.add(base, off);
    b.st(addr, 0, tid);
    let four = b.imm(4);
    let is40 = b.eq(tid, 40u32);
    let after = b.fwd_label();
    b.bra_ifnot(is40, after);
    b.st_shared(four, 0, tid);
    b.bind(after);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let _ = b.ld_shared(four, 0);
    b.bind(fin);
    let k = b.build();

    let t = run(&k, 1, 64, 64, 5);
    assert_eq!(t.tool().unique_races(), 0);
    let is = t.instr_stats();
    assert_eq!(is.skipped_mem, 0, "no shared access reaches the bitmap");
    let mut gpu = Gpu::new(GpuConfig {
        seed: 5,
        max_steps: 5_000_000,
        ..GpuConfig::default()
    });
    let buf = gpu.alloc(64).unwrap();
    let mut events = MemEvents::default();
    gpu.launch(&k, 1, 64, &[buf], &mut events).unwrap();
    assert!(events.0 >= 2, "one global store split per warp at least");
    assert_eq!(is.dispatched_mem, events.0);
}

// ---- degenerate set-up: clamped, never blind -------------------------------

/// A device with no memory words still gets a one-word metadata table,
/// and its first launch prefaults that table's page.
#[test]
fn empty_device_still_allocates_and_prefaults_metadata() {
    let mut b = KernelBuilder::new("fence_only");
    b.membar(Scope::Device);
    let k = b.build();
    let mut gpu = Gpu::new(GpuConfig {
        mem_words: 0,
        ..GpuConfig::default()
    });
    let mut tool = Instrumented::new(Iguard::default());
    gpu.launch(&k, 1, 32, &[], &mut tool).unwrap();
    assert_eq!(tool.tool().uvm_stats().prefaulted_pages, 1);
    assert_eq!(tool.tool().stats().launches, 1);
}
