//! End-to-end tests of the simulated GPU: kernels, scheduling modes,
//! divergence, barriers, scoped visibility, and fault handling.

use gpu_sim::machine::DEVICE_MEM_BYTES;
use gpu_sim::prelude::*;

fn gpu_with(mode: ExecMode, seed: u64) -> Gpu {
    let cfg = GpuConfig {
        mode,
        seed,
        max_steps: 2_000_000,
        ..GpuConfig::default()
    };
    Gpu::new(cfg)
}

fn gpu() -> Gpu {
    gpu_with(ExecMode::Its, 7)
}

/// `a[gtid] = gtid` across multiple blocks.
fn fill_kernel() -> Kernel {
    let mut b = KernelBuilder::new("fill");
    let gtid = b.special(Special::GlobalTid);
    let base = b.param(0);
    let off = b.mul(gtid, 4u32);
    let addr = b.add(base, off);
    b.st(addr, 0, gtid);
    b.build()
}

#[test]
fn multi_block_fill() {
    let mut gpu = gpu();
    let buf = gpu.alloc(256).unwrap();
    let k = fill_kernel();
    gpu.launch(&k, 4, 64, &[buf], &mut NullHook).unwrap();
    let out = gpu.read_slice(buf, 256);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as u32);
    }
}

#[test]
fn partial_warp_block() {
    let mut gpu = gpu();
    let buf = gpu.alloc(80).unwrap();
    let k = fill_kernel();
    // 40 threads per block: one full warp + one 8-lane warp.
    gpu.launch(&k, 2, 40, &[buf], &mut NullHook).unwrap();
    let out = gpu.read_slice(buf, 80);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as u32);
    }
}

/// Tree reduction within a block using shared memory and `__syncthreads`.
fn block_reduce_kernel(block_dim: u32) -> Kernel {
    let mut b = KernelBuilder::new("block_reduce");
    b.shared(block_dim as usize);
    let tid = b.special(Special::Tid);
    let gtid = b.special(Special::GlobalTid);
    let input = b.param(0);
    let out = b.param(1);
    // sdata[tid] = input[gtid]
    let goff = b.mul(gtid, 4u32);
    let gaddr = b.add(input, goff);
    let v = b.ld(gaddr, 0);
    let soff = b.mul(tid, 4u32);
    b.st_shared(soff, 0, v);
    b.syncthreads();
    // for (s = dim/2; s > 0; s >>= 1)
    let stride = b.imm(block_dim / 2);
    let top = b.here();
    let done = b.eq(stride, 0u32);
    let exit_l = b.fwd_label();
    b.bra_if(done, exit_l);
    let in_range = b.lt(tid, stride);
    let skip = b.fwd_label();
    b.bra_ifnot(in_range, skip);
    // sdata[tid] += sdata[tid + stride]
    let mine = b.ld_shared(soff, 0);
    let other_idx = b.add(tid, stride);
    let ooff = b.mul(other_idx, 4u32);
    let theirs = b.ld_shared(ooff, 0);
    let sum = b.add(mine, theirs);
    b.st_shared(soff, 0, sum);
    b.bind(skip);
    b.syncthreads();
    let half = b.shr(stride, 1u32);
    b.mov(stride, half);
    b.bra(top);
    b.bind(exit_l);
    // if (tid == 0) out[blockId] = sdata[0]
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let res = b.ld_shared(soff, 0); // tid==0 so soff==0
    let bid = b.special(Special::BlockId);
    let boff = b.mul(bid, 4u32);
    let oaddr = b.add(out, boff);
    b.st(oaddr, 0, res);
    b.bind(fin);
    b.build()
}

#[test]
fn block_reduction_with_barriers_is_correct_under_its() {
    for seed in 0..8 {
        let mut gpu = gpu_with(ExecMode::Its, seed);
        let n = 128u32;
        let input = gpu.alloc(n as usize).unwrap();
        let out = gpu.alloc(2).unwrap();
        let data: Vec<u32> = (0..n).collect();
        gpu.write_slice(input, &data);
        let k = block_reduce_kernel(64);
        gpu.launch(&k, 2, 64, &[input, out], &mut NullHook).unwrap();
        let expect0: u32 = (0..64).sum();
        let expect1: u32 = (64..128).sum();
        assert_eq!(gpu.read(out, 0), expect0, "seed {seed}");
        assert_eq!(gpu.read(out, 1), expect1, "seed {seed}");
    }
}

#[test]
fn device_atomics_sum_across_blocks() {
    let mut gpu = gpu();
    let buf = gpu.alloc(4).unwrap();
    let mut b = KernelBuilder::new("atomic_sum");
    let base = b.param(0);
    let one = b.imm(1);
    let _ = b.atomic_add(Scope::Device, base, 0, one);
    let k = b.build();
    gpu.launch(&k, 8, 64, &[buf], &mut NullHook).unwrap();
    assert_eq!(gpu.read(buf, 0), 8 * 64);
}

#[test]
fn block_scope_atomics_lose_updates_across_sms() {
    // Two blocks on different SMs atomicAdd_block the same counter:
    // the narrow scope makes one SM's updates invisible to the other.
    let mut gpu = gpu();
    let buf = gpu.alloc(4).unwrap();
    let mut b = KernelBuilder::new("underscoped");
    let base = b.param(0);
    let one = b.imm(1);
    let _ = b.atomic_add(Scope::Block, base, 0, one);
    let k = b.build();
    gpu.launch(&k, 4, 32, &[buf], &mut NullHook).unwrap();
    let v = gpu.read(buf, 0);
    assert!(
        v < 4 * 32,
        "under-scoped atomics must lose updates, got {v}"
    );
    assert!(v >= 32, "each block's own updates are coherent, got {v}");
}

#[test]
fn spin_lock_protects_critical_section() {
    // counter++ under a device-scope spin lock, many contending warps.
    let mut gpu = gpu();
    let buf = gpu.alloc(8).unwrap(); // [lock, counter]
    let mut b = KernelBuilder::new("locked_inc");
    let base = b.param(0);
    let tid = b.special(Special::Tid);
    let is_leader = b.eq(tid, 0u32);
    let skip = b.fwd_label();
    b.bra_ifnot(is_leader, skip);
    b.lock(Scope::Device, base, 0);
    let v = b.ld(base, 1);
    let v1 = b.add(v, 1u32);
    b.st(base, 1, v1);
    b.unlock(Scope::Device, base, 0);
    b.bind(skip);
    let k = b.build();
    gpu.launch(&k, 6, 32, &[buf], &mut NullHook).unwrap();
    assert_eq!(gpu.read(buf, 1), 6, "one increment per block leader");
    assert_eq!(gpu.read(buf, 0), 0, "lock released");
}

/// The Figure 2 pattern: lane 1 stores, lane 0 loads the stored value,
/// optionally separated by `__syncwarp()`.
fn warp_handoff_kernel(with_syncwarp: bool) -> Kernel {
    let mut b = KernelBuilder::new(if with_syncwarp {
        "handoff_sync"
    } else {
        "handoff_racy"
    });
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    // if (tid == 1) a[1] = 77;
    let is1 = b.eq(tid, 1u32);
    let after_store = b.fwd_label();
    b.bra_ifnot(is1, after_store);
    let v = b.imm(77);
    b.st(base, 1, v);
    b.bind(after_store);
    if with_syncwarp {
        b.syncwarp();
    }
    // if (tid == 0) a[0] = a[1];
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let got = b.ld(base, 1);
    b.st(base, 0, got);
    b.bind(fin);
    b.build()
}

#[test]
fn missing_syncwarp_misorders_under_its_for_some_seed() {
    let mut misordered = false;
    for seed in 0..64 {
        let mut gpu = gpu_with(ExecMode::Its, seed);
        let buf = gpu.alloc(4).unwrap();
        let k = warp_handoff_kernel(false);
        gpu.launch(&k, 1, 32, &[buf], &mut NullHook).unwrap();
        if gpu.read(buf, 0) != 77 {
            misordered = true;
            break;
        }
    }
    assert!(
        misordered,
        "ITS must reorder the unsynchronized warp handoff for some schedule"
    );
}

#[test]
fn syncwarp_orders_warp_handoff_on_all_seeds() {
    for seed in 0..64 {
        let mut gpu = gpu_with(ExecMode::Its, seed);
        let buf = gpu.alloc(4).unwrap();
        let k = warp_handoff_kernel(true);
        gpu.launch(&k, 1, 32, &[buf], &mut NullHook).unwrap();
        assert_eq!(gpu.read(buf, 0), 77, "seed {seed}");
    }
}

#[test]
fn lockstep_orders_warp_handoff_without_syncwarp() {
    // Pre-Volta lockstep: the store (earlier pc) always precedes the load.
    for seed in 0..16 {
        let mut gpu = gpu_with(ExecMode::Lockstep, seed);
        let buf = gpu.alloc(4).unwrap();
        let k = warp_handoff_kernel(false);
        gpu.launch(&k, 1, 32, &[buf], &mut NullHook).unwrap();
        assert_eq!(gpu.read(buf, 0), 77, "seed {seed}");
    }
}

#[test]
fn volatile_flag_handoff_across_blocks() {
    // Block 0 publishes data then sets a flag; block 1 spins on the flag
    // (volatile) then reads the data after a device fence pair.
    let mut gpu = gpu();
    let buf = gpu.alloc(8).unwrap(); // [flag, data]
    let mut b = KernelBuilder::new("flag_handoff");
    let base = b.param(0);
    let bid = b.special(Special::BlockId);
    let tid = b.special(Special::Tid);
    let is_producer = b.eq(bid, 0u32);
    let consumer = b.fwd_label();
    b.bra_ifnot(is_producer, consumer);
    // producer (block 0, thread 0)
    let t0 = b.eq(tid, 0u32);
    let pdone = b.fwd_label();
    b.bra_ifnot(t0, pdone);
    let v = b.imm(123);
    b.st(base, 1, v);
    b.membar(Scope::Device);
    let one = b.imm(1);
    b.st_volatile(base, 0, one);
    b.bind(pdone);
    let endl = b.fwd_label();
    b.bra(endl);
    // consumer (block 1, thread 0)
    b.bind(consumer);
    let t0c = b.eq(tid, 0u32);
    let cdone = b.fwd_label();
    b.bra_ifnot(t0c, cdone);
    let spin = b.here();
    let f = b.ld_volatile(base, 0);
    let unset = b.eq(f, 0u32);
    b.bra_if(unset, spin);
    b.membar(Scope::Device);
    let d = b.ld(base, 1);
    b.st(base, 2, d);
    b.bind(cdone);
    b.bind(endl);
    let k = b.build();
    gpu.launch(&k, 2, 32, &[buf], &mut NullHook).unwrap();
    assert_eq!(gpu.read(buf, 2), 123);
}

#[test]
fn infinite_loop_hits_watchdog() {
    let cfg = GpuConfig {
        max_steps: 10_000,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    let mut b = KernelBuilder::new("spin_forever");
    let top = b.here();
    b.bra(top);
    let k = b.build();
    let err = gpu.launch(&k, 1, 32, &[], &mut NullHook).unwrap_err();
    assert!(matches!(err, SimError::Timeout { .. }));
}

#[test]
fn mixed_barrier_wait_is_deadlock() {
    // Lane 0 waits at the block barrier; lane 1 waits at a warp barrier.
    // Neither can ever release: a real CUDA hang, detected as deadlock.
    let mut gpu = gpu();
    let mut b = KernelBuilder::new("mixed_barriers");
    let tid = b.special(Special::Tid);
    let is0 = b.eq(tid, 0u32);
    let warp_path = b.fwd_label();
    b.bra_ifnot(is0, warp_path);
    b.syncthreads();
    let endl = b.fwd_label();
    b.bra(endl);
    b.bind(warp_path);
    b.syncwarp();
    b.bind(endl);
    let k = b.build();
    let buf = gpu.alloc(4).unwrap();
    let err = gpu.launch(&k, 1, 2, &[buf], &mut NullHook).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "got {err:?}");
}

#[test]
fn out_of_bounds_access_faults() {
    let mut gpu = gpu();
    let mut b = KernelBuilder::new("wild");
    let addr = b.imm(0x3FFF_FFFC);
    let v = b.imm(1);
    b.st(addr, 0, v);
    let k = b.build();
    let err = gpu.launch(&k, 1, 1, &[], &mut NullHook).unwrap_err();
    assert!(matches!(err, SimError::OutOfBounds { .. }));
}

#[test]
fn divide_by_zero_faults() {
    let mut gpu = gpu();
    let mut b = KernelBuilder::new("div0");
    let a = b.imm(10);
    let z = b.imm(0);
    let _ = b.div(a, z);
    let k = b.build();
    let err = gpu.launch(&k, 1, 1, &[], &mut NullHook).unwrap_err();
    assert!(matches!(err, SimError::DivideByZero { .. }));
}

#[test]
fn bad_launch_configs_rejected() {
    let mut gpu = gpu();
    let k = fill_kernel();
    assert!(matches!(
        gpu.launch(&k, 1, 2000, &[0], &mut NullHook),
        Err(SimError::BadLaunch { .. })
    ));
    assert!(matches!(
        gpu.launch(&k, 0, 32, &[0], &mut NullHook),
        Err(SimError::BadLaunch { .. })
    ));
}

#[test]
fn allocation_exhaustion_is_oom() {
    let cfg = GpuConfig {
        mem_words: 1024,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    assert!(gpu.alloc(512).is_ok());
    assert!(matches!(
        gpu.alloc(100_000),
        Err(SimError::OutOfMemory { .. })
    ));
}

#[test]
fn logical_allocation_tracks_capacity() {
    let mut gpu = Gpu::new(GpuConfig::default());
    let before = gpu.free_device_bytes();
    assert_eq!(before, DEVICE_MEM_BYTES - gpu.allocated_bytes());
    let half = DEVICE_MEM_BYTES / 2;
    gpu.alloc_logical(16, half).unwrap();
    assert_eq!(before - gpu.free_device_bytes(), half);
    assert!(matches!(
        gpu.alloc_logical(16, before - half + 1),
        Err(SimError::OutOfMemory { .. })
    ));
}

/// A hook that counts what it observes, verifying instrumentation delivery.
#[derive(Default)]
struct CountingHook {
    loads: u64,
    stores: u64,
    atomics: u64,
    fences: u64,
    block_barriers: u64,
    warp_barriers: u64,
    lanes_seen: u64,
    launches: u64,
}

impl Hook for CountingHook {
    fn on_kernel_launch(&mut self, _info: &LaunchInfo, _clock: &mut Clock) {
        self.launches += 1;
    }
    fn on_mem_access(&mut self, a: &MemAccess<'_>, _clock: &mut Clock) {
        self.lanes_seen += a.lanes.len() as u64;
        match a.kind {
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
            AccessKind::Atomic { .. } => self.atomics += 1,
        }
        // The active mask must cover exactly the reported lanes.
        let mask_bits = a.active_mask.count_ones() as usize;
        assert_eq!(mask_bits, a.lanes.len());
    }
    fn on_sync(&mut self, e: &SyncEvent<'_>, _clock: &mut Clock) {
        match e {
            SyncEvent::Fence { .. } => self.fences += 1,
            SyncEvent::BlockBarrier { .. } => self.block_barriers += 1,
            SyncEvent::WarpBarrier { .. } => self.warp_barriers += 1,
        }
    }
}

#[test]
fn hook_observes_all_instrumentable_events() {
    let mut gpu = gpu_with(ExecMode::Lockstep, 1);
    let buf = gpu.alloc(64).unwrap();
    let mut b = KernelBuilder::new("observed");
    b.shared(32);
    let base = b.param(0);
    let tid = b.special(Special::Tid);
    let off = b.mul(tid, 4u32);
    let addr = b.add(base, off);
    let v = b.ld(addr, 0); // 1 load per split
                           // `__shared__` accesses run and are costed, but fire no event.
    b.st_shared(off, 0, v);
    let v = b.ld_shared(off, 0);
    let v2 = b.add(v, 1u32);
    b.st(addr, 0, v2); // 1 store
    b.syncthreads();
    b.membar(Scope::Device); // 1 fence event per split
    b.syncwarp();
    let one = b.imm(1);
    let _ = b.atomic_add(Scope::Device, base, 0, one); // 1 atomic
    let k = b.build();
    let mut h = CountingHook::default();
    gpu.launch(&k, 1, 32, &[buf], &mut h).unwrap();
    assert_eq!(h.launches, 1);
    assert_eq!(h.loads, 1, "one full-warp load split");
    assert_eq!(h.stores, 1);
    assert_eq!(h.atomics, 1);
    assert_eq!(h.fences, 1);
    assert_eq!(h.block_barriers, 1);
    assert_eq!(h.warp_barriers, 1);
    assert_eq!(h.lanes_seen, 3 * 32);
}

#[test]
fn native_clock_accumulates() {
    let mut gpu = gpu();
    let buf = gpu.alloc(64).unwrap();
    let k = fill_kernel();
    gpu.launch(&k, 1, 32, &[buf], &mut NullHook).unwrap();
    let native = gpu.clock().time(CostCategory::Native);
    assert!(native > 0.0);
    assert_eq!(gpu.clock().time(CostCategory::Detection), 0.0);
}

#[test]
fn stats_count_dynamic_instructions() {
    let mut gpu = gpu_with(ExecMode::Lockstep, 0);
    let buf = gpu.alloc(64).unwrap();
    let k = fill_kernel();
    let stats = gpu.launch(&k, 1, 32, &[buf], &mut NullHook).unwrap();
    // 6 instructions (incl. implicit Exit), one split each in lockstep.
    assert_eq!(stats.dyn_instrs, 6);
    assert_eq!(stats.lane_instrs, 6 * 32);
}
