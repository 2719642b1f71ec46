//! Shared kernel patterns used across the workload suites: address
//! arithmetic, clean building blocks (tree reduction, scan, streaming), the
//! Figure 10 grid-sync idiom in buggy and fixed forms, and deterministic
//! race seeders for each race class of Table 4.
//!
//! Race seeders are written so the racing *site* (the pc the detector
//! reports) is a single instruction executed by both conflicting threads —
//! this makes the per-workload race counts deterministic and lets the
//! Table 4 harness assert exact numbers.

use gpu_sim::asm::KernelBuilder;
use gpu_sim::ir::{Reg, Scope, Special};

/// `base + idx*4` into a fresh register.
pub fn addr(b: &mut KernelBuilder, base: Reg, idx: Reg) -> Reg {
    let off = b.mul(idx, 4u32);
    b.add(base, off)
}

/// Emits an ALU-only busy loop (~6 cycles per iteration).
///
/// The workload skeletons reproduce the original applications' *sharing
/// patterns* with far fewer arithmetic instructions per memory access than
/// the real kernels execute; this restores a realistic compute density so
/// overhead ratios are comparable to the paper's.
pub fn busy_work(b: &mut KernelBuilder, iters: u32) {
    if iters == 0 {
        return;
    }
    let tid = b.special(Special::Tid);
    let acc = b.add(tid, 0x9E37u32);
    let i = b.imm(0);
    let top = b.here();
    let done = b.ge(i, iters);
    let exit_l = b.fwd_label();
    b.bra_if(done, exit_l);
    let m = b.mul(acc, 0x85EB_CA6Bu32);
    let s = b.shr(m, 13u32);
    let x = b.xor(m, s);
    b.mov(acc, x);
    b.assign_add(i, i, 1u32);
    b.bra(top);
    b.bind(exit_l);
}

/// Standard busy-work iteration count per build size.
#[must_use]
pub fn work_iters(size: crate::Size) -> u32 {
    match size {
        crate::Size::Test => 3,
        crate::Size::Bench => 150,
    }
}

/// Emits a correctly-barriered tree reduction over `data[block*dim ..]`,
/// leaving the block's sum in `data[block*dim]` and storing it to
/// `out[block]`. `dim` must be a power of two.
pub fn tree_reduce_block(b: &mut KernelBuilder, data: Reg, out: Reg, dim: u32) {
    assert!(
        dim.is_power_of_two(),
        "tree reduction needs a power-of-two block"
    );
    let tid = b.special(Special::Tid);
    let bid = b.special(Special::BlockId);
    let bdim = b.special(Special::BlockDim);
    let base_idx = b.mul(bid, bdim);
    let my_idx = b.add(base_idx, tid);
    let my_addr = addr(b, data, my_idx);
    let stride = b.imm(dim / 2);
    let top = b.here();
    let done = b.eq(stride, 0u32);
    let exit_l = b.fwd_label();
    b.bra_if(done, exit_l);
    let active = b.lt(tid, stride);
    let skip = b.fwd_label();
    b.bra_ifnot(active, skip);
    let mine = b.ld(my_addr, 0);
    let oidx = b.add(my_idx, stride);
    let oaddr = addr(b, data, oidx);
    let theirs = b.ld(oaddr, 0);
    let sum = b.add(mine, theirs);
    b.st(my_addr, 0, sum);
    b.bind(skip);
    b.syncthreads();
    let half = b.shr(stride, 1u32);
    b.mov(stride, half);
    b.bra(top);
    b.bind(exit_l);
    // Leader publishes the block sum.
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let res = b.ld(my_addr, 0);
    let oaddr = addr(b, out, bid);
    b.st(oaddr, 0, res);
    b.bind(fin);
}

/// Emits a correctly-barriered inclusive Hillis–Steele scan over the
/// block's slice of `data`, double-buffered in `data` and `tmp`.
pub fn block_scan(b: &mut KernelBuilder, data: Reg, tmp: Reg, dim: u32) {
    assert!(dim.is_power_of_two());
    let tid = b.special(Special::Tid);
    let bid = b.special(Special::BlockId);
    let bdim = b.special(Special::BlockDim);
    let base_idx = b.mul(bid, bdim);
    let my_idx = b.add(base_idx, tid);
    let src = b.reg();
    let dst = b.reg();
    b.mov(src, data);
    b.mov(dst, tmp);
    let stride = b.imm(1);
    let top = b.here();
    let done = b.ge(stride, dim);
    let exit_l = b.fwd_label();
    b.bra_if(done, exit_l);
    let my_addr = addr(b, src, my_idx);
    let mine = b.ld(my_addr, 0);
    let has_left = b.ge(tid, stride);
    let no_add = b.fwd_label();
    let store_l = b.fwd_label();
    b.bra_ifnot(has_left, no_add);
    let lidx = b.sub(my_idx, stride);
    let laddr = addr(b, src, lidx);
    let left = b.ld(laddr, 0);
    let sum = b.add(mine, left);
    b.mov(mine, sum);
    b.bra(store_l);
    b.bind(no_add);
    b.bind(store_l);
    let daddr = addr(b, dst, my_idx);
    b.st(daddr, 0, mine);
    b.syncthreads();
    // Swap buffers.
    let t = b.reg();
    b.mov(t, src);
    b.mov(src, dst);
    b.mov(dst, t);
    let dbl = b.shl(stride, 1u32);
    b.mov(stride, dbl);
    b.bra(top);
    b.bind(exit_l);
}

/// Emits the Figure 10 grid-level synchronization.
///
/// `sync` points at `[arrived]`; `grid_size` is the expected arrival count.
/// With `fenced_by_all == false` this is NVIDIA's buggy implementation: the
/// device fence runs **only in each block's leader**, so non-leader writes
/// are not ordered before the sync — the NVlib_CG bug. With `true`, every
/// thread fences first (the commented-out line 3 of Figure 10).
pub fn grid_sync(b: &mut KernelBuilder, sync: Reg, grid_size: u32, fenced_by_all: bool) {
    if fenced_by_all {
        b.loc("grid_sync: __threadfence() by all (fixed)");
        b.membar(Scope::Device);
    }
    b.syncthreads();
    let tid = b.special(Special::Tid);
    let is0 = b.eq(tid, 0u32);
    let wait = b.fwd_label();
    b.bra_ifnot(is0, wait);
    b.loc("grid_sync: leader __threadfence()");
    b.membar(Scope::Device);
    let one = b.imm(1);
    b.loc("grid_sync: atomicAdd(arrived, 1)");
    let _ = b.atomic_add(Scope::Device, sync, 0, one);
    let spin = b.here();
    let got = b.ld_volatile(sync, 0);
    let not_all = b.ne(got, grid_size);
    b.bra_if(not_all, spin);
    b.bind(wait);
    b.syncthreads();
}

// ---- deterministic race seeders --------------------------------------------
//
// Each seeder plants exactly ONE racing site: a single store/atomic
// instruction executed unsynchronized by two conflicting threads. The site
// the detector reports is that instruction's pc.

/// AS: every block's leader runs a *block-scope* `atomicAdd` on the shared
/// word `ctr[slot]` — insufficient scope across blocks (Figure 1's class).
pub fn seed_scoped_atomic(b: &mut KernelBuilder, ctr: Reg, slot: i32, label: &str) {
    let tid = b.special(Special::Tid);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let one = b.imm(1);
    b.loc(format!("{label}: atomicAdd_block on shared counter"));
    let _ = b.atom(gpu_sim::ir::AtomOp::Add, Scope::Block, ctr, slot, one);
    b.bind(fin);
}

/// BR: threads 0 and 32 (different warps, same block) store the block's
/// word `buf[block + slot]` with no intervening barrier.
pub fn seed_intra_block(b: &mut KernelBuilder, buf: Reg, slot: u32, label: &str) {
    let tid = b.special(Special::Tid);
    let bid = b.special(Special::BlockId);
    let is0 = b.eq(tid, 0u32);
    let is32 = b.eq(tid, 32u32);
    let hit = b.or(is0, is32);
    let fin = b.fwd_label();
    b.bra_ifnot(hit, fin);
    let idx = b.add(bid, slot);
    let a = addr(b, buf, idx);
    b.loc(format!("{label}: unbarriered store from two warps"));
    b.st(a, 0, tid);
    b.bind(fin);
}

/// DR: each block's leader stores the single shared word `buf[slot]` with
/// no device-scope fence discipline.
pub fn seed_inter_block(b: &mut KernelBuilder, buf: Reg, slot: i32, label: &str) {
    let tid = b.special(Special::Tid);
    let bid = b.special(Special::BlockId);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    b.loc(format!("{label}: unfenced store shared across blocks"));
    b.st(buf, slot, bid);
    b.bind(fin);
}

/// ITS: lanes 0 and 1 of each warp store the warp's word `buf[gwarp+slot]`
/// from the *same instruction* at different times (a `for i { if tid==i }`
/// hammock), diverged and with no `__syncwarp` — Figure 8's class.
pub fn seed_its(b: &mut KernelBuilder, buf: Reg, slot: u32, label: &str) {
    let lane = b.special(Special::LaneId);
    let gwarp = b.special(Special::GlobalWarpId);
    let idx = b.add(gwarp, slot);
    let a = addr(b, buf, idx);
    let i = b.imm(0);
    let top = b.here();
    let done = b.ge(i, 2u32);
    let exit_l = b.fwd_label();
    b.bra_if(done, exit_l);
    let my_turn = b.eq(lane, i);
    let skip = b.fwd_label();
    b.bra_ifnot(my_turn, skip);
    b.loc(format!("{label}: divergent same-warp store, no __syncwarp"));
    b.st(a, 0, i);
    b.bind(skip);
    b.assign_add(i, i, 1u32);
    b.bra(top);
    b.bind(exit_l);
}

/// IL: lanes 0 and 1 of each block's warp 0 take *distinct* per-thread
/// locks (`locks[lane]`) and update their block's word `buf[slot + block]`
/// inside their critical sections — Figure 9's class. The data word is
/// per-block so the only conflict is the intra-warp disjoint-lockset one.
pub fn seed_improper_lock(b: &mut KernelBuilder, locks: Reg, buf: Reg, slot: u32, label: &str) {
    let tid = b.special(Special::Tid);
    let bid = b.special(Special::BlockId);
    let lt2 = b.lt(tid, 2u32);
    let fin = b.fwd_label();
    b.bra_ifnot(lt2, fin);
    let lock_addr = addr(b, locks, tid);
    b.lock(Scope::Device, lock_addr, 0);
    let idx = b.add(bid, slot);
    let data_addr = addr(b, buf, idx);
    // Store-only critical section: the racing site is one instruction.
    b.loc(format!("{label}: data update under disjoint locks"));
    b.st(data_addr, 0, tid);
    b.unlock(Scope::Device, lock_addr, 0);
    b.bind(fin);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;

    #[test]
    fn tree_reduce_computes_block_sums() {
        let mut b = KernelBuilder::new("tr");
        let data = b.param(0);
        let out = b.param(1);
        tree_reduce_block(&mut b, data, out, 64);
        let k = b.build();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dbuf = gpu.alloc(128).unwrap();
        let obuf = gpu.alloc(2).unwrap();
        gpu.write_slice(dbuf, &(0..128).collect::<Vec<u32>>());
        gpu.launch(&k, 2, 64, &[dbuf, obuf], &mut NullHook).unwrap();
        assert_eq!(gpu.read(obuf, 0), (0..64).sum::<u32>());
        assert_eq!(gpu.read(obuf, 1), (64..128).sum::<u32>());
    }

    #[test]
    fn block_scan_is_inclusive_prefix_sum() {
        let mut b = KernelBuilder::new("scan");
        let data = b.param(0);
        let tmp = b.param(1);
        block_scan(&mut b, data, tmp, 64);
        let k = b.build();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dbuf = gpu.alloc(64).unwrap();
        let tbuf = gpu.alloc(64).unwrap();
        gpu.write_slice(dbuf, &vec![1u32; 64]);
        gpu.launch(&k, 1, 64, &[dbuf, tbuf], &mut NullHook).unwrap();
        // log2(64) = 6 rounds: even number, result ends in `data`.
        let result = gpu.read_slice(dbuf, 64);
        let expect: Vec<u32> = (1..=64).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn fixed_grid_sync_synchronizes_blocks() {
        // Every block writes its slot, grid-syncs, then block 0's leader
        // sums all slots. With the all-threads fence this is correct.
        let mut b = KernelBuilder::new("gsync_fixed");
        let data = b.param(0);
        let sync = b.param(1);
        let out = b.param(2);
        let bid = b.special(Special::BlockId);
        let tid = b.special(Special::Tid);
        let is0 = b.eq(tid, 0u32);
        let skip_w = b.fwd_label();
        b.bra_ifnot(is0, skip_w);
        let a = addr(&mut b, data, bid);
        let hundred = b.imm(100);
        b.st(a, 0, hundred);
        b.bind(skip_w);
        grid_sync(&mut b, sync, 4, true);
        let gz = b.special(Special::GlobalTid);
        let isg0 = b.eq(gz, 0u32);
        let fin = b.fwd_label();
        b.bra_ifnot(isg0, fin);
        let acc = b.imm(0);
        for i in 0..4 {
            let idx = b.imm(i);
            let a = addr(&mut b, data, idx);
            let v = b.ld(a, 0);
            let s = b.add(acc, v);
            b.mov(acc, s);
        }
        b.st(out, 0, acc);
        b.bind(fin);
        let k = b.build();
        let mut gpu = Gpu::new(GpuConfig {
            seed: 11,
            ..GpuConfig::default()
        });
        let dbuf = gpu.alloc(4).unwrap();
        let sbuf = gpu.alloc(1).unwrap();
        let obuf = gpu.alloc(1).unwrap();
        gpu.launch(&k, 4, 32, &[dbuf, sbuf, obuf], &mut NullHook)
            .unwrap();
        assert_eq!(gpu.read(obuf, 0), 400);
    }
}
