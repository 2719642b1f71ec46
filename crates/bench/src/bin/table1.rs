//! Regenerates **Table 1** — the qualitative feature matrix — *by running
//! probes* rather than quoting it: one minimal racy kernel per advanced
//! feature (scoped fence, scoped atomic, ITS, CG), each run under iGUARD,
//! a ScoRD-like detector (same scoped logic, no ITS support), and
//! Barracuda.
//!
//! ```text
//! cargo run -p bench --release --bin table1
//! ```

use bench::{drive, gpu_config, par_map, DEFAULT_SEED};
use gpu_sim::machine::Gpu;
use gpu_sim::prelude::*;
use oracle::Detector;
use workloads::Launch;

/// Scoped-fence probe: the producer "publishes" with only a *block*-scope
/// fence before raising the flag; a consumer in another block reads.
fn scoped_fence_probe() -> Kernel {
    let mut b = KernelBuilder::new("probe_sc_fence");
    let base = b.param(0); // [flag, data, out]
    let bid = b.special(Special::BlockId);
    let tid = b.special(Special::Tid);
    let is_p = b.eq(bid, 0u32);
    let cons = b.fwd_label();
    b.bra_ifnot(is_p, cons);
    let t0 = b.eq(tid, 0u32);
    let pd = b.fwd_label();
    b.bra_ifnot(t0, pd);
    let v = b.imm(11);
    b.st(base, 1, v);
    b.membar(Scope::Block); // insufficient: needs device scope
    let one = b.imm(1);
    let _ = b.atomic_exch(Scope::Device, base, 0, one);
    b.bind(pd);
    let endl = b.fwd_label();
    b.bra(endl);
    b.bind(cons);
    let t0c = b.eq(tid, 0u32);
    let cd = b.fwd_label();
    b.bra_ifnot(t0c, cd);
    let spin = b.here();
    let f = b.ld_volatile(base, 0);
    let unset = b.eq(f, 0u32);
    b.bra_if(unset, spin);
    let d = b.ld(base, 1);
    b.st(base, 2, d);
    b.bind(cd);
    b.bind(endl);
    b.build()
}

/// Scoped-atomic probe: block-scope atomicAdd on a counter shared across
/// blocks (the Figure 1 class).
fn scoped_atomic_probe() -> Kernel {
    let mut b = KernelBuilder::new("probe_sc_atomic");
    let base = b.param(0);
    let tid = b.special(Special::Tid);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let one = b.imm(1);
    let _ = b.atom(AtomOp::Add, Scope::Block, base, 0, one);
    b.bind(fin);
    b.build()
}

/// ITS probe: divergent same-warp handoff with no `__syncwarp`.
fn its_probe() -> Kernel {
    let mut b = KernelBuilder::new("probe_its");
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let is1 = b.eq(tid, 1u32);
    let skip = b.fwd_label();
    b.bra_ifnot(is1, skip);
    let v = b.imm(7);
    b.st(base, 1, v);
    b.bind(skip);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let got = b.ld(base, 1);
    b.st(base, 0, got);
    b.bind(fin);
    b.build()
}

/// CG probe: a cooperative warp-group reduce whose group sync was written
/// with `cg::coalesced_threads().sync()` (a `__syncwarp`) — but one fold
/// happens *outside* the synced region. Detecting it needs full support
/// for warp-level synchronization, which is why no prior tool sees CG
/// races (§4: "none detect races due to CG, since one needs to fully
/// support atomics, fences, and ITS for it").
fn cg_probe() -> Kernel {
    let mut b = KernelBuilder::new("probe_cg");
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    // Phase 1 (correctly synced by the CG primitive): lane 2 writes, sync.
    let is2 = b.eq(tid, 2u32);
    let s1 = b.fwd_label();
    b.bra_ifnot(is2, s1);
    let v = b.imm(3);
    b.st(base, 2, v);
    b.bind(s1);
    b.syncwarp(); // cg::coalesced_threads().sync()
                  // Phase 2 (the bug): lane 1 folds, lane 0 reads — no group sync.
    let is1 = b.eq(tid, 1u32);
    let s2 = b.fwd_label();
    b.bra_ifnot(is1, s2);
    let x = b.ld(base, 2);
    let x1 = b.add(x, 1u32);
    b.st(base, 1, x1);
    b.bind(s2);
    let is0 = b.eq(tid, 0u32);
    let fin = b.fwd_label();
    b.bra_ifnot(is0, fin);
    let got = b.ld(base, 1);
    b.st(base, 0, got);
    b.bind(fin);
    b.build()
}

/// One table cell: whether `detector` reports a race on the probe
/// `kernel` over a `grid` of 32-thread blocks, or `unsupported` when it
/// refuses the binary.
fn cell(kernel: Kernel, grid: u32, detector: Detector) -> &'static str {
    let mut gpu = Gpu::new(gpu_config(DEFAULT_SEED));
    let params = vec![gpu.alloc(8).unwrap()];
    let probe = [Launch {
        kernel,
        grid,
        block: 32,
        params,
    }];
    let (kernels, name) = ([&probe[0].kernel], &*probe[0].kernel.name);
    let found = detector.flags(&kernels, |mut hook| {
        drive(&mut gpu, &probe, &mut hook, name, |_| false);
        gpu
    });
    match found {
        None => "unsupported",
        Some(true) => "Yes",
        Some(false) => "No",
    }
}

/// `(feature, probe constructor, grid, paper row)`.
type Probe = (&'static str, fn() -> Kernel, u32, &'static str);

fn main() {
    bench::switches([]);
    let probes: [Probe; 4] = [
        ("Sc. fence", scoped_fence_probe, 2, "Yes / Yes / Yes / Yes"),
        (
            "Sc. atomic",
            scoped_atomic_probe,
            2,
            "No(unsup) / No / Yes / Yes",
        ),
        ("ITS", its_probe, 1, "No / Lim / No / Yes"),
        ("CG", cg_probe, 1, "No / No / No / Yes"),
    ];

    // Four tool columns per probe, each run building its own kernel.
    let items = probes
        .iter()
        .flat_map(|&(_, probe, grid, _)| Detector::TABLE1.map(|d| (probe, grid, d)))
        .collect();
    let cells: Vec<&str> = par_map(items, |(probe, grid, d)| cell(probe(), grid, d))
        .into_iter()
        .map(|cell| cell.expect("a probe run does not panic"))
        .collect();

    println!("Table 1 (functional): race-class support, measured by probe kernels");
    println!();
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}   paper: Barracuda/CURD/ScoRD/iGUARD",
        "feature", "Barracuda", "CURD", "ScoRD*", "iGUARD"
    );
    println!("{}", "-".repeat(86));
    for (i, (name, _, _, paper)) in probes.iter().enumerate() {
        let [bar, curd, scord, ig] = [
            cells[4 * i],
            cells[4 * i + 1],
            cells[4 * i + 2],
            cells[4 * i + 3],
        ];
        println!("{name:<12} {bar:>10} {curd:>10} {scord:>10} {ig:>10}   ({paper})");
    }
    println!();
    println!("* ScoRD emulated as iGUARD's scoped logic without ITS support");
    println!("  (IguardConfig::scord_like()); the real ScoRD is new hardware.");
}
