//! `iguard_run` — the reproduction's command-line face: run any evaluation
//! workload under a chosen detector and print races (with disassembly
//! context), detector statistics, and the runtime breakdown.
//!
//! ```text
//! cargo run -p bench --release --bin iguard_run -- --list
//! cargo run -p bench --release --bin iguard_run -- graph-color
//! cargo run -p bench --release --bin iguard_run -- reduction --context 2
//! cargo run -p bench --release --bin iguard_run -- shocbfs --detector barracuda
//! cargo run -p bench --release --bin iguard_run -- conjugGMB --no-coalesce --no-backoff
//! ```

use bench::{drive, flag_value, gpu_config, usage, BREAKDOWN_LABELS};
use gpu_sim::disasm;
use gpu_sim::machine::Gpu;
use gpu_sim::timing::COST_CATEGORIES;
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use workloads::{Size, Workload};

struct Args {
    workload: Option<String>,
    detector: String,
    size: Size,
    seed: u64,
    context: usize,
    coalesce: bool,
    backoff: bool,
    history: usize,
    list: bool,
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        workload: None,
        detector: "iguard".into(),
        size: Size::Test,
        seed: bench::DEFAULT_SEED,
        context: 0,
        coalesce: true,
        backoff: true,
        history: 1,
        list: false,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => args.list = true,
            "--detector" => args.detector = flag_value(&a, it.next()),
            "--size" => {
                args.size = match flag_value::<String>(&a, it.next()).as_str() {
                    "test" => Size::Test,
                    "bench" => Size::Bench,
                    other => usage(&format!("--size expects test or bench, got `{other}`")),
                }
            }
            "--seed" => args.seed = flag_value(&a, it.next()),
            "--context" => args.context = flag_value(&a, it.next()),
            "--history" => args.history = flag_value(&a, it.next()),
            "--no-coalesce" => args.coalesce = false,
            "--no-backoff" => args.backoff = false,
            "--help" | "-h" => {
                println!(
                    "usage: iguard_run <workload> [--detector iguard|barracuda|curd|none] \
                     [--size test|bench] [--seed N] [--context N] [--history N] \
                     [--no-coalesce] [--no-backoff] | --list"
                );
                std::process::exit(0);
            }
            w if !w.starts_with('-') => {
                if let Some(first) = &args.workload {
                    usage(&format!("one workload per run, got `{first}` and `{w}`"));
                }
                args.workload = Some(w.to_string());
            }
            other => usage(&format!("unknown flag {other}; see --help")),
        }
    }
    args
}

fn list_workloads() {
    println!(
        "{:<16} {:<10} {:>6}  classes (Table 4)",
        "name", "suite", "races"
    );
    println!("{}", "-".repeat(60));
    for w in workloads::all() {
        let tags: Vec<&str> = w.tags.iter().map(|t| t.detector_code()).collect();
        println!(
            "{:<16} {:<10} {:>6}  {}",
            w.name,
            w.suite.name(),
            w.paper_races,
            if tags.is_empty() {
                "race-free".to_string()
            } else {
                tags.join(",")
            }
        );
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1).collect());
    if args.list {
        list_workloads();
        return;
    }
    let Some(name) = args.workload.clone() else {
        usage("no workload given; try --list or --help");
    };
    let Some(w) = workloads::by_name(&name) else {
        usage(&format!("unknown workload `{name}`; try --list"));
    };
    match args.detector.as_str() {
        "iguard" => run_iguard(&w, &args),
        "barracuda" => run_barracuda(&w, &args),
        "curd" => run_curd(&w, &args),
        "none" => run_native(&w, &args),
        other => usage(&format!(
            "unknown detector `{other}` (iguard|barracuda|curd|none)"
        )),
    }
}

fn run_native(w: &Workload, args: &Args) {
    let d = bench::run_native(w, args.size, gpu_config(args.seed));
    println!("{}: native run, {} kernel launch(es)", w.name, d.launches);
    println!(
        "simulated time: {:.0} cycles{}",
        d.time,
        if d.timed_out {
            "  (WATCHDOG TIMEOUT)"
        } else {
            ""
        }
    );
}

fn run_iguard(w: &Workload, args: &Args) {
    let cfg = IguardConfig {
        coalescing: args.coalesce,
        backoff: args.backoff,
        history_depth: args.history,
        ..IguardConfig::default()
    };
    let mut gpu = Gpu::new(gpu_config(args.seed));
    let launches = w.build(&mut gpu, args.size);
    let mut tool = Instrumented::new(Iguard::new(cfg));
    let d = drive(&mut gpu, &launches, &mut tool, w.name, |_| false);

    let races = tool.tool_mut().races();
    println!(
        "{}: iGUARD found {} race(s){}  (paper: {})",
        w.name,
        races.len(),
        if d.timed_out {
            " before the watchdog timeout"
        } else {
            ""
        },
        w.paper_races
    );
    for r in &races {
        println!("\n  {r}");
        if args.context > 0 {
            if let Some(l) = launches.iter().find(|l| l.kernel.name == r.kernel) {
                for line in disasm::context(&l.kernel, r.pc, args.context).lines() {
                    println!("    {line}");
                }
            }
        }
    }

    let s = tool.tool().stats();
    println!("\ndetector statistics:");
    println!("  accesses processed:   {}", s.accesses);
    println!("  coalesced away:       {}", s.coalesced_saved);
    println!("  contended accesses:   {}", s.contended_accesses);
    println!("  safe-check hits P1-6: {:?}", s.safe_hits);
    println!("  race-check hits R1-5: {:?}", s.race_hits);
    let uvm = tool.tool().uvm_stats();
    println!(
        "  UVM: {} prefaulted pages, {} faults, {} evictions",
        uvm.prefaulted_pages, uvm.faults, uvm.evictions
    );

    println!("\nruntime breakdown:");
    for (i, &c) in COST_CATEGORIES.iter().enumerate() {
        let t = gpu.clock().time(c);
        println!(
            "  {:<16} {:>10.0} cycles  ({:>5.1}%)",
            BREAKDOWN_LABELS[i],
            t,
            100.0 * t / d.time
        );
    }
}

fn run_curd(w: &Workload, args: &Args) {
    let mut gpu = Gpu::new(gpu_config(args.seed));
    let launches = w.build(&mut gpu, args.size);
    let kernels = Workload::kernels(&launches);
    let kind = barracuda::BinaryKind::of(w.multi_file);
    let curd = match barracuda::Curd::for_kernels(&kernels, kind) {
        Ok(c) => c,
        Err(u) => {
            println!("{}: CURD refuses this binary: {u}", w.name);
            return;
        }
    };
    println!("{}: CURD path = {:?}", w.name, curd.path());
    let mut tool = Instrumented::new(curd);
    let d = drive(&mut gpu, &launches, &mut tool, w.name, |_| false);
    let races = tool.tool_mut().finish(gpu.clock_mut());
    println!(
        "  {} race(s){}; simulated time {:.0} cycles",
        races.len(),
        if d.timed_out { " (timeout)" } else { "" },
        gpu.clock().total_time()
    );
}

fn run_barracuda(w: &Workload, args: &Args) {
    let cfg = bench::barracuda_config_for();
    match bench::run_barracuda(w, args.size, gpu_config(args.seed), cfg) {
        bench::BarracudaRun::Unsupported(u) => {
            println!("{}: Barracuda refuses this binary: {u}", w.name);
        }
        bench::BarracudaRun::Ran {
            time,
            races,
            failure,
            events,
        } => {
            println!("{}: Barracuda found {races} race(s)", w.name);
            println!("  events shipped: {events}");
            println!("  simulated time: {time:.0} cycles");
            match failure {
                Some(barracuda::BarracudaFailure::DidNotTerminate) => {
                    println!("  DID NOT TERMINATE (CPU consumer fell behind; results partial)");
                }
                Some(barracuda::BarracudaFailure::OutOfMemory { needed, capacity }) => {
                    println!("  OUT OF MEMORY (reservation {needed} B > capacity {capacity} B)");
                }
                None => {}
            }
        }
    }
}
