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

use bench::{gpu_config, BREAKDOWN_LABELS};
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
            "--detector" => args.detector = it.next().expect("--detector <name>"),
            "--size" => {
                args.size = match it.next().expect("--size <test|bench>").as_str() {
                    "bench" => Size::Bench,
                    _ => Size::Test,
                }
            }
            "--seed" => args.seed = numeric_arg(&mut it, "--seed"),
            "--context" => args.context = numeric_arg(&mut it, "--context"),
            "--history" => args.history = numeric_arg(&mut it, "--history"),
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
            w if !w.starts_with('-') => args.workload = Some(w.to_string()),
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Parses the next argument as a number, exiting with a clean message on
/// a missing or non-numeric value (a user typo must not panic).
fn numeric_arg<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = it.next() else {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got `{raw}`");
        std::process::exit(2);
    })
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
        eprintln!("no workload given; try --list or --help");
        std::process::exit(2);
    };
    let Some(w) = workloads::by_name(&name) else {
        eprintln!("unknown workload `{name}`; try --list");
        std::process::exit(2);
    };
    if !matches!(args.detector.as_str(), "iguard" | "barracuda" | "curd" | "none") {
        eprintln!(
            "unknown detector `{}` (iguard|barracuda|curd|none)",
            args.detector
        );
        std::process::exit(2);
    }

    match args.detector.as_str() {
        "iguard" => run_iguard(&w, &args),
        "barracuda" => run_barracuda(&w, &args),
        "curd" => run_curd(&w, &args),
        _ => run_native(&w, &args),
    }
}

fn launch_all(
    gpu: &mut Gpu,
    launches: &[workloads::Launch],
    hook: &mut dyn gpu_sim::hook::Hook,
) -> bool {
    let mut timed_out = false;
    for l in launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, hook) {
            Ok(_) => {}
            Err(gpu_sim::error::SimError::Timeout { .. }) => timed_out = true,
            Err(e) => {
                eprintln!("launch failed: {e}");
                std::process::exit(1);
            }
        }
    }
    timed_out
}

fn run_native(w: &Workload, args: &Args) {
    let mut gpu = Gpu::new(gpu_config(args.seed));
    let launches = w.build(&mut gpu, args.size);
    let timed_out = launch_all(&mut gpu, &launches, &mut gpu_sim::hook::NullHook);
    println!(
        "{}: native run, {} kernel launch(es)",
        w.name,
        launches.len()
    );
    println!(
        "simulated time: {:.0} cycles{}",
        gpu.clock().total_time(),
        if timed_out {
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
    let timed_out = launch_all(&mut gpu, &launches, &mut tool);

    let races = tool.tool_mut().races();
    println!(
        "{}: iGUARD found {} race(s){}  (paper: {})",
        w.name,
        races.len(),
        if timed_out {
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
    let total = gpu.clock().total_time();
    for (i, &c) in COST_CATEGORIES.iter().enumerate() {
        let t = gpu.clock().time(c);
        println!(
            "  {:<16} {:>10.0} cycles  ({:>5.1}%)",
            BREAKDOWN_LABELS[i],
            t,
            100.0 * t / total
        );
    }
}

fn run_curd(w: &Workload, args: &Args) {
    let mut gpu = Gpu::new(gpu_config(args.seed));
    let launches = w.build(&mut gpu, args.size);
    let kind = if w.multi_file {
        barracuda::BinaryKind::MultiFile
    } else {
        barracuda::BinaryKind::SingleFile
    };
    let kernels = Workload::kernels(&launches);
    let curd = match barracuda::Curd::for_kernels(&kernels, kind, Default::default()) {
        Ok(c) => c,
        Err(u) => {
            println!("{}: CURD refuses this binary: {u}", w.name);
            return;
        }
    };
    println!("{}: CURD path = {:?}", w.name, curd.path());
    let mut tool = Instrumented::new(curd);
    let timed_out = launch_all(&mut gpu, &launches, &mut tool);
    let races = tool.tool_mut().finish(gpu.clock_mut());
    println!(
        "  {} race(s){}; simulated time {:.0} cycles",
        races.len(),
        if timed_out { " (timeout)" } else { "" },
        gpu.clock().total_time()
    );
}

fn run_barracuda(w: &Workload, args: &Args) {
    match bench::run_barracuda(w, args.size, args.seed, bench::barracuda_config_for(w)) {
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
