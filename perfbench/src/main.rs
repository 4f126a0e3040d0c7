//! The predpkt co-emulation benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec_queue --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `spec_queue` (speculative sessions on the in-process queue)
//! and `farm_open` (an open loop of short sessions into a `SessionFarm`),
//! both listed in `BENCHMARK.json`, and `conservative_tcp` (lockstep
//! sessions over TCP loopback), which runs the same way but is not listed:
//! on a shared two-core virtual host its throughput moves between runs by
//! more than a third of any regression bound the benchmark may set.
//!
//! Every session is checked against the monolithic golden bus. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` adds a run through timing
//! shims at the library's layer boundaries, prints the per-layer metrics
//! and writes the spans to `.perfbench/`. The last line of output is one
//! JSON object.

mod farm;
mod host;
mod metrics;
mod session;
mod shims;
mod single;
mod stats;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::{Command, ExitCode};

use metrics::{json_number, RunReport, END_TO_END, PER_LAYER};
use session::{auto_config, conservative_config, Link};
use single::Plan;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["spec_queue", "conservative_tcp", "farm_open"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Set in the environment of the pinned re-execution.
const PIN_GUARD: &str = "PERFBENCH_PINNED";

/// Runs this benchmark again under `taskset`, pinned to one CPU, and returns
/// its exit code; `None` when already pinned or `taskset` cannot be run (the
/// run then proceeds unpinned, and the host fingerprint says so).
///
/// The single-session workloads run pinned: on a shared virtual host,
/// wake-ups of the TCP domain threads across CPUs and migrations of the
/// engine thread dominate run-to-run variance otherwise.
fn rerun_pinned() -> Option<ExitCode> {
    if std::env::var_os(PIN_GUARD).is_some() {
        return None;
    }
    let cpu = host::first_allowed_cpu()?;
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PIN_GUARD, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(
        status.code().unwrap_or(1).clamp(0, 255) as u8
    ))
}

fn plan(workload: &str) -> Option<Plan> {
    match workload {
        "spec_queue" => Some(Plan {
            link: Link::Queue,
            config: auto_config(),
            cycles: 2_000,
        }),
        "conservative_tcp" => Some(Plan {
            link: Link::Tcp,
            config: conservative_config(),
            cycles: 2_000,
        }),
        _ => None,
    }
}

/// Writes the kept spans as JSON lines; returns the path written.
fn write_spans(args: &Args, report: &RunReport) -> std::io::Result<String> {
    let dir = Path::new(".perfbench");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = BufWriter::new(fs::File::create(&path)?);
    for s in &report.spans {
        writeln!(
            out,
            "{{\"layer\": \"{}\", \"parent\": \"{}\", \"session\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            s.layer, s.parent, s.session, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn print_metrics(report: &RunReport, catalogue: &[(&str, &str)]) {
    for &(name, unit) in catalogue {
        match report.values.get(name) {
            Some(v) => println!("  {name:<42} {:>16} {unit}", json_number(*v)),
            None => println!("  {name:<42} {:>16} {unit}", "missing"),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = plan(&args.workload);
    if plan.is_some() {
        if let Some(code) = rerun_pinned() {
            return code;
        }
    }
    println!("# host {}", host::fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = match plan {
        Some(plan) => single::run(&plan, &args),
        None => farm::run(&args),
    };
    report.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    report.set(
        "completed_ratio",
        report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64,
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for e in &report.errors {
        println!("# FAILED {e}");
    }
    println!(
        "# failed_ratio {} ({} of {} operations)",
        json_number(report.failed as f64 / report.attempted.max(1) as f64),
        report.failed,
        report.attempted
    );
    println!("end-to-end:");
    print_metrics(&report, END_TO_END);
    let catalogue = if args.trace {
        println!("per-layer (traced run):");
        print_metrics(&report, PER_LAYER);
        match write_spans(&args, &report) {
            Ok(path) => println!("# {} spans written to {path}", report.spans.len()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", report.result_json(catalogue));
    ExitCode::SUCCESS
}
