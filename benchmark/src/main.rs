//! The rlnoc benchmark: one command, three workloads.
//!
//! ```text
//! rlnoc-benchmark --workload <paper_figures|fault_churn|serve_open_loop>
//!                 [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the production code paths untraced and prints the
//! end-to-end metrics; `--trace 1` adds traced rounds through the
//! benchmark's own backend wrapper and replays, and prints the
//! per-layer metrics. Either way the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and any
//! failed correctness check makes the exit code non-zero. See
//! README.md for the workloads and metric definitions.

mod heap;
mod metrics;
mod probe;
mod report;
mod serve;
mod sim;

use report::Checks;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["paper_figures", "fault_churn", "serve_open_loop"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for checkpoints and service state, inside the
    /// working directory; removed on exit.
    pub scratch: PathBuf,
}

/// Default seed per workload. `paper_figures` uses the paper
/// campaign's own seed; README.md names the held-out seed.
fn default_seed(workload: &str) -> u64 {
    match workload {
        "paper_figures" => 2019,
        "fault_churn" => 31,
        _ => 1000,
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or_else(|| default_seed(&workload));
    let scratch = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".bench_tmp")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scratch,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("error: cannot create {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut checks = Checks::default();
    let serve = args.workload == "serve_open_loop";
    let metrics = if args.trace {
        let layers = if serve {
            serve::per_layer(&args, &mut checks)
        } else {
            sim::per_layer(&args, &mut checks)
        };
        layers.list()
    } else {
        let mut e2e = if serve {
            serve::end_to_end(&args, &mut checks)
        } else {
            sim::end_to_end(&args, &mut checks)
        };
        e2e.ok_frac = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
        e2e.list()
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    if let Some(parent) = args.scratch.parent() {
        // Removes `.bench_tmp` only once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    report::emit(&metrics, &checks);
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
