//! `valetbench` — the repository's benchmark: end-to-end and per-layer
//! metrics for the simulator sweeps and the live `valetd` server.
//!
//! ```text
//! valetbench --workload sim_fig8 --seed 1 --seconds 20 --trace 0 \
//!            --valetd <path> --out-dir <dir>
//! ```
//!
//! `run.sh` builds both binaries and supplies `--valetd` and `--out-dir`.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). A failed output check exits 1
//! without that line.

#![deny(unsafe_op_in_unsafe_fn)]

mod host;
mod layers;
mod live;
mod procfs;
mod report;
mod rng;
mod sim;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::live::LiveWorkload;
use crate::sim::SimWorkload;

/// Parsed command line of a measuring run.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    /// The only source of the workload's inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `valetd` binary the live workloads start.
    pub valetd: PathBuf,
    /// Where run files go.
    pub out_dir: PathBuf,
    /// Harness pool threads: one per CPU.
    pub threads: usize,
}

enum Mode {
    Run(RunArgs),
    /// Child process of the sim set-up measurement.
    SetupProbe(SimWorkload, u64),
    /// Print the pinned outputs of every seed variant.
    Pin(SimWorkload, usize),
}

const USAGE: &str = "usage: valetbench --workload sim_fig8|sim_anatomy|live_floor|live_slo \
                     --seed N --seconds S --trace 0|1 --valetd PATH --out-dir DIR\n\
                     \x20      valetbench --pin sim_fig8|sim_anatomy";

fn parse() -> Result<Mode, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut valetd = None;
    let mut out_dir = None;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut probe = None;
    let mut pin = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--valetd" => valetd = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--setup-probe" => probe = Some(value()?),
            "--pin" => pin = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let sim = |name: &str| {
        SimWorkload::from_name(name).ok_or_else(|| format!("not a sim workload: {name}"))
    };
    if let Some(name) = probe {
        return Ok(Mode::SetupProbe(sim(&name)?, seed.unwrap_or(0)));
    }
    if let Some(name) = pin {
        return Ok(Mode::Pin(sim(&name)?, threads));
    }
    let missing = |flag: &str| format!("missing {flag}");
    Ok(Mode::Run(RunArgs {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        valetd: valetd.ok_or_else(|| missing("--valetd"))?,
        out_dir: out_dir.ok_or_else(|| missing("--out-dir"))?,
        threads,
    }))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::SetupProbe(w, seed)) => {
            sim::setup_probe(w, seed);
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Pin(w, threads)) => {
            sim::print_pins(w, threads);
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(w) = SimWorkload::from_name(&args.workload) {
        sim::run(w, &args)
    } else if let Some(w) = LiveWorkload::from_name(&args.workload) {
        live::run(w, &args)
    } else {
        Err(format!("unknown workload {}\n{USAGE}", args.workload))
    };
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.table());
            if !outcome.correct {
                eprintln!(
                    "{}: output check failed ({} of {} failed)",
                    args.workload, outcome.failed, outcome.attempted
                );
                return ExitCode::FAILURE;
            }
            println!("{}", outcome.result_line(args.trace));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{}: {msg}", args.workload);
            ExitCode::FAILURE
        }
    }
}
