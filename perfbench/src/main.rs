//! The radionet benchmark: drives the workspace from outside through its
//! public entry points (`Driver::run`, `Service::start` + `ServiceClient`)
//! and prints end-to-end metrics, or, with `--trace 1`, per-layer metrics
//! from a traced replica of the `Driver::run` pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compete --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Every operation passes a correctness gate (pinned report digests and
//! RNG fingerprints, the task's own criterion, cached ≡ fresh). The last
//! stdout line is one JSON object; the exit code is non-zero when the gate
//! fails. `--pin` re-runs every input variant and prints a fresh
//! `src/pins.rs` for a declared behaviour change.

mod gate;
mod pins;
mod report;
mod service;
mod sim;
mod trace;
mod workloads;

use report::RunResult;
use std::process::ExitCode;
use workloads::Workload;

/// Parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: picks the input variant and shapes the service mix.
    pub seed: u64,
    /// Measuring budget: passes repeat while the next one fits in it
    /// (at least one pass always runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 60.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", gate::pin_source());
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <compete|traffic|setup|service> --seed <n> \
                 [--seconds <s>] [--trace <0|1>] | --pin"
            );
            return ExitCode::from(2);
        }
    };
    let result: RunResult = match (args.workload, args.trace) {
        (Workload::Service, false) => service::end_to_end(&args),
        (Workload::Service, true) => service::traced(&args),
        (_, false) => sim::end_to_end(&args),
        (_, true) => sim::traced(&args),
    };
    result.print();
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
