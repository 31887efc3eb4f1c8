//! `exp` — the one experiment entry point.
//!
//! ```text
//! exp <id>...   run the named experiments (case-insensitive), in order
//! exp all       run every registered experiment, in registry order
//! exp           list the registry and exit 2
//! ```
//!
//! Scale via `RADIONET_SCALE=quick|full` (unset means full; any other
//! value exits 2). Each record is written to `results/<id>.json`; a record
//! that cannot be written exits 1.

use radionet_bench::{experiments, run_and_save, Scale};
use std::path::Path;
use std::process::ExitCode;

/// Exit status for a usage error: no arguments, an unknown id or a bad
/// scale.
const USAGE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("usage: exp <id>... | all\n");
        for e in experiments::ALL {
            println!("  {:<4} {}", e.id, e.claim);
        }
        return ExitCode::from(USAGE);
    }
    let (defs, scale) = match (experiments::select(&args), Scale::from_env()) {
        (Ok(defs), Ok(scale)) => (defs, scale),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("exp: {e}");
            return ExitCode::from(USAGE);
        }
    };
    println!("# radionet experiments ({scale:?} scale)\n");
    match run_and_save(&defs, scale, Path::new("results")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}
