//! The benchmark harness: one experiment per quantitative claim of the
//! paper, indexed by the registry table in [`experiments`]. Each experiment
//! is a library function returning an [`radionet_analysis::ExperimentRecord`]
//! and printing its Markdown table; the one `exp` binary runs any of them
//! by id (or `all`) through [`run_and_save`], writing JSON records to
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiments;

pub use context::{GraphCase, Scale};

use experiments::ExperimentDef;
use std::path::Path;

/// Runs each experiment at `scale`, in order, and writes its JSON record
/// to `dir`.
///
/// # Errors
///
/// Stops at the first record that cannot be written and names it, so a
/// missing record never passes for a finished run.
pub fn run_and_save(defs: &[&ExperimentDef], scale: Scale, dir: &Path) -> Result<(), String> {
    for def in defs {
        let record = (def.run)(scale);
        let path = record.save(dir).map_err(|e| format!("could not write {}: {e}", record.id))?;
        eprintln!("record written to {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_analysis::ExperimentRecord;

    #[test]
    fn unwritable_record_is_an_error() {
        let def = ExperimentDef {
            id: "T0",
            claim: "save failures surface",
            run: |_| ExperimentRecord::new("T0", "save failures surface"),
        };
        let root = std::env::temp_dir().join(format!("radionet-bench-save-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let results = root.join("results");
        std::fs::write(&results, "a file, not a directory").unwrap();
        let err = run_and_save(&[&def], Scale::Quick, &results).unwrap_err();
        std::fs::remove_dir_all(&root).unwrap();
        assert!(err.contains("could not write T0"), "{err}");
    }
}
