//! E14 — dynamic-network scenarios: how the α-parametrized algorithms
//! degrade (and recover) under churn, partitions, jamming, and staggered
//! wake-up, swept in parallel through [`Driver::run_sweep`].

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::ingest::group_summaries;
use radionet_analysis::table::f2;
use radionet_analysis::{ExperimentRecord, Table};
use radionet_api::{Driver, MemorySink, RunReport};
use radionet_scenario::runner::{to_record, to_run_records, SweepConfig};

/// Scenario sweep sizes (smaller than the static sweeps: every cell runs a
/// full multi-phase algorithm under perturbation).
fn sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![48, 96],
        Scale::Full => vec![64, 256, 1024],
    }
}

/// Runs `config` through the driver, `chunk` cells at a time.
fn sweep(config: &SweepConfig, chunk: usize) -> Vec<RunReport> {
    let mut sink = MemorySink::default();
    Driver::standard()
        .run_sweep(config.specs(), chunk, &mut sink)
        .expect("catalogue cells are valid specs");
    sink.reports
}

/// E14 — the scenario sweep. Runs the full catalogue in one parallel
/// chunk, cross-checks a Quick-scale slice against the sequential
/// (`chunk = 1`) sweep (byte-identical results), and reports per-scenario
/// success and timing.
pub fn e14_scenarios(scale: Scale) -> ExperimentRecord {
    let claim = "Dynamic networks: guarantee degradation under churn, partition/repair, jamming";
    banner("E14", claim);
    let config = SweepConfig::catalogue(sizes(scale), scale.seeds().min(3), 0xd1ce);
    let cell_count = config.specs().count();
    eprintln!("running {cell_count} cells on {} threads", rayon::current_num_threads());
    let reports = sweep(&config, cell_count);

    // Determinism cross-check: the parallel sweep must reproduce the
    // sequential one bit-for-bit on a slice (full set at Quick scale).
    let check = if scale == Scale::Quick {
        config.clone()
    } else {
        SweepConfig { sizes: vec![sizes(Scale::Quick)[0]], ..config.clone() }
    };
    let seq = sweep(&check, 1);
    let par = if scale == Scale::Quick { reports.clone() } else { sweep(&check, cell_count) };
    assert_eq!(seq, par, "parallel sweep diverged from sequential");

    let mut record = to_record("E14", claim, &config, &reports);
    let rows = to_run_records(&config, &reports);

    let mut table =
        Table::new(["scenario", "workload", "n", "ok", "achieved", "clock (mean)", "collisions"]);
    let groups = group_summaries(&rows, &["scenario", "n"], "clock_total");
    for (label, clock) in &groups {
        let (scenario, n) = label.split_once('/').unwrap_or((label.as_str(), "?"));
        let in_group: Vec<_> = rows
            .iter()
            .filter(|r| {
                r.params.get("scenario").map(String::as_str) == Some(scenario)
                    && r.params.get("n").map(String::as_str) == Some(n)
            })
            .collect();
        let k = in_group.len().max(1) as f64;
        let ok = in_group.iter().filter(|r| r.metrics["success"] == 1.0).count();
        let achieved = in_group.iter().map(|r| r.metrics["achieved"]).sum::<f64>() / k;
        let collisions = in_group.iter().map(|r| r.metrics["collisions"]).sum::<f64>() / k;
        let workload =
            in_group.first().and_then(|r| r.params.get("workload").cloned()).unwrap_or_default();
        table.row([
            scenario.to_string(),
            workload,
            n.to_string(),
            format!("{ok}/{}", in_group.len()),
            f2(achieved),
            format!("{:.0}", clock.mean),
            format!("{collisions:.0}"),
        ]);
    }
    println!("{}", table.render());

    // Notes: static cells are the control; each dynamics class reports its
    // worst-case achieved fraction.
    for dynamics in ["static", "churn", "partition-repair", "jamming", "staggered-wake"] {
        let achieved: Vec<f64> = rows
            .iter()
            .filter(|r| r.params.get("dynamics").map(String::as_str) == Some(dynamics))
            .map(|r| r.metrics["achieved"])
            .collect();
        if achieved.is_empty() {
            continue;
        }
        let worst = achieved.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = achieved.iter().sum::<f64>() / achieved.len() as f64;
        record.note(format!(
            "{dynamics}: mean achieved {mean:.2}, worst {worst:.2} over {} cells",
            achieved.len()
        ));
    }
    record.note(format!(
        "parallel runner verified byte-identical to sequential on {} cells",
        seq.len()
    ));
    print_notes(&record);
    record
}
