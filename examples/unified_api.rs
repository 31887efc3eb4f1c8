//! The unified façade in one page: specs in, reports out.
//!
//! ```bash
//! cargo run --release --example unified_api
//! ```
//!
//! Builds one `RunSpec` per registered task, runs them all through
//! `Driver::run_sweep` with an in-memory sink, and prints a
//! one-line summary per task — no hand-wired `Sim`, no per-algorithm
//! plumbing.

use radionet::api::{Driver, Dynamics, MemorySink, RunSpec};
use radionet::graph::families::Family;
use radionet::sim::ReceptionMode;

fn main() {
    let driver = Driver::standard();

    // One spec per task: a jammed unit-disk deployment of ~256 nodes.
    let specs: Vec<RunSpec> = driver
        .registry()
        .keys()
        .map(|task| {
            let mut spec = RunSpec::new(task, Family::UnitDisk, 256)
                .with_dynamics(Dynamics::preset("jamming").unwrap())
                .with_seed(2026);
            if task == "cd-wakeup" {
                spec = spec.with_reception(ReceptionMode::ProtocolCd);
            }
            spec
        })
        .collect();

    let mut sink = MemorySink::default();
    driver.run_sweep(specs, 8, &mut sink).expect("all specs valid");

    println!("{:<22} {:>3}  {:>8}  {:>9}  {:>10}", "task", "ok", "achieved", "clock", "steps");
    for report in &sink.reports {
        println!(
            "{:<22} {:>3}  {:>8.2}  {:>9}  {:>10}",
            report.spec.task,
            if report.success { "yes" } else { "no" },
            report.achieved,
            report.clock_total,
            report.stats.simulated_steps,
        );
    }
}
