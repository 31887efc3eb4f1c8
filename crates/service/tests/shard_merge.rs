//! Shard-merge determinism over the extended catalogue: sharded sweeps
//! (2, 3, and 7 shards) must produce a JSONL stream byte-identical to the
//! sequential (`chunk = 1`) [`Driver::run_sweep`] output, `fell_back`
//! propagation included — and subprocess workers must be indistinguishable
//! from in-process threads.

use radionet_api::{Driver, JsonlSink, RunSpec};
use radionet_graph::families::Family;
use radionet_scenario::runner::to_run_records;
use radionet_scenario::{Scenario, SweepConfig};
use radionet_service::{run_sweep_sharded, ShardMode};
use radionet_sim::Kernel;

/// Every cell of the extended catalogue (static + mobility presets) at one
/// modest size, as façade specs under `kernel`.
fn extended_cells(kernel: Kernel) -> (SweepConfig, Vec<RunSpec>) {
    let config = SweepConfig {
        scenarios: Scenario::extended_catalogue(),
        sizes: vec![36],
        seeds: 1,
        base_seed: 0x00DA_51E5,
        kernel,
    };
    let specs = config.specs().collect();
    (config, specs)
}

fn sequential_bytes(driver: &Driver, specs: &[RunSpec]) -> Vec<u8> {
    let mut out = Vec::new();
    driver.run_sweep(specs.iter().cloned(), 1, &mut JsonlSink::new(&mut out)).unwrap();
    out
}

fn sharded_bytes(driver: &Driver, specs: &[RunSpec], shards: usize, mode: &ShardMode) -> Vec<u8> {
    let mut out = Vec::new();
    let emitted =
        run_sweep_sharded(driver, specs, shards, mode, &mut JsonlSink::new(&mut out)).unwrap();
    assert_eq!(emitted, specs.len(), "every cell must be emitted");
    out
}

#[test]
fn sharded_sweeps_are_byte_identical_over_the_extended_catalogue() {
    let driver = Driver::standard();
    let (_, specs) = extended_cells(Kernel::Sparse);
    assert!(specs.len() >= 8, "the extended catalogue should be a real sweep");
    let sequential = sequential_bytes(&driver, &specs);
    for shards in [2, 3, 7] {
        let sharded = sharded_bytes(&driver, &specs, shards, &ShardMode::InProcess);
        assert_eq!(sequential, sharded, "{shards}-way shard merge diverged from sequential");
    }
}

#[test]
fn fell_back_propagates_through_the_merged_stream() {
    // The event kernel is where sparse→dense fallbacks live; `fell_back`
    // rides each report's stats inside the same bytes, and the derived
    // sweep rows must mirror each merged report's fallback counter.
    let driver = Driver::standard();
    let (config, specs) = extended_cells(Kernel::Event);
    let sequential = sequential_bytes(&driver, &specs);
    let sharded = sharded_bytes(&driver, &specs, 3, &ShardMode::InProcess);
    assert_eq!(sequential, sharded, "event-kernel shard merge diverged");

    let reports: Vec<radionet_api::RunReport> = String::from_utf8(sharded)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    let rows = to_run_records(&config, &reports);
    assert_eq!(rows.len(), specs.len());
    for (row, report) in rows.iter().zip(&reports) {
        let fell_back = if report.stats.kernel_fallbacks > 0 { 1.0 } else { 0.0 };
        assert_eq!(
            row.metrics["fell_back"], fell_back,
            "fell_back must mirror the merged report's fallback counter for {}",
            row.params["scenario"]
        );
    }
}

#[test]
fn subprocess_workers_match_in_process_workers() {
    let driver = Driver::standard();
    let specs: Vec<RunSpec> =
        (0..6).map(|i| RunSpec::new("broadcast", Family::Grid, 16).with_seed(i as u64)).collect();
    let sequential = sequential_bytes(&driver, &specs);
    let in_process = sharded_bytes(&driver, &specs, 3, &ShardMode::InProcess);
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_radionetd"));
    let subprocess = sharded_bytes(&driver, &specs, 3, &ShardMode::Subprocess { exe });
    assert_eq!(sequential, in_process);
    assert_eq!(sequential, subprocess, "subprocess workers must be output-indistinguishable");
}
