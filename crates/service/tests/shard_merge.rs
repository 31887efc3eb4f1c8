//! Shard-merge determinism over the extended catalogue: subprocess-sharded
//! sweeps (2, 3, and 7 `radionetd --worker` shards) must produce a JSONL
//! stream byte-identical to the sequential (`chunk = 1`)
//! [`Driver::run_sweep`] output, `fell_back` propagation included — and to
//! the parallel in-process `run_sweep` stream.

use radionet_api::{Driver, JsonlSink, MemorySink, RunError, RunSpec};
use radionet_graph::families::Family;
use radionet_scenario::runner::to_run_records;
use radionet_scenario::{Scenario, SweepConfig};
use radionet_service::run_sweep_subprocess;
use radionet_sim::Kernel;
use std::path::Path;

/// The worker executable: this package's own daemon binary.
const WORKER: &str = env!("CARGO_BIN_EXE_radionetd");

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

fn run_sweep_bytes(driver: &Driver, specs: &[RunSpec], chunk: usize) -> Vec<u8> {
    let mut out = Vec::new();
    driver.run_sweep(specs.iter().cloned(), chunk, &mut JsonlSink::new(&mut out)).unwrap();
    out
}

fn sharded_bytes(specs: &[RunSpec], shards: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let emitted =
        run_sweep_subprocess(Path::new(WORKER), specs, shards, &mut JsonlSink::new(&mut out))
            .unwrap();
    assert_eq!(emitted, specs.len(), "every cell must be emitted");
    out
}

#[test]
fn sharded_sweeps_are_byte_identical_over_the_extended_catalogue() {
    let driver = Driver::standard();
    let (_, specs) = extended_cells(Kernel::Sparse);
    assert!(specs.len() >= 8, "the extended catalogue should be a real sweep");
    let sequential = run_sweep_bytes(&driver, &specs, 1);
    for shards in [2, 3, 7] {
        let sharded = sharded_bytes(&specs, shards);
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
    let sequential = run_sweep_bytes(&driver, &specs, 1);
    let sharded = sharded_bytes(&specs, 3);
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
fn subprocess_workers_match_run_sweep() {
    let driver = Driver::standard();
    let specs: Vec<RunSpec> =
        (0..6).map(|i| RunSpec::new("broadcast", Family::Grid, 16).with_seed(i as u64)).collect();
    let parallel = run_sweep_bytes(&driver, &specs, 64);
    assert_eq!(run_sweep_bytes(&driver, &specs, 1), parallel);
    assert_eq!(sharded_bytes(&specs, 3), parallel, "subprocess workers must match run_sweep");
}

#[test]
fn failing_shard_keeps_the_prefix_and_reports_the_error() {
    let mut specs: Vec<RunSpec> =
        (0..6).map(|i| RunSpec::new("luby-mis", Family::Path, 8).with_seed(i as u64)).collect();
    specs[3].task = "no-such-task".into();
    let mut sink = MemorySink::default();
    let err = run_sweep_subprocess(Path::new(WORKER), &specs, 2, &mut sink).unwrap_err();
    assert!(matches!(err, RunError::Sink(_)), "{err}");
    // Cell 3 fails shard 1 (cells 1, 3, 5), so the in-order stream ends
    // before cell 1: only shard 0's cell 0 precedes the hole.
    assert_eq!(sink.reports.len(), 1);
    assert_eq!(sink.reports[0].spec, specs[0]);
}
