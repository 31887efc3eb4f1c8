//! Sweep expansion: (scenario × size × rep) cells as [`RunSpec`]s, and the
//! sweep's reports as analysis rows.
//!
//! Every cell is a pure function of its spec — the graph, the event script,
//! and the simulator seed all derive from one mixed cell seed (see
//! [`radionet_api::seeds`]) — so [`Driver::run_sweep`](radionet_api::Driver::run_sweep)
//! emits byte-identical reports, in the same order, at every chunk size.
//! Experiment E14 asserts exactly that before writing records.

use crate::catalogue::Scenario;
use radionet_analysis::{ExperimentRecord, RunRecord};
use radionet_api::{seeds, RunReport, RunSpec};
use radionet_sim::Kernel;
use serde::{Deserialize, Serialize};

/// A sweep: every scenario crossed with every size, `seeds` times.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The scenarios to run.
    pub scenarios: Vec<Scenario>,
    /// Requested graph sizes.
    pub sizes: Vec<usize>,
    /// Seeds per (scenario, size) cell.
    pub seeds: u64,
    /// Master seed mixed into every cell.
    pub base_seed: u64,
    /// The step kernel every cell runs under.
    pub kernel: Kernel,
}

impl SweepConfig {
    /// The full catalogue at the given sizes, under the default kernel.
    pub fn catalogue(sizes: Vec<usize>, seeds: u64, base_seed: u64) -> Self {
        SweepConfig {
            scenarios: Scenario::catalogue(),
            sizes,
            seeds,
            base_seed,
            kernel: Kernel::default(),
        }
    }

    /// The sweep's (scenario, size, rep) cells, in deterministic order.
    fn cells(&self) -> impl Iterator<Item = (&Scenario, usize, u64)> + '_ {
        self.scenarios.iter().flat_map(move |scenario| {
            self.sizes.iter().flat_map(move |&n| (0..self.seeds).map(move |rep| (scenario, n, rep)))
        })
    }

    /// Lazily yields the sweep's specs in deterministic order: each
    /// scenario's template with the cell's size, the sweep's kernel, and
    /// the seed [`seeds::seed_for`] mixes from the scenario name, size and
    /// rep. Nothing is materialized, so the CLI streams arbitrarily large
    /// sweeps through this.
    pub fn specs(&self) -> impl Iterator<Item = RunSpec> + '_ {
        self.cells().map(|(scenario, n, rep)| RunSpec {
            n,
            kernel: self.kernel,
            seed: seeds::seed_for(self.base_seed, &scenario.name, n, rep),
            ..scenario.spec.clone()
        })
    }

    /// The (scenario name, rep) label of each cell, in the order of
    /// [`SweepConfig::specs`].
    pub fn labels(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.cells().map(|(scenario, _, rep)| (scenario.name.as_str(), rep))
    }
}

/// Converts a sweep's reports, in spec order, into the analysis layer's
/// row type; each row is labelled with its cell's scenario name and rep.
pub fn to_run_records(config: &SweepConfig, reports: &[RunReport]) -> Vec<RunRecord> {
    config
        .labels()
        .zip(reports)
        .map(|((scenario, rep), r)| {
            RunRecord::new()
                .param("scenario", scenario)
                .param("family", r.spec.family.name())
                .param("workload", &r.spec.task)
                .param("dynamics", r.spec.dynamics.name())
                .param("n", r.n)
                .param("rep", rep)
                .metric("d", r.d as f64)
                .metric("alpha", r.alpha)
                .metric("events", r.events as f64)
                .metric("success", if r.success { 1.0 } else { 0.0 })
                .metric("achieved", r.achieved)
                .metric("clock_total", r.clock_total as f64)
                .metric("clock_done", r.clock_done.map(|c| c as f64).unwrap_or(-1.0))
                .metric("fell_back", if r.stats.kernel_fallbacks > 0 { 1.0 } else { 0.0 })
                .metric("kernel_fallbacks", r.stats.kernel_fallbacks as f64)
                .metric("simulated_steps", r.stats.simulated_steps as f64)
                .metric("transmissions", r.stats.transmissions as f64)
                .metric("deliveries", r.stats.deliveries as f64)
                .metric("collisions", r.stats.collisions as f64)
                .metric("scheduler_events", r.stats.scheduler_events as f64)
                .metric("silent_steps_skipped", r.stats.silent_steps_skipped as f64)
        })
        .collect()
}

/// Packages a finished sweep as an [`ExperimentRecord`].
pub fn to_record(
    id: &str,
    claim: &str,
    config: &SweepConfig,
    reports: &[RunReport],
) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(id, claim);
    for run in to_run_records(config, reports) {
        record.push(run);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Dynamics, PartitionSpec};
    use radionet_api::{Driver, MemorySink};
    use radionet_graph::families::Family;

    fn tiny_config() -> SweepConfig {
        let split = Dynamics::PartitionRepair(PartitionSpec { parts: 2, at: 0.05, heal_at: 0.35 });
        SweepConfig {
            scenarios: vec![
                Scenario::new("t-static", "broadcast", Family::Grid, Dynamics::Static),
                Scenario::new("t-split", "broadcast", Family::Grid, split),
            ],
            sizes: vec![36],
            seeds: 2,
            base_seed: 3,
            kernel: Kernel::default(),
        }
    }

    fn sweep(config: &SweepConfig, chunk: usize) -> Vec<RunReport> {
        let mut sink = MemorySink::default();
        Driver::standard().run_sweep(config.specs(), chunk, &mut sink).unwrap();
        sink.reports
    }

    #[test]
    fn specs_are_deterministic_and_distinct() {
        let cfg = tiny_config();
        let a: Vec<RunSpec> = cfg.specs().collect();
        let b: Vec<RunSpec> = cfg.specs().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "cell seeds collide");
        let labels: Vec<(&str, u64)> = cfg.labels().collect();
        assert_eq!(labels, [("t-static", 0), ("t-static", 1), ("t-split", 0), ("t-split", 1)]);
    }

    #[test]
    fn cell_seed_pins_the_shared_derivation() {
        // `seeds::seed_for` must keep producing the exact values the
        // sweep's derivation always produced (the companion pin for
        // `seeds::tests::pinned_values`).
        assert_eq!(tiny_config().specs().next().unwrap().seed, 0xafd9_5556_08f2_5d31);
    }

    #[test]
    fn chunked_sweep_matches_sequential_exactly() {
        // Determinism here is by construction (cells are pure functions of
        // their specs), so the check holds for any worker count; genuinely
        // multi-threaded scheduling is exercised by the vendored rayon's
        // own tests, which force a 4-worker pool explicitly.
        let cfg = tiny_config();
        let seq = sweep(&cfg, 1);
        let par = sweep(&cfg, 64);
        assert_eq!(seq, par);
        let a = serde_json::to_string_pretty(&to_run_records(&cfg, &seq)).unwrap();
        let b = serde_json::to_string_pretty(&to_run_records(&cfg, &par)).unwrap();
        assert_eq!(a, b, "sweep outputs must be byte-identical");
    }

    #[test]
    fn static_broadcast_succeeds() {
        let cfg = tiny_config();
        for (r, (scenario, _)) in sweep(&cfg, 1).iter().zip(cfg.labels()) {
            if scenario == "t-static" {
                assert!(r.success, "static broadcast failed: {r:?}");
                assert!((r.achieved - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn records_carry_the_sweep() {
        let cfg = tiny_config();
        let reports = sweep(&cfg, 1);
        let record = to_record("ES", "scenario sweep", &cfg, &reports);
        assert_eq!(record.runs.len(), reports.len());
        assert_eq!(record.runs[0].params["scenario"], "t-static");
        assert_eq!(record.runs[1].params["rep"], "1");
        assert_eq!(record.runs[0].params["workload"], "broadcast");
        assert!(record.runs[0].metrics.contains_key("clock_total"));
        // Kernel-fallback telemetry reaches every sweep row, not just
        // single-run CLI output.
        assert_eq!(record.runs[0].metrics["fell_back"], 0.0);
        assert_eq!(record.runs[0].metrics["kernel_fallbacks"], 0.0);
        // Event-kernel telemetry makes service-served sweeps auditable:
        // every row states how much scheduling work it really did.
        assert!(record.runs[0].metrics.contains_key("scheduler_events"));
        assert!(record.runs[0].metrics.contains_key("silent_steps_skipped"));
    }
}
