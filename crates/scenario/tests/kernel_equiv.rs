//! Scenario-level kernel equivalence: every (protocol × scenario) cell of
//! the catalogue must produce the identical [`RunReport`] under the
//! sparse, dense, and event kernels — full `Compete` broadcast, leader
//! election, radio MIS and streaming traffic, under churn, partitions,
//! jamming, staggered wake-up, and mobility.
//!
//! This is the end-to-end counterpart of `radionet-sim`'s differential
//! proptests: it exercises the real protocol stack (MIS → partition → ICP →
//! propagation rounds, with all the `Wake` hints those implementations
//! return) over `DynamicTopology`'s batch change feed and the mobility
//! views' tick clocks. Whole reports — outcome, RNG fingerprint, mobility
//! trace and all — are compared after normalizing only the echoed
//! `spec.kernel` and [`SimStats::kernel_invariant`] (which zeroes the
//! kernel-dependent counters); the event kernel must additionally pop
//! exactly the sparse kernel's wake entries (`scheduler_events`).
//!
//! [`SimStats::kernel_invariant`]: radionet_sim::SimStats::kernel_invariant

use proptest::prelude::*;
use radionet_api::{Driver, Dynamics, RunReport, RunSpec, TrafficSpec};
use radionet_graph::families::Family;
use radionet_scenario::{Scenario, SweepConfig};
use radionet_sim::{Kernel, ReceptionMode};

fn specs(scenarios: Vec<Scenario>, size: usize, seeds: u64, base_seed: u64) -> Vec<RunSpec> {
    let config =
        SweepConfig { scenarios, sizes: vec![size], seeds, base_seed, kernel: Kernel::default() };
    config.specs().collect()
}

/// Runs `spec` under one kernel and normalizes the kernel-dependent parts
/// of the report so whole reports compare across kernels.
fn run_invariant(spec: &RunSpec, kernel: Kernel) -> (RunReport, u64) {
    let mut r = Driver::standard().run(&spec.clone().with_kernel(kernel)).expect("valid spec");
    let scheduler_events = r.stats.scheduler_events;
    r.spec.kernel = Kernel::default();
    r.stats = r.stats.kernel_invariant();
    (r, scheduler_events)
}

/// Asserts dense ≡ sparse ≡ event on `spec`, and that the event kernel's
/// scheduler pops equal the sparse kernel's.
fn assert_kernels_agree(spec: &RunSpec) {
    let (sparse, sparse_pops) = run_invariant(spec, Kernel::Sparse);
    let (dense, _) = run_invariant(spec, Kernel::Dense);
    let (event, event_pops) = run_invariant(spec, Kernel::Event);
    let at = format!("{} on {:?} (seed {:#x})", spec.task, spec.family, spec.seed);
    assert_eq!(sparse, dense, "kernel divergence in {at}");
    assert_eq!(sparse, event, "event-kernel divergence in {at}");
    assert_eq!(
        sparse_pops, event_pops,
        "{at}: event kernel must pop exactly sparse's wake entries"
    );
}

/// The whole catalogue, one small size, all three kernels, cell by cell.
#[test]
fn catalogue_cells_agree_across_kernels() {
    for spec in specs(Scenario::catalogue(), 36, 1, 0xbeef) {
        assert_kernels_agree(&spec);
    }
}

/// The mobility scenarios (topology derived from a moving point set): the
/// sparse active-set and clock-jumping event kernels must reproduce the
/// dense reference bit-for-bit on `MobileTopology` too.
#[test]
fn mobility_cells_agree_across_kernels() {
    for spec in specs(Scenario::mobility_catalogue(), 36, 1, 0x30b) {
        assert_kernels_agree(&spec);
    }
}

/// Collision-detection reception over the dynamic scenarios (the catalogue
/// presets are all protocol-model; clone them onto CD).
#[test]
fn catalogue_cells_agree_under_collision_detection() {
    for spec in specs(Scenario::catalogue(), 36, 1, 0x0cd) {
        assert_kernels_agree(&spec.with_reception(ReceptionMode::ProtocolCd));
    }
}

/// Streaming-traffic specs through the full façade: every traffic kind,
/// under churn and under jamming — the end-to-end counterpart of
/// `radionet-sim`'s injection-schedule proptest.
#[test]
fn traffic_cells_agree_across_kernels() {
    for task in ["traffic.gossip", "traffic.unicast", "traffic.multicast"] {
        for dynamics in ["churn", "jamming"] {
            let spec = RunSpec::new(task, Family::Grid, 36)
                .with_seed(0x7a)
                .with_traffic(TrafficSpec::default())
                .with_dynamics(Dynamics::preset(dynamics).unwrap());
            assert_kernels_agree(&spec);
            let (report, _) = run_invariant(&spec, Kernel::Sparse);
            assert!(
                report.traffic.is_some_and(|t| t.injected > 0),
                "{task} under {dynamics}: the workload injected nothing — vacuous cell"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds × random catalogue entries at a slightly larger size.
    #[test]
    fn random_cells_agree(base_seed in 0u64..10_000, idx in 0usize..11, rep in 0u64..3) {
        let catalogue = Scenario::catalogue();
        let scenario = catalogue[idx % catalogue.len()].clone();
        let spec = specs(vec![scenario], 48, rep + 1, base_seed).pop().unwrap();
        assert_kernels_agree(&spec);
    }
}
