//! Façade equivalence: `Driver::run` on a catalogue [`RunSpec`] must be
//! **byte-identical** to the frozen pre-façade cell pipeline kept below as
//! [`run_reference`] — same network parameters, event count, outcome
//! summary, clocks and stats *and* same per-node RNG fingerprint — for the
//! full scenario catalogue, under all three step kernels and both
//! protocol-model reception modes.
//!
//! This is the acceptance gate of the API redesign: the unified entry
//! point may not change a single bit of any result the repo has ever
//! recorded.

use radionet_api::tasks::{BroadcastTask, LeaderElectionTask, MisTask};
use radionet_api::{seeds, Driver, RunReport, RunSpec, Task};
use radionet_core::broadcast::run_broadcast;
use radionet_core::compete::CompeteConfig;
use radionet_core::leader_election::{run_leader_election, LeaderElectionConfig};
use radionet_core::mis::{run_radio_mis, MisConfig};
use radionet_scenario::{DynamicTopology, SweepConfig};
use radionet_sim::{Kernel, NetInfo, ReceptionMode, Sim, SimStats};

/// What the frozen pipeline measures for one cell.
#[derive(Debug)]
struct Reference {
    n: usize,
    d: u32,
    alpha: f64,
    events: usize,
    success: bool,
    achieved: f64,
    clock_total: u64,
    clock_done: Option<u64>,
    stats: SimStats,
    rng_fingerprint: u64,
}

/// The **frozen pre-façade implementation** of a catalogue cell, kept
/// verbatim as the differential oracle for [`Driver::run`]: it wires the
/// graph, event script, simulator and protocol by hand, with its own seed
/// constants, instead of going through the task registry. Covers the
/// catalogue's three tasks only (it predates mobility and traffic).
fn run_reference(spec: &RunSpec) -> Reference {
    let graph_seed = seeds::mix(spec.seed ^ 0x6a);
    let g = spec.family.instantiate(spec.n, graph_seed);
    let info = NetInfo::exact(&g);
    let timebase = match spec.task.as_str() {
        "broadcast" => BroadcastTask.timebase(&info),
        "leader-election" => LeaderElectionTask.timebase(&info),
        "mis" => MisTask.timebase(&info),
        other => panic!("the frozen reference pipeline has no {other:?} workload"),
    };
    let events = spec.dynamics.events_for(&g, timebase, seeds::mix(spec.seed ^ 0xe7));
    let n_events = events.len();
    let topo = DynamicTopology::new(&g, events);
    let sim_seed = seeds::mix(spec.seed ^ 0x51);
    let mut sim = Sim::with_topology(&g, topo, info, sim_seed, spec.reception.clone());
    sim.set_kernel(spec.kernel);

    let (success, achieved, clock_done) = match spec.task.as_str() {
        "broadcast" => {
            let out = run_broadcast(&mut sim, g.node(0), 42, &CompeteConfig::default());
            let informed =
                out.compete.best.iter().filter(|b| **b == Some(42)).count() as f64 / g.n() as f64;
            (out.completed(), informed, out.completion_time())
        }
        "leader-election" => {
            let out = run_leader_election(
                &mut sim,
                seeds::mix(spec.seed ^ 0x1e),
                &LeaderElectionConfig::default(),
            );
            let agree = match out.leader {
                Some(id) => {
                    out.compete.best.iter().filter(|b| **b == Some(id)).count() as f64
                        / g.n() as f64
                }
                None => 0.0,
            };
            (out.succeeded(), agree, out.compete.clock_all_informed)
        }
        _ => {
            let out = run_radio_mis(&mut sim, &MisConfig::default());
            let valid = out.is_valid(&g);
            let done = valid.then(|| sim.clock());
            (valid, if valid { 1.0 } else { 0.0 }, done)
        }
    };

    Reference {
        n: g.n(),
        d: info.d,
        alpha: info.alpha,
        events: n_events,
        success,
        achieved,
        clock_total: sim.clock(),
        clock_done,
        stats: *sim.stats(),
        rng_fingerprint: sim.rng_fingerprint(),
    }
}

fn catalogue_specs(base_seed: u64) -> Vec<RunSpec> {
    SweepConfig::catalogue(vec![36], 1, base_seed).specs().collect()
}

/// Field by field, `f64`s by their bits: the report must carry exactly
/// what the reference pipeline measured.
fn assert_equivalent(spec: &RunSpec, kernel: Kernel) {
    let spec = spec.clone().with_kernel(kernel);
    let reference = run_reference(&spec);
    let report: RunReport = Driver::standard().run(&spec).expect("valid spec");
    let at = format!("{} under {kernel:?}", spec.task);
    assert_eq!(report.spec, spec, "{at}: spec not echoed");
    assert_eq!(report.n, reference.n, "{at}: n");
    assert_eq!(report.d, reference.d, "{at}: d");
    assert_eq!(report.alpha.to_bits(), reference.alpha.to_bits(), "{at}: alpha");
    assert_eq!(report.events, reference.events, "{at}: events");
    assert_eq!(report.success, reference.success, "{at}: success");
    assert_eq!(report.achieved.to_bits(), reference.achieved.to_bits(), "{at}: achieved");
    assert_eq!(report.clock_total, reference.clock_total, "{at}: clock_total");
    assert_eq!(report.clock_done, reference.clock_done, "{at}: clock_done");
    assert_eq!(report.stats, reference.stats, "{at}: stats");
    // The RNG fingerprint proves the two paths consumed *identical*
    // randomness node-for-node, not merely that summaries agree.
    assert_eq!(report.rng_fingerprint, reference.rng_fingerprint, "{at}: RNG streams diverged");
}

const KERNELS: [Kernel; 3] = [Kernel::Sparse, Kernel::Dense, Kernel::Event];

/// The whole catalogue, all three kernels: spec path ≡ legacy path.
#[test]
fn full_catalogue_facade_equivalence() {
    for spec in catalogue_specs(0xface) {
        for kernel in KERNELS {
            assert_equivalent(&spec, kernel);
        }
    }
}

/// Same sweep under collision-detection reception (the catalogue presets
/// are all protocol-model; clone them onto CD).
#[test]
fn full_catalogue_facade_equivalence_under_cd() {
    for spec in catalogue_specs(0xcd_face) {
        let spec = spec.with_reception(ReceptionMode::ProtocolCd);
        for kernel in KERNELS {
            assert_equivalent(&spec, kernel);
        }
    }
}

/// A sweep spec is its scenario's template with the cell's size, the
/// sweep's kernel and the [`seeds::seed_for`] cell seed, so the derived
/// sub-seeds (graph, events, sim, lottery) cannot drift.
#[test]
fn sweep_specs_carry_the_cell_seed() {
    let config = SweepConfig::catalogue(vec![36], 1, 7);
    let cells = config.scenarios.iter().zip(config.labels()).zip(config.specs());
    for ((scenario, (name, rep)), spec) in cells {
        assert_eq!(name, scenario.name);
        assert_eq!(spec.seed, seeds::seed_for(7, name, 36, rep));
        assert_eq!(spec.kernel, config.kernel);
        assert_eq!(RunSpec { n: 0, seed: 0, ..spec }, scenario.spec);
    }
}
