//! The workloads: fixed operation lists generated from the run seed.
//!
//! The seed picks one of [`Workload::variants`] input variants (`seed %
//! variants`), each with its own spec seeds, so the same seed always yields
//! the same inputs and every variant's reports can be pinned (see
//! `pins.rs`). Any ten consecutive seeds cover every variant exactly once.

use radionet_api::seeds::mix;
use radionet_api::{Arrival, PoissonArrival, RunSpec, TrafficSpec};
use radionet_graph::families::Family;

/// E22's own cell seed, which the `traffic` workload keeps.
const E22_SEED: u64 = 0xe22;

/// Node count of the traffic workload's grid cell (200×200). E22's own
/// 316×316 cell took 11–29 s per run with identical inputs on a shared
/// 2-vCPU VM, too noisy for the one pass a run has time for; this cell
/// takes about 4 s, so a run reports the median of several passes. Above
/// `NetInfo::EXACT_DIAMETER_MAX_N` nodes, so D and α still take the cheap
/// estimates, as on E22's cell.
const FACEOFF_N: usize = 200 * 200;

/// Node count of every spec in the service catalogue.
const SERVICE_N: usize = 256;

/// Requests one service pass sends: p99 then has ten samples beyond it.
pub const SERVICE_REQUESTS: usize = 1000;

/// Closed-loop clients of the service workload (one connection each).
pub const SERVICE_CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's three algorithms on one general and one geometric family.
    /// Run by hand or traced; not listed in BENCHMARK.json, because its
    /// wall spread over ten runs (0.16–0.30 of the median on a shared 2-vCPU
    /// VM, where identical passes take either about 9 s or about 11 s)
    /// reached the largest bound a metric may have.
    Compete,
    /// Streaming gossip on a long-diameter and a short-diameter graph. Run
    /// by hand or traced; not listed in BENCHMARK.json, because its wall
    /// spread over ten runs with identical inputs (0.21–0.38 of the median
    /// on a shared 2-vCPU VM) reached the largest bound a metric may have.
    Traffic,
    /// Tasks whose wall is graph instantiation plus the D and α set-up.
    Setup,
    /// A skewed request mix through the in-process service and its cache.
    Service,
}

impl Workload {
    /// Every workload, in the order the pins file lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Compete, Workload::Traffic, Workload::Setup, Workload::Service];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of pinned input variants.
    ///
    /// `traffic` has one: its wall depends on the seed's arrival plan far
    /// more than on the code (over ten seeds, E22's full-size grid and
    /// gnp/40000 cells took 10.2–18.9 s and 3.5–8.8 s, and a repeated seed
    /// stayed within 2%), so it runs E22's own cell seed every time.
    pub fn variants(self) -> u64 {
        match self {
            Workload::Traffic => 1,
            _ => 10,
        }
    }

    /// The input variant a run seed selects.
    pub fn variant(self, seed: u64) -> u64 {
        seed % self.variants()
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compete => "compete",
            Workload::Traffic => "traffic",
            Workload::Setup => "setup",
            Workload::Service => "service",
        }
    }
}

/// E22's face-off traffic: arrivals a few relay windows apart, then a
/// drain long enough for a full cross-grid flood per message.
fn faceoff_traffic() -> TrafficSpec {
    TrafficSpec {
        arrival: Arrival::Poisson(PoissonArrival { per_10k: 15 }),
        senders: 8,
        messages: 4,
        horizon: 4096,
        multicast_per_mille: 250,
    }
}

/// The spec seed of operation `op` in input variant `variant`.
fn spec_seed(workload: Workload, variant: u64, op: u64) -> u64 {
    mix(0xbe9c_0000 ^ ((workload as u64) << 16) ^ (variant << 8) ^ op)
}

/// The operation list of a simulation workload for `variant`.
///
/// # Panics
///
/// On [`Workload::Service`], whose operations are requests (see
/// [`service_catalogue`]).
pub fn sim_ops(workload: Workload, variant: u64) -> Vec<RunSpec> {
    let cells: Vec<RunSpec> = match workload {
        Workload::Compete => vec![
            RunSpec::new("broadcast", Family::Hypercube, 4096),
            RunSpec::new("leader-election", Family::UnitDisk, 4096),
            RunSpec::new("mis", Family::UnitDisk, 4096),
        ],
        Workload::Traffic => vec![
            RunSpec::new("traffic.gossip", Family::Grid, FACEOFF_N).with_traffic(faceoff_traffic()),
            RunSpec::new("traffic.gossip", Family::Gnp, 40_000)
                .with_traffic(TrafficSpec::default()),
        ],
        Workload::Setup => vec![
            RunSpec::new("luby-mis", Family::Grid, 4096),
            RunSpec::new("luby-mis", Family::Gnp, 4096),
            RunSpec::new("luby-mis", Family::UnitDisk, 8192),
            RunSpec::new("luby-mis", Family::Hypercube, 16_384),
        ],
        Workload::Service => panic!("the service workload has no simulation op list"),
    };
    cells
        .into_iter()
        .enumerate()
        .map(|(op, spec)| match workload {
            Workload::Traffic => spec.with_seed(E22_SEED),
            _ => spec.with_seed(spec_seed(workload, variant, op as u64)),
        })
        .collect()
}

/// The service workload's distinct specs: four tasks on five families,
/// two seeds each, all at n = 256. The catalogue is fixed; the run seed
/// only shapes the request mix over it.
pub fn service_catalogue() -> Vec<RunSpec> {
    let tasks = ["broadcast", "mis", "leader-election", "traffic.gossip"];
    let families =
        [Family::Grid, Family::UnitDisk, Family::Gnp, Family::Hypercube, Family::RandomTree];
    let mut specs = Vec::new();
    for task in tasks {
        for family in families {
            for rep in 0..2u64 {
                let op = specs.len() as u64;
                let mut spec = RunSpec::new(task, family, SERVICE_N).with_seed(spec_seed(
                    Workload::Service,
                    rep,
                    op,
                ));
                if task == "traffic.gossip" {
                    spec = spec.with_traffic(TrafficSpec::default());
                }
                specs.push(spec);
            }
        }
    }
    specs
}

/// One client's request sequence: indices into the catalogue, drawn with
/// Zipf(1) weights over a seed-shuffled popularity order, so a few specs
/// are hot and the tail is cold.
pub fn service_mix(seed: u64, client: usize, len: usize, catalogue: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..catalogue).collect();
    let mut state = mix(seed ^ 0x5e71_ce00);
    for i in (1..order.len()).rev() {
        state = mix(state.wrapping_add(i as u64));
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let weights: Vec<f64> = (0..catalogue).map(|rank| 1.0 / (rank + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut state = mix(seed ^ 0xc11e_0000 ^ client as u64);
    (0..len)
        .map(|_| {
            state = mix(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            let mut draw = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut rank = 0;
            while rank + 1 < catalogue && draw >= weights[rank] {
                draw -= weights[rank];
                rank += 1;
            }
            order[rank]
        })
        .collect()
}

/// The face-off grid cell must drain every flood inside its horizon (E22
/// asserts the same of its full-size cell); other traffic cells only
/// conserve messages.
pub fn must_drain(spec: &RunSpec) -> bool {
    spec.task == "traffic.gossip" && spec.family == Family::Grid && spec.n == FACEOFF_N
}
