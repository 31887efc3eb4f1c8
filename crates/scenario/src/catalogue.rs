//! The serde-able scenario catalogue: named [`RunSpec`] templates.
//!
//! Mirroring `radionet_graph::families`, each [`Scenario`] fixes a task, a
//! graph family, a reception mode, and a dynamics recipe; a
//! [`SweepConfig`](crate::SweepConfig) fills in the size, the kernel, and
//! the per-cell seed. [`Scenario::catalogue`] lists the named presets the
//! `exp_scenarios` binary sweeps.
//!
//! The recipe vocabulary itself ([`Dynamics`] and its spec structs) lives
//! in `radionet_api::spec`.

use radionet_api::RunSpec;
use radionet_graph::families::Family;
use radionet_sim::{ReceptionMode, SinrConfig};
use serde::{Deserialize, Serialize};

pub use radionet_api::spec::{ChurnSpec, Dynamics, JamSpec, PartitionSpec, StaggerSpec};

/// A named [`RunSpec`] template.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique name (used in tables, JSON, and per-cell seeding).
    pub name: String,
    /// The cell template. Its `n`, `kernel` and `seed` are placeholders:
    /// a [`SweepConfig`](crate::SweepConfig) sets them per cell.
    pub spec: RunSpec,
}

impl Scenario {
    /// A scenario running registry task `task` on `family` under
    /// `dynamics`, with protocol-model reception.
    pub fn new(name: &str, task: &str, family: Family, dynamics: Dynamics) -> Self {
        Scenario {
            name: name.to_string(),
            spec: RunSpec::new(task, family, 0).with_dynamics(dynamics),
        }
    }

    /// The named presets swept by `exp_scenarios`: every dynamics recipe
    /// crossed with a geometric and a general family, broadcast as the
    /// common workload plus leader-election and MIS spot checks.
    pub fn catalogue() -> Vec<Scenario> {
        let churn = Dynamics::preset("churn").expect("standard preset");
        let split = Dynamics::preset("partition-repair").expect("standard preset");
        let jam = Dynamics::preset("jamming").expect("standard preset");
        let wake = Dynamics::preset("staggered-wake").expect("standard preset");
        vec![
            Scenario::new("grid-static", "broadcast", Family::Grid, Dynamics::Static),
            Scenario::new("grid-churn", "broadcast", Family::Grid, churn),
            Scenario::new("grid-split-heal", "broadcast", Family::Grid, split),
            Scenario::new("grid-jammed", "broadcast", Family::Grid, jam),
            Scenario::new("grid-staggered", "broadcast", Family::Grid, wake),
            Scenario::new("udg-churn", "broadcast", Family::UnitDisk, churn),
            Scenario::new("udg-jammed", "broadcast", Family::UnitDisk, jam),
            Scenario::new("gnp-split-heal", "broadcast", Family::Gnp, split),
            Scenario::new("gnp-churn-le", "leader-election", Family::Gnp, churn),
            Scenario::new("grid-churn-mis", "mis", Family::Grid, churn),
            Scenario::new("udg-jammed-mis", "mis", Family::UnitDisk, jam),
        ]
    }

    /// The mobility scenarios: geometric families whose topology is
    /// derived from a *moving* point set (`radionet-mobility`), including
    /// the physical-layer cells where SINR reception follows the live
    /// positions (geometry-calibrated — no hand-shipped coordinates).
    ///
    /// Kept separate from [`Scenario::catalogue`] because the frozen
    /// pre-façade reference pipeline (in the `facade_equiv` tests)
    /// predates mobility and is pinned byte-for-byte against that list
    /// only; the mobility cells run purely through the façade.
    pub fn mobility_catalogue() -> Vec<Scenario> {
        let mk = |name: &str, task: &str, family, preset: &str| {
            let dynamics = Dynamics::preset(preset).expect("standard mobility preset");
            Scenario::new(name, task, family, dynamics)
        };
        let sinr = |scenario: Scenario| Scenario {
            spec: scenario.spec.with_reception(ReceptionMode::Sinr(SinrConfig::geometric())),
            ..scenario
        };
        vec![
            mk("udg-waypoint", "broadcast", Family::UnitDisk, "mobility:waypoint"),
            mk("udg-levy", "broadcast", Family::UnitDisk, "mobility:levy"),
            mk("quasi-walk", "broadcast", Family::QuasiUnitDisk, "mobility:walk"),
            mk("ball3-group", "broadcast", Family::UnitBall3, "mobility:group"),
            mk("georadio-waypoint-mis", "mis", Family::GeometricRadio, "mobility:waypoint"),
            sinr(mk("udg-waypoint-sinr", "broadcast", Family::UnitDisk, "mobility:waypoint")),
            sinr(mk("ball3-group-sinr", "broadcast", Family::UnitBall3, "mobility:group")),
        ]
    }

    /// The streaming-traffic scenarios: the multi-message delivery
    /// pipeline over a static and a churning grid. Kept out of
    /// [`Scenario::catalogue`] for the same reason as mobility — the
    /// frozen pre-façade reference pipeline predates traffic workloads
    /// and is pinned against that list only.
    pub fn traffic_catalogue() -> Vec<Scenario> {
        let churn = Dynamics::preset("churn").expect("standard preset");
        vec![
            Scenario::new("grid-traffic", "traffic.gossip", Family::Grid, Dynamics::Static),
            Scenario::new("grid-traffic-churn", "traffic.gossip", Family::Grid, churn),
        ]
    }

    /// [`Scenario::catalogue`] plus the mobility and traffic cells — the
    /// list CLI sweeps iterate.
    pub fn extended_catalogue() -> Vec<Scenario> {
        let mut all = Self::catalogue();
        all.extend(Self::mobility_catalogue());
        all.extend(Self::traffic_catalogue());
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_api::TaskRegistry;
    use radionet_sim::NetInfo;

    #[test]
    fn catalogue_names_unique_and_serde_stable() {
        let cat = Scenario::catalogue();
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate scenario names");
        let json = serde_json::to_string_pretty(&cat).unwrap();
        let back: Vec<Scenario> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cat);
    }

    #[test]
    fn catalogue_covers_required_dynamics() {
        let cat = Scenario::catalogue();
        for required in ["churn", "partition-repair", "jamming", "staggered-wake", "static"] {
            assert!(
                cat.iter().any(|s| s.spec.dynamics.name() == required),
                "catalogue misses {required}"
            );
        }
    }

    #[test]
    fn extended_catalogue_adds_every_mobility_preset() {
        let cat = Scenario::extended_catalogue();
        let base = Scenario::catalogue();
        assert_eq!(
            cat.len(),
            base.len() + Scenario::mobility_catalogue().len() + Scenario::traffic_catalogue().len()
        );
        assert!(
            cat.iter().any(|s| s.spec.task.starts_with("traffic.")),
            "extended catalogue misses the streaming-traffic cells"
        );
        for required in ["mobility:waypoint", "mobility:walk", "mobility:levy", "mobility:group"] {
            assert!(
                cat.iter().any(|s| s.spec.dynamics.name() == required),
                "extended catalogue misses {required}"
            );
        }
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate scenario names");
        // Mobility scenarios must stay on families with an embedding
        // (growth-bounded is not enough: Path/Grid have no positions).
        for sc in Scenario::mobility_catalogue() {
            assert!(sc.spec.family.has_embedding(), "{} has no point embedding", sc.name);
        }
        // The physical-layer mobility cells are present and geometry-
        // sourced (no hand-shipped coordinates in the catalogue).
        let sinr: Vec<Scenario> = Scenario::mobility_catalogue()
            .into_iter()
            .filter(|s| s.spec.reception.name() == "sinr")
            .collect();
        assert!(sinr.len() >= 2, "catalogue misses the SINR mobility cells");
        for sc in &sinr {
            match &sc.spec.reception {
                ReceptionMode::Sinr(cfg) => assert_eq!(
                    cfg.positions,
                    radionet_sim::PositionSource::Geometry,
                    "{}: SINR cells must be geometry-sourced",
                    sc.name
                ),
                _ => unreachable!(),
            }
        }
        let json = serde_json::to_string_pretty(&cat).unwrap();
        let back: Vec<Scenario> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cat);
    }

    #[test]
    fn catalogue_presets_pin_historical_parameters() {
        // The preset constants seed every event script; changing them would
        // silently re-define every recorded sweep.
        let churn = Dynamics::preset("churn").unwrap();
        assert_eq!(
            churn,
            Dynamics::Churn(ChurnSpec { victims: 0.1, start: 0.05, spread: 0.15, down: 0.2 })
        );
        let split = Dynamics::preset("partition-repair").unwrap();
        assert_eq!(
            split,
            Dynamics::PartitionRepair(PartitionSpec { parts: 2, at: 0.05, heal_at: 0.35 })
        );
        let jam = Dynamics::preset("jamming").unwrap();
        assert_eq!(jam, Dynamics::Jamming(JamSpec { jammers: 0.05, from: 0.05, until: 0.4 }));
        let wake = Dynamics::preset("staggered-wake").unwrap();
        assert_eq!(wake, Dynamics::StaggeredWake(StaggerSpec { spread: 0.1 }));
    }

    #[test]
    fn events_deterministic_and_sound() {
        let registry = TaskRegistry::standard();
        let g = Family::Grid.instantiate(49, 1);
        let info = NetInfo::exact(&g);
        for sc in Scenario::catalogue() {
            let timebase = registry.get(&sc.spec.task).expect("catalogue task").timebase(&info);
            let events = |seed| sc.spec.dynamics.events_for(&g, timebase, seed);
            let a = events(42);
            let b = events(42);
            assert_eq!(a, b, "{} not deterministic", sc.name);
            let c = events(43);
            if !matches!(sc.spec.dynamics, Dynamics::Static | Dynamics::PartitionRepair(_)) {
                assert_ne!(a, c, "{} ignores the seed", sc.name);
            }
            for e in &a {
                if let Some(v) = e.kind.node() {
                    assert!(v > 0, "{}: node 0 must stay protected", sc.name);
                    assert!(v < g.n());
                }
            }
        }
    }

    /// Every catalogue task resolves in the standard registry, and the
    /// algorithm tasks' timebases (which scale the dynamics fractions) grow
    /// with the network.
    #[test]
    fn catalogue_tasks_resolve_and_timebases_scale() {
        let registry = TaskRegistry::standard();
        for sc in Scenario::extended_catalogue() {
            assert!(registry.get(&sc.spec.task).is_some(), "{}: no task {}", sc.name, sc.spec.task);
        }
        let small = NetInfo { n: 64, d: 14, alpha: 32.0 };
        let big = NetInfo { n: 1024, d: 62, alpha: 512.0 };
        for key in ["broadcast", "leader-election", "mis"] {
            let task = registry.get(key).expect("standard task");
            assert!(task.timebase(&big) > task.timebase(&small), "{key}");
            assert!(task.timebase(&small) > 100, "{key} timebase degenerate");
        }
    }
}
