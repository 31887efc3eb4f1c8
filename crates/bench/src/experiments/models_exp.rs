//! E13 — what the model abstractions cost: collision detection
//! (related work \[29\], \[12\]) and SINR reception (footnote 1), plus the
//! granularity parametrization of \[13\] next to the paper's `α`.

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::table::f2;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_baselines::bgi::{run_bgi_broadcast, BgiConfig};
use radionet_baselines::cd_wakeup::cd_wakeup_on;
use radionet_graph::generators;
use radionet_graph::granularity::{emek_bound, granularity};
use radionet_graph::traversal::eccentricity;
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::flood::FloodProtocol;
use radionet_sim::{NetInfo, ReceptionMode, Sim, SinrConfig, StaticTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E13 — reception models and alternative parametrizations on unit disk
/// deployments.
pub fn e13_models(scale: Scale) -> ExperimentRecord {
    let claim = "Model extensions: collision detection (related work) and SINR (footnote 1) \
                 vs the paper's protocol model; granularity [13] vs alpha parametrization";
    banner("E13", claim);
    let mut record = ExperimentRecord::new("E13", claim);

    // --- (a) Wake-up: CD vs no-CD flooding (the capability gap).
    let mut table = Table::new(["n", "D", "ecc(src)", "cd wake-up", "no-cd flood (bgi)"]);
    let sizes: &[usize] = match scale {
        Scale::Quick => &[128],
        Scale::Full => &[128, 512, 2048],
    };
    for &n in sizes {
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let mut rng = StdRng::seed_from_u64(7);
        let inst = loop {
            let cand = generators::unit_disk_in_square(n, side, &mut rng);
            if radionet_graph::traversal::is_connected(&cand.graph) {
                break cand;
            }
        };
        let g = &inst.graph;
        let info = NetInfo::exact(g);
        let src = g.node(0);
        let ecc = eccentricity(g, src);
        let cd = cd_wakeup_on(g, info, 3, src);
        let mut sim = Sim::new(g, info, 3);
        let bgi = run_bgi_broadcast(&mut sim, src, 1, &BgiConfig::default());
        let cd_t = cd.completion_steps.map(|t| t as f64).unwrap_or(f64::NAN);
        let bgi_t = bgi.clock_all_informed.map(|t| t as f64).unwrap_or(f64::NAN);
        table.row([
            g.n().to_string(),
            info.d.to_string(),
            ecc.to_string(),
            format!("{cd_t:.0}"),
            format!("{bgi_t:.0}"),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "cd-wakeup")
                .param("n", g.n())
                .metric("ecc", ecc as f64)
                .metric("cd_steps", cd_t)
                .metric("bgi_steps", bgi_t),
        );
    }
    println!("{}", table.render());

    // --- (b) SINR vs protocol model: same Decay flood, both semantics.
    let mut table = Table::new(["n", "model", "informed", "deliveries", "collisions"]);
    for &n in sizes {
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let mut rng = StdRng::seed_from_u64(11);
        let inst = loop {
            let cand = generators::unit_disk_in_square(n, side, &mut rng);
            if radionet_graph::traversal::is_connected(&cand.graph) {
                break cand;
            }
        };
        let g = &inst.graph;
        let info = NetInfo::exact(g);
        let positions: Vec<(f64, f64)> = inst.points.iter().map(|p| (p.x, p.y)).collect();
        let budget = {
            let l = info.log_n() as u64;
            6 * (info.d as u64 * l + l * l)
        };
        for mode in [
            ReceptionMode::Protocol,
            ReceptionMode::Sinr(SinrConfig::for_unit_range(positions.clone(), 1.0)),
        ] {
            let name = mode.name();
            let mut sim = Sim::with_topology(g, StaticTopology, info, 5, mode);
            let schedule = DecaySchedule::new(info.log_n());
            let mut states: Vec<FloodProtocol<u64>> = g
                .nodes()
                .map(|v| FloodProtocol::new(schedule, (v.index() == 0).then_some(9)))
                .collect();
            sim.run_phase(&mut states, budget);
            let informed = states.iter().filter(|s| s.best().is_some()).count();
            let stats = *sim.stats();
            table.row([
                g.n().to_string(),
                name.to_string(),
                format!("{informed}/{}", g.n()),
                stats.deliveries.to_string(),
                stats.collisions.to_string(),
            ]);
            record.push(
                RunRecord::new()
                    .param("part", "sinr")
                    .param("n", g.n())
                    .param("model", name)
                    .metric("informed_frac", informed as f64 / g.n() as f64)
                    .metric("deliveries", stats.deliveries as f64)
                    .metric("collisions", stats.collisions as f64),
            );
        }
    }
    println!("{}", table.render());

    // --- (c) Parametrization shoot-out on UDGs: the paper's D·log_D α vs
    // the granularity bound of [13] vs BGI's D·log n.
    let mut table = Table::new([
        "n",
        "D",
        "alpha",
        "granularity g",
        "D log_D a (paper)",
        "min{D+g^2, D log g} [13]",
        "D log n (BGI)",
    ]);
    for &n in sizes {
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let mut rng = StdRng::seed_from_u64(13);
        let inst = loop {
            let cand = generators::unit_disk_in_square(n, side, &mut rng);
            if radionet_graph::traversal::is_connected(&cand.graph) {
                break cand;
            }
        };
        let info = NetInfo::exact(&inst.graph);
        let d = info.d;
        let gran = granularity(&inst.points).unwrap_or(1.0).max(1.0);
        let paper = d as f64 * info.log_d_alpha();
        let emek = emek_bound(d, gran);
        let bgi = d as f64 * info.log_n() as f64;
        table.row([
            inst.graph.n().to_string(),
            d.to_string(),
            format!("{:.0}", info.alpha),
            f2(gran),
            format!("{paper:.0}"),
            format!("{emek:.0}"),
            format!("{bgi:.0}"),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "parametrization")
                .param("n", inst.graph.n())
                .metric("granularity", gran)
                .metric("paper_bound", paper)
                .metric("emek_bound", emek)
                .metric("bgi_bound", bgi),
        );
    }
    println!("{}", table.render());
    record.note(
        "CD wake-up completes in exactly ecc(src) ≤ D steps — the capability the \
                 no-CD lower bounds forbid",
    );
    record.note(
        "SINR is two-sided vs the protocol model: capture decodes strong links through \
         collisions, but interference suppresses edge-of-range links, so the same Decay \
         schedule can leave border nodes uninformed — the abstraction is neither strictly \
         pessimistic nor optimistic (footnote 1)",
    );
    record.note(
        "the paper's D·log_D α beats the granularity bound whenever g² ≫ log_D α·D \
                 (dense deployments) and is never asymptotically worse on these instances",
    );
    print_notes(&record);
    record
}
