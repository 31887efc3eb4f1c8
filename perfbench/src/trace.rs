//! The traced run: a replica of the `Driver::run` pipeline that calls the
//! same public functions in the same order, with a span around each layer.
//!
//! Spans live in memory and are written out when the run ends. The
//! replica's report must equal the untraced `Driver::run` report byte for
//! byte, so the spans time exactly the work the untraced run did.

use radionet_api::dynamics::DynamicTopology;
use radionet_api::{
    seeds, Driver, Dynamics, RunReport, RunSpec, RunTopology, TaskCtx, TaskOutcome,
};
use radionet_graph::{independent_set, traversal};
use radionet_sim::{NetInfo, NullSink, ReceptionMode, Registry, Sim};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval of one op.
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, Some(parent));
        let value = f();
        self.close(id);
        value
    }

    /// Inclusive seconds per span name, summed over ops.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name).or_insert(0.0) += s.seconds();
        }
        totals
    }

    /// Self seconds per span name: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        let mut totals = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *totals.entry(s.name).or_insert(0.0) += t;
        }
        totals
    }

    /// Seconds covered by the layer spans directly under each op's root.
    pub fn top_level_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .map(Span::seconds)
            .sum()
    }

    /// Seconds of the op roots (the traced `Driver::run` replicas).
    pub fn root_seconds(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::seconds).sum()
    }

    /// The spans and the per-layer self times as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n], \"self_s\": {");
        let selfs: Vec<String> =
            self.self_times().iter().map(|(name, t)| format!("\"{name}\": {t:?}")).collect();
        out.push_str(&selfs.join(", "));
        out.push_str("}}\n");
        out
    }
}

/// What the engine's own telemetry saw during one traced op.
#[derive(Default)]
pub struct EngineSample {
    pub reception_s: f64,
    pub topology_s: f64,
    pub ring_peak: u64,
    pub heap_peak: u64,
}

impl EngineSample {
    fn read(tel: &Registry) -> EngineSample {
        let snap = tel.snapshot();
        let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
        let sum_s = |name: &str| hist(name).map_or(0.0, |h| h.sum as f64 / 1e6);
        let max = |name: &str| hist(name).map_or(0, |h| h.max);
        EngineSample {
            reception_s: sum_s("sim_reception_micros"),
            topology_s: sum_s("sim_topology_advance_micros"),
            ring_peak: max("sim_ring_peak"),
            heap_peak: max("sim_heap_peak"),
        }
    }
}

/// The α search budget `NetInfo::exact` gives an `n`-node graph.
fn alpha_budget(n: usize) -> u64 {
    match n {
        0..=64 => 500_000,
        65..=128 => 50_000,
        _ => 2_000,
    }
}

/// Runs `spec` through the traced replica of `Driver::run` (static
/// dynamics, non-SINR reception: the benchmark's ops), recording op `op`'s
/// spans into `rec`.
pub fn replica(
    driver: &Driver,
    spec: &RunSpec,
    op: usize,
    rec: &mut Recorder,
) -> Result<(RunReport, EngineSample), String> {
    if matches!(spec.reception, ReceptionMode::Sinr(_))
        || !matches!(spec.dynamics, Dynamics::Static)
    {
        return Err("the traced replica covers static, non-SINR specs only".into());
    }
    let root = rec.open("op", op, None);
    let task = rec.time("api.validate", op, root, || {
        spec.validate()?;
        let task = driver.registry().get(&spec.task).ok_or("unknown task")?;
        task.check_spec(spec)?;
        Ok::<_, String>(task)
    })?;
    let g = rec.time("graph.instantiate", op, root, || {
        spec.family.instantiate_positioned(spec.n, seeds::graph_seed(spec.seed)).graph
    });
    let netinfo = rec.open("sim.netinfo", op, Some(root));
    let d = rec.time("graph.diameter", op, netinfo, || {
        if g.n() <= NetInfo::EXACT_DIAMETER_MAX_N {
            traversal::diameter(&g)
        } else {
            traversal::diameter_double_sweep(&g)
        }
    });
    let alpha = rec.time("graph.alpha", op, netinfo, || {
        independent_set::alpha_bounds(&g, alpha_budget(g.n())).estimate()
    });
    let info = NetInfo { n: g.n().max(1), d: d.max(1), alpha: alpha.max(1.0) };
    rec.close(netinfo);
    let (topo, n_events) = rec.time("api.events", op, root, || {
        let events =
            spec.dynamics.events_for(&g, task.timebase(&info), seeds::events_seed(spec.seed));
        let n_events = events.len();
        (RunTopology::Scripted(DynamicTopology::new(&g, events)), n_events)
    });
    let ctx = TaskCtx {
        seed: spec.seed,
        lottery_seed: seeds::lottery_seed(spec.seed),
        step_cap: spec.steps,
        traffic: spec.traffic,
    };
    let tel = Registry::default();
    let mut sim = rec.time("sim.build", op, root, || {
        let mut sim = Sim::try_instrumented(
            &g,
            topo,
            info,
            seeds::sim_seed(spec.seed),
            spec.reception.clone(),
            NullSink,
            tel.clone(),
        )
        .map_err(|e| e.to_string())?;
        sim.set_kernel(spec.kernel);
        Ok::<_, String>(sim)
    })?;
    let outcome = rec.time("sim.run", op, root, || task.run_instrumented(&mut sim, &ctx));
    let report = rec.time("api.report", op, root, || RunReport {
        spec: spec.clone(),
        n: g.n(),
        d: info.d,
        alpha: info.alpha,
        events: n_events,
        success: outcome.success(),
        achieved: outcome.achieved(),
        clock_done: outcome.clock_done(),
        traffic: match outcome {
            TaskOutcome::Traffic(t) => Some(t),
            _ => None,
        },
        outcome,
        clock_total: sim.clock(),
        stats: *sim.stats(),
        rng_fingerprint: sim.rng_fingerprint(),
        mobility: None,
        journal: None,
    });
    rec.close(root);
    Ok((report, EngineSample::read(&tel)))
}

/// Per-layer tallies over the ops of one traced run.
#[derive(Default)]
pub struct LayerTally {
    engine: EngineSample,
    scheduler_events: u64,
    simulated_steps: u64,
    charged_steps: u64,
    transmissions: u64,
    deliveries: u64,
    collisions: u64,
    injected: u64,
    delivered: u64,
    /// Wall of the untraced `Driver::run` calls the replicas reproduce.
    untraced_s: f64,
}

impl LayerTally {
    /// Adds one op: its replica report, engine sample and untraced wall.
    pub fn add(&mut self, report: &RunReport, engine: &EngineSample, untraced_s: f64) {
        self.engine.reception_s += engine.reception_s;
        self.engine.topology_s += engine.topology_s;
        self.engine.ring_peak = self.engine.ring_peak.max(engine.ring_peak);
        self.engine.heap_peak = self.engine.heap_peak.max(engine.heap_peak);
        let s = &report.stats;
        self.scheduler_events += s.scheduler_events;
        self.simulated_steps += s.simulated_steps;
        self.charged_steps += s.charged_steps;
        self.transmissions += s.transmissions;
        self.deliveries += s.deliveries;
        self.collisions += s.collisions;
        if let Some(t) = report.traffic {
            self.injected += t.injected;
            self.delivered += t.delivered;
        }
        self.untraced_s += untraced_s;
    }

    /// Pushes the graph, sim, traffic and trace metrics.
    pub fn emit(&self, rec: &Recorder, out: &mut crate::report::RunResult) {
        let totals = rec.totals();
        let span = |name: &str| totals.get(name).copied().unwrap_or(0.0);
        let run_s = span("sim.run");
        let steps = self.simulated_steps.max(1) as f64;
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        out.metric("graph.instantiate_s", span("graph.instantiate"), "s");
        out.metric("graph.diameter_s", span("graph.diameter"), "s");
        out.metric("graph.alpha_s", span("graph.alpha"), "s");
        out.metric("sim.netinfo_s", span("sim.netinfo"), "s");
        out.metric("api.events_s", span("api.events"), "s");
        out.metric("sim.build_s", span("sim.build"), "s");
        out.metric("sim.run_s", run_s, "s");
        out.metric("sim.reception_s", self.engine.reception_s, "s");
        out.metric("sim.topology_s", self.engine.topology_s, "s");
        out.metric(
            "sim.act_sched_s",
            run_s - self.engine.reception_s - self.engine.topology_s,
            "s",
        );
        out.metric("sim.ring_peak", self.engine.ring_peak as f64, "count");
        out.metric("sim.heap_peak", self.engine.heap_peak as f64, "count");
        out.metric("sim.scheduler_events", self.scheduler_events as f64, "count");
        out.metric("sim.sched_events_per_step", self.scheduler_events as f64 / steps, "count");
        out.metric("sim.ns_per_step", run_s * 1e9 / steps, "ns");
        out.metric("sim.simulated_steps", self.simulated_steps as f64, "count");
        out.metric("sim.charged_steps", self.charged_steps as f64, "count");
        out.metric("sim.transmissions", self.transmissions as f64, "count");
        out.metric("sim.collisions", self.collisions as f64, "count");
        out.metric(
            "sim.delivery_ratio",
            ratio(self.deliveries, self.deliveries + self.collisions),
            "ratio",
        );
        out.metric("traffic.injected", self.injected as f64, "count");
        out.metric("traffic.delivered", self.delivered as f64, "count");
        let untraced = self.untraced_s.max(1e-12);
        out.metric("trace.coverage", rec.top_level_seconds() / untraced, "ratio");
        out.metric("trace.overhead", rec.root_seconds() / untraced - 1.0, "ratio");
    }
}

/// Traces `spec` as op `op` between two untraced `Driver::run` calls and
/// returns the untraced report. The replica must match it exactly (same
/// outcome, same RNG fingerprint, same bytes), and so must the second
/// untraced call. The untraced wall is the faster of the two calls, so one
/// slow spell of a shared machine does not skew coverage or overhead.
pub fn trace_op(
    driver: &Driver,
    spec: &RunSpec,
    op: usize,
    rec: &mut Recorder,
    tally: &mut LayerTally,
) -> Result<RunReport, String> {
    let untraced = || {
        let t0 = Instant::now();
        let report = driver.run(spec).map_err(|e| e.to_string());
        report.map(|r| (r, t0.elapsed().as_secs_f64()))
    };
    let (plain, before_s) = untraced()?;
    let (traced, engine) = replica(driver, spec, op, rec)?;
    let (again, after_s) = untraced()?;
    let want = crate::gate::digest(&plain);
    if crate::gate::digest(&again) != want {
        return Err("two untraced Driver::run calls disagree".into());
    }
    if traced.outcome != plain.outcome || traced.rng_fingerprint != plain.rng_fingerprint {
        return Err("traced replica diverged from Driver::run (outcome or fingerprint)".into());
    }
    if crate::gate::digest(&traced) != want {
        return Err("traced replica report is not byte-identical to Driver::run".into());
    }
    tally.add(&traced, &engine, before_s.min(after_s));
    Ok(plain)
}

/// Writes the spans next to the benchmark, under `out/`.
pub fn write(rec: &Recorder, workload: &str, seed: u64) -> Option<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(workload, seed)));
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            None
        }
    }
}
