//! The simulation workloads (`compete`, `traffic`, `setup`): sequential
//! `Driver::run` calls over the seed's operation list, one closed loop.

use crate::gate;
use crate::report::{median, peak_rss_mb, percentile, RunResult, SetupClock};
use crate::trace::{self, LayerTally, Recorder};
use crate::workloads::{sim_ops, Workload};
use crate::Args;
use radionet_api::{Driver, RunSpec};
use std::time::Instant;

/// Set-up is timed `SETUP_REPS` times before the first pass and again
/// after each pass; `setup_s` is the median of those samples.
const SETUP_REPS: usize = 4;

/// Node count of the warm-up runs in each set-up: small enough that a
/// set-up takes tens of milliseconds, large enough to touch every layer.
const WARM_UP_N: usize = 512;

/// One harness set-up: the op list, `Driver::standard()`, and a warm-up
/// `Driver::run` of every op's task and family at [`WARM_UP_N`] nodes, each
/// of which must pass its task's criterion. The warm-up inputs are those of
/// variant 0 whatever the seed, so that set-up time does not vary with it.
fn set_up(workload: Workload, variant: u64) -> (Vec<RunSpec>, Driver, Result<(), String>) {
    let ops = sim_ops(workload, variant);
    let driver = Driver::standard();
    let warm_up = sim_ops(workload, 0).into_iter().try_for_each(|mut small| {
        small.n = WARM_UP_N;
        driver
            .run(&small)
            .map_err(|e| e.to_string())
            .and_then(|report| gate::check_warm_up(&report))
            .map_err(|why| label(&small, format!("warm-up: {why}")))
    });
    (ops, driver, warm_up)
}

/// Times `SETUP_REPS` set-ups into `setup`, recording any warm-up failure
/// in `out`, and returns the last set-up's op list and driver.
fn sample_set_up(
    setup: &mut SetupClock,
    workload: Workload,
    variant: u64,
    out: &mut RunResult,
) -> (Vec<RunSpec>, Driver) {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (ops, driver, warm_up) = setup.time(|| set_up(workload, variant));
        if let Err(why) = warm_up {
            out.failures.push(why);
        }
        last = Some((ops, driver));
    }
    last.expect("SETUP_REPS > 0")
}

fn label(spec: &RunSpec, why: impl std::fmt::Display) -> String {
    format!("{}/{}/{} seed {:#x}: {why}", spec.task, spec.family.name(), spec.n, spec.seed)
}

/// End-to-end metrics: passes over the op list while the next pass fits in
/// `--seconds` (at least one).
pub fn end_to_end(args: &Args) -> RunResult {
    let variant = args.workload.variant(args.seed);
    let mut out = RunResult::default();
    let mut setup = SetupClock::default();
    let (ops, driver) = sample_set_up(&mut setup, args.workload, variant, &mut out);
    let mut pass_walls = Vec::new();
    let mut op_walls_ms = Vec::new();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        let mut reports = Vec::with_capacity(ops.len());
        for spec in &ops {
            let t0 = Instant::now();
            let report = driver.run(spec);
            op_walls_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            reports.push(report);
        }
        let wall = pass.elapsed().as_secs_f64();
        pass_walls.push(wall);
        for (op, (spec, report)) in ops.iter().zip(reports).enumerate() {
            out.tally(
                match report {
                    Ok(report) => gate::check_sim(args.workload, variant, op, &report),
                    Err(e) => Err(e.to_string()),
                }
                .map_err(|why| label(spec, why)),
            );
        }
        sample_set_up(&mut setup, args.workload, variant, &mut out);
        if start.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
    }
    let total_s: f64 = pass_walls.iter().sum();
    out.notes.push(format!(
        "workload {} variant {variant}: {} ops x {} passes; latency over {} Driver::run calls",
        args.workload.name(),
        ops.len(),
        pass_walls.len(),
        op_walls_ms.len()
    ));
    out.notes.push(format!("Driver::run walls (ms, op order per pass): {op_walls_ms:.0?}"));
    out.metric("wall_s", median(&pass_walls), "s");
    out.metric("setup_s", setup.median(), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    out.metric("latency_p50_ms", median(&op_walls_ms), "ms");
    out.metric("latency_p99_ms", percentile(&op_walls_ms, 0.99), "ms");
    out.metric("req_per_s", op_walls_ms.len() as f64 / total_s, "1/s");
    out
}

/// Per-layer metrics: each op runs through the traced replica of
/// `Driver::run`, which must reproduce the untraced report exactly.
pub fn traced(args: &Args) -> RunResult {
    let variant = args.workload.variant(args.seed);
    let ops = sim_ops(args.workload, variant);
    let driver = Driver::standard();
    let mut out = RunResult::default();
    let mut rec = Recorder::new();
    let mut tally = LayerTally::default();
    for (op, spec) in ops.iter().enumerate() {
        out.tally(
            trace::trace_op(&driver, spec, op, &mut rec, &mut tally)
                .and_then(|plain| gate::check_sim(args.workload, variant, op, &plain))
                .map_err(|why| label(spec, why)),
        );
    }
    tally.emit(&rec, &mut out);
    crate::service::emit_idle(&mut out);
    if let Some(path) = trace::write(&rec, args.workload.name(), args.seed) {
        out.notes.push(format!("spans written to {path}"));
    }
    out.notes.push(format!("self seconds per layer: {:?}", rec.self_times()));
    out
}
