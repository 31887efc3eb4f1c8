//! The `service` workload: an in-process `Service` with the default
//! configuration, driven by closed-loop `ServiceClient`s from a cold cache.

use crate::gate;
use crate::report::{median, peak_rss_mb, percentile, RunResult, SetupClock};
use crate::trace::{self, LayerTally, Recorder};
use crate::workloads::{service_catalogue, service_mix, SERVICE_CLIENTS, SERVICE_REQUESTS};
use crate::Args;
use radionet_api::{Driver, RunSpec};
use radionet_graph::families::Family;
use radionet_service::{Service, ServiceClient, ServiceConfig, ServiceHandle, ServiceStats};
use std::io;
use std::time::Instant;

/// Set-up repetitions (catalogue, bind, spawn, connect, probe) before the pass,
/// the last of which serves it, and after it; `setup_s` is their median.
const SETUP_REPS_BEFORE: usize = 11;
const SETUP_REPS_AFTER: usize = 10;

/// A started service with its connected clients.
struct Running {
    handle: ServiceHandle,
    clients: Vec<ServiceClient>,
}

fn start() -> io::Result<Running> {
    let handle = Service::start(ServiceConfig::default())?;
    let addr = handle.addr().to_string();
    let clients =
        (0..SERVICE_CLIENTS).map(|_| ServiceClient::connect(&addr)).collect::<io::Result<_>>()?;
    Ok(Running { handle, clients })
}

fn stop(handle: ServiceHandle) {
    handle.request_shutdown();
    handle.join();
}

/// One answered request, as the client saw it and as the server timed it.
struct Sample {
    rtt_ms: f64,
    queued_ms: f64,
    run_ms: f64,
}

/// One pass of the request mix.
struct Pass {
    samples: Vec<Sample>,
    wall_s: f64,
    stats: ServiceStats,
}

fn request(
    client: &mut ServiceClient,
    catalogue: &[RunSpec],
    index: usize,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let response = client.submit_wait(&catalogue[index]);
    let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let response = response.map_err(|e| e.to_string())?;
    let report = response.report.as_ref().ok_or("response without a report")?;
    gate::check_catalogue(index, report)?;
    match (response.queued_micros, response.run_micros) {
        (Some(queued), Some(run)) => {
            Ok(Sample { rtt_ms, queued_ms: queued as f64 / 1e3, run_ms: run as f64 / 1e3 })
        }
        _ => Err("response without server timings".into()),
    }
}

/// Sends the seed's mix from every client concurrently, tallies each
/// request into `out`, then shuts the service down.
fn run_pass(running: Running, seed: u64, catalogue: &[RunSpec], out: &mut RunResult) -> Pass {
    let per_client = SERVICE_REQUESTS / SERVICE_CLIENTS;
    let t0 = Instant::now();
    let results: Vec<Vec<(usize, Result<Sample, String>)>> = std::thread::scope(|s| {
        let threads: Vec<_> = running
            .clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let mix = service_mix(seed, c, per_client, catalogue.len());
                s.spawn(move || {
                    mix.into_iter().map(|i| (i, request(&mut client, catalogue, i))).collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = running.handle.stats();
    stop(running.handle);
    let mut samples = Vec::new();
    for (index, result) in results.into_iter().flatten() {
        let spec = &catalogue[index];
        match result {
            Ok(sample) => {
                samples.push(sample);
                out.tally(Ok(()));
            }
            Err(why) => out.tally(Err(format!(
                "request {}/{}/{} seed {:#x}: {why}",
                spec.task,
                spec.family.name(),
                spec.n,
                spec.seed
            ))),
        }
    }
    for _ in 0..stats.cache.audit_failures {
        out.failures.push("cache audit failed: a cached report differed from a fresh run".into());
    }
    for _ in 0..stats.rejected {
        out.failures.push("service rejected a submission".into());
    }
    Pass { samples, wall_s, stats }
}

/// The readiness probe each client sends during set-up: a tiny spec
/// outside the catalogue, so the catalogue's cache stays cold.
fn probe_spec(client: usize) -> RunSpec {
    RunSpec::new("broadcast", Family::Grid, 16).with_seed(0x9e4d_0000 + client as u64)
}

/// Sends every client's readiness probe and gates its report.
fn probe(running: &mut Running) -> io::Result<()> {
    for (c, client) in running.clients.iter_mut().enumerate() {
        let response = client.submit_wait(&probe_spec(c))?;
        let report = response
            .report
            .as_ref()
            .ok_or_else(|| io::Error::other("readiness probe: response without a report"))?;
        gate::check_warm_up(report)
            .map_err(|why| io::Error::other(format!("readiness probe: {why}")))?;
    }
    Ok(())
}

/// Times one set-up: the catalogue, the service start, the connects and
/// one readiness round trip per client.
fn set_up(setup: &mut SetupClock) -> io::Result<(Running, Vec<RunSpec>)> {
    setup.time(|| -> io::Result<_> {
        let catalogue = service_catalogue();
        let mut running = start()?;
        if let Err(e) = probe(&mut running) {
            tear_down(running);
            return Err(e);
        }
        Ok((running, catalogue))
    })
}

fn tear_down(running: Running) {
    drop(running.clients);
    stop(running.handle);
}

/// End-to-end metrics of one pass from a cold cache.
pub fn end_to_end(args: &Args) -> RunResult {
    let mut out = RunResult::default();
    let mut setup = SetupClock::default();
    let started = (1..SETUP_REPS_BEFORE)
        .try_for_each(|_| set_up(&mut setup).map(|(running, _)| tear_down(running)))
        .and_then(|()| set_up(&mut setup));
    let (running, catalogue) = match started {
        Ok(started) => started,
        Err(e) => {
            out.tally(Err(format!("service start: {e}")));
            return out;
        }
    };
    let pass = run_pass(running, args.seed, &catalogue, &mut out);
    for _ in 0..SETUP_REPS_AFTER {
        match set_up(&mut setup) {
            Ok((running, _)) => tear_down(running),
            Err(e) => out.failures.push(format!("service start: {e}")),
        }
    }
    let rtts: Vec<f64> = pass.samples.iter().map(|s| s.rtt_ms).collect();
    out.notes.push(format!(
        "service: {} clients, {} requests over {} specs; latency over {} answered requests",
        SERVICE_CLIENTS,
        out.attempted,
        catalogue.len(),
        rtts.len()
    ));
    out.metric("wall_s", pass.wall_s, "s");
    out.metric("setup_s", setup.median(), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    out.metric("latency_p50_ms", median(&rtts), "ms");
    out.metric("latency_p99_ms", percentile(&rtts, 0.99), "ms");
    out.metric("req_per_s", rtts.len() as f64 / pass.wall_s, "1/s");
    out
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Per-layer metrics: the service and cache layers from one pass (read
/// from the public response timings and stats), then the graph and sim
/// layers from a traced replica of every catalogue spec's fresh run.
pub fn traced(args: &Args) -> RunResult {
    let mut out = RunResult::default();
    let catalogue = service_catalogue();
    let pass = match start() {
        Ok(running) => run_pass(running, args.seed, &catalogue, &mut out),
        Err(e) => {
            out.tally(Err(format!("service start: {e}")));
            return out;
        }
    };
    let driver = Driver::standard();
    let mut rec = Recorder::new();
    let mut tally = LayerTally::default();
    for (op, spec) in catalogue.iter().enumerate() {
        out.tally(
            trace::trace_op(&driver, spec, op, &mut rec, &mut tally)
                .and_then(|plain| gate::check_catalogue(op, &plain)),
        );
    }
    tally.emit(&rec, &mut out);
    let cache = pass.stats.cache;
    let s = &pass.samples;
    out.metric(
        "service.transport_ms",
        mean(s.iter().map(|s| s.rtt_ms - s.queued_ms - s.run_ms)),
        "ms",
    );
    out.metric("service.queue_wait_ms", mean(s.iter().map(|s| s.queued_ms)), "ms");
    out.metric("service.run_ms", mean(s.iter().map(|s| s.run_ms)), "ms");
    out.metric("service.rejected", pass.stats.rejected as f64, "count");
    let lookups = cache.hits + cache.misses;
    out.metric("cache.hit_ratio", cache.hits as f64 / lookups.max(1) as f64, "ratio");
    out.metric("cache.misses", cache.misses as f64, "count");
    out.metric("cache.audits", cache.audits as f64, "count");
    if let Some(path) = trace::write(&rec, args.workload.name(), args.seed) {
        out.notes.push(format!("spans written to {path}"));
    }
    out.notes.push(format!("self seconds per layer: {:?}", rec.self_times()));
    out
}

/// The service and cache metrics of a workload that does not use them.
pub fn emit_idle(out: &mut RunResult) {
    for name in ["service.transport_ms", "service.queue_wait_ms", "service.run_ms"] {
        out.metric(name, 0.0, "ms");
    }
    out.metric("service.rejected", 0.0, "count");
    out.metric("cache.hit_ratio", 0.0, "ratio");
    out.metric("cache.misses", 0.0, "count");
    out.metric("cache.audits", 0.0, "count");
}
