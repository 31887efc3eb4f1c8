//! The `radionet` CLI: the unified façade from the shell.
//!
//! One binary exposes every algorithm in the workspace through the typed
//! [`RunSpec`] surface:
//!
//! ```text
//! radionet run --task broadcast --family grid --n 64 --seed 7
//! radionet run --spec spec.json
//! radionet sweep --sizes 36,64 --seeds 2 --base-seed 1 --out results.jsonl
//! radionet list-tasks
//! radionet catalogue
//! ```
//!
//! `run` prints one [`RunReport`] as JSON; `sweep` expands the named
//! scenario catalogue into specs and streams reports through a
//! [`ResultSink`] (JSONL by default), so arbitrarily large sweeps never
//! buffer in memory.

use radionet::api::{
    replay, Driver, Dynamics, JsonArraySink, JsonlSink, ResultSink, RunReport, RunSpec,
    TaskRegistry,
};
use radionet::graph::families::Family;
use radionet::journal::{bisect, ClassMask, EventKind, Journal};
use radionet::scenario::Scenario;
use radionet::scenario::SweepConfig;
use radionet::service::{cli as service_cli, run_sweep_sharded, ShardMode};
use radionet::sim::{Kernel, ReceptionMode, SinrConfig};
use radionet::telemetry::{ProgressEvent, ProgressMeter, ProgressSink};
use serde::Serialize;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// Exit status when a replay or bisect finds a divergence (distinct from
/// `1`, which means the command itself failed).
const EXIT_DIVERGED: u8 = 3;

const USAGE: &str = "\
radionet — unified CLI over every algorithm in the workspace

USAGE:
  radionet run [OPTIONS]         run one spec, print its RunReport as JSON
  radionet sweep [OPTIONS]       expand the scenario catalogue into specs and stream reports
  radionet replay JOURNAL [OPTS] re-drive a recorded journal, compare event-for-event
  radionet bisect LEFT RIGHT     first divergent event between two recorded journals
  radionet list-tasks [--json]   list the task registry
  radionet catalogue [--cells]   print the named scenario catalogue as JSON
  radionet serve [OPTIONS]       run the radionetd service in the foreground
  radionet submit [OPTIONS]      submit one spec to a running service
  radionet status --id N         query a submitted job's state
  radionet fetch --id N          fetch a finished job (add --report-only for raw bytes)
  radionet call [--addr A]       raw NDJSON protocol passthrough (stdin -> stdout)
  radionet metrics [--addr A]    scrape a running daemon's telemetry snapshot
  radionet help                  this text

RUN OPTIONS:
  --spec FILE|-       read a full RunSpec from a JSON file (or stdin); other
                      spec flags are rejected when --spec is given. Spec
                      JSON uses the typed enum names (\"Grid\", \"Sparse\",
                      {\"Churn\": {..}}) — generate a valid template with
                      `radionet catalogue --cells` or take the `spec` field
                      of any RunReport
  --task KEY          task registry key            [default: broadcast]
  --family NAME       graph family                 [default: grid]
  --n N               requested node count         [default: 64]
  --seed S            cell seed                    [default: 0]
  --reception MODE    protocol | protocol+cd | sinr (physical reception
                      from the family's embedding — or the live moving
                      point set under mobility dynamics; custom SINR
                      physics go through --spec)    [default: protocol]
  --kernel K          sparse | dense | event       [default: sparse]
  --dynamics NAME     static | churn | partition-repair | jamming |
                      staggered-wake | mobility:waypoint | mobility:walk |
                      mobility:levy | mobility:group (standard presets;
                      mobility needs a geometric --family)  [default: static]
  --steps N           optional step-budget cap
  --compact           compact JSON instead of pretty
  --out FILE          write to FILE instead of stdout
  --journal FILE      also record an event journal of the run and write it
                      to FILE as one JSON document (feeds replay/bisect)
  --journal-classes L event classes to record: all | none | comma list of
                      radio,topology,phase,sched   [default: all]
  --checkpoint-every N  waypoint cadence in steps; 0 derives one from the
                      task's timebase              [default: 0]

REPLAY OPTIONS:
  JOURNAL             recorded journal file (\"-\" = stdin)
  --perturb N         corrupt the Nth node-bearing recorded event before
                      comparing (smoke-tests the divergence machinery; the
                      report must pinpoint the injected step)
  --out FILE          also write the fresh replay journal to FILE
  exit status: 0 = streams identical, 3 = divergence found, 1 = error

BISECT OPTIONS:
  LEFT RIGHT          two recorded journal files (\"-\" = stdin, once)
  --classes LIST      classes to compare: all | none | comma list
                      [default: all] (sched is dropped automatically when
                      the journals come from different kernels)
  exit status: 0 = identical on compared classes, 3 = divergent, 1 = error

SWEEP OPTIONS:
  --sizes LIST        comma-separated sizes        [default: 36]
  --seeds K           repetitions per cell         [default: 1]
  --base-seed S       master seed                  [default: 0]
  --scenario NAME     restrict to a named scenario (repeatable)
  --kernel K          sparse | dense | event       [default: sparse]
  --format F          jsonl | json                 [default: jsonl]
  --sequential        one cell at a time (default: rayon chunks; the
                      output stream is byte-identical either way)
  --chunk N           parallel chunk size          [default: 64]
  --shards N          route the sweep through the sharded coordinator with N
                      deterministic shards (output stays byte-identical)
  --shard-exec PATH   shard via spawned `PATH --worker` subprocesses instead
                      of in-process threads (implies the sharded path)
  --progress          live progress line on stderr (done/total, rate, ETA;
                      rate-limited to ~5 updates/sec)
  --progress-jsonl F  append one ProgressEvent JSON line per update to F
  --out FILE          write to FILE instead of stdout

SERVICE COMMANDS:
  serve / submit / status / fetch / call / metrics speak the radionetd NDJSON
  protocol and accept --addr (default 127.0.0.1:7177); `metrics` renders the
  daemon's telemetry snapshot as Prometheus-style text (--json for raw JSON).
  See `radionetd --help`.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "run" => cmd_run(rest).map(|()| ExitCode::SUCCESS),
        "sweep" => cmd_sweep(rest).map(|()| ExitCode::SUCCESS),
        "replay" => cmd_replay(rest),
        "bisect" => cmd_bisect(rest),
        "list-tasks" => cmd_list_tasks(rest).map(|()| ExitCode::SUCCESS),
        "catalogue" => cmd_catalogue(rest).map(|()| ExitCode::SUCCESS),
        "serve" => service_cli::serve_cmd(rest).map(|()| ExitCode::SUCCESS),
        "submit" => service_cli::submit_cmd(rest).map(|()| ExitCode::SUCCESS),
        "status" => service_cli::status_cmd(rest, false).map(|()| ExitCode::SUCCESS),
        "fetch" => service_cli::status_cmd(rest, true).map(|()| ExitCode::SUCCESS),
        "call" => service_cli::call_cmd(rest).map(|()| ExitCode::SUCCESS),
        "metrics" => service_cli::metrics_cmd(rest).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?} (see `radionet help`)")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("radionet {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A tiny flag cursor over `--key value` / `--switch` argument lists.
struct Args<'a> {
    rest: &'a [String],
    i: usize,
}

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Self {
        Args { rest, i: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.rest.get(self.i)?;
        self.i += 1;
        Some(flag.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let v = self.rest.get(self.i).ok_or_else(|| format!("{flag} needs a value"))?;
        self.i += 1;
        Ok(v.as_str())
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

fn parse_family(name: &str) -> Result<Family, String> {
    Family::ALL.into_iter().find(|f| f.name() == name).ok_or_else(|| {
        let all: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        format!("unknown family {name:?}; one of: {}", all.join(", "))
    })
}

fn parse_kernel(name: &str) -> Result<Kernel, String> {
    match name {
        "sparse" => Ok(Kernel::Sparse),
        "dense" => Ok(Kernel::Dense),
        "event" => Ok(Kernel::Event),
        other => Err(format!("unknown kernel {other:?}; sparse, dense or event")),
    }
}

fn parse_reception(name: &str) -> Result<ReceptionMode, String> {
    match name {
        "protocol" => Ok(ReceptionMode::Protocol),
        "protocol+cd" | "cd" => Ok(ReceptionMode::ProtocolCd),
        // Geometry-sourced physical reception: positions come from the
        // family's own embedding (static) or the live moving point set
        // (mobility dynamics) — no hand-shipped coordinates. Custom
        // physics or explicit snapshots go through --spec.
        "sinr" => Ok(ReceptionMode::Sinr(SinrConfig::geometric())),
        other => Err(format!(
            "unknown reception {other:?}; protocol, protocol+cd, or sinr \
             (geometric families; custom SINR configs go through --spec)"
        )),
    }
}

fn parse_sizes(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|s| parse::<usize>("--sizes", s.trim()))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|v| if v.is_empty() { Err("--sizes is empty".into()) } else { Ok(v) })
}

fn open_out(path: Option<&str>) -> Result<Box<dyn Write>, String> {
    match path {
        None | Some("-") => Ok(Box::new(std::io::stdout())),
        Some(p) => {
            let f = std::fs::File::create(p).map_err(|e| format!("cannot create {p}: {e}"))?;
            Ok(Box::new(std::io::BufWriter::new(f)))
        }
    }
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut spec_file: Option<String> = None;
    let mut spec = RunSpec::new("broadcast", Family::Grid, 64);
    let mut flag_count = 0usize;
    let mut compact = false;
    let mut out: Option<String> = None;
    let mut journal_out: Option<String> = None;
    let mut journal_classes: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--spec" => spec_file = Some(args.value(flag)?.to_string()),
            "--task" => {
                spec.task = args.value(flag)?.to_string();
                flag_count += 1;
            }
            "--family" => {
                spec.family = parse_family(args.value(flag)?)?;
                flag_count += 1;
            }
            "--n" => {
                spec.n = parse(flag, args.value(flag)?)?;
                flag_count += 1;
            }
            "--seed" => {
                spec.seed = parse(flag, args.value(flag)?)?;
                flag_count += 1;
            }
            "--reception" => {
                spec.reception = parse_reception(args.value(flag)?)?;
                flag_count += 1;
            }
            "--kernel" => {
                spec.kernel = parse_kernel(args.value(flag)?)?;
                flag_count += 1;
            }
            "--dynamics" => {
                let name = args.value(flag)?;
                spec.dynamics =
                    Dynamics::preset(name).ok_or_else(|| format!("unknown dynamics {name:?}"))?;
                flag_count += 1;
            }
            "--steps" => {
                spec.steps = Some(parse(flag, args.value(flag)?)?);
                flag_count += 1;
            }
            "--compact" => compact = true,
            "--out" => out = Some(args.value(flag)?.to_string()),
            // Journal flags are output/observability controls, not spec
            // axes, so they compose with --spec (flag_count untouched).
            "--journal" => journal_out = Some(args.value(flag)?.to_string()),
            "--journal-classes" => journal_classes = Some(args.value(flag)?.to_string()),
            "--checkpoint-every" => checkpoint_every = Some(parse(flag, args.value(flag)?)?),
            other => return Err(format!("unknown flag {other:?} (see `radionet help`)")),
        }
    }
    if journal_out.is_none() && (journal_classes.is_some() || checkpoint_every.is_some()) {
        return Err("--journal-classes / --checkpoint-every need --journal FILE".into());
    }
    if let Some(path) = spec_file {
        if flag_count > 0 {
            return Err("--spec replaces the whole spec; drop the other spec flags".into());
        }
        let json = if path == "-" {
            std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string())?
        } else {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
        };
        spec = serde_json::from_str(&json).map_err(|e| format!("bad spec in {path}: {e}"))?;
    }
    let report = match &journal_out {
        None => Driver::standard().run(&spec).map_err(|e| e.to_string())?,
        Some(jpath) => {
            // Flags refine the spec's own journal section (if any): a
            // spec-file recipe can carry its filter, the command line wins.
            let mut jspec = spec.journal.clone().unwrap_or_default();
            if let Some(classes) = journal_classes {
                jspec.classes = classes;
            }
            if let Some(every) = checkpoint_every {
                jspec.checkpoint_every = every;
            }
            spec.journal = Some(jspec);
            let (report, journal) =
                Driver::standard().run_journaled(&spec).map_err(|e| e.to_string())?;
            let doc = journal.to_json_string().map_err(|e| e.to_string())?;
            let mut jw = open_out(Some(jpath))?;
            writeln!(jw, "{doc}").and_then(|()| jw.flush()).map_err(|e| e.to_string())?;
            report
        }
    };
    if report.stats.kernel_fallbacks > 0 {
        // Never silent: the run asked for the sparse or event kernel but
        // (some of) its phases executed a slower one.
        eprintln!(
            "warning: {} phase(s) fell back to a slower kernel \
             (the topology view lacks a change feed or event-jump support); \
             see stats.kernel_fallbacks",
            report.stats.kernel_fallbacks
        );
    }
    let rendered = render(&report, compact)?;
    let mut w = open_out(out.as_deref())?;
    writeln!(w, "{rendered}").and_then(|()| w.flush()).map_err(|e| e.to_string())
}

fn cmd_sweep(rest: &[String]) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut sizes = vec![36usize];
    let mut seeds = 1u64;
    let mut base_seed = 0u64;
    let mut names: Vec<String> = Vec::new();
    let mut kernel = Kernel::default();
    let mut format = "jsonl".to_string();
    let mut sequential = false;
    let mut chunk = 64usize;
    let mut shards = 1usize;
    let mut shard_exec: Option<String> = None;
    let mut progress = false;
    let mut progress_jsonl: Option<String> = None;
    let mut out: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--sizes" => sizes = parse_sizes(args.value(flag)?)?,
            "--seeds" => seeds = parse(flag, args.value(flag)?)?,
            "--base-seed" => base_seed = parse(flag, args.value(flag)?)?,
            "--scenario" => names.push(args.value(flag)?.to_string()),
            "--kernel" => kernel = parse_kernel(args.value(flag)?)?,
            "--format" => format = args.value(flag)?.to_string(),
            "--sequential" => sequential = true,
            "--chunk" => chunk = parse(flag, args.value(flag)?)?,
            "--shards" => shards = parse(flag, args.value(flag)?)?,
            "--shard-exec" => shard_exec = Some(args.value(flag)?.to_string()),
            "--progress" => progress = true,
            "--progress-jsonl" => progress_jsonl = Some(args.value(flag)?.to_string()),
            "--out" => out = Some(args.value(flag)?.to_string()),
            other => return Err(format!("unknown flag {other:?} (see `radionet help`)")),
        }
    }

    // Where `--progress` / `--progress-jsonl` events land: a `\r`-rewritten
    // stderr line and/or a JSON line per event. Progress is observability,
    // never control flow, so the writes are best-effort.
    struct ProgressWriter {
        stderr: bool,
        jsonl: Option<std::io::BufWriter<std::fs::File>>,
    }
    impl ProgressSink for ProgressWriter {
        fn progress(&mut self, event: &ProgressEvent) {
            if self.stderr {
                eprint!("\r{}", event.render());
                if event.total > 0 && event.done >= event.total {
                    eprintln!();
                }
            }
            if let Some(w) = &mut self.jsonl {
                if let Ok(line) = serde_json::to_string(event) {
                    let _ = writeln!(w, "{line}");
                    let _ = w.flush();
                }
            }
        }
    }

    // Delegating sink that tallies kernel fallbacks across the sweep so a
    // silently-degraded cell is reported on stderr, matching `run`'s
    // warning (the counts also sit in every cell's stats.kernel_fallbacks),
    // and ticks the optional progress meter — reports stream through here
    // in deterministic cell order on one thread, whichever execution path
    // produced them.
    struct FallbackTally<'a> {
        inner: &'a mut dyn ResultSink,
        fallbacks: u64,
        cells: u64,
        /// Streaming-traffic cells seen, their injected/delivered message
        /// totals and summed delivered throughput — the sweep-level view
        /// of the delivery pipeline for the summary line.
        traffic_cells: u64,
        traffic_injected: u64,
        traffic_delivered: u64,
        traffic_thpt: f64,
        progress: Option<(ProgressMeter, ProgressWriter)>,
    }
    impl ResultSink for FallbackTally<'_> {
        fn emit(&mut self, report: &RunReport) -> std::io::Result<()> {
            if report.stats.kernel_fallbacks > 0 {
                self.fallbacks += report.stats.kernel_fallbacks;
                self.cells += 1;
            }
            if let Some(t) = &report.traffic {
                self.traffic_cells += 1;
                self.traffic_injected += t.injected;
                self.traffic_delivered += t.delivered;
                self.traffic_thpt += t.throughput_per_kstep;
            }
            if let Some((meter, writer)) = &mut self.progress {
                meter.tick(writer);
            }
            self.inner.emit(report)
        }
        fn finish(&mut self) -> std::io::Result<()> {
            self.inner.finish()
        }
    }

    let mut scenarios = Scenario::extended_catalogue();
    if !names.is_empty() {
        for name in &names {
            if !scenarios.iter().any(|s| &s.name == name) {
                let known: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
                return Err(format!("unknown scenario {name:?}; one of: {}", known.join(", ")));
            }
        }
        scenarios.retain(|s| names.contains(&s.name));
    }
    let config = SweepConfig { scenarios, sizes, seeds, base_seed, kernel };

    let w = open_out(out.as_deref())?;
    let mut sink: Box<dyn ResultSink> = match format.as_str() {
        "jsonl" => Box::new(JsonlSink::new(w)),
        "json" => Box::new(JsonArraySink::new(w)),
        other => return Err(format!("unknown format {other:?}; jsonl or json")),
    };
    let driver = Driver::standard();
    let meter = (progress || progress_jsonl.is_some()).then(|| {
        let total = (config.scenarios.len() * config.sizes.len()) as u64 * config.seeds;
        let jsonl = progress_jsonl.as_deref().map(|p| {
            std::fs::File::create(p)
                .map(std::io::BufWriter::new)
                .map_err(|e| format!("cannot create {p}: {e}"))
        });
        let jsonl = match jsonl {
            None => None,
            Some(Ok(w)) => Some(w),
            Some(Err(e)) => return Err(e),
        };
        Ok((ProgressMeter::new(total), ProgressWriter { stderr: progress, jsonl }))
    });
    let meter = meter.transpose()?;
    let sweep_started = Instant::now();
    let mut tally = FallbackTally {
        inner: sink.as_mut(),
        fallbacks: 0,
        cells: 0,
        traffic_cells: 0,
        traffic_injected: 0,
        traffic_delivered: 0,
        traffic_thpt: 0.0,
        progress: meter,
    };
    let emitted = if shards > 1 || shard_exec.is_some() {
        // The sharded coordinator partitions by cell position, so it needs
        // the whole spec list up front (O(cells) memory — the trade for
        // multi-worker execution); the merged stream stays byte-identical.
        let specs: Vec<RunSpec> = config.specs().collect();
        let mode = match shard_exec {
            Some(exe) => ShardMode::Subprocess { exe: exe.into() },
            None => ShardMode::InProcess,
        };
        run_sweep_sharded(&driver, &specs, shards, &mode, &mut tally).map_err(|e| e.to_string())?
    } else {
        // Specs are generated lazily and exist only chunk-at-a-time, so
        // the sweep's memory footprint is O(chunk) regardless of size.
        let chunk = if sequential { 1 } else { chunk };
        driver.run_sweep(config.specs(), chunk, &mut tally).map_err(|e| e.to_string())?
    };
    if tally.fallbacks > 0 {
        eprintln!(
            "warning: {} phase(s) across {} cell(s) fell back to a slower kernel \
             (topology views without a change feed or event-jump support); \
             see stats.kernel_fallbacks",
            tally.fallbacks, tally.cells
        );
    }
    // The one-line sweep summary (always, progress or not): how much work,
    // how fast, and whether anything degraded. Cache hits only exist on
    // service-served sweeps — the direct driver has no cache — so this
    // line reports fallbacks and leaves hit rates to `radionet metrics`.
    let wall = sweep_started.elapsed().as_secs_f64();
    let rate = if wall > 0.0 { emitted as f64 / wall } else { 0.0 };
    eprintln!(
        "swept {emitted} cells in {wall:.2}s ({rate:.1} cells/s), {} kernel fallback(s)",
        tally.fallbacks
    );
    // Streaming-traffic cells get their own line: how much of the
    // injected workload was fully delivered and the mean delivered
    // throughput across the traffic cells (absent when nothing in the
    // sweep carried traffic).
    if tally.traffic_cells > 0 {
        eprintln!(
            "traffic: {} cell(s), {}/{} message(s) fully delivered, \
             mean {:.1} delivered/kstep",
            tally.traffic_cells,
            tally.traffic_delivered,
            tally.traffic_injected,
            tally.traffic_thpt / tally.traffic_cells as f64,
        );
    }
    Ok(())
}

fn load_journal(path: &str) -> Result<Journal, String> {
    let json = if path == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string())?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    Journal::from_json_str(&json).map_err(|e| format!("bad journal in {path}: {e}"))
}

/// Bumps the node of the `idx`-th node-bearing recorded event (the
/// `--perturb` smoke hook), returning the step it corrupted.
fn perturb_event(journal: &mut Journal, idx: usize) -> Result<u64, String> {
    let mut seen = 0usize;
    for e in &mut journal.events {
        if e.kind.node().is_none() {
            continue;
        }
        if seen == idx {
            e.kind = match e.kind {
                EventKind::Transmit(mut i) => {
                    i.node += 1;
                    EventKind::Transmit(i)
                }
                EventKind::Deliver(mut i) => {
                    i.node += 1;
                    EventKind::Deliver(i)
                }
                EventKind::Collision(mut i) => {
                    i.node += 1;
                    EventKind::Collision(i)
                }
                EventKind::Status(mut i) => {
                    i.node += 1;
                    EventKind::Status(i)
                }
                EventKind::Hint(mut i) => {
                    i.node += 1;
                    EventKind::Hint(i)
                }
                other => other,
            };
            return Ok(e.step);
        }
        seen += 1;
    }
    Err(format!("--perturb {idx}: the journal has only {seen} node-bearing events"))
}

fn cmd_replay(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(rest);
    let mut path: Option<String> = None;
    let mut perturb: Option<usize> = None;
    let mut out: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--perturb" => perturb = Some(parse(flag, args.value(flag)?)?),
            "--out" => out = Some(args.value(flag)?.to_string()),
            positional if !positional.starts_with("--") && path.is_none() => {
                path = Some(positional.to_string());
            }
            other => return Err(format!("unknown flag {other:?} (see `radionet help`)")),
        }
    }
    let path = path.ok_or("replay needs a JOURNAL file (see `radionet help`)")?;
    let mut recorded = load_journal(&path)?;
    if let Some(idx) = perturb {
        let step = perturb_event(&mut recorded, idx)?;
        eprintln!("perturbed node-bearing event {idx} at step {step}");
    }
    let outcome = replay(&Driver::standard(), &recorded).map_err(|e| e.to_string())?;
    if let Some(path) = out {
        let doc = outcome.replayed.to_json_string().map_err(|e| e.to_string())?;
        let mut w = open_out(Some(&path))?;
        writeln!(w, "{doc}").and_then(|()| w.flush()).map_err(|e| e.to_string())?;
    }
    println!("{}", outcome.comparison);
    if outcome.matches() {
        println!(
            "replay reproduced the recording: {} events, fingerprint {:#018x}",
            outcome.replayed.events.len(),
            outcome.replayed.final_fingerprint
        );
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(EXIT_DIVERGED))
    }
}

fn cmd_bisect(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(rest);
    let mut paths: Vec<String> = Vec::new();
    let mut classes = ClassMask::ALL;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--classes" => classes = ClassMask::parse(args.value(flag)?)?,
            positional if !positional.starts_with("--") && paths.len() < 2 => {
                paths.push(positional.to_string());
            }
            other => return Err(format!("unknown flag {other:?} (see `radionet help`)")),
        }
    }
    let [left, right]: [String; 2] = paths
        .try_into()
        .map_err(|_| "bisect needs LEFT and RIGHT journal files (see `radionet help`)")?;
    let report = bisect(&load_journal(&left)?, &load_journal(&right)?, classes);
    println!("{report}");
    if report.is_divergent() {
        Ok(ExitCode::from(EXIT_DIVERGED))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

#[derive(Serialize)]
struct TaskRow {
    key: String,
    description: String,
}

fn cmd_list_tasks(rest: &[String]) -> Result<(), String> {
    let as_json = match rest {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => return Err("list-tasks takes only --json".into()),
    };
    let registry = TaskRegistry::standard();
    if as_json {
        let rows: Vec<TaskRow> = registry
            .iter()
            .map(|t| TaskRow { key: t.key().to_string(), description: t.describe().to_string() })
            .collect();
        println!("{}", serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?);
    } else {
        let width = registry.keys().map(str::len).max().unwrap_or(0);
        for task in registry.iter() {
            println!("{:width$}  {}", task.key(), task.describe());
        }
    }
    Ok(())
}

fn cmd_catalogue(rest: &[String]) -> Result<(), String> {
    match rest {
        [] => {
            let cat = Scenario::extended_catalogue();
            println!("{}", serde_json::to_string_pretty(&cat).map_err(|e| e.to_string())?);
            Ok(())
        }
        [flag] if flag == "--cells" => {
            // The catalogue expanded at the default sweep shape, as specs.
            let specs: Vec<RunSpec> = SweepConfig::catalogue(vec![36], 1, 0).specs().collect();
            println!("{}", serde_json::to_string_pretty(&specs).map_err(|e| e.to_string())?);
            Ok(())
        }
        _ => Err("catalogue takes only --cells".into()),
    }
}

fn render(report: &RunReport, compact: bool) -> Result<String, String> {
    if compact {
        serde_json::to_string(report).map_err(|e| e.to_string())
    } else {
        serde_json::to_string_pretty(report).map_err(|e| e.to_string())
    }
}
