//! Subprocess scale-out for sweeps: split a spec list across spawned
//! worker processes, merge the outputs back into the sequential stream —
//! byte-identical, because every cell is a pure function of its spec.
//!
//! In-process sweeps need no coordinator: the driver's one sweep method,
//! [`Driver::run_sweep`](radionet_api::Driver::run_sweep), already runs
//! cells in parallel chunks. This module is only the scale-out past one
//! process. Cell `i` goes to shard `i % shards`; each `<exe> --worker`
//! subprocess (normally `radionetd --worker`) reads its specs as JSONL on
//! stdin, runs them through `run_sweep` ([`worker_loop`]), and writes
//! report JSONL on stdout. The coordinator reassembles by original index,
//! so the assignment never shows in the output: the shard-merge test suite
//! pins 2-, 3- and 7-way subprocess sweeps byte-identical to the
//! `run_sweep` stream over the extended catalogue, `fell_back` telemetry
//! included (it lives in each report's stats and rides the same bytes).

use radionet_api::{Driver, JsonlSink, ResultSink, RunError, RunReport, RunSpec};
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `specs` across `shards` spawned `<exe> --worker` subprocesses and
/// streams the merged reports to `sink` in original order — byte-identical
/// to the [`Driver::run_sweep`](radionet_api::Driver::run_sweep) stream at
/// any chunk size. Returns the number of reports emitted.
///
/// On a failing shard the sink still receives the longest in-order prefix
/// of completed reports and is finished (partial output stays well-formed,
/// matching the driver's own sweep semantics), and the first failing
/// shard's error is returned.
///
/// # Errors
///
/// Worker spawn, I/O and exit failures (a failing cell makes its worker
/// exit non-zero) and sink failures, as [`RunError::Sink`].
pub fn run_sweep_subprocess(
    exe: &Path,
    specs: &[RunSpec],
    shards: usize,
    sink: &mut dyn ResultSink,
) -> Result<usize, RunError> {
    let shards = shards.clamp(1, specs.len().max(1));
    let results: Vec<Result<Vec<RunReport>, RunError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|k| {
                let part: Vec<&RunSpec> = specs.iter().skip(k).step_by(shards).collect();
                s.spawn(move || run_part(exe, &part))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard coordinator panicked")).collect()
    });

    let mut emitted = 0usize;
    let mut sink_err = None;
    for i in 0..specs.len() {
        // Cell `i` is report `i / shards` of shard `i % shards`; a failed
        // shard ends the in-order stream at its first cell.
        let Ok(part) = &results[i % shards] else { break };
        if let Err(e) = sink.emit(&part[i / shards]) {
            sink_err = Some(e.into());
            break;
        }
        emitted += 1;
    }
    let first_err = results.into_iter().find_map(Result::err).or(sink_err);
    match first_err {
        None => {
            sink.finish()?;
            Ok(emitted)
        }
        Some(e) => {
            let _ = sink.finish();
            Err(e)
        }
    }
}

/// One shard: specs down the child's stdin as JSONL, reports back up its
/// stdout in the same order.
fn run_part(exe: &Path, part: &[&RunSpec]) -> Result<Vec<RunReport>, RunError> {
    if part.is_empty() {
        return Ok(Vec::new());
    }
    let lines = part
        .iter()
        .map(|spec| serde_json::to_string(spec).map(|line| line + "\n"))
        .collect::<Result<String, _>>()
        .map_err(invalid_data)?;
    let mut child = Command::new(exe)
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(RunError::Sink)?;
    let mut stdin = child.stdin.take().expect("piped");
    let stdout = child.stdout.take().expect("piped");
    // Feed from a helper thread so a worker already emitting reports can
    // never deadlock against a still-writing coordinator; dropping stdin
    // closes the pipe and the worker sees EOF.
    let feeder = std::thread::spawn(move || stdin.write_all(lines.as_bytes()));
    let reports = io::BufReader::new(stdout)
        .lines()
        .map(|line| serde_json::from_str(&line.map_err(RunError::Sink)?).map_err(invalid_data))
        .collect::<Result<Vec<RunReport>, RunError>>();
    let fed = feeder.join().expect("feeder panicked");
    let status = child.wait().map_err(RunError::Sink)?;
    if !status.success() {
        return Err(RunError::Sink(io::Error::other(format!("shard worker exited {status}"))));
    }
    fed.map_err(RunError::Sink)?;
    let reports = reports?;
    if reports.len() != part.len() {
        return Err(RunError::Sink(io::Error::other(format!(
            "shard worker returned {} of {} reports",
            reports.len(),
            part.len()
        ))));
    }
    Ok(reports)
}

fn invalid_data(e: serde_json::Error) -> RunError {
    RunError::Sink(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The `--worker` side of subprocess sharding: reads spec JSONL from
/// `input`, runs the specs in order through
/// [`Driver::run_sweep`](radionet_api::Driver::run_sweep) at chunk 1, and
/// writes report JSONL to `output`. Returns the number of specs served.
/// Blank lines are skipped, so a trailing newline is harmless.
///
/// # Errors
///
/// I/O failures, unparseable spec lines (raised before any cell runs),
/// and failing runs (as their [`RunError`] text) — a worker error is fatal
/// for its shard.
pub fn worker_loop(driver: &Driver, input: impl BufRead, output: impl Write) -> io::Result<usize> {
    let mut specs = Vec::new();
    for line in input.lines() {
        let line = line?;
        if !line.trim().is_empty() {
            specs.push(
                serde_json::from_str::<RunSpec>(&line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            );
        }
    }
    driver.run_sweep(specs, 1, &mut JsonlSink::new(output)).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::families::Family;

    fn specs(n: usize) -> Vec<RunSpec> {
        (0..n).map(|i| RunSpec::new("luby-mis", Family::Path, 8).with_seed(i as u64)).collect()
    }

    fn jsonl(specs: &[RunSpec]) -> String {
        specs.iter().map(|s| serde_json::to_string(s).unwrap() + "\n").collect()
    }

    #[test]
    fn worker_loop_round_trips_jsonl() {
        let driver = Driver::standard();
        let list = specs(3);
        let mut out = Vec::new();
        let served = worker_loop(&driver, jsonl(&list).as_bytes(), &mut out).unwrap();
        assert_eq!(served, 3);
        let mut expect = Vec::new();
        driver.run_sweep(list, 1, &mut JsonlSink::new(&mut expect)).unwrap();
        assert_eq!(out, expect, "worker output is the sequential sweep stream");
    }

    #[test]
    fn worker_loop_rejects_a_malformed_line_before_running_anything() {
        let driver = Driver::standard();
        let input = jsonl(&specs(2)) + "{not a spec\n";
        let mut out = Vec::new();
        let err = worker_loop(&driver, input.as_bytes(), &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(out.is_empty(), "no cell runs when any input line is malformed");
    }
}
