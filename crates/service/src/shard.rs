//! The sharded sweep coordinator: split a spec list across workers, merge
//! the outputs back into the sequential stream — byte-identical, because
//! every cell is a pure function of its spec.
//!
//! Shard assignment is a **deterministic function of the per-cell seed
//! stream and the cell's position** ([`shard_of`]): the same sweep always
//! shards the same way, on any machine, so a distributed run is as
//! reproducible as a local one. Workers execute their shard *in order*;
//! the coordinator then reassembles by original index and streams into the
//! caller's [`ResultSink`] exactly as the driver's one sweep method,
//! [`Driver::run_sweep`](radionet_api::Driver::run_sweep), would have —
//! the shard-merge test suite pins 2-, 3- and 7-way shardings
//! byte-identical to its stream over the extended catalogue,
//! `fell_back` telemetry included (it lives in each report's stats and
//! rides the same bytes).
//!
//! Two execution modes: scoped **in-process threads** (the default — the
//! worker pool this crate already runs), and flag-gated **subprocess
//! workers** (`radionetd --worker`), which speak spec-JSONL on stdin /
//! report-JSONL on stdout. Purity makes the two indistinguishable from the
//! output side; the subprocess test asserts exactly that.

use radionet_api::{seeds, Driver, ResultSink, RunError, RunReport, RunSpec};
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// How shard workers execute.
#[derive(Clone, Debug)]
pub enum ShardMode {
    /// Scoped threads inside this process (the default).
    InProcess,
    /// One spawned `<exe> --worker` subprocess per shard, fed spec JSONL
    /// on stdin and read back as report JSONL on stdout (see
    /// [`worker_loop`]).
    Subprocess {
        /// The worker executable (normally the `radionetd` binary itself).
        exe: PathBuf,
    },
}

/// The deterministic shard of sweep position `index` carrying `spec`:
/// a [`seeds::mix`] of the cell seed and the position, reduced mod
/// `shards`. Mixing the position in keeps shards balanced even when a
/// sweep reuses one seed across cells.
pub fn shard_of(index: usize, spec: &RunSpec, shards: usize) -> usize {
    (seeds::mix(spec.seed ^ seeds::mix(index as u64)) % shards.max(1) as u64) as usize
}

/// Runs `specs` across `shards` workers and streams the merged reports to
/// `sink` in original order — byte-identical to the
/// [`Driver::run_sweep`](radionet_api::Driver::run_sweep) stream at any
/// chunk size. Returns
/// the number of reports emitted.
///
/// On a failing spec the sink still receives the longest in-order prefix
/// of completed reports and is finished (partial output stays well-formed,
/// matching the driver's own sweep semantics), and the first failing
/// shard's error is returned.
///
/// # Errors
///
/// [`RunError`] from any cell, sink failures, and (in subprocess mode)
/// worker I/O failures as [`RunError::Sink`].
pub fn run_sweep_sharded(
    driver: &Driver,
    specs: &[RunSpec],
    shards: usize,
    mode: &ShardMode,
    sink: &mut dyn ResultSink,
) -> Result<usize, RunError> {
    let shards = shards.clamp(1, specs.len().max(1));
    let mut parts: Vec<Vec<(usize, RunSpec)>> = (0..shards).map(|_| Vec::new()).collect();
    for (i, spec) in specs.iter().enumerate() {
        parts[shard_of(i, spec, shards)].push((i, spec.clone()));
    }
    type ShardOut = Result<Vec<(usize, RunReport)>, RunError>;
    let results: Vec<ShardOut> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                s.spawn(move || match mode {
                    ShardMode::InProcess => run_part_in_process(driver, part),
                    ShardMode::Subprocess { exe } => run_part_subprocess(exe, part),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    });

    let mut slots: Vec<Option<RunReport>> = specs.iter().map(|_| None).collect();
    let mut first_err: Option<RunError> = None;
    for shard_result in results {
        match shard_result {
            Ok(list) => {
                for (i, report) in list {
                    slots[i] = Some(report);
                }
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let mut emitted = 0usize;
    for slot in &slots {
        // A hole means a failed shard owned this cell: everything after it
        // would be out of order, so the stream ends here.
        let Some(report) = slot else { break };
        if let Err(e) = sink.emit(report) {
            first_err = first_err.or(Some(e.into()));
            break;
        }
        emitted += 1;
    }
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

/// One in-process shard: its cells in order, on this thread.
fn run_part_in_process(
    driver: &Driver,
    part: Vec<(usize, RunSpec)>,
) -> Result<Vec<(usize, RunReport)>, RunError> {
    part.into_iter().map(|(i, spec)| driver.run(&spec).map(|r| (i, r))).collect()
}

/// One subprocess shard: specs down the child's stdin as JSONL, reports
/// back up its stdout in the same order.
fn run_part_subprocess(
    exe: &PathBuf,
    part: Vec<(usize, RunSpec)>,
) -> Result<Vec<(usize, RunReport)>, RunError> {
    if part.is_empty() {
        return Ok(Vec::new());
    }
    let mut child = Command::new(exe)
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(RunError::Sink)?;
    let mut stdin = child.stdin.take().expect("piped");
    let stdout = child.stdout.take().expect("piped");
    let (indices, specs): (Vec<usize>, Vec<RunSpec>) = part.into_iter().unzip();
    // Feed from a helper thread so a worker already emitting reports can
    // never deadlock against a still-writing coordinator.
    let feeder = std::thread::spawn(move || -> io::Result<()> {
        for spec in &specs {
            let line = serde_json::to_string(spec)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            stdin.write_all(line.as_bytes())?;
            stdin.write_all(b"\n")?;
        }
        Ok(()) // dropping stdin closes the pipe: the worker sees EOF
    });
    let mut out = Vec::with_capacity(indices.len());
    for (line, &i) in io::BufReader::new(stdout).lines().zip(&indices) {
        let line = line.map_err(RunError::Sink)?;
        let report: RunReport = serde_json::from_str(&line).map_err(|e| {
            RunError::Sink(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        })?;
        out.push((i, report));
    }
    feeder.join().expect("feeder panicked").map_err(RunError::Sink)?;
    let status = child.wait().map_err(RunError::Sink)?;
    if !status.success() {
        return Err(RunError::Sink(io::Error::other(format!("shard worker exited {status}"))));
    }
    if out.len() != indices.len() {
        return Err(RunError::Sink(io::Error::other(format!(
            "shard worker returned {} of {} reports",
            out.len(),
            indices.len()
        ))));
    }
    Ok(out)
}

/// The `--worker` side of subprocess sharding: reads spec JSONL from
/// `input`, runs each spec in order, writes report JSONL to `output`.
/// Returns the number of specs served. Blank lines are skipped, so a
/// trailing newline is harmless.
///
/// # Errors
///
/// I/O failures, unparseable spec lines, and failing runs (as their
/// [`RunError`] text) — a worker error is fatal for its shard.
pub fn worker_loop(
    driver: &Driver,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<usize> {
    let mut served = 0usize;
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let spec: RunSpec = serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let report = driver.run(&spec).map_err(io::Error::other)?;
        let out = serde_json::to_string(&report)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        output.write_all(out.as_bytes())?;
        output.write_all(b"\n")?;
        served += 1;
    }
    output.flush()?;
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_api::{JsonlSink, MemorySink};
    use radionet_graph::families::Family;

    fn specs(n: usize) -> Vec<RunSpec> {
        (0..n).map(|i| RunSpec::new("luby-mis", Family::Path, 8).with_seed(i as u64)).collect()
    }

    #[test]
    fn assignment_is_deterministic_and_balanced_enough() {
        let list = specs(64);
        for (i, s) in list.iter().enumerate() {
            assert_eq!(shard_of(i, s, 7), shard_of(i, s, 7));
            assert!(shard_of(i, s, 7) < 7);
        }
        // All-equal seeds still spread (the position is mixed in).
        let same: Vec<RunSpec> =
            (0..64).map(|_| RunSpec::new("luby-mis", Family::Path, 8)).collect();
        let mut used = [false; 4];
        for (i, s) in same.iter().enumerate() {
            used[shard_of(i, s, 4)] = true;
        }
        assert!(used.iter().all(|&u| u), "64 equal-seed cells must touch all 4 shards");
    }

    #[test]
    fn sharded_bytes_equal_sequential_bytes() {
        let driver = Driver::standard();
        let list = specs(10);
        let mut seq = Vec::new();
        driver.run_sweep(list.iter().cloned(), 1, &mut JsonlSink::new(&mut seq)).unwrap();
        let mut sharded = Vec::new();
        let n = run_sweep_sharded(
            &driver,
            &list,
            3,
            &ShardMode::InProcess,
            &mut JsonlSink::new(&mut sharded),
        )
        .unwrap();
        assert_eq!(n, 10);
        assert_eq!(seq, sharded);
    }

    #[test]
    fn failing_cell_keeps_the_prefix_and_reports_the_error() {
        let driver = Driver::standard();
        let mut list = specs(6);
        list[4].task = "no-such-task".into();
        let mut sink = MemorySink::default();
        let err =
            run_sweep_sharded(&driver, &list, 2, &ShardMode::InProcess, &mut sink).unwrap_err();
        assert!(matches!(err, RunError::UnknownTask(_)), "{err}");
        // The in-order prefix before the failed cell's position survives.
        assert!(sink.reports.len() <= 4);
        for (i, r) in sink.reports.iter().enumerate() {
            assert_eq!(r.spec, list[i]);
        }
    }

    #[test]
    fn worker_loop_round_trips_jsonl() {
        let driver = Driver::standard();
        let list = specs(3);
        let input: String = list
            .iter()
            .map(|s| serde_json::to_string(s).unwrap() + "\n")
            .collect::<Vec<_>>()
            .join("");
        let mut out = Vec::new();
        let served = worker_loop(&driver, input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 3);
        let mut expect = Vec::new();
        driver.run_sweep(list, 1, &mut JsonlSink::new(&mut expect)).unwrap();
        assert_eq!(out, expect, "worker output is the sequential sweep stream");
    }
}
