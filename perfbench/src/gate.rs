//! The correctness gate every operation passes: its report matches the
//! pinned digest and RNG fingerprint of its spec, and the task's own
//! criterion holds.

use crate::pins;
use crate::workloads::{self, Workload};
use radionet_api::{Driver, RunReport, TaskOutcome};

/// FNV-1a 64 over the report's JSON bytes: equal digests mean equal
/// reports (spec echo, outcome, counters and fingerprint included).
pub fn digest(report: &RunReport) -> u64 {
    let json = serde_json::to_string(report).expect("a RunReport always serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The pinned `(digest, rng_fingerprint)` of a simulation op.
fn pinned_sim(workload: Workload, variant: u64, op: usize) -> Option<(u64, u64)> {
    let table = match workload {
        Workload::Compete => pins::COMPETE,
        Workload::Traffic => pins::TRAFFIC,
        Workload::Setup => pins::SETUP,
        Workload::Service => return None,
    };
    table.get(variant as usize)?.get(op).copied()
}

fn matches_pin(report: &RunReport, pin: Option<(u64, u64)>) -> Result<(), String> {
    let (want_digest, want_fp) = pin.ok_or("no pinned digest for this op")?;
    let got = digest(report);
    if got != want_digest {
        return Err(format!("report digest {got:#018x} != pinned {want_digest:#018x}"));
    }
    if report.rng_fingerprint != want_fp {
        return Err(format!(
            "rng_fingerprint {:#018x} != pinned {want_fp:#018x}",
            report.rng_fingerprint
        ));
    }
    Ok(())
}

/// The task's own success criterion. Traffic conserves messages
/// (`injected = delivered + undelivered`); E22's face-off cell must also
/// drain every flood.
fn criterion(report: &RunReport) -> Result<(), String> {
    match report.outcome {
        TaskOutcome::Broadcast(b) if !b.completed => Err("broadcast did not complete".into()),
        TaskOutcome::LeaderElection(e) if !e.succeeded || e.leader.is_none() => {
            Err("no unique agreed leader".into())
        }
        TaskOutcome::Mis(m) if !m.valid => Err("MIS is not valid".into()),
        TaskOutcome::Traffic(t) if t.injected != t.delivered + t.undelivered => Err(format!(
            "traffic ledger leaks: injected {} != delivered {} + undelivered {}",
            t.injected, t.delivered, t.undelivered
        )),
        TaskOutcome::Traffic(t) if workloads::must_drain(&report.spec) && t.undelivered != 0 => {
            Err(format!("{} floods did not drain", t.undelivered))
        }
        TaskOutcome::Partition(_) | TaskOutcome::Wakeup(_) => {
            Err(format!("unexpected outcome kind {}", report.outcome.kind()))
        }
        _ => Ok(()),
    }
}

/// Gate for op `op` of a simulation workload's input `variant`.
pub fn check_sim(
    workload: Workload,
    variant: u64,
    op: usize,
    report: &RunReport,
) -> Result<(), String> {
    matches_pin(report, pinned_sim(workload, variant, op))?;
    criterion(report)
}

/// Gate for a set-up warm-up run, which has no pin: the task's criterion.
pub fn check_warm_up(report: &RunReport) -> Result<(), String> {
    criterion(report)
}

/// Gate for a report served for catalogue entry `index` (cached ≡ fresh:
/// a hit must equal the pinned fresh run byte for byte).
pub fn check_catalogue(index: usize, report: &RunReport) -> Result<(), String> {
    matches_pin(report, pins::SERVICE.get(index).copied())?;
    criterion(report)
}

/// Runs every pinned input fresh and renders `src/pins.rs`.
pub fn pin_source() -> String {
    let driver = Driver::standard();
    let pin = |spec: &radionet_api::RunSpec| {
        let report = driver.run(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        if let Err(why) = criterion(&report) {
            panic!("{} on {}/{}: {why}", spec.task, spec.family.name(), spec.n);
        }
        format!("({:#018x}, {:#018x})", digest(&report), report.rng_fingerprint)
    };
    let mut out = String::from(
        "//! Pinned `(report digest, rng_fingerprint)` per operation, generated by\n\
         //! `perfbench --pin` (then `cargo fmt`). A declared behaviour change re-pins\n\
         //! them.\n",
    );
    for workload in [Workload::Compete, Workload::Traffic, Workload::Setup] {
        let name = workload.name().to_uppercase();
        out.push_str(&format!("\npub const {name}: &[&[(u64, u64)]] = &[\n"));
        for variant in 0..workload.variants() {
            out.push_str("    &[\n");
            for spec in workloads::sim_ops(workload, variant) {
                out.push_str(&format!("        {},\n", pin(&spec)));
            }
            out.push_str("    ],\n");
        }
        out.push_str("];\n");
    }
    out.push_str("\npub const SERVICE: &[(u64, u64)] = &[\n");
    for spec in workloads::service_catalogue() {
        out.push_str(&format!("    {},\n", pin(&spec)));
    }
    out.push_str("];\n");
    out
}
