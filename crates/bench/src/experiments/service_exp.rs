//! E20 — the `radionetd` serving layer: content-addressed caching on a
//! repeated-spec workload, and sharded sweep determinism.
//!
//! Two parts:
//!
//! 1. **Repeated-spec serving face-off**: a skewed workload (every
//!    distinct spec requested many times, the realistic shape for a
//!    parameter-tuning client or a dashboard re-querying fixed cells) is
//!    served once cold — every request a fresh `Driver::run` — and once
//!    through the [`ResultCache`]. Every served response is hard-asserted
//!    byte-identical to the cold report (determinism is what makes the
//!    cache sound); the cold/served throughput ratio is recorded, with a
//!    soft ≥ 10× acceptance bar on the repeated-spec workload.
//! 2. **Sharded sweep pin**: the sharded coordinator's merged JSONL stream
//!    over a distinct-spec sweep is hard-asserted byte-identical to the
//!    sequential `Driver::run_sweep` stream at 2 and 4 shards, and the
//!    walls are recorded (informational — shard wins depend on cores).

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_api::{Driver, JsonlSink, RunSpec};
use radionet_graph::families::Family;
use radionet_service::{run_sweep_sharded, CacheConfig, ResultCache, ShardMode};
use std::time::Instant;

/// The distinct specs behind the repeated workload: a few tasks × families
/// at one size, seeds spread so every cell is a genuinely different run.
fn distinct_specs(count: usize, n: usize) -> Vec<RunSpec> {
    (0..count)
        .map(|i| {
            let (task, family) = match i % 4 {
                0 => ("broadcast", Family::Grid),
                1 => ("luby-mis", Family::Path),
                2 => ("broadcast", Family::Gnp),
                _ => ("luby-mis", Family::Grid),
            };
            RunSpec::new(task, family, n).with_seed(0xE20 + i as u64)
        })
        .collect()
}

/// E20 — serving layer: cache throughput and sharded determinism.
pub fn e20_service(scale: Scale) -> ExperimentRecord {
    let claim = "radionetd serving: repeated specs hit the cache, shards merge byte-identically";
    banner("E20", claim);
    let mut record = ExperimentRecord::new("E20", claim);
    let mut table = Table::new(["part", "arm", "requests", "distinct", "wall ms", "req/s"]);
    let driver = Driver::standard();

    // Part 1: the repeated-spec workload. The request sequence interleaves
    // the distinct specs round-robin, so the cache warms in the first lap
    // and every later lap is pure hit traffic.
    let (distinct, repeats, n) = match scale {
        Scale::Quick => (8usize, 25usize, 36usize),
        Scale::Full => (12, 40, 64),
    };
    let specs = distinct_specs(distinct, n);
    let requests: Vec<&RunSpec> = (0..distinct * repeats).map(|i| &specs[i % distinct]).collect();

    // Cold arm: every request executes fresh (what serving without a cache
    // costs). Min-of-3 walls — the runs are deterministic, the host isn't.
    const RUNS: usize = 3;
    let mut cold_wall = f64::INFINITY;
    let mut cold_reports = Vec::new();
    for _ in 0..RUNS {
        let start = Instant::now();
        let reports: Vec<_> =
            requests.iter().map(|spec| driver.run(spec).expect("cold run")).collect();
        cold_wall = cold_wall.min(start.elapsed().as_secs_f64().max(1e-9));
        cold_reports = reports;
    }

    // Served arm: the same requests through the content-addressed cache
    // (audits off — the audit is a correctness knob measured by its own
    // tests; here every response is byte-compared against cold anyway).
    let mut served_wall = f64::INFINITY;
    let mut hits = 0u64;
    let mut misses = 0u64;
    for _ in 0..RUNS {
        let cache =
            ResultCache::open(CacheConfig { audit_fraction: 0.0, ..CacheConfig::default() })
                .expect("in-memory cache");
        let start = Instant::now();
        let served: Vec<_> =
            requests.iter().map(|spec| cache.serve(&driver, spec).expect("serve")).collect();
        served_wall = served_wall.min(start.elapsed().as_secs_f64().max(1e-9));
        // The hard acceptance: a served response is byte-identical to the
        // cold report for the same request, hit or miss.
        for (answer, cold) in served.iter().zip(&cold_reports) {
            assert_eq!(
                serde_json::to_string(&answer.report).unwrap(),
                serde_json::to_string(cold).unwrap(),
                "served response diverged from the fresh run"
            );
        }
        let stats = cache.stats();
        hits = stats.hits;
        misses = stats.misses;
    }
    assert_eq!(misses as usize, distinct, "first lap misses, everything else hits");
    assert_eq!(hits as usize, requests.len() - distinct);

    for (arm, wall) in [("cold", cold_wall), ("served", served_wall)] {
        let rps = requests.len() as f64 / wall;
        table.row([
            "repeated-spec".into(),
            arm.into(),
            requests.len().to_string(),
            distinct.to_string(),
            f1(wall * 1e3),
            f1(rps),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "repeated-spec")
                .param("arm", arm)
                .param("n", n)
                .metric("requests", requests.len() as f64)
                .metric("distinct", distinct as f64)
                .metric("cache_hits", if arm == "served" { hits as f64 } else { 0.0 })
                .metric("wall_ms", wall * 1e3)
                .metric("requests_per_sec", rps),
        );
    }
    let speedup = cold_wall / served_wall;
    record.note(format!(
        "repeated-spec serving: {} requests over {distinct} distinct specs — served arm \
         {speedup:.1}x the cold throughput ({hits} hits / {misses} misses); every served \
         response byte-identical to its fresh run",
        requests.len(),
    ));
    // Like E15/E19, timing is a soft bar: correctness is the asserts above.
    if speedup < 10.0 {
        record.note(format!(
            "WARNING: measured served/cold speedup {speedup:.1}x is below the 10x bar — \
             expected only under heavy host contention (the workload repeats each spec \
             {repeats}x, so the cache-hit ceiling is ~{repeats}x)"
        ));
        eprintln!("E20: WARNING: served/cold speedup {speedup:.1}x below the 10x bar");
    }

    // Part 2: the sharded coordinator versus the sequential sweep, pinned
    // byte-for-byte on a distinct-spec list (no cache in this path).
    let sweep_specs = distinct_specs(
        match scale {
            Scale::Quick => 16,
            Scale::Full => 24,
        },
        n,
    );
    let mut sequential = Vec::new();
    let start = Instant::now();
    driver
        .run_sweep(sweep_specs.iter().cloned(), 1, &mut JsonlSink::new(&mut sequential))
        .expect("sequential");
    let seq_wall = start.elapsed().as_secs_f64().max(1e-9);
    table.row([
        "sharded-sweep".into(),
        "sequential".into(),
        sweep_specs.len().to_string(),
        sweep_specs.len().to_string(),
        f1(seq_wall * 1e3),
        f1(sweep_specs.len() as f64 / seq_wall),
    ]);
    record.push(
        RunRecord::new()
            .param("part", "sharded-sweep")
            .param("arm", "sequential")
            .param("n", n)
            .metric("cells", sweep_specs.len() as f64)
            .metric("wall_ms", seq_wall * 1e3),
    );
    for shards in [2usize, 4] {
        let mut merged = Vec::new();
        let start = Instant::now();
        let emitted = run_sweep_sharded(
            &driver,
            &sweep_specs,
            shards,
            &ShardMode::InProcess,
            &mut JsonlSink::new(&mut merged),
        )
        .expect("sharded sweep");
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(emitted, sweep_specs.len());
        // The hard acceptance: the merged stream is the sequential stream.
        assert_eq!(merged, sequential, "{shards}-way shard merge diverged from sequential");
        let arm = format!("{shards}-shard");
        table.row([
            "sharded-sweep".into(),
            arm.clone(),
            sweep_specs.len().to_string(),
            sweep_specs.len().to_string(),
            f1(wall * 1e3),
            f1(sweep_specs.len() as f64 / wall),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "sharded-sweep")
                .param("arm", arm)
                .param("n", n)
                .param("shards", shards)
                .metric("cells", sweep_specs.len() as f64)
                .metric("wall_ms", wall * 1e3)
                .metric("speedup_vs_sequential", seq_wall / wall),
        );
    }
    record.note(format!(
        "sharded sweep: 2- and 4-way merged streams byte-identical to the sequential \
         {}-cell stream (walls informational; determinism is the claim)",
        sweep_specs.len(),
    ));

    println!("{}", table.render());
    print_notes(&record);
    record
}
