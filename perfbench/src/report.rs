//! The run's result: the correctness tally, the metrics, and the output
//! format (a human-readable table, then one JSON line).

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted (simulation runs or service requests).
    pub attempted: u64,
    /// Why each failed operation failed (errors, rejections, transport
    /// errors, failed correctness checks).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context printed above the table: sample counts, per-op timings.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one attempted operation, recording its failure, if any.
    pub fn tally(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The gate passed: something ran, nothing failed, every value is finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Share of attempted operations that passed the gate.
    pub fn ok_frac(&self) -> f64 {
        (1.0 - self.failed() as f64 / self.attempted.max(1) as f64).max(0.0)
    }

    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for why in &self.failures {
            println!("FAILED {why}");
            eprintln!("perfbench: FAILED {why}");
        }
        for m in &self.metrics {
            if m.value != 0.0 && m.value.abs() < 1e-3 {
                println!("{:<28} {:>16.6e} {}", m.name, m.value, m.unit);
            } else {
                println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; `correct()` is false then.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        );
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Set-up timings, sampled at several points of a run (before the first
/// pass and after each one) so that one fast or slow spell of a shared
/// machine does not decide the median.
#[derive(Default)]
pub struct SetupClock {
    /// Seconds per set-up, one entry per sample.
    pub samples: Vec<f64>,
}

impl SetupClock {
    /// Times one call to `f` as one set-up sample and returns its value.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let value = f();
        self.samples.push(t0.elapsed().as_secs_f64());
        value
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}
