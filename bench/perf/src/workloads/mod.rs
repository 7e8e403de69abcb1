//! The five workloads. Each generates its inputs in a set-up step that is
//! repeated and timed, then runs a measured phase whose work is a fixed
//! function of the seed and the run length (in `serve`, of the seed and
//! the server's speed), and checks its outputs. Times are charged at the
//! reference host speed (`host.rs`), except in `serve`; the wall times
//! are printed beside them.

mod campaign;
mod replay;
mod serve;
mod suite;
mod sweep;

use crate::gates::{Checks, Gates};
use crate::gen::SweepShape;
use crate::host::HostSpeed;
use crate::report::{pct, Metric};
use crate::trace::Tracer;
use corescope_harness::Artifact;
use corescope_sched::{Scenario, ScenarioResult, SchedStats, ServeStats};
use std::collections::BTreeMap;
use std::ops::{Add, Sub};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = ["suite", "sweep", "replay", "serve", "campaign"];

/// Seed of the inputs that do not follow `--seed`: the suite's probe
/// sample.
pub const DEFAULT_SEED: u64 = 2006;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Copies of each distinct scenario in a warm batch (`replay` and the
/// probe's warm batch).
pub const WARM_COPIES: usize = 10;

/// How much work each workload does.
#[derive(Debug, Clone)]
pub struct Size {
    /// Cold+warm suite repetitions.
    pub suite_reps: usize,
    /// Artifacts the suite runs.
    pub suite: Vec<Artifact>,
    /// The sweep's grid passes and cells.
    pub sweep: SweepShape,
    /// Distinct scenarios in the replay batch.
    pub replay_unique: usize,
    /// Timed warm passes over the replay batch.
    pub replay_passes: usize,
    /// Length of the serve phase, seconds.
    pub serve_s: f64,
    /// Distinct scenarios in the campaign.
    pub campaign_rows: usize,
    /// Scenarios per campaign batch.
    pub campaign_batch: usize,
    /// Write, resume and scan cycles over the campaign.
    pub campaign_cycles: usize,
    /// Scenarios in the traced run's layer probe.
    pub sample: usize,
}

impl Size {
    /// Sizes for runs of about `seconds` each on a 2-core x86-64
    /// container: at 10, runs of the other workloads took 8 to 14 s of
    /// wall time. The suite's fixed artifact list took about 15 s for one
    /// cold and one warm pass.
    pub fn for_seconds(seconds: u64) -> Self {
        let s = seconds.max(1) as f64;
        let at_least = |n: usize, x: f64| (x.round() as usize).max(n);
        let at_least_two = |x: f64| at_least(2, x);
        Self {
            suite_reps: at_least(1, s / 10.0),
            suite: Artifact::all(),
            sweep: SweepShape { passes: at_least_two(s * 0.6), max_ranks: 16, resilience: true },
            replay_unique: 5_000,
            replay_passes: at_least_two(s * 1.2),
            serve_s: s,
            campaign_rows: 1_000 * seconds.max(1) as usize,
            campaign_batch: 1_000,
            campaign_cycles: at_least_two(s * 2.0),
            sample: 200,
        }
    }

    /// Sizes small enough for unit tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            suite_reps: 1,
            suite: vec![Artifact::T1, Artifact::F2, Artifact::F14],
            sweep: SweepShape { passes: 1, max_ranks: 4, resilience: true },
            replay_unique: 300,
            replay_passes: 2,
            serve_s: 1.5,
            campaign_rows: 1_500,
            campaign_batch: 500,
            campaign_cycles: 2,
            sample: 24,
        }
    }
}

/// Everything a workload needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Requested run length (part of the pin key of seeded outputs).
    pub seconds: u64,
    /// Work sizes.
    pub size: Size,
    /// Span recorder (a pass-through in untraced runs).
    pub tracer: Tracer,
    /// Host-speed samples (none in traced runs).
    pub host: HostSpeed,
    /// Private scratch directory inside the working directory.
    pub scratch: PathBuf,
    /// Scheduler workers: `min(2, cores)`.
    pub jobs: usize,
    /// Pinned outputs.
    pub gates: Gates,
}

/// The scheduler counters the benchmark reports, summed over the
/// schedulers of one run. Built from [`SchedStats`] by reading fields, so
/// a counter added to the scheduler does not break the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub engine_runs: usize,
    pub hits_memory: usize,
    pub hits_disk: usize,
    pub deduped: usize,
    pub in_flight_waits: usize,
    pub errors: usize,
}

impl Counts {
    /// The reported counters of `stats`.
    pub fn of(stats: &SchedStats) -> Self {
        Self {
            engine_runs: stats.engine_runs,
            hits_memory: stats.hits_memory,
            hits_disk: stats.hits_disk,
            deduped: stats.deduped,
            in_flight_waits: stats.in_flight_waits,
            errors: stats.errors,
        }
    }

    fn zip(self, other: Self, op: fn(usize, usize) -> usize) -> Self {
        Self {
            engine_runs: op(self.engine_runs, other.engine_runs),
            hits_memory: op(self.hits_memory, other.hits_memory),
            hits_disk: op(self.hits_disk, other.hits_disk),
            deduped: op(self.deduped, other.deduped),
            in_flight_waits: op(self.in_flight_waits, other.in_flight_waits),
            errors: op(self.errors, other.errors),
        }
    }
}

impl Add for Counts {
    type Output = Self;
    fn add(self, other: Self) -> Self {
        self.zip(other, |a, b| a + b)
    }
}

impl Sub for Counts {
    type Output = Self;
    fn sub(self, other: Self) -> Self {
        self.zip(other, |a, b| a - b)
    }
}

/// Measured work: when it ran.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    from: Instant,
    to: Instant,
}

impl Timed {
    /// Work that ran from `started` until now.
    pub fn since(started: Instant) -> Self {
        Self { from: started, to: Instant::now() }
    }

    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        (self.to - self.from).as_secs_f64()
    }

    /// Seconds at `host`'s reference speed.
    pub fn charged_s(&self, host: &HostSpeed) -> f64 {
        self.wall_s() * host.factor(self.from, self.to)
    }
}

/// One measured step: its operations and the work that did them.
#[derive(Debug, Default)]
struct Step {
    ops: f64,
    work: Vec<Timed>,
    /// Seconds of `work` at the reference speed (set by `Run::end`).
    charged_s: f64,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds of each set-up repetition, at the reference speed.
    pub setup_s: Vec<f64>,
    /// The measured steps by name. `ops_per_s` is the geometric mean of
    /// their rates, so each step weighs the same whatever its share of the
    /// time.
    steps: BTreeMap<&'static str, Step>,
    /// Operation latencies as callers saw them: the work each operation
    /// waited for (charged by `end`).
    pub latencies: Vec<Vec<Timed>>,
    /// Operation latencies, ms, at the reference speed.
    pub latencies_ms: Vec<f64>,
    /// The measured phase, tracer nanoseconds.
    pub window: (u64, u64),
    /// Peak resident set when the measured phase ended, MB (set by `end`).
    pub peak_rss_mb: f64,
    /// Scheduler counters over the measured phase.
    pub sched: Counts,
    /// Service counters (serve only).
    pub serve: ServeStats,
    /// Window-1 scenario replies: (client latency, echoed `batch_ms`), ms.
    pub window1: Vec<(f64, f64)>,
    /// Segments of the workload's own campaign store, if it has one.
    pub segments: Option<usize>,
    /// Scenarios for the traced run's layer probe.
    pub sample: Vec<Scenario>,
    /// Workload-specific numbers, printed but not part of the result line.
    pub details: Vec<Metric>,
    /// Gate outcomes.
    pub checks: Checks,
}

impl Run {
    /// Starts the measured phase.
    fn begin(&mut self, ctx: &Ctx) {
        self.window.0 = ctx.tracer.now();
    }

    /// Counts `ops` operations that `work` did in step `name`.
    fn step(&mut self, name: &'static str, ops: f64, work: impl IntoIterator<Item = Timed>) {
        let step = self.steps.entry(name).or_default();
        step.ops += ops;
        step.work.extend(work);
    }

    /// Ends the measured phase: notes the peak resident set, charges the
    /// work at `host`'s reference speed, and prints each step's totals and
    /// the wall-time figures beside the charged ones.
    fn end(&mut self, ctx: &Ctx, host: &HostSpeed) -> Result<(), String> {
        self.window.1 = ctx.tracer.now();
        self.peak_rss_mb = crate::report::peak_rss_mb()?;
        let mut wall_rates = Vec::new();
        for (name, step) in &mut self.steps {
            let wall_s: f64 = step.work.iter().map(Timed::wall_s).sum();
            step.charged_s = step.work.iter().map(|t| t.charged_s(host)).sum();
            wall_rates.push((step.ops, wall_s));
            self.details.extend([
                Metric::new(format!("step.{name}.ops"), step.ops, "count"),
                Metric::new(format!("step.{name}.wall_s"), wall_s, "s"),
                Metric::new(format!("step.{name}.s"), step.charged_s, "s"),
            ]);
        }
        let ms = |seconds: &dyn Fn(&Timed) -> f64| -> Vec<f64> {
            self.latencies.iter().map(|work| work.iter().map(seconds).sum::<f64>() * 1e3).collect()
        };
        let wall_ms = ms(&Timed::wall_s);
        self.latencies_ms = ms(&|t| t.charged_s(host));
        self.details.extend([
            Metric::new("wall.ops_per_s", geometric_mean(&wall_rates), "1/s"),
            Metric::new("wall.p50_ms", pct(&wall_ms, 50.0), "ms"),
            Metric::new("host.samples", host.samples() as f64, "count"),
        ]);
        Ok(())
    }

    /// Geometric mean of the steps' operations per second at the
    /// reference speed.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<(f64, f64)> = self.steps.values().map(|s| (s.ops, s.charged_s)).collect();
        geometric_mean(&rates)
    }
}

/// Geometric mean of `ops / seconds` over `rates`.
fn geometric_mean(rates: &[(f64, f64)]) -> f64 {
    let logs: f64 = rates.iter().map(|(ops, seconds)| (ops / seconds).ln()).sum();
    (logs / rates.len() as f64).exp()
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown name, or a failure that leaves nothing to measure.
pub fn run(name: &str, ctx: &Ctx) -> Result<Run, String> {
    match name {
        "suite" => suite::run(ctx),
        "sweep" => sweep::run(ctx),
        "replay" => replay::run(ctx),
        "serve" => serve::run(ctx),
        "campaign" => campaign::run(ctx),
        other => Err(format!("unknown workload '{other}' (one of {})", NAMES.join(", "))),
    }
}

/// Runs the set-up `SETUP_REPS` times, keeping the last output. Each
/// repetition is charged at the reference speed of a host sample taken just
/// before it.
fn setup<T>(ctx: &Ctx, mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        ctx.host.sample();
        let started = Instant::now();
        last = Some(f()?);
        seconds.push(Timed::since(started).charged_s(&ctx.host));
    }
    Ok((last.expect("at least one set-up repetition"), seconds))
}

/// Every `len / n`-th scenario, `n` at most.
fn sample(scenarios: &[Scenario], n: usize) -> Vec<Scenario> {
    let stride = scenarios.len().div_ceil(n.max(1)).max(1);
    scenarios.iter().step_by(stride).cloned().collect()
}

/// The bits a result gate compares: makespan and event count.
fn bits(result: &ScenarioResult) -> (u64, usize) {
    (result.makespan.to_bits(), result.events)
}

/// crc32 of results in order (makespan bits, then events, little-endian).
fn results_crc(results: &[ScenarioResult]) -> u32 {
    let mut bytes = Vec::with_capacity(results.len() * 16);
    for r in results {
        bytes.extend_from_slice(&r.makespan.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(r.events as u64).to_le_bytes());
    }
    corescope_store::frame::crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_the_run_length() {
        let ten = Size::for_seconds(10);
        assert_eq!((ten.suite_reps, ten.sweep.passes, ten.replay_passes), (1, 6, 12));
        assert_eq!((ten.campaign_rows, ten.campaign_cycles), (10_000, 20));
        assert!(Size::for_seconds(30).sweep.passes > ten.sweep.passes);
        let s: Vec<Scenario> = (1..=10)
            .map(|steps| {
                let w = corescope_sched::Workload::PingPong { bytes: 8.0, reps: steps };
                Scenario::new(corescope_sched::System::Dmz, 2, w)
            })
            .collect();
        assert_eq!(sample(&s, 3).len(), 3);
        assert_eq!(sample(&s, 20).len(), 10);
    }

    #[test]
    fn ops_per_s_weighs_every_step_the_same() {
        assert!((geometric_mean(&[(100.0, 1.0)]) - 100.0).abs() < 1e-9);
        // Rates 100 and 5: geometric mean sqrt(500).
        assert!((geometric_mean(&[(100.0, 1.0), (40.0, 8.0)]) - 500f64.sqrt()).abs() < 1e-9);
    }
}
