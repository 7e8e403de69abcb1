//! `sweep`: stratified passes of distinct placeable scenarios over all
//! systems, workload kinds, world sizes, placements and MPI stacks, about
//! one in ten with a fault plan or checkpoint policy. Almost all the work
//! is engine and lowering; dedup, cache, store and serve do nearly
//! nothing. Every pass runs at jobs=1, one call per scenario so each
//! scenario's latency shows; then every pass runs again as one batch at
//! jobs=2. Each pass and mode gets a fresh scheduler.
//!
//! The measured phase is the jobs=1 calls: an operation is one call, and
//! so is a latency, and the peak resident set is taken when they end. The
//! jobs=2 batches run afterwards, are checked against them and are
//! reported beside them. On a shared 2-core host their times moved with
//! contention between the two workers, which the host-speed reference does
//! not see (quartile spread 0.15 over six runs, against 0.05 for the
//! jobs=1 calls), and their peak resident set with which heavy scenarios
//! happened to run at the same time (91 to 127 MB over ten runs).

use super::{bits, results_crc, sample, setup, Counts, Ctx, Run, Timed};
use crate::gates::seeded_key;
use crate::gen::{self, Universe};
use crate::lower;
use crate::report::{peak_rss_mb, Metric};
use corescope_sched::{Scenario, ScenarioResult, Scheduler};
use std::time::Instant;

/// One jobs=1 run of `pass`: each scenario's result and call. The traced
/// run lowers each scenario on the bench side instead, one span per layer,
/// and must reproduce the scheduler's results bit for bit.
fn serial(
    ctx: &Ctx,
    run: &mut Run,
    pass: &[Scenario],
    first_req: usize,
) -> Vec<(Option<ScenarioResult>, Timed)> {
    let sched = Scheduler::new(1);
    let out = pass
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            ctx.host.tick();
            let call = Instant::now();
            let result = if ctx.tracer.is_on() {
                lower::run(&ctx.tracer, (first_req + i) as u64, scenario, false)
            } else {
                sched.run_one(scenario).map(|done| done.result)
            };
            let timed = Timed::since(call);
            run.checks.attempt(1);
            let result = result
                .map_err(|e| {
                    run.checks.expect(false, || format!("sweep jobs=1 {}: {e}", scenario.to_json()))
                })
                .ok();
            (result, timed)
        })
        .collect();
    run.sched = run.sched + Counts::of(&sched.stats());
    out
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let ((passes, probe), setup_s) = setup(ctx, || {
        let universe = Universe::new()?;
        let passes = gen::sweep(&universe, ctx.seed, ctx.size.sweep);
        let probe = sample(&passes.concat(), ctx.size.sample);
        Ok((passes, probe))
    })?;
    let mut run = Run { setup_s, sample: probe, ..Run::default() };

    // The measured phase: every pass at jobs=1.
    run.begin(ctx);
    let mut first_req = 0;
    let mut reference = Vec::with_capacity(passes.len());
    for pass in &passes {
        let outcomes = serial(ctx, &mut run, pass, first_req);
        first_req += pass.len();
        let mut bits_of_pass = Vec::with_capacity(pass.len());
        for (result, timed) in outcomes {
            run.step("scenario", 1.0, [timed]);
            run.latencies.push(vec![timed]);
            bits_of_pass.push(result.as_ref().map(bits));
        }
        reference.push(bits_of_pass);
    }
    run.end(ctx, &ctx.host)?;

    // The same passes as jobs=2 batches, checked against the jobs=1 results.
    let (mut results, mut parallel_s) = (Vec::new(), 0.0);
    for (p, pass) in passes.iter().enumerate() {
        ctx.host.tick();
        let sched = Scheduler::new(ctx.jobs);
        let started = Instant::now();
        let outcomes = ctx
            .tracer
            .span("sched.run_batch", p as u64, pass.len() as u64, || sched.run_batch(pass));
        parallel_s += Timed::since(started).charged_s(&ctx.host);
        run.sched = run.sched + Counts::of(&sched.stats());
        for (i, outcome) in outcomes.into_iter().enumerate() {
            run.checks.attempt(1);
            match outcome {
                Ok(done) => {
                    run.checks.expect(reference[p][i] == Some(bits(&done.result)), || {
                        format!("sweep pass {p} #{i}: jobs=1 and jobs={} differ", ctx.jobs)
                    });
                    results.push(done.result);
                }
                Err(e) => run.checks.expect(false, || format!("sweep jobs={}: {e}", ctx.jobs)),
            }
        }
    }
    let crc = results_crc(&results);
    ctx.gates.check(&mut run.checks, "sweep", &seeded_key(ctx.seed, ctx.seconds), crc);

    // The jobs=2 batches cover the same scenarios as the jobs=1 calls.
    // Both are at the reference speed.
    let serial_s: f64 = run.latencies_ms.iter().sum::<f64>() / 1e3;
    let events: usize = results.iter().map(|r| r.events).sum();
    run.details.extend([
        Metric::new("sweep.scenarios", results.len() as f64, "count"),
        Metric::new("sweep.events", events as f64, "count"),
        Metric::new("sweep.scen_per_s", results.len() as f64 / parallel_s, "1/s"),
        Metric::new("sweep.scaling_eff", serial_s / (ctx.jobs as f64 * parallel_s), "ratio"),
        Metric::new("sweep.jobs2_peak_rss_mb", peak_rss_mb()?, "MB"),
    ]);
    Ok(run)
}
