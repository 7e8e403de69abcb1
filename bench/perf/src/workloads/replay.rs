//! `replay`: a batch in which every distinct cheap scenario appears ten
//! times in seeded shuffled order, replayed warm. The engine does no
//! work; time goes to digests (which rebuild the machine spec), memory
//! cache lookups and the batch bookkeeping, whose cost grows with batch
//! size. Set-up includes the cold pass that fills the cache.
//!
//! An operation is one input of a warm pass; the latency is one pass.

use super::{bits, sample, setup, Counts, Ctx, Run, Timed, WARM_COPIES};
use crate::gen::{self, Universe};
use crate::report::Metric;
use corescope_sched::{ScenarioResult, Scheduler};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let unique_n = ctx.size.replay_unique;
    let ((sched, batch, index, cold, probe), setup_s) = setup(ctx, || {
        let universe = Universe::new()?;
        let unique = gen::cheap(&universe, ctx.seed, unique_n);
        let mut index: Vec<usize> = (0..unique_n * WARM_COPIES).map(|k| k % unique_n).collect();
        gen::shuffle(&mut SmallRng::seed_from_u64(ctx.seed), &mut index);
        let batch: Vec<_> = index.iter().map(|&i| unique[i].clone()).collect();
        let sched = Scheduler::new(1);
        let cold: Vec<ScenarioResult> = sched
            .run_batch(&unique)
            .into_iter()
            .map(|outcome| outcome.map(|done| done.result))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("replay cold pass: {e}"))?;
        Ok((sched, batch, index, cold, sample(&unique, ctx.size.sample)))
    })?;
    let mut run = Run { setup_s, sample: probe, ..Run::default() };

    let before = Counts::of(&sched.stats());
    run.begin(ctx);
    for pass in 0..ctx.size.replay_passes {
        ctx.host.tick();
        let call = Instant::now();
        let outcomes = ctx
            .tracer
            .span("sched.warm_batch", pass as u64, batch.len() as u64, || sched.run_batch(&batch));
        let timed = Timed::since(call);
        run.step("input", batch.len() as f64, [timed]);
        run.latencies.push(vec![timed]);
        run.checks.attempt(outcomes.len());
        let wrong = outcomes
            .iter()
            .zip(&index)
            .filter(|(outcome, &i)| {
                outcome.as_ref().map(|done| bits(&done.result)).ok() != Some(bits(&cold[i]))
            })
            .count();
        run.checks.fail(wrong, || format!("replay pass {pass}: {wrong} results differ from cold"));
    }
    // Passes are long: a host sample after the last one as well.
    ctx.host.tick();
    run.end(ctx, &ctx.host)?;
    run.sched = Counts::of(&sched.stats()) - before;
    let engine_runs = run.sched.engine_runs;
    run.checks.expect(engine_runs == 0, || {
        format!("replay warm passes ran the engine {engine_runs} times")
    });
    run.details.extend([
        Metric::new("replay.inputs", batch.len() as f64, "count"),
        Metric::new("replay.unique", unique_n as f64, "count"),
    ]);
    Ok(run)
}
