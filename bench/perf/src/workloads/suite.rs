//! `suite`: every artifact at quick fidelity through one in-memory
//! scheduler at jobs=1 (the `repro` default), a cold pass then a warm
//! pass on the same scheduler. This is what paper users run; it is
//! dominated by the engine and by the artifacts that bypass the cache.
//!
//! An operation is one artifact call and the rendering of its tables; the
//! latency a user sees is the whole cold pass.

use super::{sample, setup, Counts, Ctx, Run, Timed, DEFAULT_SEED};
use crate::gen::{self, SweepShape, Universe};
use crate::report::{pct, Metric};
use corescope_harness::{Fidelity, Table};
use corescope_sched::Scheduler;
use std::collections::BTreeMap;
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    // The suite's own inputs are fixed; set-up builds the probe sample.
    let (probe, setup_s) = setup(ctx, || {
        let universe = Universe::new()?;
        let shape = SweepShape { passes: 1, ..ctx.size.sweep };
        Ok(sample(&gen::sweep(&universe, DEFAULT_SEED, shape).concat(), ctx.size.sample))
    })?;
    let mut run = Run { setup_s, sample: probe, ..Run::default() };
    let artifacts = &ctx.size.suite;
    // Each repetition's artifact calls, by pass.
    let mut passes: BTreeMap<&str, Vec<Vec<Timed>>> = BTreeMap::new();
    let mut calls: BTreeMap<(&str, &str), Vec<Timed>> = BTreeMap::new();

    run.begin(ctx);
    for rep in 0..ctx.size.suite_reps {
        let sched = Scheduler::new(1);
        let mut cold_crc: BTreeMap<&str, u32> = BTreeMap::new();
        for pass in ["cold", "warm"] {
            let before = Counts::of(&sched.stats());
            let mut work = Vec::with_capacity(artifacts.len());
            for (i, artifact) in artifacts.iter().enumerate() {
                ctx.host.tick();
                let id = artifact.id();
                let call = Instant::now();
                let csv = ctx
                    .tracer
                    .span("harness.artifact", i as u64, 1, || {
                        artifact.run_on(Fidelity::Quick, &sched, None)
                    })
                    .map(|tables| {
                        ctx.tracer.span("harness.render", i as u64, 1, || {
                            tables.iter().map(Table::to_csv).collect::<String>()
                        })
                    });
                let timed = Timed::since(call);
                work.push(timed);
                run.step("artifact", 1.0, [timed]);
                calls.entry((pass, id)).or_default().push(timed);
                run.checks.attempt(1);
                let csv = match csv {
                    Ok(csv) => csv,
                    Err(e) => {
                        run.checks.expect(false, || format!("suite {pass} {id}: {e}"));
                        continue;
                    }
                };
                let crc = corescope_store::frame::crc32(csv.as_bytes());
                if pass == "cold" {
                    ctx.gates.check(&mut run.checks, "suite", id, crc);
                    cold_crc.insert(id, crc);
                } else {
                    let cold = cold_crc.get(id).copied();
                    run.checks.expect(cold == Some(crc), || {
                        format!("suite {id}: warm CSV crc32 {crc:#010x} differs from cold {cold:?}")
                    });
                }
            }
            passes.entry(pass).or_default().push(work);
            let delta = Counts::of(&sched.stats()) - before;
            if pass == "warm" {
                let engine_runs = delta.engine_runs;
                run.checks.expect(engine_runs == 0, || {
                    format!("suite warm pass ran the engine {engine_runs} times")
                });
            }
            if rep == 0 {
                for (name, value) in [
                    ("engine_runs", delta.engine_runs),
                    ("hits_memory", delta.hits_memory),
                    ("deduped", delta.deduped),
                ] {
                    run.details.push(Metric::new(
                        format!("suite.{pass}.{name}"),
                        value as f64,
                        "count",
                    ));
                }
            }
        }
        run.sched = run.sched + Counts::of(&sched.stats());
    }
    run.latencies = passes["cold"].clone();
    run.end(ctx, &ctx.host)?;

    // Medians over the repetitions, at the reference speed.
    let charged = |work: &[Timed]| work.iter().map(|t| t.charged_s(&ctx.host)).sum::<f64>();
    for (pass, reps) in &passes {
        let seconds: Vec<f64> = reps.iter().map(|work| charged(work)).collect();
        run.details.push(Metric::new(format!("suite.{pass}_s"), pct(&seconds, 50.0), "s"));
    }
    for pass in ["cold", "warm"] {
        for artifact in artifacts {
            let timed = calls.remove(&(pass, artifact.id())).unwrap_or_default();
            let seconds: Vec<f64> = timed.iter().map(|t| t.charged_s(&ctx.host)).collect();
            let name = format!("harness.{pass}_s.{}", artifact.id());
            run.details.push(Metric::new(name, pct(&seconds, 50.0), "s"));
        }
    }
    Ok(run)
}
