//! Bench-side lowering: runs a [`Scenario`] by calling each layer's public
//! functions in the order `Scenario::run` does, inside one span per layer.
//!
//! The workload match mirrors the private `Workload::append` in
//! `corescope-sched`, calling the same `kernels`/`apps` functions; the
//! traced sweep checks that every scenario lowered here reproduces
//! `Scenario::run`'s makespan and event count bit for bit.

use crate::trace::Tracer;
use corescope_apps::xs::{self, TablePlacement};
use corescope_kernels::blas::{
    append_daxpy_single, append_daxpy_star, append_dgemm_single, append_dgemm_star, DaxpyParams,
    DgemmParams,
};
use corescope_kernels::cg::NasCg;
use corescope_kernels::fft::{self, FftParams};
use corescope_kernels::hpl::{self, HplParams};
use corescope_kernels::nasft::NasFt;
use corescope_kernels::ptrans::{self, PtransParams};
use corescope_kernels::randomaccess::{self as ra, RaParams};
use corescope_kernels::stream::{self, StreamParams};
use corescope_kernels::xslookup::XsParams;
use corescope_machine::{
    ComputePhase, Error, Machine, Program, Result, TraceConfig, TrafficProfile,
};
use corescope_sched::{Placement, Scenario, ScenarioResult, Workload};
use corescope_smpi::CommWorld;

fn table_placement(placement: Placement, misplacement: f64) -> TablePlacement {
    match placement {
        Placement::Scheme(scheme) => TablePlacement::from_scheme(scheme, misplacement),
        Placement::ScatterLocal => TablePlacement::FirstTouch { misplacement: 0.0 },
    }
}

fn append(world: &mut CommWorld<'_>, scenario: &Scenario) -> Result<()> {
    let misplacement = scenario.params.misplacement;
    match scenario.workload {
        Workload::Bsp { steps, flops_per_step, bytes_per_step, sync_bytes } => {
            let phase = ComputePhase::new(
                "bsp-step",
                flops_per_step,
                TrafficProfile::stream(bytes_per_step),
            );
            for _ in 0..steps {
                world.compute_all(|_| Some(phase.clone()));
                world.allreduce(sync_bytes);
            }
        }
        Workload::StreamSingle { kernel, elements_per_rank, sweeps } => {
            stream::append_single(world, &StreamParams { kernel, elements_per_rank, sweeps });
        }
        Workload::StreamStar { kernel, elements_per_rank, sweeps } => {
            stream::append_star(world, &StreamParams { kernel, elements_per_rank, sweeps });
        }
        Workload::Hpl { n, nb, dgemm_efficiency } => {
            hpl::append_run(world, &HplParams { n, nb, dgemm_efficiency });
        }
        Workload::DgemmSingle { n, reps, variant } => {
            append_dgemm_single(world, &DgemmParams { n, reps, variant });
        }
        Workload::DgemmStar { n, reps, variant } => {
            append_dgemm_star(world, &DgemmParams { n, reps, variant });
        }
        Workload::FftSingle { points_per_rank, reps } => {
            fft::append_single(world, &FftParams { points_per_rank, reps });
        }
        Workload::FftStar { points_per_rank, reps } => {
            fft::append_star(world, &FftParams { points_per_rank, reps });
        }
        Workload::RandomAccessSingle { table_words_per_rank, updates_per_rank } => {
            ra::append_single(world, &RaParams { table_words_per_rank, updates_per_rank });
        }
        Workload::RandomAccessStar { table_words_per_rank, updates_per_rank } => {
            ra::append_star(world, &RaParams { table_words_per_rank, updates_per_rank });
        }
        Workload::RandomAccessMpi { table_words_per_rank, updates_per_rank } => {
            ra::append_mpi(world, &RaParams { table_words_per_rank, updates_per_rank });
        }
        Workload::Ptrans { n, reps, block_bytes } => {
            ptrans::append_run(world, &PtransParams { n, reps, block_bytes });
        }
        Workload::PingPong { bytes, reps } => {
            for _ in 0..reps {
                world.p2p(0, 1, bytes);
                world.p2p(1, 0, bytes);
            }
        }
        Workload::NasCg { class } => NasCg { class }.append_run(world),
        Workload::NasFt { class } => NasFt { class }.append_run(world),
        Workload::DaxpySingle { n, reps, variant } => {
            append_daxpy_single(world, &DaxpyParams { n, reps, variant });
        }
        Workload::DaxpyStar { n, reps, variant } => {
            append_daxpy_star(world, &DaxpyParams { n, reps, variant });
        }
        Workload::XsLookupSingle { grid_points, nuclides, lookups_per_rank } => {
            let params = XsParams { grid_points, nuclides, lookups_per_rank };
            xs::append_single(world, &params, table_placement(scenario.placement, misplacement))?;
        }
        Workload::XsLookupStar { grid_points, nuclides, lookups_per_rank } => {
            let params = XsParams { grid_points, nuclides, lookups_per_rank };
            xs::append_star(world, &params, table_placement(scenario.placement, misplacement))?;
        }
        // A kind added to the scheduler after this mirror was written: the
        // benchmark keeps building, and a run that draws it fails its gate.
        #[allow(unreachable_patterns)]
        _ => {
            return Err(Error::InvalidSpec(format!(
                "bench-side lowering has no case for workload '{}'",
                scenario.workload.kind()
            )))
        }
    }
    Ok(())
}

/// Runs `scenario` layer by layer, one span per layer call; with
/// `observe`, also counts its solver intervals in a traced engine run.
///
/// # Errors
///
/// Propagates validation, placement and engine errors.
pub fn run(
    tracer: &Tracer,
    req: u64,
    scenario: &Scenario,
    observe: bool,
) -> Result<ScenarioResult> {
    scenario.validate()?;
    let spec = tracer.span("topo.spec", req, 1, || scenario.system.spec_with(&scenario.params));
    let machine = tracer.span("machine.new", req, 1, || Machine::new(spec));
    let placements = tracer.span("affinity.place", req, 1, || {
        scenario.placement.resolve_with(&machine, scenario.nranks, scenario.params.misplacement)
    })?;
    let world = tracer.span("smpi.lower", req, 1, || -> Result<CommWorld<'_>> {
        let profile = scenario.mpi.profile_with(&scenario.params);
        let mut world = CommWorld::new(&machine, placements, profile, scenario.lock);
        append(&mut world, scenario)?;
        if let Some(policy) = &scenario.recovery {
            world = world.with_recovery(policy.clone());
        }
        if let Some(policy) = &scenario.retry {
            world = world.with_retry(policy.clone());
        }
        tracer.work(world.programs().iter().map(Program::len).sum::<usize>() as u64);
        Ok(world)
    })?;
    let report = tracer.span("machine.run", req, 1, || {
        let report = world.run_with_faults(&scenario.faults);
        if let Ok(report) = &report {
            tracer.work(report.metrics.events as u64);
        }
        report
    })?;
    if observe {
        tracer.span("machine.observe", req, 1, || {
            let observed = world.observe(&scenario.faults, TraceConfig::on());
            tracer.work(observed.trace.map_or(0, |t| t.intervals.len() as u64));
        });
    }
    Ok(ScenarioResult::from_report(&report))
}
