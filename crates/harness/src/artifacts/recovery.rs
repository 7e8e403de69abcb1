//! Extra X5: the recovery campaign — checkpoint/restart under rank-kill
//! faults, checked against first-order fault-tolerance theory.
//!
//! The campaign runs a BSP workload (stream-traffic compute steps
//! separated by allreduce reductions) on DMZ and Longs and sweeps the
//! coordinated-checkpoint interval around the Young/Daly optimum
//! `τ* = sqrt(2 δ M)` while deterministic [`FaultKind::RankKill`] faults
//! fire once per MTBF, rotating over ranks. Three claims are *checked*,
//! not just reported — any violation fails the artifact run:
//!
//! 1. **Young/Daly alignment** — the per-checkpoint cost `δ` is measured
//!    empirically (checkpointed fault-free run vs. plain fault-free run),
//!    and the swept interval that minimizes the faulted makespan must
//!    land within one grid step of `τ*` computed from that measured `δ`;
//! 2. **bounded recovery** — with kills at MTBF spacing, the best swept
//!    makespan must stay within [`RECOVERY_BOUND`] of fault-free;
//! 3. **attribution shift** — checkpoint traffic is real flow traffic,
//!    so with one rank per socket (controllers with headroom; the
//!    fault-free run is flow-cap-bound) a membind-style checkpoint store
//!    (every rank's checkpoint stream bound to node 0 via
//!    [`CheckpointTarget::Node`]) must shift the traced bottleneck
//!    attribution toward the memory controllers.
//!
//! The campaign is *scenario-enumerated*: each measurement phase (the
//! fault-free baselines, the δ probes, the 4-campaign × 5-interval
//! sweep) is one [`Scheduler`] batch, so the twenty-plus engine runs fan
//! out over workers and land in the result cache. The traced
//! attribution runs (claim 3) need `RunTrace`s, which the result cache
//! deliberately does not hold, so they run the same scenarios through
//! [`Scenario::observe`], uncached.
//!
//! [`FaultKind::RankKill`]: corescope_machine::FaultKind::RankKill

use crate::observe::traced;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_machine::{
    young_daly_interval, CheckpointPolicy, CheckpointTarget, Error, FaultPlan, NumaNodeId, RankId,
    Result, RunTrace,
};
use corescope_sched::{Fidelity, Placement, Scenario, Scheduler, System, Workload};

/// Bounded-recovery guarantee: with kills at MTBF spacing and the best
/// swept checkpoint interval, the makespan must stay within this factor
/// of the fault-free run.
pub const RECOVERY_BOUND: f64 = 1.5;

/// Multiples of `τ*` swept (a geometric grid centered on the optimum).
const TAU_GRID: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Index of `τ*` itself in [`TAU_GRID`].
const TAU_STAR_IDX: usize = 2;

/// One campaign: a system, a world size, and a fault rate expressed as
/// kills per fault-free makespan (MTBF = fault-free / kills).
struct Campaign {
    system: System,
    nranks: usize,
    kills: usize,
}

impl Campaign {
    fn name(&self) -> String {
        format!("{} x{}, {} kills", self.system.key(), self.nranks, self.kills)
    }
}

fn campaigns() -> Vec<Campaign> {
    vec![
        Campaign { system: System::Dmz, nranks: 4, kills: 3 },
        Campaign { system: System::Dmz, nranks: 4, kills: 2 },
        Campaign { system: System::Longs, nranks: 8, kills: 3 },
        Campaign { system: System::Longs, nranks: 8, kills: 2 },
    ]
}

/// BSP steps at full fidelity.
const BSP_STEPS: usize = 200;
/// Flops per BSP step per rank.
const STEP_FLOPS: f64 = 5.0e6;
/// DRAM bytes streamed per BSP step per rank. Past L2 and large enough
/// that the step is memory-bound: a concurrent checkpoint stream then
/// has to steal controller bandwidth from the step, which is what gives
/// checkpoints a nonzero cost δ for Young/Daly to work with.
const STEP_BYTES: f64 = 8.0e6;
/// Checkpoint bytes per rank at full fidelity (scaled with the step
/// count so `δ` stays proportionate to the run at every fidelity).
const CKPT_BYTES: f64 = 1.0e7;

/// The campaign's BSP scenario, on the scenario defaults (two MPI per
/// socket, localalloc, MPICH2 with spin locks).
fn bsp_scenario(system: System, nranks: usize, fidelity: Fidelity) -> Scenario {
    Scenario::new(
        system,
        nranks,
        Workload::Bsp {
            steps: fidelity.steps(BSP_STEPS),
            flops_per_step: STEP_FLOPS,
            bytes_per_step: STEP_BYTES,
            sync_bytes: 8.0,
        },
    )
    .with_fidelity(fidelity)
}

/// Checkpoint payload per rank at this fidelity.
fn ckpt_bytes(fidelity: Fidelity) -> f64 {
    CKPT_BYTES * fidelity.steps(BSP_STEPS) as f64 / BSP_STEPS as f64
}

fn recovery_violation(campaign: &str, what: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("recovery invariant violated for '{campaign}': {what}"))
}

/// One point of the interval sweep.
struct SweepPoint {
    tau: f64,
    makespan: f64,
    checkpoints: usize,
    recoveries: usize,
}

/// A campaign's measured results.
struct CampaignResult {
    fault_free: f64,
    delta: f64,
    mtbf: f64,
    tau_star: f64,
    sweep: Vec<SweepPoint>,
    best: usize,
}

/// Runs every campaign in three scheduler batches — fault-free
/// baselines, δ probes, then the full interval sweep — and applies the
/// per-campaign invariant checks.
fn run_campaigns(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<CampaignResult>> {
    let cs = campaigns();
    let bytes = ckpt_bytes(fidelity);

    // Batch A: fault-free baselines (duplicate digests — the two DMZ and
    // two Longs campaigns share theirs — collapse in the scheduler).
    let baselines: Vec<Scenario> =
        cs.iter().map(|c| bsp_scenario(c.system, c.nranks, fidelity)).collect();
    let fault_free: Vec<f64> = sched
        .run_batch(&baselines)
        .into_iter()
        .map(|o| Ok(o?.result.makespan))
        .collect::<Result<_>>()?;

    // Batch B: measure the per-checkpoint cost δ empirically — a
    // checkpointed but fault-free run against the plain fault-free run.
    // Checkpoints are concurrent flows, so δ is the *contention* cost,
    // which is exactly what Young/Daly's δ means for this engine.
    let probes: Vec<Scenario> = cs
        .iter()
        .zip(&fault_free)
        .map(|(c, &free)| {
            bsp_scenario(c.system, c.nranks, fidelity)
                .with_recovery(CheckpointPolicy::new(free / 8.0, bytes))
        })
        .collect();
    let probe_results = sched.run_batch(&probes);

    let mut deltas = Vec::with_capacity(cs.len());
    for ((c, &free), probe) in cs.iter().zip(&fault_free).zip(probe_results) {
        let probe = probe?.result;
        if probe.checkpoints_taken == 0 {
            return Err(recovery_violation(&c.name(), "probe run took no checkpoints"));
        }
        let delta = (probe.makespan - free) / probe.checkpoints_taken as f64;
        if delta <= 0.0 {
            return Err(recovery_violation(
                &c.name(),
                format!("checkpoints must cost time, measured δ = {delta:e}"),
            ));
        }
        deltas.push(delta);
    }

    // Batch C: the full sweep — every campaign's five interval points in
    // one batch. Deterministic kills, one per MTBF, rotating over ranks
    // (the plan validator rejects killing the same rank twice); the same
    // plan drives every sweep point, so the comparison is
    // apples-to-apples.
    let mut sweep_batch = Vec::with_capacity(cs.len() * TAU_GRID.len());
    let mut tau_stars = Vec::with_capacity(cs.len());
    for ((c, &free), &delta) in cs.iter().zip(&fault_free).zip(&deltas) {
        let mtbf = free / c.kills as f64;
        let tau_star = young_daly_interval(delta, mtbf);
        tau_stars.push(tau_star);
        let plan = (1..=c.kills)
            .fold(FaultPlan::new(), |p, k| p.rank_kill(k as f64 * mtbf, RankId::new(k % c.nranks)));
        for factor in TAU_GRID {
            sweep_batch.push(
                bsp_scenario(c.system, c.nranks, fidelity)
                    .with_recovery(CheckpointPolicy::new(factor * tau_star, bytes))
                    .with_faults(plan.clone()),
            );
        }
    }
    let sweep_points = sched
        .run_batch(&sweep_batch)
        .into_iter()
        .map(|outcome| Ok(outcome?.result))
        .collect::<Result<Vec<_>>>()?;

    let mut results = Vec::with_capacity(cs.len());
    for (i, (c, points)) in cs.iter().zip(sweep_points.chunks(TAU_GRID.len())).enumerate() {
        let name = c.name();
        let tau_star = tau_stars[i];
        let mut sweep = Vec::with_capacity(TAU_GRID.len());
        for (factor, point) in TAU_GRID.into_iter().zip(points) {
            let tau = factor * tau_star;
            if point.recoveries != c.kills {
                return Err(recovery_violation(
                    &name,
                    format!(
                        "scheduled {} kills but {} recoveries happened at τ = {tau:.4}",
                        c.kills, point.recoveries
                    ),
                ));
            }
            sweep.push(SweepPoint {
                tau,
                makespan: point.makespan,
                checkpoints: point.checkpoints_taken,
                recoveries: point.recoveries,
            });
        }

        let best = sweep
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.makespan.total_cmp(&b.1.makespan))
            .map(|(j, _)| j)
            .unwrap_or(TAU_STAR_IDX);

        // Claim 1: the measured optimum tracks Young/Daly — within one
        // grid step of τ* on a ×2 geometric grid.
        if best.abs_diff(TAU_STAR_IDX) > 1 {
            return Err(recovery_violation(
                &name,
                format!(
                    "measured optimal interval {:.4}s is more than one grid step from \
                     Young/Daly τ* = {tau_star:.4}s (sweep {:?})",
                    sweep[best].tau,
                    sweep.iter().map(|p| p.makespan).collect::<Vec<_>>(),
                ),
            ));
        }

        // Claim 2: recovery is bounded at the best interval.
        if sweep[best].makespan > fault_free[i] * RECOVERY_BOUND {
            return Err(recovery_violation(
                &name,
                format!(
                    "best faulted makespan {:.4}s exceeds {RECOVERY_BOUND} x fault-free {:.4}s",
                    sweep[best].makespan, fault_free[i]
                ),
            ));
        }

        results.push(CampaignResult {
            fault_free: fault_free[i],
            delta: deltas[i],
            mtbf: fault_free[i] / c.kills as f64,
            tau_star,
            sweep,
            best,
        });
    }
    Ok(results)
}

/// The share of ranked bottleneck time attributed to memory controllers.
fn mc_share(trace: &RunTrace) -> f64 {
    let ranking = trace.bottleneck_ranking();
    let total: f64 = ranking.iter().map(|a| a.seconds).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let share =
        ranking.iter().filter(|a| a.label.starts_with("mc:")).map(|a| a.seconds).sum::<f64>()
            / total;
    // Tiny negative rounding residue would otherwise print as "-0.0000".
    share.max(0.0)
}

/// Extra X5: the recovery campaign tables.
///
/// # Errors
///
/// Propagates engine errors, and returns [`Error::InvalidSpec`] when a
/// recovery invariant is violated — the measured optimal checkpoint
/// interval straying from Young/Daly, the best faulted makespan
/// exceeding [`RECOVERY_BOUND`] x fault-free, or checkpoint traffic
/// failing to shift attribution toward the memory controllers under
/// membind (that is the point: the artifact doubles as a recovery
/// check).
pub fn extra5(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let mut sweep_table = Table::with_columns(
        "Extra X5: checkpoint-interval sweep under rank-kill faults (BSP workload)",
        &[
            "Campaign / interval",
            "Interval (s)",
            "Makespan (s)",
            "Overhead",
            "Checkpoints",
            "Recoveries",
        ],
    );
    let mut summary = Table::with_columns(
        "Extra X5: Young/Daly alignment and bounded recovery",
        &[
            "Campaign",
            "Fault-free (s)",
            "delta (s)",
            "MTBF (s)",
            "tau* (s)",
            "Best tau (s)",
            "Best/fault-free",
        ],
    );

    for (c, r) in campaigns().iter().zip(run_campaigns(fidelity, sched)?) {
        let name = c.name();
        for (i, p) in r.sweep.iter().enumerate() {
            let marker = if i == r.best { " <- best" } else { "" };
            sweep_table.push_row(
                format!("{name}, {:.2} tau*{marker}", TAU_GRID[i]),
                vec![
                    Cell::num_with(p.tau, 4),
                    Cell::num_with(p.makespan, 4),
                    Cell::num_with(p.makespan / r.fault_free, 3),
                    Cell::num_with(p.checkpoints as f64, 0),
                    Cell::num_with(p.recoveries as f64, 0),
                ],
            )?;
        }
        summary.push_row(
            name,
            vec![
                Cell::num_with(r.fault_free, 4),
                Cell::num_with(r.delta, 5),
                Cell::num_with(r.mtbf, 4),
                Cell::num_with(r.tau_star, 4),
                Cell::num_with(r.sweep[r.best].tau, 4),
                Cell::num_with(r.sweep[r.best].makespan / r.fault_free, 3),
            ],
        )?;
    }

    // Claim 3: one rank per socket leaves each controller headroom, so
    // the fault-free run is bound by per-flow caps, not the controllers.
    // A membind-style checkpoint store (every rank's checkpoint stream
    // bound to node 0) must tip the controller into being the binding
    // constraint and raise its share of the traced attribution.
    let one_per_socket = bsp_scenario(System::Dmz, 2, fidelity)
        .with_placement(Placement::Scheme(Scheme::OneMpiLocalAlloc));
    let base = mc_share(&traced(&one_per_socket)?);
    let free = sched.run_one(&one_per_socket)?.result.makespan;
    let policy = CheckpointPolicy::new(free / 8.0, ckpt_bytes(fidelity));
    let own = mc_share(&traced(&one_per_socket.clone().with_recovery(policy.clone()))?);
    let node0 = policy.with_target(CheckpointTarget::Node(NumaNodeId::new(0)));
    let membind = mc_share(&traced(&one_per_socket.with_recovery(node0))?);
    if membind <= base {
        return Err(recovery_violation(
            "dmz membind checkpoint store",
            format!(
                "checkpoint traffic must shift attribution toward the memory \
                 controllers (mc share {base:.4} without checkpoints, {membind:.4} with \
                 a node-0 store)"
            ),
        ));
    }
    let mut shift = Table::with_columns(
        "Extra X5: checkpoint traffic vs bottleneck attribution (DMZ, 1MPI/socket)",
        &["Run", "mc share of attributed time"],
    );
    shift.push_row("no checkpoints", vec![Cell::num_with(base, 4)])?;
    shift.push_row("checkpointed, own layout", vec![Cell::num_with(own, 4)])?;
    shift.push_row("checkpointed, membind store (node 0)", vec![Cell::num_with(membind, 4)])?;

    Ok(vec![sweep_table, summary, shift])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra5_checks_its_invariants() {
        // extra5 fails with InvalidSpec on any recovery-invariant
        // violation, so a clean return *is* the assertion; spot-check
        // the table shapes.
        let tables = extra5(Fidelity::Quick, &Scheduler::new(2)).unwrap();
        assert_eq!(tables.len(), 3);
        let (sweep, summary, shift) = (&tables[0], &tables[1], &tables[2]);
        assert_eq!(sweep.num_rows(), campaigns().len() * TAU_GRID.len());
        assert_eq!(summary.num_rows(), campaigns().len());
        for (label, _) in summary.rows() {
            let ratio = summary.value(label, "Best/fault-free").unwrap();
            assert!(ratio > 1.0 && ratio <= RECOVERY_BOUND, "{label}: {ratio}");
        }
        let col = "mc share of attributed time";
        let base = shift.value("no checkpoints", col).unwrap();
        let membind = shift.value("checkpointed, membind store (node 0)", col).unwrap();
        assert!(membind > base, "mc share must rise with checkpoints: {base} -> {membind}");
    }

    #[test]
    fn sweep_runs_recover_every_scheduled_kill() {
        let results = run_campaigns(Fidelity::Quick, &Scheduler::new(2)).unwrap();
        let cs = campaigns();
        let (c, r) = (&cs[0], &results[0]);
        assert!(r.delta > 0.0 && r.tau_star > 0.0);
        for p in &r.sweep {
            assert_eq!(p.recoveries, c.kills);
            assert!(p.makespan > r.fault_free, "faults must cost time");
        }
        assert!(r.mtbf > r.tau_star, "the sweep only makes sense with tau* below MTBF");
    }

    #[test]
    fn campaign_baselines_share_cache_entries() {
        // The two DMZ campaigns (and the two Longs ones) share their
        // fault-free baseline; batch dedup + cache must collapse them.
        let sched = Scheduler::new(1);
        let _ = run_campaigns(Fidelity::Quick, &sched).unwrap();
        let stats = sched.stats();
        assert!(
            stats.deduped + stats.hits_memory >= 2,
            "shared baselines must not run twice: {stats:?}"
        );
    }
}
