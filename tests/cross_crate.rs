//! Cross-crate integration: compositions and failure injection that no
//! single crate's unit tests cover.

use corescope::affinity::Scheme;
use corescope::apps::md::LammpsBenchmark;
use corescope::kernels::cg::{CgClass, NasCg};
use corescope::machine::engine::RankPlacement;
use corescope::machine::{
    systems, CoreId, Engine, Error, FaultPlan, LinkId, Machine, MemoryLayout, NumaNodeId,
};
use corescope::smpi::{CommWorld, LockLayer, MpiImpl};

fn longs() -> Machine {
    Machine::new(systems::longs())
}

#[test]
fn degraded_rung_link_slows_cross_ladder_workloads() {
    let machine = longs();
    let placements = Scheme::OneMpiLocalAlloc.resolve(&machine, 8).unwrap();
    let build = |w: &mut CommWorld<'_>| {
        for _ in 0..20 {
            w.alltoall(256.0 * 1024.0);
        }
    };

    let healthy = {
        let mut w =
            CommWorld::new(&machine, placements.clone(), MpiImpl::Lam.profile(), LockLayer::USysV);
        build(&mut w);
        w.run().unwrap().makespan
    };

    // Degrade every directed link to a tenth of its bandwidth for the
    // whole run.
    let plan = (0..machine.topology().num_links())
        .fold(FaultPlan::new(), |plan, l| plan.link_degrade(0.0, LinkId::new(l), 0.1));
    let degraded = {
        let mut w = CommWorld::new(&machine, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
        build(&mut w);
        w.run_with_faults(&plan).unwrap().makespan
    };
    assert!(degraded > 2.0 * healthy, "degraded links must hurt: {degraded:.4} vs {healthy:.4}");
}

#[test]
fn dead_controller_is_a_typed_error_not_a_hang() {
    let machine = longs();
    let plan = FaultPlan::new().controller_throttle(0.0, corescope::machine::SocketId::new(3), 0.0);
    let placement = RankPlacement::new(
        CoreId::new(6), // socket 3
        MemoryLayout::single(NumaNodeId::new(3)),
    );
    let mut program = corescope::machine::Program::new();
    program.compute(corescope::machine::ComputePhase::new(
        "touch",
        0.0,
        corescope::machine::TrafficProfile::stream(1e6),
    ));
    let err = Engine::new(&machine).run_with_faults(&[placement], &[program], &plan).unwrap_err();
    assert!(matches!(err, Error::ZeroCapacityRoute { .. }), "{err}");
}

#[test]
fn scheme_resolution_feeds_engine_placements_consistently() {
    let machine = longs();
    for scheme in Scheme::all() {
        for n in [1usize, 2, 4, 8, 16] {
            let Ok(placements) = scheme.resolve(&machine, n) else {
                assert!(
                    scheme.is_one_per_socket() && n > machine.num_sockets(),
                    "{scheme} unexpectedly failed for {n} ranks"
                );
                continue;
            };
            // Engine accepts every placement the affinity layer produces.
            let programs = vec![corescope::machine::Program::new(); n];
            Engine::new(&machine).run(&placements, &programs).unwrap();
        }
    }
}

#[test]
fn deterministic_simulations_are_bit_reproducible() {
    let machine = longs();
    let run = || {
        let placements = Scheme::Default.resolve(&machine, 8).unwrap();
        let mut w =
            CommWorld::new(&machine, placements, MpiImpl::Mpich2.profile(), LockLayer::USysV);
        NasCg { class: CgClass::A }.append_run(&mut w);
        w.run().unwrap().makespan
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_bits(), b.to_bits(), "engine must be deterministic");
}

#[test]
fn workloads_report_consistent_metrics() {
    let machine = longs();
    let placements = Scheme::TwoMpiLocalAlloc.resolve(&machine, 4).unwrap();
    let mut w = CommWorld::new(&machine, placements, MpiImpl::OpenMpi.profile(), LockLayer::USysV);
    LammpsBenchmark::Lj.append_run(&mut w);
    let report = w.run().unwrap();
    // Per-rank finish times never exceed the makespan.
    for (i, &t) in report.rank_finish.iter().enumerate() {
        assert!(t <= report.makespan + 1e-12, "rank {i} finishes after makespan");
    }
    // Message accounting is symmetric per step structure: halo_1d sends
    // 2 messages per interior pair per step.
    assert!(report.metrics.total_messages() > 0);
    assert!(report.metrics.total_dram_bytes() > 0.0);
    assert!(report.metrics.events > 0);
}

#[test]
fn mpi_profiles_preserve_orderings_through_full_workloads() {
    // LAM beats MPICH2 for a latency-bound workload; MPICH2 wins a
    // bandwidth-bound one — the figure 14 crossover surviving end-to-end.
    let machine = Machine::new(systems::dmz());
    let placements = Scheme::OneMpiLocalAlloc.resolve(&machine, 2).unwrap();
    let run = |imp: MpiImpl, bytes: f64, count: usize| {
        let mut w = CommWorld::new(&machine, placements.clone(), imp.profile(), LockLayer::USysV);
        for _ in 0..count {
            w.sendrecv(0, 1, bytes);
        }
        w.run().unwrap().makespan
    };
    let small_lam = run(MpiImpl::Lam, 64.0, 200);
    let small_mpich = run(MpiImpl::Mpich2, 64.0, 200);
    assert!(small_lam < small_mpich);
    let big_lam = run(MpiImpl::Lam, 4e6, 5);
    let big_mpich = run(MpiImpl::Mpich2, 4e6, 5);
    assert!(big_mpich < big_lam);
}
