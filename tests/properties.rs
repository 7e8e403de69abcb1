//! Workspace-level property-based tests (proptest) on the core data
//! structures and invariants.

use corescope::machine::flow::{solve_maxmin, FlowSpec, ResourceTable};
use corescope::machine::{systems, Machine, MemoryLayout, NumaNodeId, SocketId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-min fairness never oversubscribes a resource and never exceeds
    /// a flow's own cap.
    #[test]
    fn maxmin_is_feasible(
        caps in proptest::collection::vec(1.0f64..1e3, 1..6),
        flows in proptest::collection::vec(
            (proptest::collection::vec(0usize..6, 0..4), 0.1f64..1e3),
            1..10,
        ),
    ) {
        let mut table = ResourceTable::new();
        for (i, &c) in caps.iter().enumerate() {
            table.add(format!("r{i}"), c);
        }
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|(route, cap)| {
                let route: Vec<usize> =
                    route.iter().map(|&r| r % caps.len()).collect();
                FlowSpec::new(route, *cap)
            })
            .collect();
        let rates = solve_maxmin(&table, &specs).unwrap();
        let mut used = vec![0.0; caps.len()];
        for (spec, &rate) in specs.iter().zip(&rates) {
            prop_assert!(rate >= 0.0);
            prop_assert!(rate <= spec.cap * (1.0 + 1e-9));
            for &r in &spec.route {
                used[r] += rate;
            }
        }
        for (r, &u) in used.iter().enumerate() {
            prop_assert!(u <= caps[r] * (1.0 + 1e-6), "resource {r}: {u} > {}", caps[r]);
        }
    }

    /// Max-min rates are Pareto-efficient for flows with non-empty
    /// routes: every such flow is limited by its cap or by a saturated
    /// resource.
    #[test]
    fn maxmin_is_pareto(
        caps in proptest::collection::vec(1.0f64..1e3, 1..5),
        flows in proptest::collection::vec(
            (proptest::collection::vec(0usize..5, 1..4), 0.1f64..1e3),
            1..8,
        ),
    ) {
        let mut table = ResourceTable::new();
        for (i, &c) in caps.iter().enumerate() {
            table.add(format!("r{i}"), c);
        }
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|(route, cap)| {
                FlowSpec::new(route.iter().map(|&r| r % caps.len()).collect(), *cap)
            })
            .collect();
        let rates = solve_maxmin(&table, &specs).unwrap();
        let mut used = vec![0.0; caps.len()];
        for (spec, &rate) in specs.iter().zip(&rates) {
            for &r in &spec.route {
                used[r] += rate;
            }
        }
        let tol = 1e-6;
        for (spec, &rate) in specs.iter().zip(&rates) {
            let at_cap = rate >= spec.cap * (1.0 - tol);
            let blocked = spec
                .route
                .iter()
                .any(|&r| used[r] >= caps[r] * (1.0 - tol));
            prop_assert!(
                at_cap || blocked,
                "flow at rate {rate} could still grow (cap {})",
                spec.cap
            );
        }
    }

    /// Memory layouts always normalize to unit total weight.
    #[test]
    fn layouts_normalize(
        weights in proptest::collection::vec((0usize..8, 0.01f64..100.0), 1..12),
    ) {
        let layout = MemoryLayout::new(
            weights.iter().map(|&(n, w)| (NumaNodeId::new(n), w)).collect(),
        ).unwrap();
        let total: f64 = layout.shares().map(|(_, f)| f).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Routing is symmetric in length and stays within the diameter on
    /// the ladder.
    #[test]
    fn ladder_routes_are_sane(a in 0usize..8, b in 0usize..8) {
        let machine = Machine::new(systems::longs());
        let topo = machine.topology();
        let (sa, sb) = (SocketId::new(a), SocketId::new(b));
        prop_assert_eq!(topo.hops(sa, sb), topo.hops(sb, sa));
        prop_assert!(topo.hops(sa, sb) <= topo.diameter());
        prop_assert_eq!(topo.route(sa, sb).expect("connected ladder").len(), topo.hops(sa, sb));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine liveness: any well-formed program mix (matched p2p,
    /// symmetric exchanges, collectives, compute) completes without
    /// deadlock, with monotone non-negative finish times.
    #[test]
    fn random_wellformed_programs_complete(
        ops in proptest::collection::vec((0usize..4, 0usize..8, 0usize..8, 1.0f64..1e6), 1..40),
        nranks in 2usize..9,
    ) {
        use corescope::affinity::Scheme;
        use corescope::smpi::{CommWorld, LockLayer, MpiImpl};
        use corescope::machine::{ComputePhase, TrafficProfile};

        let machine = Machine::new(systems::longs());
        let placements = Scheme::TwoMpiLocalAlloc.resolve(&machine, nranks).unwrap();
        let mut world = CommWorld::new(
            &machine,
            placements,
            MpiImpl::OpenMpi.profile(),
            LockLayer::USysV,
        );
        for (kind, a, b, bytes) in ops {
            let (a, b) = (a % nranks, b % nranks);
            match kind {
                0 if a != b => { world.p2p(a, b, bytes); }
                1 if a != b => { world.sendrecv(a, b, bytes); }
                2 => { world.allreduce(bytes); }
                _ => {
                    let phase = ComputePhase::new(
                        "work",
                        bytes * 10.0,
                        TrafficProfile::stream(bytes),
                    );
                    world.compute(a, phase);
                }
            }
        }
        let report = world.run().unwrap();
        prop_assert!(report.makespan.is_finite() && report.makespan >= 0.0);
        for &t in &report.rank_finish {
            prop_assert!(t <= report.makespan + 1e-12);
        }
    }
}

/// Builds the lockstep four-rank workload the fault proptests run: each
/// step is cross-socket traffic plus a reduction, so every rank re-syncs
/// and a fault anywhere shows up in the makespan.
fn lockstep_world(machine: &Machine) -> corescope::smpi::CommWorld<'_> {
    use corescope::affinity::Scheme;
    use corescope::smpi::{CommWorld, LockLayer, MpiImpl};
    let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, 4).unwrap();
    let mut w = CommWorld::new(machine, placements, MpiImpl::OpenMpi.profile(), LockLayer::USysV);
    for _ in 0..8 {
        w.sendrecv(0, 2, 1e5);
        w.allreduce(1e4);
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid transient fault plan — brownouts with restores, at most
    /// one per resource, plus an optional stall/resume pair — completes
    /// without panicking and never makes the run *faster* than
    /// fault-free.
    #[test]
    fn transient_fault_plans_never_speed_up_or_panic(
        ctrl0 in proptest::option::of((0.05f64..0.7, 0.05f64..0.25, 0.05f64..0.95)),
        ctrl1 in proptest::option::of((0.05f64..0.7, 0.05f64..0.25, 0.05f64..0.95)),
        link0 in proptest::option::of((0.05f64..0.7, 0.05f64..0.25, 0.05f64..0.95)),
        link1 in proptest::option::of((0.05f64..0.7, 0.05f64..0.25, 0.05f64..0.95)),
        probe in proptest::option::of((0.05f64..0.7, 0.05f64..0.25, 0.05f64..0.95)),
        stall in proptest::option::of((0.05f64..0.6, 0.05f64..0.25, 0usize..4)),
    ) {
        use corescope::machine::{FaultPlan, LinkId, RankId};

        let machine = Machine::new(systems::dmz());
        let healthy = lockstep_world(&machine).run().unwrap().makespan;

        let mut plan = FaultPlan::new();
        if let Some((t, d, f)) = ctrl0 {
            plan = plan
                .controller_throttle(t * healthy, SocketId::new(0), f)
                .controller_restore((t + d) * healthy, SocketId::new(0));
        }
        if let Some((t, d, f)) = ctrl1 {
            plan = plan
                .controller_throttle(t * healthy, SocketId::new(1), f)
                .controller_restore((t + d) * healthy, SocketId::new(1));
        }
        if let Some((t, d, f)) = link0 {
            plan = plan
                .link_degrade(t * healthy, LinkId::new(0), f)
                .link_restore((t + d) * healthy, LinkId::new(0));
        }
        if let Some((t, d, f)) = link1 {
            plan = plan
                .link_degrade(t * healthy, LinkId::new(1), f)
                .link_restore((t + d) * healthy, LinkId::new(1));
        }
        if let Some((t, d, f)) = probe {
            plan = plan
                .probe_brownout(t * healthy, f)
                .probe_restore((t + d) * healthy);
        }
        if let Some((t, d, r)) = stall {
            plan = plan
                .rank_stall(t * healthy, RankId::new(r))
                .rank_resume((t + d) * healthy, RankId::new(r));
        }

        let report = lockstep_world(&machine).run_with_faults(&plan).unwrap();
        prop_assert!(
            report.makespan >= healthy * (1.0 - 1e-9),
            "faults must not speed the run up: {} < {}",
            report.makespan,
            healthy
        );
    }

    /// A rank kill under an armed checkpoint policy always completes by
    /// rollback-and-replay, and the recovered run never beats fault-free.
    #[test]
    fn kill_with_checkpoints_completes_and_never_speeds_up(
        kill_frac in 0.05f64..0.95,
        interval_frac in 0.05f64..0.6,
        restart_frac in 0.0f64..0.1,
        rank in 0usize..4,
    ) {
        use corescope::machine::{CheckpointPolicy, FaultPlan, RankId};

        let machine = Machine::new(systems::dmz());
        let healthy = lockstep_world(&machine).run().unwrap().makespan;
        let policy = CheckpointPolicy::new(interval_frac * healthy, 1e6)
            .with_restart_delay(restart_frac * healthy);
        let plan = FaultPlan::new().rank_kill(kill_frac * healthy, RankId::new(rank));
        let report = lockstep_world(&machine)
            .with_recovery(policy)
            .run_with_faults(&plan)
            .unwrap();
        prop_assert!(
            report.makespan >= healthy * (1.0 - 1e-9),
            "recovery must not beat fault-free: {} < {}",
            report.makespan,
            healthy
        );
    }
}
