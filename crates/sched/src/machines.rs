//! The machines scenarios run on, built once per `(system, calibration
//! point)` and shared by every run in the process.
//!
//! A [`corescope_machine::Machine`] holds everything derived from its
//! spec alone (topology, resource table, routes, latency table), and
//! [`System::machine_with`] is a pure function of the system and the
//! point, so every run on a memoized machine produces the bits a freshly
//! built one would.

use crate::System;
use corescope_machine::{CalibParams, Machine};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// A system and every calibration field's bit pattern.
type Key = (System, [u64; CalibParams::FIELDS.len()]);

/// Built machines by `(system, params bits)`. Holds at most
/// [`MachineMemo::CAP`] and starts over when full, so a process that
/// meets unboundedly many points keeps a bounded memo. In front of the
/// map, each system's slot holds the last point's shared parameters and
/// machine, so scenarios that share their point's [`Arc`] are answered
/// by one pointer comparison.
#[derive(Default)]
struct MachineMemo {
    slots: [Option<(Arc<CalibParams>, Arc<Machine>)>; System::all().len()],
    map: HashMap<Key, Arc<Machine>>,
}

impl MachineMemo {
    /// Distinct `(system, params)` points held before the memo is
    /// cleared: every system at a few points. A calibration sweep meets
    /// each point for a few runs in a row, so a larger memo answers
    /// little more and holds more memory: running every artifact at quick
    /// fidelity cold and then warm built 345 machines for 2,105 runs at 32
    /// points, and 338 at 128.
    const CAP: usize = 32;

    /// The machine of `system` at `params`, built on first use.
    ///
    /// # Panics
    ///
    /// Panics as [`System::machine_with`] does on a point that builds no
    /// valid spec; an in-bounds point always builds one.
    fn get(&mut self, system: System, params: &Arc<CalibParams>) -> Arc<Machine> {
        let slot = &mut self.slots[system as usize];
        if let Some((last, machine)) = slot {
            if Arc::ptr_eq(last, params) {
                return Arc::clone(machine);
            }
        }
        let key = (system, params.to_bits());
        let machine = match self.map.get(&key) {
            Some(machine) => Arc::clone(machine),
            None => {
                if self.map.len() >= Self::CAP {
                    self.map.clear();
                }
                let machine = Arc::new(system.machine_with(params));
                self.map.insert(key, Arc::clone(&machine));
                machine
            }
        };
        *slot = Some((Arc::clone(params), Arc::clone(&machine)));
        machine
    }
}

/// The process's machines. Process-wide rather than per thread because
/// the executor starts fresh workers for every parallel batch.
static MACHINES: LazyLock<Mutex<MachineMemo>> = LazyLock::new(Mutex::default);

/// The machine of `system` at `params`, from the process-wide memo.
pub(crate) fn machine(system: System, params: &Arc<CalibParams>) -> Arc<Machine> {
    // Every update leaves the map valid (a panic while building leaves
    // it as it was, or empty), so a poisoned lock still guards a memo.
    MACHINES.lock().unwrap_or_else(PoisonError::into_inner).get(system, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, ScenarioResult, Scheduler, Workload};
    use corescope_machine::{
        CheckpointPolicy, FaultPlan, LinkId, RankId, Result, RunReport, SocketId, TraceConfig,
    };

    /// Per system: a plain run, one under a fault plan that degrades a
    /// link, throttles a controller and kills a rank (fatal without
    /// checkpoints), and a checkpointed one that rides out the kill.
    fn scenarios() -> Vec<Scenario> {
        let plan = || {
            FaultPlan::new()
                .link_degrade(1e-4, LinkId::new(0), 0.5)
                .controller_throttle(2e-4, SocketId::new(0), 0.25)
                .rank_kill(3e-4, RankId::new(1))
        };
        System::all()
            .into_iter()
            .flat_map(|system| {
                let bsp = Scenario::new(
                    system,
                    2,
                    Workload::Bsp {
                        steps: 4,
                        flops_per_step: 1e7,
                        bytes_per_step: 1e7,
                        sync_bytes: 8.0,
                    },
                );
                let checkpointed = bsp
                    .clone()
                    .with_faults(plan())
                    .with_recovery(CheckpointPolicy::new(1e-4, 1e5).with_restart_delay(2e-5));
                [bsp.clone(), bsp.with_faults(plan()), checkpointed]
            })
            .collect()
    }

    /// A run on a machine built for it alone.
    fn fresh(scenario: &Scenario) -> Result<RunReport> {
        let machine = scenario.system.machine_with(&scenario.params);
        scenario.lower(&machine)?.run_with_faults(&scenario.faults)
    }

    /// Every bit of an outcome: `{:?}` prints each `f64` exactly.
    fn bits<T: std::fmt::Debug>(outcome: &Result<T>) -> String {
        format!("{outcome:?}")
    }

    #[test]
    fn memoized_machines_give_the_bits_of_fresh_ones() {
        let scenarios = scenarios();
        let expected: Vec<Result<RunReport>> = scenarios.iter().map(fresh).collect();
        for (i, outcome) in expected.iter().enumerate() {
            match i % 3 {
                0 => assert!(outcome.is_ok(), "scenario {i}: {outcome:?}"),
                1 => assert!(outcome.is_err(), "scenario {i}: the kill is fatal"),
                _ => assert!(outcome.as_ref().is_ok_and(|r| r.metrics.recoveries > 0), "{i}"),
            }
        }
        let observed = |s: &Scenario| s.observe(TraceConfig::off()).and_then(|o| o.result);
        *MACHINES.lock().unwrap_or_else(PoisonError::into_inner) = MachineMemo::default();
        let cold: Vec<_> = scenarios.iter().map(observed).collect();
        let warm: Vec<_> = scenarios.iter().map(observed).collect();
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(bits(&cold[i]), bits(want), "cold memo, scenario {i}");
            assert_eq!(bits(&warm[i]), bits(want), "warm memo, scenario {i}");
        }
        // Two workers sharing the memo, cleared first so they build it.
        // Tests on other threads may fill it meanwhile; that changes which
        // run builds a machine, never a result.
        *MACHINES.lock().unwrap_or_else(PoisonError::into_inner) = MachineMemo::default();
        let batch = Scheduler::new(2).run_batch(&scenarios);
        for (i, (outcome, want)) in batch.into_iter().zip(&expected).enumerate() {
            let got = outcome.map(|done| done.result).map_err(|e| e.to_string());
            let want = want.as_ref().map(ScenarioResult::from_report).map_err(|e| e.to_string());
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "jobs=2, scenario {i}");
        }
    }

    #[test]
    fn the_machine_memo_is_bounded_and_exact() {
        let mut memo = MachineMemo::default();
        let mut params = CalibParams::paper_2006();
        let base = params.dram_latency;
        for i in 0..=MachineMemo::CAP {
            params.dram_latency = base * (1.0 + i as f64 * 1e-6);
            let machine = memo.get(System::Longs, &Arc::new(params));
            let fresh = System::Longs.machine_with(&params);
            assert_eq!(machine.spec(), fresh.spec());
            assert!(memo.map.len() <= MachineMemo::CAP);
        }
        assert_eq!(memo.map.len(), 1, "a full memo starts over");
        let again = memo.get(System::Longs, &Arc::new(params));
        assert!(
            Arc::ptr_eq(&again, &memo.get(System::Longs, &Arc::new(params))),
            "a warm point is shared"
        );
    }
}
