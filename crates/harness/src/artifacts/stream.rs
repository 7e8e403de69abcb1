//! STREAM artifacts: Figures 2, 3 (bandwidth scaling) and 10 (HPCC
//! STREAM vs runtime options).
//!
//! These sweeps *enumerate* [`Scenario`]s and hand the whole batch to
//! the [`Scheduler`], which fans out over workers, dedups and caches;
//! the functions here only do the post-processing arithmetic and render
//! through [`crate::aggregate::pivot_table`] (impossible cells are
//! `None`, which the view draws as the paper's dashes). Results are
//! byte-identical to the old hand-assembled tables at any job count.

use crate::aggregate::pivot_table;
use crate::context::makespans;
use crate::report::Table;
use crate::runtime::RuntimeOption;
use corescope_calib::cells::{self, observe, Batch};
use corescope_machine::Result;
use corescope_sched::{Fidelity, Placement, Scenario, Scheduler, System, Workload};

fn bandwidth_scaling(fidelity: Fidelity, per_core: bool, sched: &Scheduler) -> Result<Table> {
    let title = if per_core {
        "Figure 3: Memory bandwidth per core (GB/s, STREAM triad)"
    } else {
        "Figure 2: Memory bandwidth (GB/s aggregate, STREAM triad)"
    };
    let systems = [System::Tiger, System::Dmz, System::Longs];
    let cores: Vec<usize> = systems.iter().map(|s| s.machine().num_cores()).collect();
    let counts = [1usize, 2, 4, 8, 16];

    // Enumerate the whole grid (impossible cells get no slot), then run
    // it as one batch. Each cell is the scatter-local STREAM of
    // lmbench's core-activation order.
    let mut batch = Batch::default();
    let slots: Vec<Vec<Option<usize>>> = counts
        .iter()
        .map(|&n| {
            systems
                .iter()
                .zip(&cores)
                .map(|(&system, &num_cores)| {
                    (n <= num_cores).then(|| {
                        batch.push(cells::stream_star(system, n, Placement::ScatterLocal, fidelity))
                    })
                })
                .collect()
        })
        .collect();
    let bandwidths = observe(sched, &batch)?;

    let rows: Vec<(String, Vec<Option<f64>>)> = counts
        .iter()
        .zip(slots)
        .map(|(&n, row)| {
            let values = row
                .into_iter()
                .map(|slot| {
                    let bw = bandwidths[slot?];
                    let value = if per_core { bw / n as f64 } else { bw };
                    Some(value / 1e9)
                })
                .collect();
            (n.to_string(), values)
        })
        .collect();
    Ok(pivot_table(title, &["Active cores", "tiger", "dmz", "longs"], &rows)?)
}

/// Figure 2: aggregate triad bandwidth vs active cores.
pub fn figure2(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    Ok(vec![bandwidth_scaling(fidelity, false, sched)?])
}

/// Figure 3: per-core triad bandwidth vs active cores.
pub fn figure3(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    Ok(vec![bandwidth_scaling(fidelity, true, sched)?])
}

/// Figure 10: HPCC STREAM Single vs Star on Longs under the six runtime
/// options.
pub fn figure10(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let p = cells::stream_params(fidelity);
    let single_workload = Workload::StreamSingle {
        kernel: p.kernel,
        elements_per_rank: p.elements_per_rank,
        sweeps: p.sweeps,
    };
    let star = |option: RuntimeOption| {
        let placement = Placement::Scheme(option.scheme());
        cells::stream_star(System::Longs, 16, placement, fidelity).scenario.with_lock(option.lock())
    };
    let single =
        |option: RuntimeOption| Scenario { workload: single_workload.clone(), ..star(option) };

    // Unplaceable options become Dash rows, as in the paper; the rest
    // contribute a Single and a Star scenario each.
    let placeable: Vec<RuntimeOption> = RuntimeOption::all()
        .into_iter()
        .filter(|o| Placement::Scheme(o.scheme()).placeable(System::Longs, 16))
        .collect();
    let batch: Vec<Scenario> = placeable.iter().flat_map(|&o| [single(o), star(o)]).collect();
    let times = makespans(sched, &batch)?;

    let rows: Vec<(String, Vec<Option<f64>>)> = RuntimeOption::all()
        .into_iter()
        .map(|option| {
            let values = match placeable.iter().position(|&o| o == option) {
                None => vec![None, None, None],
                Some(i) => {
                    let single = p.bytes_per_rank() / times[2 * i];
                    let star = p.bytes_per_rank() / times[2 * i + 1];
                    vec![Some(single / 1e9), Some(star / 1e9), Some(single / star)]
                }
            };
            (option.name().to_string(), values)
        })
        .collect();
    Ok(vec![pivot_table(
        "Figure 10: STREAM triad on Longs, 16 ranks (GB/s)",
        &["Option", "Single", "Star per-core", "Single:Star"],
        &rows,
    )?])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Scheduler {
        Scheduler::new(2)
    }

    #[test]
    fn figure2_socket_scaling_beats_core_packing() {
        let t = &figure2(Fidelity::Quick, &sched()).unwrap()[0];
        // DMZ: 2 cores (one per socket) ~2x of 1; 4 cores (both per
        // socket) well under 4x.
        let b1 = t.value("1", "dmz").unwrap();
        let b2 = t.value("2", "dmz").unwrap();
        let b4 = t.value("4", "dmz").unwrap();
        assert!(b2 > 1.85 * b1);
        assert!(b4 < 3.0 * b1, "second cores must be flat/degraded: {b4} vs {b1}");
        // Tiger has no 4-core configuration.
        assert_eq!(t.value("4", "tiger"), None);
    }

    #[test]
    fn figure3_longs_per_core_is_lowest() {
        let t = &figure3(Fidelity::Quick, &sched()).unwrap()[0];
        let longs = t.value("1", "longs").unwrap();
        let dmz = t.value("1", "dmz").unwrap();
        assert!(longs < 0.6 * dmz, "8-socket per-core bandwidth {longs} must trail dmz {dmz}");
    }

    #[test]
    fn figure10_star_ratio_exceeds_two_on_default() {
        let t = &figure10(Fidelity::Quick, &sched()).unwrap()[0];
        let ratio = t.value("default", "Single:Star").unwrap();
        assert!(ratio > 2.0, "paper: 'Single to Star ratio of greater than 2:1', got {ratio:.2}");
        // The tuned option should not be worse than default's ratio by
        // much — localalloc star per-core should beat default star.
        let star_tuned = t.value("localalloc+usysv", "Star per-core").unwrap();
        let star_default = t.value("default", "Star per-core").unwrap();
        assert!(star_tuned >= star_default * 0.95);
    }

    #[test]
    fn figure2_jobs_and_cache_do_not_change_cells() {
        let serial = figure2(Fidelity::Quick, &Scheduler::new(1)).unwrap();
        let warm = sched();
        let parallel_cold = figure2(Fidelity::Quick, &warm).unwrap();
        let parallel_warm = figure2(Fidelity::Quick, &warm).unwrap();
        assert_eq!(serial[0].to_csv(), parallel_cold[0].to_csv());
        assert_eq!(serial[0].to_csv(), parallel_warm[0].to_csv());
        assert!(warm.stats().hits_memory > 0, "second pass must hit the cache");
    }
}
