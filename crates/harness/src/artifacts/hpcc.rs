//! HPCC artifacts: Figures 8 (HPL), 9 (DGEMM/FFT single/star), 11
//! (RandomAccess), 12 (PTRANS + ring/pingpong bandwidth) and 13
//! (latencies), all under the six LAM/NUMA runtime options.
//!
//! Every figure enumerates one [`Scenario`] batch and runs it through
//! the [`Scheduler`], the ring and ping-pong probes of Figures 12 and 13
//! included.

use crate::context::makespans;
use crate::report::{Cell, Table};
use crate::runtime::RuntimeOption;
use corescope_calib::cells::Reduction;
use corescope_kernels::blas::{BlasVariant, DgemmParams};
use corescope_kernels::fft::FftParams;
use corescope_kernels::hpl::HplParams;
use corescope_kernels::ptrans::PtransParams;
use corescope_kernels::randomaccess::RaParams;
use corescope_machine::Result;
use corescope_sched::{Fidelity, Placement, Scenario, Scheduler, System, Workload};
use corescope_smpi::MpiImpl;

/// The standard HPCC scenario: Longs, 16 ranks, LAM, under `option`'s
/// placement scheme and lock layer.
fn option_scenario(option: RuntimeOption, workload: Workload, fidelity: Fidelity) -> Scenario {
    Scenario::new(System::Longs, 16, workload)
        .with_fidelity(fidelity)
        .with_placement(Placement::Scheme(option.scheme()))
        .with_mpi(MpiImpl::Lam)
        .with_lock(option.lock())
}

/// Runs `workloads` under each of the six options in one batch: every
/// option with its workloads' makespans, in order.
fn option_times(
    sched: &Scheduler,
    fidelity: Fidelity,
    workloads: &[Workload],
) -> Result<Vec<(RuntimeOption, Vec<f64>)>> {
    let batch: Vec<Scenario> = RuntimeOption::all()
        .into_iter()
        .flat_map(|o| workloads.iter().map(move |w| option_scenario(o, w.clone(), fidelity)))
        .collect();
    let times = makespans(sched, &batch)?;
    Ok(RuntimeOption::all()
        .into_iter()
        .zip(times.chunks(workloads.len()).map(<[f64]>::to_vec))
        .collect())
}

/// Figure 8: HPL GFlop/s under the six options (Longs, 16 cores) plus the
/// DMZ reference point.
pub fn figure8(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let n = match fidelity {
        Fidelity::Full => 16_384,
        Fidelity::Quick => 4_096,
    };
    let params = HplParams { n, nb: 256, dgemm_efficiency: 0.85 };
    let workload =
        Workload::Hpl { n: params.n, nb: params.nb, dgemm_efficiency: params.dgemm_efficiency };

    // DMZ reference (default options only, as in the paper) plus the six
    // Longs options, in one batch.
    let dmz_ref = Scenario::new(System::Dmz, 4, workload.clone())
        .with_fidelity(fidelity)
        .with_placement(Placement::Scheme(RuntimeOption::Default.scheme()))
        .with_mpi(MpiImpl::Lam)
        .with_lock(RuntimeOption::Default.lock());
    let mut batch = vec![dmz_ref];
    batch.extend(
        RuntimeOption::all().into_iter().map(|o| option_scenario(o, workload.clone(), fidelity)),
    );
    let times = makespans(sched, &batch)?;

    let mut table = Table::with_columns(
        "Figure 8: HPL with LAM/NUMA options (GFlop/s)",
        &["Option", "Longs 16 cores", "DMZ 4 cores"],
    );
    let dmz_gf = params.gflops(times[0]);
    for (option, &time) in RuntimeOption::all().into_iter().zip(&times[1..]) {
        let dmz_cell =
            if option == RuntimeOption::Default { Cell::num(dmz_gf) } else { Cell::Dash };
        table.push_row(option.name(), vec![Cell::num(params.gflops(time)), dmz_cell])?;
    }
    Ok(vec![table])
}

/// Figure 9: Single and Star DGEMM + FFT GFlop/s per core vs options.
pub fn figure9(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let dgemm = DgemmParams { n: 1000, reps: fidelity.steps(3).max(1), variant: BlasVariant::Acml };
    let fft = FftParams { points_per_rank: 1 << 20, reps: fidelity.steps(3).max(1) };
    let dgemm_flops = dgemm.flops_per_rank();
    let fft_flops_total =
        fft.reps as f64 * corescope_kernels::fft::fft_flops(fft.points_per_rank as f64);

    let workloads = [
        Workload::DgemmSingle { n: dgemm.n, reps: dgemm.reps, variant: dgemm.variant },
        Workload::DgemmStar { n: dgemm.n, reps: dgemm.reps, variant: dgemm.variant },
        Workload::FftSingle { points_per_rank: fft.points_per_rank, reps: fft.reps },
        Workload::FftStar { points_per_rank: fft.points_per_rank, reps: fft.reps },
    ];
    let mut table = Table::with_columns(
        "Figure 9: Single/Star DGEMM and FFT on Longs (GFlop/s per core)",
        &["Option", "Single DGEMM", "Star DGEMM", "Single FFT", "Star FFT"],
    );
    for (option, row) in option_times(sched, fidelity, &workloads)? {
        let (t_sd, t_td, t_sf, t_tf) = (row[0], row[1], row[2], row[3]);
        table.push_row(
            option.name(),
            vec![
                Cell::num(dgemm_flops / t_sd / 1e9),
                Cell::num(dgemm_flops / t_td / 1e9),
                Cell::num(fft_flops_total / t_sf / 1e9),
                Cell::num(fft_flops_total / t_tf / 1e9),
            ],
        )?;
    }
    Ok(vec![table])
}

/// Figure 11: RandomAccess GUP/s (Single, Star per-core, MPI aggregate)
/// vs options.
pub fn figure11(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let params = match fidelity {
        Fidelity::Full => RaParams { table_words_per_rank: 1 << 24, updates_per_rank: 1 << 22 },
        Fidelity::Quick => RaParams { table_words_per_rank: 1 << 21, updates_per_rank: 1 << 16 },
    };
    let workloads = [
        Workload::RandomAccessSingle {
            table_words_per_rank: params.table_words_per_rank,
            updates_per_rank: params.updates_per_rank,
        },
        Workload::RandomAccessStar {
            table_words_per_rank: params.table_words_per_rank,
            updates_per_rank: params.updates_per_rank,
        },
        Workload::RandomAccessMpi {
            table_words_per_rank: params.table_words_per_rank,
            updates_per_rank: params.updates_per_rank,
        },
    ];
    let mut table = Table::with_columns(
        "Figure 11: RandomAccess on Longs (GUP/s)",
        &["Option", "Single", "Star per-core", "MPI (16 ranks)"],
    );
    for (option, row) in option_times(sched, fidelity, &workloads)? {
        let (t_single, t_star, t_mpi) = (row[0], row[1], row[2]);
        table.push_row(
            option.name(),
            vec![
                Cell::num_with(params.gups(1, t_single), 4),
                Cell::num_with(params.gups(1, t_star), 4),
                Cell::num_with(params.gups(16, t_mpi), 4),
            ],
        )?;
    }
    Ok(vec![table])
}

/// Figure 12: PTRANS bandwidth plus ring/pingpong bandwidth vs options.
pub fn figure12(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let params = PtransParams {
        n: match fidelity {
            Fidelity::Full => 8_192,
            Fidelity::Quick => 2_048,
        },
        reps: 1,
        ..PtransParams::default()
    };
    let moved = (params.n * params.n) as f64 * 8.0;
    // Ring and ping-pong bandwidth move 2 MB messages.
    let (bytes, reps) = (2e6, fidelity.steps(10).max(2));
    let workloads = [
        Workload::Ptrans { n: params.n, reps: params.reps, block_bytes: params.block_bytes },
        Workload::Ring { bytes, reps },
        Workload::PingPong { bytes, reps },
    ];
    let mut table = Table::with_columns(
        "Figure 12: PTRANS and ring/pingpong bandwidth on Longs (GB/s)",
        &["Option", "PTRANS", "Ring BW/rank", "PingPong BW"],
    );
    for (option, row) in option_times(sched, fidelity, &workloads)? {
        let t_pt = row[0];
        let ring = bytes / (row[1] / reps as f64);
        let pp = bytes / Reduction::HalfRoundTrip { reps }.apply(row[2]);
        table.push_row(
            option.name(),
            vec![
                Cell::num(moved / t_pt / 1e9),
                Cell::num_with(ring / 1e9, 3),
                Cell::num_with(pp / 1e9, 3),
            ],
        )?;
    }
    Ok(vec![table])
}

/// Figure 13: ring and pingpong small-message (8-byte) latency vs
/// options.
pub fn figure13(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let (bytes, reps) = (8.0, fidelity.steps(50).max(5));
    let workloads = [Workload::PingPong { bytes, reps }, Workload::Ring { bytes, reps }];
    let mut table = Table::with_columns(
        "Figure 13: Communication latency on Longs (microseconds)",
        &["Option", "PingPong", "Ring"],
    );
    for (option, row) in option_times(sched, fidelity, &workloads)? {
        let pp = Reduction::HalfRoundTrip { reps }.apply(row[0]);
        let ring = row[1] / reps as f64;
        table.push_row(option.name(), vec![Cell::num(pp * 1e6), Cell::num(ring * 1e6)])?;
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Scheduler {
        Scheduler::new(2)
    }

    #[test]
    fn figure8_tuned_options_win() {
        let t = &figure8(Fidelity::Quick, &sched()).unwrap()[0];
        let tuned = t.value("localalloc+usysv", "Longs 16 cores").unwrap();
        let stock = t.value("sysv", "Longs 16 cores").unwrap();
        assert!(tuned >= stock, "tuned {tuned} vs stock {stock}");
        assert!(t.value("default", "DMZ 4 cores").is_some());
        assert!(t.value("sysv", "DMZ 4 cores").is_none());
    }

    #[test]
    fn figure9_dgemm_star_equals_single() {
        let t = &figure9(Fidelity::Quick, &sched()).unwrap()[0];
        for option in ["default", "localalloc+usysv"] {
            let single = t.value(option, "Single DGEMM").unwrap();
            let star = t.value(option, "Star DGEMM").unwrap();
            assert!(
                (single - star).abs() / single < 0.1,
                "{option}: DGEMM single {single} vs star {star} should be almost identical"
            );
        }
        // FFT shows more single->star impact than DGEMM.
        let fs = t.value("default", "Single FFT").unwrap();
        let ft = t.value("default", "Star FFT").unwrap();
        assert!(ft <= fs, "star FFT {ft} must not beat single {fs}");
    }

    #[test]
    fn figure11_mpi_randomaccess_suffers_under_sysv() {
        let t = &figure11(Fidelity::Quick, &sched()).unwrap()[0];
        let sysv = t.value("sysv", "MPI (16 ranks)").unwrap();
        let usysv = t.value("usysv", "MPI (16 ranks)").unwrap();
        assert!(usysv > sysv, "spinlocks must help RA: {usysv} vs {sysv}");
    }

    #[test]
    fn figure12_usysv_clearly_beats_sysv_on_ptrans() {
        let t = &figure12(Fidelity::Quick, &sched()).unwrap()[0];
        let sysv = t.value("sysv", "PTRANS").unwrap();
        let usysv = t.value("usysv", "PTRANS").unwrap();
        assert!(usysv > sysv, "usysv {usysv} vs sysv {sysv}");
    }

    #[test]
    fn figure13_sysv_latency_dominates() {
        let t = &figure13(Fidelity::Quick, &sched()).unwrap()[0];
        let pp_sysv = t.value("sysv", "PingPong").unwrap();
        let pp_usysv = t.value("usysv", "PingPong").unwrap();
        assert!(pp_sysv > 2.0 * pp_usysv);
        // Ring > pingpong under the same option.
        let ring = t.value("usysv", "Ring").unwrap();
        assert!(ring > pp_usysv);
    }

    #[test]
    fn figure9_parallel_matches_serial_byte_for_byte() {
        let serial = figure9(Fidelity::Quick, &Scheduler::new(1)).unwrap();
        let parallel = figure9(Fidelity::Quick, &Scheduler::new(8)).unwrap();
        assert_eq!(serial[0].to_csv(), parallel[0].to_csv());
    }
}
