//! MPI tuning study: what the lock sub-layer and process binding are
//! worth inside one multi-core node (the paper's Sections 3.3-3.4).
//!
//! ```text
//! cargo run --release --example mpi_tuning
//! ```

use corescope::affinity::Scheme;
use corescope::sched::{Placement, Scenario, System, Workload};
use corescope::smpi::{LockLayer, MpiImpl};

/// IMB PingPong: `bytes` bounced `reps` times between ranks 0 and 1 of
/// an `nranks` world on `system` under `scheme`. Returns the time per
/// half round trip (the IMB "t" column) in seconds.
fn pingpong(
    system: System,
    nranks: usize,
    scheme: Scheme,
    mpi: MpiImpl,
    lock: LockLayer,
    bytes: f64,
    reps: usize,
) -> Result<f64, corescope::machine::Error> {
    let scenario = Scenario::new(system, nranks, Workload::PingPong { bytes, reps })
        .with_placement(Placement::Scheme(scheme))
        .with_mpi(mpi)
        .with_lock(lock);
    Ok(scenario.run()?.makespan / (2.0 * reps as f64))
}

fn main() -> Result<(), corescope::machine::Error> {
    println!("1) Implementation shoot-out (IMB PingPong, DMZ, unbound):\n");
    println!("   {:>10}  {:>9}  {:>9}  {:>9}", "bytes", "MPICH2", "LAM", "OpenMPI");
    for bytes in [8.0, 1024.0, 16.0 * 1024.0, 1024.0 * 1024.0] {
        let mut row = format!("   {bytes:>10.0}");
        for imp in MpiImpl::all() {
            let t = pingpong(System::Dmz, 2, Scheme::Default, imp, LockLayer::USysV, bytes, 20)?;
            row.push_str(&format!("  {:>7.1} MB/s", bytes / t / 1e6).replace(" MB/s", ""));
        }
        println!("{row}   (MB/s)");
    }

    println!("\n2) Lock sub-layer (LAM, 8-byte latency, Longs 16 ranks):\n");
    for lock in [LockLayer::SysV, LockLayer::USysV] {
        let t = pingpong(System::Longs, 16, Scheme::TwoMpiLocalAlloc, MpiImpl::Lam, lock, 8.0, 50)?;
        println!("   {lock:<6} {:6.2} us", t * 1e6);
    }

    println!("\n3) Binding: keep chatty ranks inside one socket (OpenMPI, 1 MB):\n");
    let bandwidth = |scheme| -> Result<f64, corescope::machine::Error> {
        let t = pingpong(System::Dmz, 2, scheme, MpiImpl::OpenMpi, LockLayer::USysV, 1e6, 10)?;
        Ok(1e6 / t)
    };
    let bw_near = bandwidth(Scheme::TwoMpiLocalAlloc)?; // same socket
    let bw_far = bandwidth(Scheme::OneMpiLocalAlloc)?; // across sockets
    println!("   same socket   : {:6.1} MB/s", bw_near / 1e6);
    println!("   across sockets: {:6.1} MB/s", bw_far / 1e6);
    println!(
        "   -> {:.0}% benefit from confining communication within a\n\
         multi-core processor (paper: 'approximately 10 to 13%').",
        (bw_near / bw_far - 1.0) * 100.0
    );
    Ok(())
}
