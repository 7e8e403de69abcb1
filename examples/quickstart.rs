//! Quickstart: build the three paper systems, run STREAM triad on each,
//! and show the multi-core memory-bandwidth story in one screen.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use corescope::affinity::Scheme;
use corescope::kernels::stream::StreamParams;
use corescope::sched::{Placement, Scenario, System, Workload};
use corescope::smpi::MpiImpl;

fn triad_bandwidth(
    system: System,
    scheme: Scheme,
    nranks: usize,
) -> Result<f64, corescope::machine::Error> {
    let params = StreamParams { sweeps: 3, ..StreamParams::default() };
    let workload = Workload::StreamStar {
        kernel: params.kernel,
        elements_per_rank: params.elements_per_rank,
        sweeps: params.sweeps,
    };
    let scenario = Scenario::new(system, nranks, workload)
        .with_placement(Placement::Scheme(scheme))
        .with_mpi(MpiImpl::Lam);
    Ok(nranks as f64 * params.bytes_per_rank() / scenario.run()?.makespan)
}

fn main() -> Result<(), corescope::machine::Error> {
    println!("corescope quickstart: STREAM triad across the paper's systems\n");
    for system in [System::Tiger, System::Dmz, System::Longs] {
        let machine = system.machine();
        println!("{machine}");
        let one = triad_bandwidth(system, Scheme::OneMpiLocalAlloc, 1)?;
        println!("  1 core                : {:6.2} GB/s", one / 1e9);
        let sockets = machine.num_sockets();
        let spread = triad_bandwidth(system, Scheme::OneMpiLocalAlloc, sockets)?;
        println!(
            "  {sockets:2} cores (1/socket)   : {:6.2} GB/s  ({:.2}x)",
            spread / 1e9,
            spread / one
        );
        let all = machine.num_cores();
        if all > sockets {
            let packed = triad_bandwidth(system, Scheme::TwoMpiLocalAlloc, all)?;
            println!(
                "  {all:2} cores (2/socket)   : {:6.2} GB/s  ({:.2}x)",
                packed / 1e9,
                packed / one
            );
        }
        println!();
    }
    println!(
        "The shape to notice (paper Figs 2/3): bandwidth scales with sockets,\n\
         second cores per socket add little — and on the 8-socket ladder the\n\
         coherence fabric caps what sixteen streaming cores can pull."
    );
    Ok(())
}
