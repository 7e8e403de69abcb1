//! Ocean-model scaling study: POP's two phases across core counts and
//! systems (the paper's Table 12).
//!
//! ```text
//! cargo run --release --example ocean_scaling
//! ```

use corescope::affinity::Scheme;
use corescope::apps::ocean::PopModel;
use corescope::sched::{Placement, Scenario, System, Workload};

fn main() -> Result<(), corescope::machine::Error> {
    // POP x1 (320x384x40), 10 steps — scaling ratios are step-count
    // independent.
    let PopModel { nx, ny, nz, cg_iterations, .. } = PopModel::x1();
    let steps = 10;
    for system in [System::Tiger, System::Dmz, System::Longs] {
        let machine = system.machine();
        println!("{machine}");
        let mut t1 = (0.0, 0.0);
        for nranks in [1usize, 2, 4, 8, 16] {
            if nranks > machine.num_cores() {
                continue;
            }
            let run_phase = |workload| -> Result<f64, corescope::machine::Error> {
                let scenario = Scenario::new(system, nranks, workload)
                    .with_placement(Placement::Scheme(Scheme::Default));
                Ok(scenario.run()?.makespan)
            };
            let clinic = run_phase(Workload::PopBaroclinic { nx, ny, nz, steps, cg_iterations })?;
            let tropic = run_phase(Workload::PopBarotropic { nx, ny, nz, steps, cg_iterations })?;
            if nranks == 1 {
                t1 = (clinic, tropic);
                println!(
                    "  {nranks:2} cores: baroclinic {clinic:7.1} s, barotropic {tropic:6.2} s"
                );
            } else {
                println!(
                    "  {nranks:2} cores: baroclinic {clinic:7.1} s ({:4.1}x), barotropic {tropic:6.2} s ({:4.1}x)",
                    t1.0 / clinic,
                    t1.1 / tropic
                );
            }
        }
        println!();
    }
    println!("Both phases scale nearly linearly on these nodes (paper Table 12).");
    Ok(())
}
