//! Static tables (configuration inventories): Tables 1, 5 and 6.

use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_apps::md::AmberBenchmark;
use corescope_machine::{systems, Result};

/// Table 1: the three evaluation systems.
///
/// # Errors
///
/// A row-shape error from [`Table::push_row`].
pub fn table1() -> Result<Table> {
    let mut t = Table::with_columns(
        "Table 1: System configurations",
        &["Name", "GHz", "Cores/socket", "Sockets", "Total cores", "Node mem (GB)"],
    );
    for spec in systems::all() {
        let sockets = spec.sockets.len();
        let mem_gb: f64 = spec.sockets.iter().sum::<f64>() / (1024.0 * 1024.0 * 1024.0);
        t.push_row(
            spec.name.clone(),
            vec![
                Cell::num_with(spec.core.frequency_hz / 1e9, 1),
                Cell::num_with(spec.cores_per_socket as f64, 0),
                Cell::num_with(sockets as f64, 0),
                Cell::num_with((sockets * spec.cores_per_socket) as f64, 0),
                Cell::num_with(mem_gb, 0),
            ],
        )?;
    }
    Ok(t)
}

/// Table 5: the placement-scheme catalogue.
///
/// # Errors
///
/// A row-shape error from [`Table::push_row`].
pub fn table5() -> Result<Table> {
    let mut t = Table::with_columns(
        "Table 5: numactl options used for experiments",
        &["Name", "Description"],
    );
    for scheme in Scheme::all() {
        let description = match scheme {
            Scheme::Default => "Default (no numactl)",
            Scheme::OneMpiLocalAlloc => "One MPI task per socket and local allocation policy",
            Scheme::OneMpiMembind => "One MPI task per socket with explicit memory binding",
            Scheme::TwoMpiLocalAlloc => "Two MPI tasks per socket and local allocation policy",
            Scheme::TwoMpiMembind => "Two MPI tasks per socket with explicit memory binding",
            Scheme::Interleave => "Interleaved memory allocation",
        };
        t.push_row(scheme.name(), vec![Cell::text(description)])?;
    }
    Ok(t)
}

/// Table 6: the AMBER benchmark systems.
///
/// # Errors
///
/// A row-shape error from [`Table::push_row`].
pub fn table6() -> Result<Table> {
    let mut t = Table::with_columns(
        "Table 6: Description of AMBER benchmarks",
        &["Benchmark", "Atoms", "MD technique"],
    );
    for b in AmberBenchmark::all() {
        let method = match b.method {
            corescope_apps::md::AmberMethod::Pme => "PME",
            corescope_apps::md::AmberMethod::Gb => "GB",
        };
        t.push_row(b.name, vec![Cell::num_with(b.atoms as f64, 0), Cell::text(method)])?;
    }
    Ok(t)
}

/// Extra X2: the lmbench-style memory-latency plateaus the coherence
/// model predicts (load-to-use ns from core 0 to each NUMA node).
///
/// # Errors
///
/// A row-shape error from [`Table::push_row`].
pub fn extra2() -> Result<Table> {
    use corescope_machine::Machine;
    let mut t = Table::with_columns(
        "Extra X2: predicted load-to-use latency from core 0 (ns)",
        &["System", "node0", "node1", "node2 (2 hops)", "farthest"],
    );
    for spec in systems::all() {
        let machine = Machine::new(spec);
        let table = corescope_kernels::memlat::latency_table(&machine);
        let row = &table[0];
        let two_hops = if row.len() > 4 { Cell::num(row[4]) } else { Cell::Dash };
        t.push_row(
            machine.spec().name.clone(),
            vec![
                Cell::num(row[0]),
                Cell::num(row[1]),
                two_hops,
                Cell::num(row.iter().copied().fold(0.0, f64::max)),
            ],
        )?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1().unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value("longs", "Total cores"), Some(16.0));
        assert_eq!(t.value("tiger", "GHz"), Some(2.2));
    }

    #[test]
    fn table5_has_six_schemes() {
        assert_eq!(table5().unwrap().num_rows(), 6);
    }

    #[test]
    fn extra2_latencies_grow_with_distance() {
        let t = extra2().unwrap();
        let local = t.value("longs", "node0").unwrap();
        let far = t.value("longs", "farthest").unwrap();
        assert!(far > local + 100.0, "{local} -> {far}");
        assert!(t.value("dmz", "node0").unwrap() < local);
    }

    #[test]
    fn table6_atom_counts() {
        let t = table6().unwrap();
        assert_eq!(t.value("JAC", "Atoms"), Some(23_558.0));
        assert_eq!(t.value("gb_mb", "Atoms"), Some(2_492.0));
    }
}
