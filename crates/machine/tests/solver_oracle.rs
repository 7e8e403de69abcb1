//! Oracle property tests for the max-min rate solver.
//!
//! Golden bytes only say a refactor reproduced the old numbers; these
//! properties say the numbers are right. Every solution must be feasible
//! (no flow over its cap, no resource over its capacity) and carry the
//! max-min optimality certificate: each flow is either at its own cap, or
//! crosses a saturated resource on which no other flow runs faster. A
//! reused [`Solver`] must also return exactly what a fresh one-shot solve
//! returns, however the problems it saw before were shaped.

use corescope_machine::flow::{
    solve_maxmin, solve_maxmin_attributed, FlowSpec, ResourceTable, Solver,
};
use proptest::prelude::*;

/// The solver's own relative slack for "at cap" and "saturated".
const REL_EPS: f64 = 1e-9;
/// Oracle slack: the solver's slack plus room for the f64 rounding of
/// re-summing rates in a different order than the solver subtracted them.
const TOL: f64 = 4.0 * REL_EPS;

/// One raw generated problem: capacities (a selector of 0 zeroes the
/// capacity) and flows (route entries are taken modulo the table size; a
/// selector of 0 zeroes the cap).
type RawProblem = (Vec<(f64, u8)>, Vec<(Vec<usize>, f64, u8)>);

fn build(raw: &RawProblem) -> (ResourceTable, Vec<FlowSpec>) {
    let (caps, flows) = raw;
    let mut table = ResourceTable::new();
    for (i, &(cap, zero)) in caps.iter().enumerate() {
        table.add(format!("r{i}"), if zero == 0 { 0.0 } else { cap });
    }
    let specs = flows
        .iter()
        .map(|(route, cap, zero)| {
            let route = route.iter().map(|&r| r % caps.len()).collect();
            FlowSpec::new(route, if *zero == 0 { 0.0 } else { *cap })
        })
        .collect();
    (table, specs)
}

/// Per-resource load (a flow listing a resource twice loads it twice).
fn loads(table: &ResourceTable, flows: &[FlowSpec], rates: &[f64]) -> Vec<f64> {
    let mut used = vec![0.0; table.len()];
    for (f, &rate) in flows.iter().zip(rates) {
        for &r in &f.route {
            used[r] += rate;
        }
    }
    used
}

/// Checks feasibility and the max-min optimality certificate.
fn check_certificate(
    table: &ResourceTable,
    flows: &[FlowSpec],
    rates: &[f64],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(rates.len(), flows.len());
    let used = loads(table, flows, rates);
    for (f, &rate) in flows.iter().zip(rates) {
        prop_assert!(rate >= 0.0, "negative rate {rate}");
        prop_assert!(rate <= f.cap * (1.0 + TOL), "rate {rate} over cap {}", f.cap);
    }
    for (r, &u) in used.iter().enumerate() {
        let cap = table.get(r).capacity;
        prop_assert!(u <= cap * (1.0 + TOL), "resource {r} over capacity: {u} > {cap}");
    }
    for (i, (f, &rate)) in flows.iter().zip(rates).enumerate() {
        if rate >= f.cap * (1.0 - TOL) {
            continue;
        }
        // Not at its cap: some saturated route resource must bottleneck
        // it, i.e. no flow crossing that resource runs faster.
        let bottlenecked = f.route.iter().any(|&r| {
            let cap = table.get(r).capacity;
            let saturated = used[r] >= cap * (1.0 - TOL);
            let fastest = flows
                .iter()
                .zip(rates)
                .filter(|(g, _)| g.route.contains(&r))
                .all(|(_, &other)| other <= rate * (1.0 + TOL) + cap * TOL);
            saturated && fastest
        });
        prop_assert!(
            bottlenecked,
            "flow {i} (rate {rate}, cap {}) is neither capped nor bottlenecked; \
             rates {rates:?}, loads {used:?}",
            f.cap
        );
    }
    Ok(())
}

fn raw_problem() -> impl Strategy<Value = RawProblem> {
    (
        proptest::collection::vec((1.0f64..1e4, 0u8..12), 1..9),
        proptest::collection::vec(
            (proptest::collection::vec(0usize..9, 0..5), 1e-3f64..2e4, 0u8..12),
            0..14,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every solution is feasible and max-min optimal.
    #[test]
    fn solutions_carry_the_maxmin_certificate(raw in raw_problem()) {
        let (table, flows) = build(&raw);
        let rates = solve_maxmin(&table, &flows).unwrap();
        check_certificate(&table, &flows, &rates)?;
    }

    /// A flow reported as frozen by a resource really crosses that
    /// resource, and the resource is saturated.
    #[test]
    fn attribution_names_a_saturated_route_resource(raw in raw_problem()) {
        let (table, flows) = build(&raw);
        let (rates, attribution) = solve_maxmin_attributed(&table, &flows).unwrap();
        let used = loads(&table, &flows, &rates);
        for (f, b) in flows.iter().zip(&attribution) {
            if let corescope_machine::Bottleneck::Resource(r) = *b {
                prop_assert!(f.route.contains(&r));
                let cap = table.get(r).capacity;
                prop_assert!(used[r] >= cap * (1.0 - TOL), "resource {r} not saturated");
            }
        }
    }

    /// One solver reused over a sequence of problems whose flow and
    /// resource counts grow and shrink returns, for every problem, rates
    /// (and attribution) bit-identical to a fresh one-shot solve: no
    /// scratch state leaks from one solve into the next.
    #[test]
    fn reused_solver_matches_fresh_solves_bit_for_bit(
        sequence in proptest::collection::vec((raw_problem(), 0u8..2), 1..10),
    ) {
        let mut solver = Solver::new();
        for (raw, attributed) in &sequence {
            let (table, flows) = build(raw);
            let fresh = solve_maxmin(&table, &flows).unwrap();
            if *attributed == 0 {
                let reused = solver.solve(&table, &flows).unwrap();
                prop_assert_eq!(bits(reused), bits(&fresh));
            } else {
                let (fresh_attr_rates, fresh_attr) =
                    solve_maxmin_attributed(&table, &flows).unwrap();
                let (reused, attribution) = solver.solve_attributed(&table, &flows).unwrap();
                prop_assert_eq!(bits(reused), bits(&fresh));
                prop_assert_eq!(bits(&fresh_attr_rates), bits(&fresh));
                prop_assert_eq!(attribution, fresh_attr.as_slice());
            }
        }
    }
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

#[test]
fn solver_accepts_borrowed_flows_in_any_container() {
    // The engine hands the solver an iterator over its live flow slots;
    // a filtered iterator must solve exactly like the equivalent slice.
    let mut table = ResourceTable::new();
    table.add("mc", 6.4e9);
    table.add("link", 2.0e9);
    let slots = [
        Some(FlowSpec::new(vec![0], 3.7e9)),
        None,
        Some(FlowSpec::new(vec![0, 1], 3.7e9)),
        None,
        Some(FlowSpec::new(vec![1], 1.0e9)),
    ];
    let live: Vec<FlowSpec> = slots.iter().flatten().cloned().collect();
    let mut solver = Solver::new();
    let from_slots = solver.solve(&table, slots.iter().flatten()).unwrap().to_vec();
    assert_eq!(bits(&from_slots), bits(&solve_maxmin(&table, &live).unwrap()));
}

#[test]
fn solver_reports_invalid_flows_like_the_one_shot_solve() {
    let mut table = ResourceTable::new();
    table.add("r0", 1.0);
    let mut solver = Solver::new();
    let bad_route = [FlowSpec::new(vec![3], 1.0)];
    assert_eq!(
        solver.solve(&table, &bad_route).unwrap_err(),
        solve_maxmin(&table, &bad_route).unwrap_err()
    );
    let bad_cap = [FlowSpec::new(vec![0], f64::NAN)];
    assert!(solver.solve(&table, &bad_cap).is_err());
    // A failed solve leaves the solver usable.
    let good = [FlowSpec::new(vec![0], 0.5)];
    assert_eq!(solver.solve(&table, &good).unwrap(), &[0.5]);
}
