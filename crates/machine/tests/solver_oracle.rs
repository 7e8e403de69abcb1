//! Oracle property tests for the max-min rate solver.
//!
//! Golden bytes only say a refactor reproduced the old numbers; these
//! properties say the numbers are right. Every solution must be feasible
//! (no flow over its cap, no resource over its capacity) and carry the
//! max-min optimality certificate: each flow is either at its own cap, or
//! crosses a saturated resource on which no other flow runs faster. A
//! reused [`Solver`] must also return exactly what a fresh one-shot solve
//! returns, however the problems it saw before were shaped.
//!
//! [`reference_solve`] is a frozen copy of the straightforward
//! progressive-filling loop the solver started from. The solver may
//! reorganise its scratch however it likes, but its rates must stay
//! bit-equal to the reference and its attribution equal, fresh or reused.

use corescope_machine::flow::{
    solve_maxmin, solve_maxmin_attributed, Bottleneck, FlowSpec, ResourceIndex, ResourceTable,
    Solver,
};
use corescope_machine::Error;
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
        let cap = table.capacity(r);
        prop_assert!(u <= cap * (1.0 + TOL), "resource {r} over capacity: {u} > {cap}");
    }
    for (i, (f, &rate)) in flows.iter().zip(rates).enumerate() {
        if rate >= f.cap * (1.0 - TOL) {
            continue;
        }
        // Not at its cap: some saturated route resource must bottleneck
        // it, i.e. no flow crossing that resource runs faster.
        let bottlenecked = f.route.iter().any(|&r| {
            let cap = table.capacity(r);
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
                let cap = table.capacity(r);
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

/// The reference progressive-filling solve: every round walks every flow
/// and every resource of the table, with a `fixed` flag per flow. Returns
/// the rates and, when `attribute` is set, the bottleneck of each flow.
fn reference_solve(
    table: &ResourceTable,
    flows: &[FlowSpec],
    attribute: bool,
) -> Result<(Vec<f64>, Vec<Bottleneck>), Error> {
    let mut caps: Vec<f64> = Vec::new();
    let mut remaining: Vec<f64> = Vec::new();
    let mut usage: Vec<usize> = Vec::new();
    let mut fixed: Vec<bool> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut attribution: Vec<Bottleneck> = Vec::new();
    let flows = flows.iter();

    caps.clear();
    caps.extend((0..table.len()).map(|r| table.capacity(r)));
    let mut n = 0;
    for (i, f) in flows.clone().enumerate() {
        if !f.cap.is_finite() || f.cap < 0.0 {
            return Err(Error::InvalidSpec(format!("flow {i} has invalid cap {}", f.cap)));
        }
        for &r in &f.route {
            if r >= caps.len() {
                return Err(Error::InvalidSpec(format!(
                    "flow {i} references resource {r} outside table of {}",
                    caps.len()
                )));
            }
        }
        n += 1;
    }

    rates.clear();
    rates.resize(n, 0.0);
    attribution.clear();
    if attribute {
        attribution.resize(n, Bottleneck::FlowCap);
    }
    if n == 0 {
        return Ok((rates, attribution));
    }

    fixed.clear();
    fixed.resize(n, false);
    remaining.clear();
    remaining.extend_from_slice(&caps);
    // A flow listing the same resource twice consumes it twice (e.g. a
    // hairpin route) — count multiplicity.
    usage.clear();
    usage.resize(caps.len(), 0);
    for f in flows.clone() {
        for &r in &f.route {
            usage[r] += 1;
        }
    }

    let mut unfixed = n;
    // Immediately freeze exactly-zero-cap flows.
    for (i, f) in flows.clone().enumerate() {
        if f.cap <= 0.0 {
            fixed[i] = true;
            unfixed -= 1;
            for &r in &f.route {
                usage[r] -= 1;
            }
        }
    }

    while unfixed > 0 {
        // Smallest headroom: either a resource's fair increment or a
        // flow's distance to its own cap.
        let mut inc = f64::INFINITY;
        for (r, &rem) in remaining.iter().enumerate() {
            if usage[r] > 0 {
                inc = inc.min(rem.max(0.0) / usage[r] as f64);
            }
        }
        for (i, f) in flows.clone().enumerate() {
            if !fixed[i] {
                inc = inc.min(f.cap - rates[i]);
            }
        }
        debug_assert!(inc.is_finite(), "at least one limit must apply");
        let inc = inc.max(0.0);

        // Ramp all unfixed flows by `inc`.
        for (i, f) in flows.clone().enumerate() {
            if !fixed[i] {
                rates[i] += inc;
                for &r in &f.route {
                    remaining[r] -= inc;
                }
            }
        }

        // Freeze flows at their cap or on a saturated resource.
        let mut froze_any = false;
        for (i, f) in flows.clone().enumerate() {
            if fixed[i] {
                continue;
            }
            let at_cap = f.cap - rates[i] <= f.cap * REL_EPS;
            // When both limits bind in the same round, attribute the
            // freeze to the most contended saturated route resource.
            let mut saturated: Option<ResourceIndex> = None;
            for &r in &f.route {
                if remaining[r] <= caps[r] * REL_EPS {
                    let more_contended = saturated.is_none_or(|s| usage[r] > usage[s]);
                    if more_contended {
                        saturated = Some(r);
                    }
                }
            }
            if at_cap || saturated.is_some() {
                fixed[i] = true;
                unfixed -= 1;
                froze_any = true;
                for &r in &f.route {
                    usage[r] -= 1;
                }
                if attribute {
                    attribution[i] = match saturated {
                        Some(r) => Bottleneck::Resource(r),
                        None => Bottleneck::FlowCap,
                    };
                }
            }
        }
        debug_assert!(froze_any, "progressive filling must freeze at least one flow");
        if !froze_any {
            for (i, f) in flows.clone().enumerate() {
                if !fixed[i] {
                    fixed[i] = true;
                    unfixed -= 1;
                    for &r in &f.route {
                        usage[r] -= 1;
                    }
                }
            }
        }
    }
    Ok((rates, attribution))
}

/// Solves `raw` with `solver` and asserts rates bit-equal to the
/// reference and attribution equal, or the same error.
fn check_against_reference(
    solver: &mut Solver,
    raw: &RawProblem,
    attribute: bool,
) -> Result<(), TestCaseError> {
    let (table, flows) = build(raw);
    let (want_rates, want_attr) = reference_solve(&table, &flows, attribute).unwrap();
    if attribute {
        let (rates, attribution) = solver.solve_attributed(&table, &flows).unwrap();
        prop_assert_eq!(bits(rates), bits(&want_rates));
        prop_assert_eq!(attribution, want_attr.as_slice());
    } else {
        let rates = solver.solve(&table, &flows).unwrap();
        prop_assert_eq!(bits(rates), bits(&want_rates));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A fresh solve reproduces the reference bit for bit.
    #[test]
    fn fresh_solves_match_the_reference_bit_for_bit(raw in raw_problem(), attribute in 0u8..2) {
        check_against_reference(&mut Solver::new(), &raw, attribute == 1)?;
        let (table, flows) = build(&raw);
        let (want, want_attr) = reference_solve(&table, &flows, true).unwrap();
        let (rates, attribution) = solve_maxmin_attributed(&table, &flows).unwrap();
        prop_assert_eq!(bits(&rates), bits(&want));
        prop_assert_eq!(attribution, want_attr);
        prop_assert_eq!(bits(&solve_maxmin(&table, &flows).unwrap()), bits(&want));
    }

    /// One solver reused across problems whose tables and flow counts
    /// grow and shrink — with invalid problems mixed in — still matches
    /// the reference on every valid one: no per-resource scratch leaks
    /// between solves, and a failed solve leaves nothing behind.
    #[test]
    fn reused_solver_matches_the_reference_bit_for_bit(
        sequence in proptest::collection::vec((raw_problem(), 0u8..2, 0u8..8), 1..16),
    ) {
        let mut solver = Solver::new();
        for (raw, attribute, poison) in &sequence {
            if *poison == 0 {
                // An out-of-range route entry fails validation.
                let (table, mut flows) = build(raw);
                flows.push(FlowSpec::new(vec![0, table.len()], 1.0));
                prop_assert!(solver.solve(&table, &flows).is_err());
            }
            check_against_reference(&mut solver, raw, *attribute == 1)?;
        }
    }
}

#[test]
fn invalid_flows_fail_like_the_reference() {
    let mut table = ResourceTable::new();
    table.add("r0", 1.0);
    table.add("r1", 2.0);
    let cases = [
        vec![FlowSpec::new(vec![0], 1.0), FlowSpec::new(vec![1, 5], 1.0)],
        vec![FlowSpec::new(vec![7], f64::NAN), FlowSpec::new(vec![0], -1.0)],
        vec![FlowSpec::new(vec![0], 1.0), FlowSpec::new(vec![1], f64::INFINITY)],
    ];
    for flows in &cases {
        let want = reference_solve(&table, flows, false).unwrap_err();
        assert_eq!(Solver::new().solve(&table, flows).unwrap_err(), want);
        assert_eq!(solve_maxmin_attributed(&table, flows).unwrap_err(), want);
    }
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

/// One step of a memo workout over a shared table: `(kind, set,
/// attribute, (scaled, resource, factor), seed)`.
///
/// A kind of 0 solves ballast `seed`, a large flow set of its own: every
/// case first poses all twelve (six seeds, both attribution flags), which
/// fills the memo's budget, after which new problems are solved but not
/// stored until a capacity change empties the memo. Any other kind solves flow set `set` (taken
/// modulo the pool), under the shared table or, when `scaled` is 0, under
/// a copy with one resource's capacity zeroed, halved or doubled (the
/// next step restores it). An `attribute` of 1 asks for attribution.
type Step = (u8, usize, u8, (u8, usize, u8), u8);

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..4, 0u8..2, (0u8..4, 0usize..9, 0u8..3), 0u8..6)
}

/// Twelve thousand flows, each over two resources (or one twice), every
/// cap the same, so filling finishes in a few rounds.
fn ballast(seed: u8, resources: usize) -> Vec<FlowSpec> {
    (0..12_000)
        .map(|i| FlowSpec::new(vec![i % resources, (i + 1) % resources], 1.0 + f64::from(seed)))
        .collect()
}

/// The solver's answer must be the fresh one-shot answer, bit for bit.
fn check_fresh(
    solver: &mut Solver,
    table: &ResourceTable,
    flows: &[FlowSpec],
    attribute: bool,
) -> Result<(), TestCaseError> {
    if attribute {
        let (want, want_attr) = solve_maxmin_attributed(table, flows).unwrap();
        let (rates, attribution) = solver.solve_attributed(table, flows).unwrap();
        prop_assert_eq!(bits(rates), bits(&want));
        prop_assert_eq!(attribution, want_attr.as_slice());
    } else {
        let want = solve_maxmin(table, flows).unwrap();
        let rates = solver.solve(table, flows).unwrap();
        prop_assert_eq!(bits(rates), bits(&want));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One solver driven through repeats of a few flow sets over one
    /// table, with capacities changed and restored between calls,
    /// attributed and unattributed calls mixed, and ballast that fills
    /// the memo's budget before the first step, answers every call exactly
    /// as a fresh one-shot solve: a memoized answer is never stale, never
    /// another problem's, and never missing its attribution.
    #[test]
    fn memoized_answers_match_fresh_solves_bit_for_bit(
        raw in raw_problem(),
        pool in proptest::collection::vec(raw_problem(), 1..4),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        let (table, _) = build(&raw);
        let sets: Vec<Vec<FlowSpec>> =
            pool.iter().map(|(_, flows)| build(&(raw.0.clone(), flows.clone())).1).collect();
        let mut solver = Solver::new();
        // Fill the memo's budget first, so the steps below also meet a
        // memo that stores nothing new: twelve ballast problems cost more
        // than it holds. The first is stored and answered on a repeat; the
        // last was turned away and is filled again.
        let ballasts: Vec<(u8, bool)> =
            (0..6).flat_map(|seed| [(seed, false), (seed, true)]).collect();
        for &(seed, attribute) in &ballasts {
            check_fresh(&mut solver, &table, &ballast(seed, table.len()), attribute)?;
        }
        for ((seed, attribute), answered) in [(ballasts[0], 1), (ballasts[11], 0)] {
            let reused = solver.reused();
            check_fresh(&mut solver, &table, &ballast(seed, table.len()), attribute)?;
            prop_assert_eq!(solver.reused() - reused, answered, "ballast {} {}", seed, attribute);
        }
        for &(kind, set, attribute, (scaled, r, factor), seed) in &steps {
            let attribute = attribute == 1;
            if kind == 0 {
                check_fresh(&mut solver, &table, &ballast(seed, table.len()), attribute)?;
                continue;
            }
            let mut table = table.clone();
            if scaled == 0 {
                let r = r % table.len();
                let factor = [0.0, 0.5, 2.0][usize::from(factor)];
                table.set_capacity(r, table.capacity(r) * factor);
            }
            check_fresh(&mut solver, &table, &sets[set % sets.len()], attribute)?;
        }
        prop_assert_eq!(solver.solves(), ballasts.len() + 2 + steps.len());
    }
}

#[test]
fn the_memo_answers_exact_repeats_under_unchanged_capacities_only() {
    let mut table = ResourceTable::new();
    table.add("mc", 6.4e9);
    table.add("link", 2.0e9);
    let flows = [FlowSpec::new(vec![0], 3.7e9), FlowSpec::new(vec![0, 1], 3.7e9)];
    let mut solver = Solver::new();
    let mut reused = Vec::new();
    let mut solve = |solver: &mut Solver, table: &ResourceTable, attribute: bool| {
        check_fresh(solver, table, &flows, attribute).unwrap();
        reused.push(solver.reused());
    };
    solve(&mut solver, &table, false); // first sight
    solve(&mut solver, &table, false); // repeat: answered
    solve(&mut solver, &table, true); // attribution was never stored
    solve(&mut solver, &table, true); // repeat: answered
    table.set_capacity(1, 1.0e9);
    solve(&mut solver, &table, false); // degraded link: new problem
    table.set_capacity(1, 2.0e9);
    solve(&mut solver, &table, false); // restored: the memo emptied
    solve(&mut solver, &table, false); // repeat: answered
    assert_eq!(reused, [0, 1, 1, 2, 2, 2, 3]);
    assert_eq!(solver.solves(), 7);
}
