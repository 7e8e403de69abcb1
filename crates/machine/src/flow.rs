//! Shared-resource flows and the max-min fair rate solver.
//!
//! Every byte-moving activity in the simulator — a compute phase's DRAM
//! traffic, an MPI message crossing HyperTransport links — is a *flow*
//! over a route of resources (memory controllers, directed links), with a
//! per-flow rate cap (the core's Little's-law limit or the transport's
//! copy bandwidth). Rates are assigned by **progressive-filling max-min
//! fairness**: all flows ramp up together; when a resource saturates or a
//! flow hits its cap, the affected flows freeze and the rest continue.
//!
//! This is the standard fluid model for fair-shared interconnects and
//! reproduces the paper's contention effects: two cores streaming through
//! one DDR-400 controller each get half of it, while a cache-resident
//! DGEMM is never throttled.

use crate::error::{Error, Result};

/// Index of a resource in a [`ResourceTable`].
pub type ResourceIndex = usize;

/// A named, capacity-limited shared resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Human-readable name ("mc:socket0", "link:socket0->socket1").
    pub name: String,
    /// Capacity in bytes/s.
    pub capacity: f64,
}

/// The set of shared resources in a machine.
///
/// Built once per simulation; failure-injection tests may degrade
/// individual capacities with [`ResourceTable::set_capacity`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceTable {
    resources: Vec<Resource>,
}

impl ResourceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a resource and returns its index.
    pub fn add(&mut self, name: impl Into<String>, capacity: f64) -> ResourceIndex {
        self.resources.push(Resource { name: name.into(), capacity });
        self.resources.len() - 1
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// The resource at `index`.
    pub fn get(&self, index: ResourceIndex) -> &Resource {
        &self.resources[index]
    }

    /// Overrides a resource's capacity (failure injection / what-if).
    pub fn set_capacity(&mut self, index: ResourceIndex, capacity: f64) {
        self.resources[index].capacity = capacity;
    }
}

/// A flow demand handed to the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Resources the flow traverses (order irrelevant to the solver).
    pub route: Vec<ResourceIndex>,
    /// The flow's own maximum rate in bytes/s (must be finite and >= 0).
    pub cap: f64,
}

impl FlowSpec {
    /// Creates a flow over `route` with per-flow cap `cap`.
    pub fn new(route: Vec<ResourceIndex>, cap: f64) -> Self {
        Self { route, cap }
    }
}

/// What froze a flow during progressive filling.
///
/// Attribution is the solver-level half of the engine's bottleneck
/// accounting: every flow's rate stopped ramping either because the flow
/// hit its own cap (a core's Little's-law limit, a transport's copy
/// bandwidth) or because a shared resource on its route saturated (a
/// memory controller, a HyperTransport link, the coherence-probe fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// The flow reached its own rate cap (or had a zero cap to begin
    /// with).
    FlowCap,
    /// The flow froze because this route resource saturated.
    Resource(ResourceIndex),
}

/// Relative slack used to decide that a flow is at its cap or a resource
/// is saturated. Relative (not absolute) so that legitimately tiny caps
/// next to fast resources are never zero-rated, while accumulated f64
/// error over many filling rounds is still absorbed.
const REL_EPS: f64 = 1e-9;

/// Solves max-min fair rates for `flows` over `table`.
///
/// Returns one rate per flow, in input order. Flows with a zero cap or a
/// zero-capacity resource on their route receive rate 0; any positive
/// cap, however small, is a legitimate rate limit and is honoured.
///
/// # Errors
///
/// Returns [`Error::InvalidSpec`] if a flow references a resource outside
/// the table or has a non-finite cap.
pub fn solve_maxmin(table: &ResourceTable, flows: &[FlowSpec]) -> Result<Vec<f64>> {
    let mut solver = Solver::new();
    solver.solve(table, flows)?;
    Ok(solver.rates)
}

/// Like [`solve_maxmin`], also reporting which limit froze each flow.
///
/// The rates are bit-identical to [`solve_maxmin`]'s — attribution is
/// recorded on the side, never fed back into the arithmetic — so tracing
/// a run cannot perturb it.
///
/// # Errors
///
/// Same as [`solve_maxmin`].
pub fn solve_maxmin_attributed(
    table: &ResourceTable,
    flows: &[FlowSpec],
) -> Result<(Vec<f64>, Vec<Bottleneck>)> {
    let mut solver = Solver::new();
    solver.solve_attributed(table, flows)?;
    Ok((solver.rates, solver.attribution))
}

/// Progressive-filling max-min solver with reusable scratch buffers.
///
/// The engine re-solves rates on every change to its active flow set, so
/// it keeps one `Solver` per run: after the first few solves the buffers
/// have grown to the run's largest problem and a solve allocates nothing.
/// [`solve_maxmin`] and [`solve_maxmin_attributed`] are one-shot wrappers
/// over the same arithmetic, so a reused solver returns bit-identical
/// rates.
///
/// A solve first gathers each flow's cap and route into flat arrays, then
/// fills over an ascending list of unfixed flows and touches only the
/// resources some route uses. Per-resource scratch is sized to the largest
/// table seen; `usage` is all zero between solves, so a solve initializes
/// only the entries of the resources it routes over.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Each flow's cap, in input order.
    caps: Vec<f64>,
    /// Flow `i`'s route is `routes[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    routes: Vec<ResourceIndex>,
    /// Flows not yet frozen, ascending.
    unfixed: Vec<usize>,
    /// Resources on some positive-cap flow's route, each listed once.
    routed: Vec<ResourceIndex>,
    /// Capacity left per resource (valid for `routed` entries only).
    remaining: Vec<f64>,
    /// Count of unfixed flows using each resource.
    usage: Vec<usize>,
    rates: Vec<f64>,
    attribution: Vec<Bottleneck>,
}

impl Solver {
    /// Creates a solver with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves max-min fair rates for `flows` over `table`, exactly as
    /// [`solve_maxmin`] does, and returns them in iteration order.
    ///
    /// # Errors
    ///
    /// Same as [`solve_maxmin`].
    pub fn solve<'f>(
        &mut self,
        table: &ResourceTable,
        flows: impl IntoIterator<Item = &'f FlowSpec>,
    ) -> Result<&[f64]> {
        let flows = flows.into_iter().map(|f| (f.cap, f.route.as_slice()));
        Ok(self.fill(table, flows, false)?.0)
    }

    /// Like [`Solver::solve`], also reporting which limit froze each flow
    /// (see [`solve_maxmin_attributed`]).
    ///
    /// # Errors
    ///
    /// Same as [`solve_maxmin`].
    pub fn solve_attributed<'f>(
        &mut self,
        table: &ResourceTable,
        flows: impl IntoIterator<Item = &'f FlowSpec>,
    ) -> Result<(&[f64], &[Bottleneck])> {
        let flows = flows.into_iter().map(|f| (f.cap, f.route.as_slice()));
        self.fill(table, flows, true)
    }

    /// Solves for `(cap, route)` pairs and returns the rates in input
    /// order, plus each flow's bottleneck when `attribute` is set (an
    /// empty slice otherwise).
    pub(crate) fn fill<'f>(
        &mut self,
        table: &ResourceTable,
        flows: impl IntoIterator<Item = (f64, &'f [ResourceIndex])>,
        attribute: bool,
    ) -> Result<(&[f64], &[Bottleneck])> {
        let Self { caps, bounds, routes, unfixed, routed, remaining, usage, rates, attribution } =
            self;
        let resources = &table.resources;
        caps.clear();
        routes.clear();
        bounds.clear();
        bounds.push(0);
        for (i, (cap, route)) in flows.into_iter().enumerate() {
            if !cap.is_finite() || cap < 0.0 {
                return Err(Error::InvalidSpec(format!("flow {i} has invalid cap {cap}")));
            }
            if let Some(&r) = route.iter().find(|&&r| r >= resources.len()) {
                return Err(Error::InvalidSpec(format!(
                    "flow {i} references resource {r} outside table of {}",
                    resources.len()
                )));
            }
            caps.push(cap);
            routes.extend_from_slice(route);
            bounds.push(routes.len());
        }
        let n = caps.len();
        let route = |i: usize| &routes[bounds[i]..bounds[i + 1]];

        rates.clear();
        rates.resize(n, 0.0);
        attribution.clear();
        if attribute {
            attribution.resize(n, Bottleneck::FlowCap);
        }

        if usage.len() < resources.len() {
            usage.resize(resources.len(), 0);
            remaining.resize(resources.len(), 0.0);
        }
        // Exactly-zero-cap flows are frozen from the start and never
        // count. Tiny-but-positive caps are real rate limits and must
        // survive to the filling loop — an absolute epsilon here silently
        // zero-rated a 1 B/s flow whenever a GB/s resource shared the
        // table. A flow listing the same resource twice consumes it twice
        // (e.g. a hairpin route) — count multiplicity.
        unfixed.clear();
        routed.clear();
        for (i, &cap) in caps.iter().enumerate() {
            if cap <= 0.0 {
                continue;
            }
            unfixed.push(i);
            for &r in route(i) {
                if usage[r] == 0 {
                    routed.push(r);
                    remaining[r] = resources[r].capacity;
                }
                usage[r] += 1;
            }
        }

        while !unfixed.is_empty() {
            // Smallest headroom: either a resource's fair increment or a
            // flow's distance to its own cap.
            let mut inc = f64::INFINITY;
            for &r in routed.iter() {
                if usage[r] > 0 {
                    inc = inc.min(remaining[r].max(0.0) / usage[r] as f64);
                }
            }
            for &i in unfixed.iter() {
                inc = inc.min(caps[i] - rates[i]);
            }
            debug_assert!(inc.is_finite(), "at least one limit must apply");
            let inc = inc.max(0.0);

            // Ramp all unfixed flows by `inc`.
            for &i in unfixed.iter() {
                rates[i] += inc;
                for &r in route(i) {
                    remaining[r] -= inc;
                }
            }

            // Freeze flows at their cap or on a saturated resource, in
            // flow order. Slack is relative to the cap being compared
            // against (zero-capacity resources still satisfy `0 <= 0`).
            let before = unfixed.len();
            unfixed.retain(|&i| {
                let cap = caps[i];
                let at_cap = cap - rates[i] <= cap * REL_EPS;
                // When both limits bind in the same round, attribute the
                // freeze to a saturated shared resource — contention is the
                // informative cause — and among saturated route resources
                // pick the most contended one (highest unfixed-flow count,
                // counted after the flows frozen earlier in this pass).
                let mut saturated: Option<ResourceIndex> = None;
                for &r in route(i) {
                    if remaining[r] <= resources[r].capacity * REL_EPS {
                        let more_contended = saturated.is_none_or(|s| usage[r] > usage[s]);
                        if more_contended {
                            saturated = Some(r);
                        }
                    }
                }
                if !at_cap && saturated.is_none() {
                    return true;
                }
                for &r in route(i) {
                    usage[r] -= 1;
                }
                if attribute {
                    attribution[i] = match saturated {
                        Some(r) => Bottleneck::Resource(r),
                        None => Bottleneck::FlowCap,
                    };
                }
                false
            });
            debug_assert!(unfixed.len() < before, "progressive filling must freeze a flow");
            if unfixed.len() == before {
                // Defensive: avoid an infinite loop under pathological
                // floating-point behaviour by freezing everything.
                for &i in unfixed.iter() {
                    for &r in route(i) {
                        usage[r] -= 1;
                    }
                }
                unfixed.clear();
            }
        }
        Ok((rates, attribution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(caps: &[f64]) -> ResourceTable {
        let mut t = ResourceTable::new();
        for (i, &c) in caps.iter().enumerate() {
            t.add(format!("r{i}"), c);
        }
        t
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_resource() {
        let t = table(&[4.0e9]);
        let rates = solve_maxmin(&t, &[FlowSpec::new(vec![0], 3.0e9)]).unwrap();
        assert!((rates[0] - 3.0e9).abs() < 1.0);
        let rates = solve_maxmin(&t, &[FlowSpec::new(vec![0], 9.0e9)]).unwrap();
        assert!((rates[0] - 4.0e9).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_a_controller_fairly() {
        // The STREAM "second core" effect: both cores capped at 3.7 GB/s
        // individually, but the 6.4 GB/s controller limits each to 3.2.
        let t = table(&[6.4e9]);
        let flows = vec![FlowSpec::new(vec![0], 3.7e9), FlowSpec::new(vec![0], 3.7e9)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 3.2e9).abs() < 1.0);
        assert!((rates[1] - 3.2e9).abs() < 1.0);
    }

    #[test]
    fn capped_flow_releases_bandwidth_to_others() {
        let t = table(&[10.0e9]);
        let flows = vec![FlowSpec::new(vec![0], 1.0e9), FlowSpec::new(vec![0], 20.0e9)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 1.0e9).abs() < 1.0);
        assert!((rates[1] - 9.0e9).abs() < 1.0);
    }

    #[test]
    fn multi_resource_bottleneck() {
        // Flow A uses r0+r1, flow B uses r1 only; r1 is the bottleneck.
        let t = table(&[100.0, 10.0]);
        let flows = vec![FlowSpec::new(vec![0, 1], 1000.0), FlowSpec::new(vec![1], 1000.0)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // Classic max-min example: r0 cap 10 shared by A,B; r1 cap 100
        // used by B only; B should get more once A is frozen at 5.
        let t = table(&[10.0, 100.0]);
        let flows = vec![FlowSpec::new(vec![0], 5.0), FlowSpec::new(vec![0, 1], 1000.0)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9, "r0 still splits fairly: {rates:?}");
    }

    #[test]
    fn zero_capacity_resource_starves_flow() {
        let t = table(&[0.0, 10.0]);
        let flows = vec![FlowSpec::new(vec![0], 5.0), FlowSpec::new(vec![1], 5.0)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_route_flow_runs_at_cap() {
        let t = table(&[1.0]);
        let rates = solve_maxmin(&t, &[FlowSpec::new(Vec::new(), 7.0)]).unwrap();
        assert!((rates[0] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_out_of_range_resource() {
        let t = table(&[1.0]);
        assert!(solve_maxmin(&t, &[FlowSpec::new(vec![3], 1.0)]).is_err());
    }

    #[test]
    fn rejects_non_finite_cap() {
        let t = table(&[1.0]);
        assert!(solve_maxmin(&t, &[FlowSpec::new(vec![0], f64::INFINITY)]).is_err());
        assert!(solve_maxmin(&t, &[FlowSpec::new(vec![0], f64::NAN)]).is_err());
    }

    #[test]
    fn no_resource_oversubscribed() {
        // Random-ish mesh of flows; verify feasibility invariant.
        let t = table(&[7.0, 3.0, 11.0]);
        let flows = vec![
            FlowSpec::new(vec![0, 1], 10.0),
            FlowSpec::new(vec![1, 2], 10.0),
            FlowSpec::new(vec![0, 2], 10.0),
            FlowSpec::new(vec![2], 2.0),
        ];
        let rates = solve_maxmin(&t, &flows).unwrap();
        let mut used = [0.0; 3];
        for (f, &rate) in flows.iter().zip(&rates) {
            for &r in &f.route {
                used[r] += rate;
            }
        }
        for (r, &u) in used.iter().enumerate() {
            assert!(u <= t.get(r).capacity * (1.0 + 1e-9), "resource {r} oversubscribed: {u}");
        }
    }

    #[test]
    fn hairpin_route_counts_twice() {
        let t = table(&[10.0]);
        let rates = solve_maxmin(&t, &[FlowSpec::new(vec![0, 0], 100.0)]).unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_cap_flow_survives_next_to_a_fast_controller() {
        // Regression: the old absolute epsilon (max cap * 1e-12) silently
        // zero-rated any flow slower than ~10 mB/s on a 10 GB/s table.
        let t = table(&[10.0e9]);
        let flows = vec![FlowSpec::new(vec![0], 1.0), FlowSpec::new(vec![0], 20.0e9)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 1.0).abs() < 1e-6, "1 B/s flow zero-rated: {rates:?}");
        assert!((rates[1] - (10.0e9 - 1.0)).abs() < 1.0, "fast flow takes the rest: {rates:?}");
    }

    #[test]
    fn attribution_names_the_saturated_resource() {
        // Two uncapped-ish flows pinned by the shared controller.
        let t = table(&[6.4e9]);
        let flows = vec![FlowSpec::new(vec![0], 3.7e9), FlowSpec::new(vec![0], 3.7e9)];
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        assert!((rates[0] - 3.2e9).abs() < 1.0);
        assert_eq!(attr, vec![Bottleneck::Resource(0), Bottleneck::Resource(0)]);
    }

    #[test]
    fn attribution_reports_flow_cap_when_uncontended() {
        let t = table(&[10.0e9]);
        let flows = vec![FlowSpec::new(vec![0], 3.7e9)];
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        assert!((rates[0] - 3.7e9).abs() < 1.0);
        assert_eq!(attr, vec![Bottleneck::FlowCap]);
    }

    #[test]
    fn attribution_prefers_the_most_contended_resource() {
        // Four flows each cross a private controller (r0..r3, cap 10)
        // and all share r4 (cap 4): every flow freezes at 1.0 because of
        // r4, the resource with the highest unfixed-flow count.
        let t = table(&[10.0, 10.0, 10.0, 10.0, 4.0]);
        let flows: Vec<FlowSpec> = (0..4).map(|r| FlowSpec::new(vec![r, 4], 100.0)).collect();
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        for (&rate, &b) in rates.iter().zip(&attr) {
            assert!((rate - 1.0).abs() < 1e-9, "{rates:?}");
            assert_eq!(b, Bottleneck::Resource(4), "{attr:?}");
        }
    }

    #[test]
    fn attribution_covers_zero_cap_flows() {
        let t = table(&[10.0]);
        let flows = vec![FlowSpec::new(vec![0], 0.0), FlowSpec::new(vec![0], 100.0)];
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        assert_eq!(rates[0], 0.0);
        assert_eq!(attr[0], Bottleneck::FlowCap);
        assert!((rates[1] - 10.0).abs() < 1e-9);
        assert_eq!(attr[1], Bottleneck::Resource(0));
    }

    #[test]
    fn attributed_rates_match_plain_rates_exactly() {
        let t = table(&[7.0, 3.0, 11.0]);
        let flows = vec![
            FlowSpec::new(vec![0, 1], 10.0),
            FlowSpec::new(vec![1, 2], 10.0),
            FlowSpec::new(vec![0, 2], 10.0),
            FlowSpec::new(vec![2], 2.0),
            FlowSpec::new(vec![0, 0], 100.0),
        ];
        let plain = solve_maxmin(&t, &flows).unwrap();
        let (attributed, _) = solve_maxmin_attributed(&t, &flows).unwrap();
        // Bit-identical, not approximately equal: both paths run the same
        // arithmetic, so tracing can never perturb a simulation.
        assert_eq!(plain, attributed);
    }
}
