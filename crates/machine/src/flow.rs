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
//!
//! A [`Solver`] reused over a run interns each distinct cap and route once
//! as a flow *kind*, and remembers the problems it has solved keyed by the
//! attribution flag and the flows' kind ids in order: a repeated flow set
//! is answered with the bits a new fill would produce.

use crate::error::{Error, Result};
use crate::keyhash::KeyHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a resource in a [`ResourceTable`].
pub type ResourceIndex = usize;

/// The shared resources of a machine: a name and a capacity in bytes/s
/// each, indexed by [`ResourceIndex`].
///
/// A [`Machine`](crate::Machine) builds its table once. A run copies only
/// the capacities, which faults change, and reads names from the machine;
/// failure-injection tests may degrade individual capacities with
/// [`ResourceTable::set_capacity`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceTable {
    /// Human-readable names ("mc:socket0", "link:socket0->socket1").
    names: Vec<String>,
    capacities: Vec<f64>,
}

impl ResourceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a resource and returns its index.
    pub fn add(&mut self, name: impl Into<String>, capacity: f64) -> ResourceIndex {
        self.names.push(name.into());
        self.capacities.push(capacity);
        self.capacities.len() - 1
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }

    /// The name of the resource at `index`.
    pub fn name(&self, index: ResourceIndex) -> &str {
        &self.names[index]
    }

    /// The capacity of the resource at `index`, in bytes/s.
    pub fn capacity(&self, index: ResourceIndex) -> f64 {
        self.capacities[index]
    }

    /// Every resource's capacity, by index.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Overrides a resource's capacity (failure injection / what-if).
    pub fn set_capacity(&mut self, index: ResourceIndex, capacity: f64) {
        self.capacities[index] = capacity;
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
    Ok(solve_once(table, flows, false)?.rates)
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
    let solver = solve_once(table, flows, true)?;
    Ok((solver.rates, solver.attribution))
}

/// One progressive filling on a fresh solver, bypassing the memo: the
/// one-shot solves are the reference a reused solver's answers, memoized
/// or not, must match bit for bit.
fn solve_once(table: &ResourceTable, flows: &[FlowSpec], attribute: bool) -> Result<Solver> {
    let mut solver = Solver::new();
    solver.write_specs(flows, attribute);
    solver.gather(table.capacities())?;
    solver.progressive_fill(table.capacities(), attribute);
    Ok(solver)
}

/// A distinct `(cap, route)` pair interned by a [`Solver`]: its index in
/// the solver's kind table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowKind(u32);

/// Progressive-filling max-min solver with reusable scratch buffers, a
/// table of the flow kinds it has seen, and a memo of the problems it has
/// solved.
///
/// The engine re-solves rates on every change to its active flow set, so
/// it keeps one `Solver` per run: after the first few solves the buffers
/// have grown to the run's largest problem and a solve allocates nothing.
/// [`solve_maxmin`] and [`solve_maxmin_attributed`] are one-shot wrappers
/// over the same arithmetic, so a reused solver returns bit-identical
/// rates.
///
/// Every flow is first interned as a *kind*: its cap's bits and its route,
/// stored once per run and named by a small id. The engine interns a flow
/// when it starts; [`Solver::solve`] interns each flow it is handed. A
/// problem is then its attribution flag and its flows' kind ids in order,
/// and that short list is the memo key. Simulated programs are loops, so
/// a run's live flow set keeps coming back to the same kinds, and filling
/// is a pure function of the caps, the routes, the table's capacities and
/// the attribution flag: the solver remembers every problem it filled
/// under the table's current capacities and answers a repeat from that
/// memo, with the bits a new fill would produce. The memo matches keys
/// exactly, empties whenever the table's capacities change, and stops
/// storing at a fixed budget (1 MiB).
///
/// On a miss the kinds are validated against the table and gathered into
/// flat cap and route-span arrays, and the solve fills over an ascending
/// list of unfixed flows, touching only the resources some route uses.
/// Per-resource scratch is sized to the largest table seen; `usage` is all
/// zero between solves, so a solve initializes only the entries of the
/// resources it routes over.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    kinds: Kinds,
    /// The problem being solved, as a memo key: the attribution flag, then
    /// each flow's kind id.
    key: Vec<u32>,
    /// Each flow's cap, in input order.
    caps: Vec<f64>,
    /// Flow `i`'s route is `kinds.routes[spans[i].0..spans[i].1]`.
    spans: Vec<(usize, usize)>,
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
    memo: Memo,
    /// Successful solves, and how many of them the memo answered.
    solves: usize,
    reused: usize,
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
        self.write_specs(flows, false);
        Ok(self.solve_key(table.capacities(), false)?.0)
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
        self.write_specs(flows, true);
        self.solve_key(table.capacities(), true)
    }

    /// Successful solves so far.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Successful solves answered from the memo instead of a new fill.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// The kind of a flow with cap `cap` over `route`, interned on first
    /// sight. Interning never fails: a kind is checked against the table
    /// when a solve first fills a problem holding it.
    pub(crate) fn intern(&mut self, cap: f64, route: &[ResourceIndex]) -> FlowKind {
        self.kinds.intern(cap, route)
    }

    /// Solves for flows of the given kinds over resources of the given
    /// capacities and returns the rates in input order, plus each flow's
    /// bottleneck when `attribute` is set (an empty slice otherwise).
    pub(crate) fn fill(
        &mut self,
        capacities: &[f64],
        kinds: impl IntoIterator<Item = FlowKind>,
        attribute: bool,
    ) -> Result<(&[f64], &[Bottleneck])> {
        self.key.clear();
        self.key.push(u32::from(attribute));
        self.key.extend(kinds.into_iter().map(|k| k.0));
        self.solve_key(capacities, attribute)
    }

    /// Interns `flows` and writes the problem into `key`.
    fn write_specs<'f>(&mut self, flows: impl IntoIterator<Item = &'f FlowSpec>, attribute: bool) {
        let Self { kinds, key, .. } = self;
        key.clear();
        key.push(u32::from(attribute));
        key.extend(flows.into_iter().map(|f| kinds.intern(f.cap, &f.route).0));
    }

    /// Answers the problem in `key` from the memo, or fills and stores it.
    fn solve_key(
        &mut self,
        capacities: &[f64],
        attribute: bool,
    ) -> Result<(&[f64], &[Bottleneck])> {
        self.memo.track(capacities);
        let hash = key_hash(&self.key);
        // A stored key passed validation under a table of the same
        // capacities, so a hit needs none.
        if let Some(entry) = self.memo.find(hash, &self.key) {
            self.solves += 1;
            self.reused += 1;
            return Ok(self.memo.answer(entry));
        }
        self.gather(capacities)?;
        self.solves += 1;
        self.progressive_fill(capacities, attribute);
        self.memo.insert(hash, &self.key, &self.rates, &self.attribution);
        Ok((&self.rates, &self.attribution))
    }

    /// Validates the kinds in `key` against a table of
    /// `capacities.len()` resources, in flow order, and gathers their caps
    /// and route spans into `caps` and `spans`.
    fn gather(&mut self, capacities: &[f64]) -> Result<()> {
        let Self { kinds, key, caps, spans, .. } = self;
        let resources = capacities.len();
        caps.clear();
        spans.clear();
        for (i, &id) in key[1..].iter().enumerate() {
            let kind = &kinds.kinds[id as usize];
            kind.check(i, &kinds.routes, resources)?;
            caps.push(kind.cap);
            spans.push(kind.span);
        }
        Ok(())
    }

    /// Progressive filling over the gathered problem: leaves the rates in
    /// `rates` and, when `attribute` is set, each flow's bottleneck in
    /// `attribution`.
    fn progressive_fill(&mut self, capacities: &[f64], attribute: bool) {
        let Self {
            kinds, caps, spans, unfixed, routed, remaining, usage, rates, attribution, ..
        } = self;
        let n = caps.len();
        let route = |i: usize| &kinds.routes[spans[i].0..spans[i].1];

        rates.clear();
        rates.resize(n, 0.0);
        attribution.clear();
        if attribute {
            attribution.resize(n, Bottleneck::FlowCap);
        }

        if usage.len() < capacities.len() {
            usage.resize(capacities.len(), 0);
            remaining.resize(capacities.len(), 0.0);
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
                    remaining[r] = capacities[r];
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
                    if remaining[r] <= capacities[r] * REL_EPS {
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
    }
}

/// Every distinct `(cap, route)` pair a [`Solver`] was handed, each stored
/// once with its route in a flat arena. A run sees few of them (at most
/// 192 on the `--quick` sweep, 10 on average), because its flows come
/// from a few program ops over a few socket pairs.
#[derive(Debug, Clone, Default)]
struct Kinds {
    /// The first kind stored under each hash of a cap and route; later
    /// kinds under a taken hash are chained through [`Kind::next`].
    index: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    kinds: Vec<Kind>,
    /// Every kind's route, concatenated.
    routes: Vec<ResourceIndex>,
}

/// One interned `(cap, route)` pair.
#[derive(Debug, Clone, Copy)]
struct Kind {
    cap: f64,
    /// The route is `routes[span.0..span.1]` in [`Kinds`].
    span: (usize, usize),
    /// One more than the route's largest resource index (0 for an empty
    /// route): the kind fits any table of at least this many resources.
    reach: usize,
    /// The next kind stored under the same hash, if any.
    next: Option<u32>,
}

impl Kind {
    /// Fails exactly as a one-shot solve of flow `i` of this kind fails
    /// over a table of `resources` resources: a bad cap first, then the
    /// route's first resource outside the table.
    fn check(&self, i: usize, routes: &[ResourceIndex], resources: usize) -> Result<()> {
        let cap = self.cap;
        if !cap.is_finite() || cap < 0.0 {
            return Err(Error::InvalidSpec(format!("flow {i} has invalid cap {cap}")));
        }
        if self.reach > resources {
            let route = &routes[self.span.0..self.span.1];
            let r = route.iter().find(|&&r| r >= resources).expect("the reach lies on the route");
            return Err(Error::InvalidSpec(format!(
                "flow {i} references resource {r} outside table of {resources}"
            )));
        }
        Ok(())
    }
}

/// The hash a kind is indexed by. The route's length goes first: a zero
/// word leaves a zero state as it was, so zero-led routes of different
/// lengths would otherwise share a hash. The bytes are swapped for the
/// map's bucket bits, as in [`key_hash`].
fn kind_hash(cap: f64, route: &[ResourceIndex]) -> u64 {
    let mut hasher = KeyHasher::default();
    hasher.add(route.len() as u64);
    hasher.add(cap.to_bits());
    for &r in route {
        hasher.add(r as u64);
    }
    hasher.finish().swap_bytes()
}

impl Kinds {
    fn intern(&mut self, cap: f64, route: &[ResourceIndex]) -> FlowKind {
        let hash = kind_hash(cap, route);
        let fresh = u32::try_from(self.kinds.len()).expect("fewer than 2^32 flow kinds per run");
        let mut at = *self.index.entry(hash).or_insert(fresh);
        while at != fresh {
            let kind = &mut self.kinds[at as usize];
            if kind.cap.to_bits() == cap.to_bits()
                && self.routes[kind.span.0..kind.span.1] == *route
            {
                return FlowKind(at);
            }
            at = *kind.next.get_or_insert(fresh);
        }
        let start = self.routes.len();
        self.routes.extend_from_slice(route);
        self.kinds.push(Kind {
            cap,
            span: (start, self.routes.len()),
            reach: route.iter().max().map_or(0, |&r| r.saturating_add(1)),
            next: None,
        });
        FlowKind(fresh)
    }
}

/// The memo's budget in 8-byte words (1 MiB). Once the keys, answers and
/// entries fill it, new problems are still solved but no longer stored.
const MEMO_WORDS: usize = 1 << 17;

/// Every problem a [`Solver`] filled under the table's current capacities,
/// with its answer.
///
/// **Key.** The attribution flag, then every flow's kind id in order, one
/// `u32` each (see [`Solver`]). A kind id names one cap and route for the
/// whole run, so equal keys are equal problems. A key is matched by exact
/// comparison with the stored key its hash names; two keys sharing a hash
/// cost the later one its place, never its answer.
///
/// **Validity.** An answer holds only under the capacities it was filled
/// under. The memo keeps a snapshot of the table's capacity bits and
/// empties itself before a solve under a table that differs from it (a
/// degraded, failed or restored resource, or another table altogether).
/// The kind table does not depend on capacities and is kept.
///
/// **Budget.** Keys and rates live in flat arenas charged, with each
/// entry's bookkeeping, against [`MEMO_WORDS`]; two key ids make a word.
/// An attributed entry's bottlenecks ride along uncharged (at most two
/// words per stored rate), so a traced run, which attributes every solve,
/// stores exactly the problems its untraced twin stores and reuses as
/// often. Storing is first come, first served: on the `--quick` sweep that
/// answers more solves than emptying the memo whenever it is full.
#[derive(Debug, Clone, Default)]
struct Memo {
    /// Capacity bits of the table every entry was filled under.
    capacities: Vec<u64>,
    /// Where each stored problem sits in the arenas, by its key's hash.
    entries: HashMap<u64, Stored, BuildHasherDefault<KeyHasher>>,
    keys: Vec<u32>,
    rates: Vec<f64>,
    attribution: Vec<Bottleneck>,
}

/// Where one stored problem's key and answer sit in the arenas.
#[derive(Debug, Clone, Copy)]
struct Stored {
    key_at: u32,
    key_len: u32,
    /// First rate (and, when attributed, first bottleneck) of the answer.
    rates_at: u32,
    attribution_at: u32,
    flows: u32,
}

/// Words one entry's bookkeeping costs: its hash, its [`Stored`] and the
/// map's spare slots.
const ENTRY_WORDS: usize = 2 * (1 + std::mem::size_of::<Stored>().div_ceil(8));

/// The hash of a memo key, folded in four independent lanes so the
/// multiplies of neighbouring words overlap; each lane word packs two
/// ids. The key's length is folded in too: ids start at zero, and a zero
/// word leaves a zero state as it was. The fold mixes best into the high bits and the map picks a bucket
/// from the low ones, so the bytes are swapped. Four lanes rather than
/// one, and swapped bytes rather than the fold's own, each measured about
/// a tenth more `suite` throughput.
fn key_hash(key: &[u32]) -> u64 {
    let pair = |p: &[u32]| u64::from(p[0]) | u64::from(p[1]) << 32;
    let mut lanes = [KeyHasher::default(); 4];
    let mut octets = key.chunks_exact(8);
    for octet in &mut octets {
        for (lane, p) in lanes.iter_mut().zip(octet.chunks_exact(2)) {
            lane.add(pair(p));
        }
    }
    let mut hasher = KeyHasher::default();
    hasher.add(key.len() as u64);
    let rest = octets.remainder().iter().map(|&id| u64::from(id));
    for word in lanes.iter().map(Hasher::finish).chain(rest) {
        hasher.add(word);
    }
    hasher.finish().swap_bytes()
}

/// An arena offset as a [`Stored`] field. The budget keeps every arena
/// far below 2^32 entries.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("the memo budget bounds its arenas")
}

impl Memo {
    /// Empties the memo unless `capacities` are the ones its entries were
    /// filled under.
    fn track(&mut self, capacities: &[f64]) {
        if capacities.len() == self.capacities.len()
            && capacities.iter().zip(&self.capacities).all(|(c, &bits)| c.to_bits() == bits)
        {
            return;
        }
        self.capacities.clear();
        self.capacities.extend(capacities.iter().map(|c| c.to_bits()));
        self.entries.clear();
        self.keys.clear();
        self.rates.clear();
        self.attribution.clear();
    }

    /// Words charged against [`MEMO_WORDS`] with `ids` more key ids and
    /// `rates` more rates stored.
    fn words_with(&self, ids: usize, rates: usize) -> usize {
        (self.keys.len() + ids).div_ceil(2)
            + self.rates.len()
            + rates
            + ENTRY_WORDS * self.entries.len()
    }

    /// Words charged against [`MEMO_WORDS`].
    #[cfg(test)]
    fn words(&self) -> usize {
        self.words_with(0, 0)
    }

    /// The entry holding exactly `key`, if any.
    fn find(&self, hash: u64, key: &[u32]) -> Option<Stored> {
        let stored = *self.entries.get(&hash)?;
        let at = stored.key_at as usize;
        (self.keys[at..][..stored.key_len as usize] == *key).then_some(stored)
    }

    /// The stored rates and attribution (empty when unattributed).
    fn answer(&self, stored: Stored) -> (&[f64], &[Bottleneck]) {
        let flows = stored.flows as usize;
        let rates = &self.rates[stored.rates_at as usize..][..flows];
        // The key's first id is the attribution flag.
        let attribution = if self.keys[stored.key_at as usize] == 1 {
            &self.attribution[stored.attribution_at as usize..][..flows]
        } else {
            &[]
        };
        (rates, attribution)
    }

    /// Stores `key`'s answer, unless that would exceed the budget.
    fn insert(&mut self, hash: u64, key: &[u32], rates: &[f64], attribution: &[Bottleneck]) {
        if self.words_with(key.len(), rates.len()) + ENTRY_WORDS > MEMO_WORDS {
            return;
        }
        let Entry::Vacant(slot) = self.entries.entry(hash) else { return };
        slot.insert(Stored {
            key_at: offset(self.keys.len()),
            key_len: offset(key.len()),
            rates_at: offset(self.rates.len()),
            attribution_at: offset(self.attribution.len()),
            flows: offset(rates.len()),
        });
        self.keys.extend_from_slice(key);
        self.rates.extend_from_slice(rates);
        self.attribution.extend_from_slice(attribution);
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
            assert!(u <= t.capacity(r) * (1.0 + 1e-9), "resource {r} oversubscribed: {u}");
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
    fn equal_caps_and_routes_intern_once() {
        let mut solver = Solver::new();
        let a = solver.intern(3.7e9, &[0, 2, 4]);
        let b = solver.intern(1.0e9, &[0, 2, 4]);
        assert_eq!(solver.intern(3.7e9, &[0, 2, 4]), a);
        assert_eq!(solver.intern(1.0e9, &[0, 2, 4]), b);
        assert_ne!(a, b);
        // Solving flow specs interns through the same table.
        let t = table(&[10.0e9, 1.0, 10.0e9, 1.0, 10.0e9]);
        solver.solve(&t, &[FlowSpec::new(vec![0, 2, 4], 3.7e9)]).unwrap();
        assert_eq!(solver.kinds.kinds.len(), 2);
        assert_eq!(solver.kinds.routes, [0, 2, 4, 0, 2, 4]);
    }

    #[test]
    fn a_one_bit_cap_change_or_a_reordered_route_is_a_new_kind() {
        let mut solver = Solver::new();
        let cap = 3.7e9;
        let base = solver.intern(cap, &[0, 1, 2]);
        let kinds = [
            solver.intern(f64::from_bits(cap.to_bits() ^ 1), &[0, 1, 2]),
            solver.intern(cap, &[2, 1, 0]),
            solver.intern(cap, &[0, 1]),
            solver.intern(cap, &[0, 1, 2, 2]),
            solver.intern(-0.0, &[]),
            solver.intern(0.0, &[]),
            solver.intern(0.0, &[0]),
            solver.intern(0.0, &[0, 0]),
        ];
        let mut all = vec![base];
        for kind in kinds {
            assert!(!all.contains(&kind), "{kind:?} reuses an earlier kind");
            all.push(kind);
        }
    }

    #[test]
    fn a_kind_under_a_taken_hash_is_chained_not_confused() {
        let mut solver = Solver::new();
        let first = solver.intern(1.0, &[0]);
        // Pretend a second kind hashes like the first.
        let hash = kind_hash(2.0, &[1]);
        solver.kinds.index.insert(hash, first.0);
        let second = solver.intern(2.0, &[1]);
        assert_ne!(second, first);
        assert_eq!(solver.intern(2.0, &[1]), second);
        assert_eq!(solver.intern(1.0, &[0]), first);
        assert_eq!(solver.kinds.kinds.len(), 2);
    }

    #[test]
    fn bad_kinds_fail_with_the_flow_index_of_the_solve() {
        let t = table(&[1.0, 2.0]);
        let err = |flows: &[FlowSpec]| match Solver::new().solve(&t, flows) {
            Err(Error::InvalidSpec(text)) => text,
            other => panic!("expected InvalidSpec, got {other:?}"),
        };
        let good = FlowSpec::new(vec![0], 1.0);
        assert_eq!(
            err(&[good.clone(), FlowSpec::new(vec![1, 5, 7], 1.0)]),
            "flow 1 references resource 5 outside table of 2"
        );
        assert_eq!(
            err(&[FlowSpec::new(vec![7], f64::NAN), good.clone()]),
            "flow 0 has invalid cap NaN"
        );
        assert_eq!(err(&[good.clone(), FlowSpec::new(vec![0], -1.0)]), "flow 1 has invalid cap -1");
        assert_eq!(
            err(&[FlowSpec::new(vec![usize::MAX], 1.0)]),
            format!("flow 0 references resource {} outside table of 2", usize::MAX)
        );
        // A kind that fits one table is checked again against a smaller
        // one, under its index in that solve.
        let mut solver = Solver::new();
        let wide = [good.clone(), good.clone(), FlowSpec::new(vec![2], 1.0)];
        solver.solve(&table(&[1.0, 2.0, 3.0]), &wide).unwrap();
        assert_eq!(
            solver.solve(&t, &wide).unwrap_err(),
            Error::InvalidSpec("flow 2 references resource 2 outside table of 2".to_string())
        );
    }

    #[test]
    fn memo_matches_keys_exactly_not_by_hash() {
        let mut memo = Memo::default();
        memo.track(&[1.0]);
        memo.insert(7, &[0, 1, 2], &[1.0], &[]);
        assert!(memo.find(7, &[0, 1, 2]).is_some());
        assert!(memo.find(7, &[0, 1, 3]).is_none(), "a shared hash is not a match");
        assert!(memo.find(7, &[0, 1]).is_none(), "a key's prefix is not a match");
        // A second key under the same hash is not stored, and does not
        // displace the first.
        memo.insert(7, &[0, 1, 3], &[2.0], &[]);
        assert!(memo.find(7, &[0, 1, 3]).is_none());
        let stored = memo.find(7, &[0, 1, 2]).unwrap();
        assert_eq!(memo.answer(stored), (&[1.0][..], &[][..]));
    }

    #[test]
    fn a_full_memo_still_solves_but_stores_nothing_new() {
        let t = table(&[10.0, 20.0, 30.0, 40.0]);
        // Distinct problems of a thousand flows, each solved in one round.
        let ballast = |k: usize| -> Vec<FlowSpec> {
            (0..1000).map(|i| FlowSpec::new(vec![i % 4], 1.0 + k as f64)).collect()
        };
        let mut solver = Solver::new();
        let mut k = 0;
        loop {
            let stored = solver.memo.entries.len();
            solver.solve(&t, &ballast(k)).unwrap();
            k += 1;
            if solver.memo.entries.len() == stored {
                break;
            }
        }
        let words = solver.memo.words();
        assert!(words <= MEMO_WORDS, "{words} words stored");
        assert!(k > 2, "the budget holds more than one problem");
        // The problem that did not fit is solved again, not answered.
        let (stored, reused) = (solver.memo.entries.len(), solver.reused());
        let late = ballast(k - 1);
        let rates = solver.solve(&t, &late).unwrap();
        assert_eq!(rates, solve_maxmin(&t, &late).unwrap().as_slice());
        assert_eq!((solver.memo.entries.len(), solver.reused()), (stored, reused));
        // What was stored before the budget ran out is still answered.
        let first = solver.solve(&t, &ballast(0)).unwrap().to_vec();
        assert_eq!(first, solve_maxmin(&t, &ballast(0)).unwrap());
        assert_eq!(solver.reused(), reused + 1);
    }

    #[test]
    fn a_full_memo_empties_on_a_capacity_change_and_stores_again() {
        let mut t = table(&[10.0, 20.0, 30.0, 40.0]);
        let ballast = |k: usize| -> Vec<FlowSpec> {
            (0..3000).map(|i| FlowSpec::new(vec![i % 4, (i + k) % 4], 1.0 + k as f64)).collect()
        };
        let mut solver = Solver::new();
        for k in 0.. {
            let stored = solver.memo.entries.len();
            solver.solve(&t, &ballast(k)).unwrap();
            if solver.memo.entries.len() == stored {
                break;
            }
        }
        // Full: an attributed repeat of a stored problem is a new problem,
        // solved fresh and not stored; the plain one is answered.
        let stored = solver.memo.entries.len();
        let (rates, attribution) = solver.solve_attributed(&t, &ballast(0)).unwrap();
        let (want, want_attribution) = solve_maxmin_attributed(&t, &ballast(0)).unwrap();
        assert_eq!((rates, attribution), (want.as_slice(), want_attribution.as_slice()));
        assert_eq!(solver.memo.entries.len(), stored);
        let reused = solver.reused();
        assert_eq!(solver.solve(&t, &ballast(0)).unwrap(), want.as_slice());
        assert_eq!(solver.reused(), reused + 1);
        // A halved resource empties the memo: the repeat is solved under
        // the new capacity, stored, and answered next time.
        t.set_capacity(1, 10.0);
        let halved = solve_maxmin(&t, &ballast(0)).unwrap();
        assert_ne!(halved, want);
        assert_eq!(solver.solve(&t, &ballast(0)).unwrap(), halved.as_slice());
        assert_eq!(solver.memo.entries.len(), 1);
        assert_eq!(solver.solve(&t, &ballast(0)).unwrap(), halved.as_slice());
        assert_eq!(solver.reused(), reused + 2);
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
