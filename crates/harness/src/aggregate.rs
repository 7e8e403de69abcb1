//! Group-by / percentile aggregation over campaign-store rows.
//!
//! The crash-safe store ([`corescope_store::Store`]) journals one
//! columnar [`Row`] per finished scenario; this module turns a pile of
//! those rows back into paper-style summary tables. Everything here is
//! deterministic: each group's makespans are sorted under a total order
//! before any statistic is read and groups are emitted in sorted-key
//! order, so the same set of rows — regardless of the order crashes,
//! resumes and segment scans produced them in — renders byte-identical
//! output.
//! That determinism is what the X9 artifact's kill-anywhere test
//! byte-diffs against.

use crate::report::{Cell, RowShapeError, Table};
use corescope_store::{DigestMap, DigestState, Row};
use std::collections::hash_map::{Entry, HashMap};

/// The axes a campaign summary groups by: one summary row per distinct
/// (system, workload, nranks) combination, mirroring how the paper's
/// tables slice their sweeps.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey {
    /// System key (`"tiger"`, `"dmz"`, `"longs"`).
    pub system: String,
    /// Workload kind (`"bsp"`, `"stream"`, …).
    pub workload: String,
    /// World size.
    pub nranks: u32,
}

/// Summary statistics for one group of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// The group's axes.
    pub key: GroupKey,
    /// Rows aggregated into this group.
    pub count: usize,
    /// Smallest makespan.
    pub min: f64,
    /// Median makespan (nearest-rank).
    pub p50: f64,
    /// 95th-percentile makespan (nearest-rank).
    pub p95: f64,
    /// Largest makespan.
    pub max: f64,
    /// Simulation events across the group.
    pub events: u64,
}

/// Nearest-rank percentile (`p` in `[0, 100]`) over an **ascending**
/// slice. Nearest-rank picks an actual sample — no interpolation — so
/// the result is bit-exact reproducible, which aggregate byte-identity
/// depends on. Empty input returns NaN.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Groups rows by [`GroupKey`] and computes per-group percentile
/// statistics. Input order does not matter: rows are deduplicated by
/// digest (last wins, matching the store's own scan semantics), each
/// group's makespans are sorted under [`f64::total_cmp`] before any
/// statistic is read, and groups come back sorted by key.
pub fn group_rows(rows: &[Row]) -> Vec<GroupSummary> {
    // Last-wins dedup in input order: each digest keeps one slot, which
    // later rows overwrite.
    let mut slot = DigestMap::with_capacity_and_hasher(rows.len(), DigestState::default());
    let mut latest: Vec<&Row> = Vec::with_capacity(rows.len());
    for row in rows {
        match slot.entry(row.digest) {
            Entry::Occupied(at) => latest[*at.get()] = row,
            Entry::Vacant(at) => {
                at.insert(latest.len());
                latest.push(row);
            }
        }
    }
    // Number the groups in first-seen order, then rank them by key.
    let mut ids: HashMap<(&str, &str, u32), usize> = HashMap::new();
    let mut events: Vec<u64> = Vec::new();
    let mut members: Vec<(usize, f64)> = Vec::with_capacity(latest.len());
    for row in latest {
        let id = *ids.entry((&*row.system, &*row.workload, row.nranks)).or_insert(events.len());
        if id == events.len() {
            events.push(0);
        }
        events[id] += row.events;
        members.push((id, row.makespan));
    }
    let mut keys: Vec<_> = ids.into_iter().collect();
    keys.sort_unstable();
    let mut rank = vec![0; keys.len()];
    for (r, &(_, id)) in keys.iter().enumerate() {
        rank[id] = r;
    }
    // One sort lays each group's makespans out together, ascending
    // under `total_cmp`, with the groups in key order.
    for member in &mut members {
        member.0 = rank[member.0];
    }
    members.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut makespans = Vec::with_capacity(members.len());
    members
        .chunk_by(|a, b| a.0 == b.0)
        .zip(keys)
        .map(|(group, ((system, workload, nranks), id))| {
            makespans.clear();
            makespans.extend(group.iter().map(|&(_, makespan)| makespan));
            GroupSummary {
                key: GroupKey {
                    system: system.to_string(),
                    workload: workload.to_string(),
                    nranks,
                },
                count: makespans.len(),
                min: makespans[0],
                p50: percentile(&makespans, 50.0),
                p95: percentile(&makespans, 95.0),
                max: makespans[makespans.len() - 1],
                events: events[id],
            }
        })
        .collect()
}

/// Renders grouped summaries as a [`Table`]: one row per group, labelled
/// `"<system> <workload> x<nranks>"`, with count / min / p50 / p95 / max
/// makespan columns (milliseconds, 6 decimals — enough to make any
/// numeric drift visible) and the group's event total.
pub fn campaign_table(title: &str, rows: &[Row]) -> Table {
    const COLUMNS: [&str; 7] = ["group", "runs", "min ms", "p50 ms", "p95 ms", "max ms", "events"];
    let mut table = Table::with_columns(title, &COLUMNS);
    for g in group_rows(rows) {
        // One cell per data column, by the array's type: the push
        // cannot fail.
        let cells: [Cell; COLUMNS.len() - 1] = [
            Cell::num_with(g.count as f64, 0),
            Cell::num_with(g.min * 1e3, 6),
            Cell::num_with(g.p50 * 1e3, 6),
            Cell::num_with(g.p95 * 1e3, 6),
            Cell::num_with(g.max * 1e3, 6),
            Cell::num_with(g.events as f64, 0),
        ];
        let _ = table.push_row(
            format!("{} {} x{}", g.key.system, g.key.workload, g.key.nranks),
            cells.into(),
        );
    }
    table
}

/// Renders a pivot-style sweep view: one labelled row per entry, one
/// value column per pivot-axis value, with `None` cells rendered as the
/// paper's em-dash (impossible or unplaceable configurations). Values
/// use [`Cell::num`]'s two-decimal formatting — exactly the cells the
/// figure artifacts used to assemble by hand, so tables migrated onto
/// this view stay byte-identical.
///
/// `columns` lists every column including the leading label column;
/// each row's value vector therefore has `columns.len() - 1` entries.
///
/// # Errors
///
/// [`RowShapeError`] for a row with another number of values.
pub fn pivot_table(
    title: &str,
    columns: &[&str],
    rows: &[(String, Vec<Option<f64>>)],
) -> Result<Table, RowShapeError> {
    let mut table = Table::with_columns(title, columns);
    for (label, values) in rows {
        table.push_row(
            label.clone(),
            values.iter().map(|v| v.map_or(Cell::Dash, Cell::num)).collect(),
        )?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn row(digest: u128, system: &str, nranks: u32, makespan: f64) -> Row {
        Row {
            digest,
            system: system.into(),
            workload: "bsp".into(),
            nranks,
            makespan,
            events: 10,
            ..Row::default()
        }
    }

    /// The digest-ordered `BTreeMap` grouping `group_rows` replaced:
    /// the parity oracle.
    fn group_rows_by_btree(rows: &[Row]) -> Vec<GroupSummary> {
        let mut by_digest: BTreeMap<u128, &Row> = BTreeMap::new();
        for row in rows {
            by_digest.insert(row.digest, row);
        }
        let mut groups: BTreeMap<GroupKey, Vec<&Row>> = BTreeMap::new();
        for row in by_digest.values() {
            let key = GroupKey {
                system: row.system.to_string(),
                workload: row.workload.to_string(),
                nranks: row.nranks,
            };
            groups.entry(key).or_default().push(row);
        }
        groups
            .into_iter()
            .map(|(key, members)| {
                let mut makespans: Vec<f64> = members.iter().map(|r| r.makespan).collect();
                makespans.sort_by(f64::total_cmp);
                GroupSummary {
                    key,
                    count: members.len(),
                    min: makespans[0],
                    p50: percentile(&makespans, 50.0),
                    p95: percentile(&makespans, 95.0),
                    max: makespans[makespans.len() - 1],
                    events: members.iter().map(|r| r.events).sum(),
                }
            })
            .collect()
    }

    /// A summary with its floats as bit patterns, so NaNs compare.
    fn bits(g: &GroupSummary) -> (GroupKey, usize, [u64; 4], u64) {
        let stats = [g.min, g.p50, g.p95, g.max].map(f64::to_bits);
        (g.key.clone(), g.count, stats, g.events)
    }

    /// Makespans that stress the ordering: signed zeros, NaNs of both
    /// signs and with a payload, infinities and ties.
    const MAKESPANS: [f64; 10] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        1.5,
        0.25,
    ];

    /// `n` rows drawn from `seed`: digests from a small pool, so
    /// duplicate digests (with different contents) are common.
    fn mixed_rows(seed: u64, n: usize) -> Vec<Row> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| Row {
                digest: u128::from(next() % 48),
                system: ["dmz", "longs", "tiger"][(next() % 3) as usize].into(),
                workload: ["bsp", "stream"][(next() % 2) as usize].into(),
                nranks: [2, 4, 8][(next() % 3) as usize],
                makespan: MAKESPANS[(next() % MAKESPANS.len() as u64) as usize],
                events: next() % 1000,
                ..Row::default()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hash grouping agrees with the `BTreeMap` oracle bit for
        /// bit, in input order and reversed (which changes the winner of
        /// every duplicate digest); the table is a function of these
        /// summaries, so it renders byte-identically.
        #[test]
        fn parity_group_rows_matches_the_btree_oracle(seed in 0u64..u64::MAX, n in 0usize..160) {
            let mut rows = mixed_rows(seed, n);
            for _ in 0..2 {
                let fast: Vec<_> = group_rows(&rows).iter().map(bits).collect();
                let oracle: Vec<_> = group_rows_by_btree(&rows).iter().map(bits).collect();
                prop_assert_eq!(fast, oracle);
                rows.reverse();
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn grouping_is_order_independent_and_dedups_by_digest() {
        let rows = vec![
            row(3, "dmz", 2, 0.3),
            row(1, "dmz", 2, 0.1),
            row(2, "longs", 4, 0.2),
            row(1, "dmz", 2, 0.1), // duplicate digest: one sample
        ];
        let mut shuffled = rows.clone();
        shuffled.reverse();
        let a = group_rows(&rows);
        let b = group_rows(&shuffled);
        assert_eq!(a, b, "input order must not matter");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].key.system, "dmz");
        assert_eq!(a[0].count, 2);
        assert_eq!((a[0].min, a[0].max), (0.1, 0.3));
        assert_eq!(a[1].key.system, "longs");
        assert_eq!(a[1].count, 1);
    }

    #[test]
    fn campaign_table_renders_identically_for_permuted_rows() {
        let rows = vec![row(5, "dmz", 2, 0.5), row(6, "dmz", 2, 0.25), row(7, "longs", 8, 0.125)];
        let mut reversed = rows.clone();
        reversed.reverse();
        let a = campaign_table("t", &rows).to_csv();
        let b = campaign_table("t", &reversed).to_csv();
        assert_eq!(a, b);
        assert!(a.contains("dmz bsp x2"), "{a}");
    }

    #[test]
    fn pivot_table_matches_the_hand_rolled_construction() {
        // The byte-identity contract the stream-figure migration leans
        // on: Some -> Cell::num, None -> Cell::Dash, nothing else.
        let rows = vec![
            ("1".to_string(), vec![Some(1.234), Some(5.678)]),
            ("16".to_string(), vec![None, Some(9.0)]),
        ];
        let view = pivot_table("t", &["Cores", "a", "b"], &rows).unwrap();

        let mut hand = Table::with_columns("t", &["Cores", "a", "b"]);
        hand.push_row("1", vec![Cell::num(1.234), Cell::num(5.678)]).unwrap();
        hand.push_row("16", vec![Cell::Dash, Cell::num(9.0)]).unwrap();
        assert_eq!(view.to_csv(), hand.to_csv());
        assert_eq!(view.value("16", "a"), None, "dash cells read back as missing");
        assert_eq!(view.value("16", "b"), Some(9.0));
    }
}
