//! Collective communication algorithms.
//!
//! Real message schedules, not analytic formulas: each collective expands
//! into the point-to-point rounds the classic MPICH algorithms use, so
//! topology, lock costs and link contention shape collective performance
//! exactly as they shaped the paper's NAS/HPCC results.

use crate::comm::CommWorld;

impl CommWorld<'_> {
    /// Binomial-tree broadcast of `bytes` from `root`.
    pub fn bcast(&mut self, root: usize, bytes: f64) -> &mut Self {
        let n = self.size();
        if n <= 1 {
            return self;
        }
        let vrank = |r: usize| (r + n - root) % n;
        let unvrank = |v: usize| (v + root) % n;

        // Precompute one tag per tree edge so sender and receiver agree:
        // the parent of virtual rank v is v with its lowest set bit
        // cleared.
        let mut tag_of = std::collections::HashMap::new();
        for v in 1..n {
            let low = v & v.wrapping_neg();
            tag_of.insert((unvrank(v - low), unvrank(v)), self.fresh_tag());
        }

        // Per rank: receive from the parent (except root), then send to
        // children from the highest mask down.
        for r in 0..n {
            let v = vrank(r);
            let mut mask;
            if v == 0 {
                mask = n.next_power_of_two();
            } else {
                let low = v & v.wrapping_neg();
                let parent = unvrank(v - low);
                self.recv(r, parent, tag_of[&(parent, r)]);
                mask = low;
            }
            mask >>= 1;
            while mask > 0 {
                if v + mask < n {
                    let dst = unvrank(v + mask);
                    self.send(r, dst, bytes, tag_of[&(r, dst)]);
                }
                mask >>= 1;
            }
        }
        self
    }

    /// Recursive-doubling allreduce of `bytes` per rank (general *n*:
    /// non-power-of-two ranks fold into the power-of-two core first).
    pub fn allreduce(&mut self, bytes: f64) -> &mut Self {
        let n = self.size();
        if n <= 1 {
            return self;
        }
        let p = prev_power_of_two(n);

        // Fold: ranks p..n send their contribution to r - p.
        for extra in p..n {
            self.p2p(extra, extra - p, bytes);
        }
        // Recursive doubling among ranks 0..p.
        let mut mask = 1;
        while mask < p {
            // All pairs in this round exchange simultaneously.
            for r in 0..p {
                let partner = r ^ mask;
                if r < partner {
                    self.sendrecv(r, partner, bytes);
                }
            }
            mask <<= 1;
        }
        // Unfold: results back to the folded ranks.
        for extra in p..n {
            self.p2p(extra - p, extra, bytes);
        }
        self
    }

    /// Pairwise-exchange all-to-all: every rank sends `bytes_per_pair` to
    /// every other rank over *n - 1* shifted rounds (the MPICH long-
    /// message algorithm, and the traffic pattern behind NAS FT's
    /// transpose).
    #[allow(clippy::needless_range_loop)] // r is a rank id, not just an index
    pub fn alltoall(&mut self, bytes_per_pair: f64) -> &mut Self {
        let n = self.size();
        for shift in 1..n {
            let tags: Vec<u64> = (0..n).map(|_| self.fresh_tag()).collect();
            for r in 0..n {
                self.send(r, (r + shift) % n, bytes_per_pair, tags[r]);
            }
            for r in 0..n {
                let src = (r + n - shift) % n;
                self.recv(r, src, tags[src]);
            }
        }
        self
    }

    /// Ring allgather: *n - 1* steps, each rank forwarding `bytes` to its
    /// right neighbour.
    pub fn allgather(&mut self, bytes: f64) -> &mut Self {
        let n = self.size();
        for _ in 1..n {
            self.ring_shift(bytes);
        }
        self
    }

    /// One ring step: every rank sends `bytes` right and receives from the
    /// left (the HPCC ring bandwidth pattern).
    #[allow(clippy::needless_range_loop)] // r is a rank id, not just an index
    pub fn ring_shift(&mut self, bytes: f64) -> &mut Self {
        let n = self.size();
        if n <= 1 {
            return self;
        }
        let tags: Vec<u64> = (0..n).map(|_| self.fresh_tag()).collect();
        for r in 0..n {
            self.send(r, (r + 1) % n, bytes, tags[r]);
        }
        for r in 0..n {
            let src = (r + n - 1) % n;
            self.recv(r, src, tags[src]);
        }
        self
    }

    /// One IMB *Exchange* iteration: every rank exchanges `bytes` with
    /// both chain neighbours (periodic boundary), i.e. two sends and two
    /// receives per rank.
    pub fn exchange_step(&mut self, bytes: f64) -> &mut Self {
        let n = self.size();
        if n <= 1 {
            return self;
        }
        let left_tags: Vec<u64> = (0..n).map(|_| self.fresh_tag()).collect();
        let right_tags: Vec<u64> = (0..n).map(|_| self.fresh_tag()).collect();
        for r in 0..n {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            self.send(r, left, bytes, left_tags[r]);
            self.send(r, right, bytes, right_tags[r]);
        }
        for r in 0..n {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            // Our left neighbour sent us its "right" message and vice
            // versa.
            self.recv(r, left, right_tags[left]);
            self.recv(r, right, left_tags[right]);
        }
        self
    }

    /// Recursive-doubling exchange restricted to a subgroup of ranks
    /// (e.g. the per-socket master ranks of a hybrid run): log₂|group|
    /// rounds of pairwise sendrecv carrying `bytes` each.
    pub fn sendrecv_among(&mut self, group: &[usize], bytes: f64) -> &mut Self {
        let mut mask = 1;
        while mask < group.len() {
            for (idx, &r) in group.iter().enumerate() {
                let pidx = idx ^ mask;
                if pidx < group.len() && idx < pidx {
                    self.sendrecv(r, group[pidx], bytes);
                }
            }
            mask <<= 1;
        }
        self
    }

    /// Nearest-neighbour halo exchange on a 1-D decomposition without the
    /// periodic wrap (POP's baroclinic pattern reduced to one dimension).
    pub fn halo_1d(&mut self, bytes: f64) -> &mut Self {
        let n = self.size();
        for r in 0..n.saturating_sub(1) {
            self.sendrecv(r, r + 1, bytes);
        }
        self
    }
}

fn prev_power_of_two(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{LockLayer, MpiImpl};
    use corescope_affinity::Scheme;
    use corescope_machine::{systems, Machine};

    fn world(machine: &Machine, n: usize) -> CommWorld<'_> {
        let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, n).unwrap();
        CommWorld::new(machine, placements, MpiImpl::OpenMpi.profile(), LockLayer::USysV)
    }

    #[test]
    fn prev_power_of_two_values() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(8), 8);
        assert_eq!(prev_power_of_two(12), 8);
    }

    #[test]
    fn collectives_complete_for_all_sizes() {
        let m = Machine::new(systems::longs());
        for n in [1, 2, 3, 4, 5, 7, 8, 12, 16] {
            let mut w = world(&m, n);
            w.allreduce(1024.0);
            w.alltoall(512.0);
            w.allgather(256.0);
            w.bcast(0, 4096.0);
            w.exchange_step(2048.0);
            w.halo_1d(128.0);
            let report = w.run().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert!(report.makespan > 0.0 || n == 1);
        }
    }

    #[test]
    fn bcast_message_count_is_n_minus_one() {
        let m = Machine::new(systems::longs());
        for n in [2, 3, 4, 6, 8, 16] {
            let mut w = world(&m, n);
            w.bcast(0, 1024.0);
            let report = w.run().unwrap();
            assert_eq!(report.metrics.total_messages(), n - 1, "bcast over {n} ranks");
        }
    }

    #[test]
    fn bcast_works_from_nonzero_root() {
        let m = Machine::new(systems::longs());
        for root in 0..8 {
            let mut w = world(&m, 8);
            w.bcast(root, 1024.0);
            let report = w.run().unwrap();
            assert_eq!(report.metrics.total_messages(), 7);
        }
    }

    #[test]
    fn alltoall_message_count() {
        let m = Machine::new(systems::longs());
        let n = 8;
        let mut w = world(&m, n);
        w.alltoall(1024.0);
        let report = w.run().unwrap();
        assert_eq!(report.metrics.total_messages(), n * (n - 1));
    }

    #[test]
    fn allreduce_scales_with_log_n() {
        let m = Machine::new(systems::longs());
        let bytes = 64.0;
        let mut times = Vec::new();
        for n in [2, 4, 8] {
            let mut w = world(&m, n);
            for _ in 0..50 {
                w.allreduce(bytes);
            }
            times.push(w.run().unwrap().makespan);
        }
        // log2 growth: each doubling adds about one round, so the 8-rank
        // time should be well under 3x the 2-rank time.
        assert!(times[2] > times[0]);
        assert!(times[2] < times[0] * 5.0, "{times:?}");
    }

    #[test]
    fn exchange_moves_four_messages_per_rank_pair_structure() {
        let m = Machine::new(systems::dmz());
        let n = 4;
        let mut w = world(&m, n);
        w.exchange_step(1024.0);
        let report = w.run().unwrap();
        assert_eq!(report.metrics.total_messages(), 2 * n);
    }

    #[test]
    fn sysv_lock_slows_small_collectives() {
        let m = Machine::new(systems::longs());
        let placements = Scheme::TwoMpiLocalAlloc.resolve(&m, 8).unwrap();
        let run = |lock: LockLayer| {
            let mut w = CommWorld::new(&m, placements.clone(), MpiImpl::Lam.profile(), lock);
            for _ in 0..20 {
                w.allreduce(8.0);
            }
            w.run().unwrap().makespan
        };
        let sysv = run(LockLayer::SysV);
        let usysv = run(LockLayer::USysV);
        assert!(
            sysv > 1.5 * usysv,
            "SysV semaphores must dominate small-message time: {sysv:.2e} vs {usysv:.2e}"
        );
    }
}
