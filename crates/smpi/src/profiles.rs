//! MPI implementation cost profiles and lock sub-layers.
//!
//! Calibrated to reproduce the *shapes* of the paper's Figures 13–15:
//!
//! * MPICH2 has high small-message overhead, "becom\[ing\] comparable with
//!   the others with messages of approximately 16 KB", and the best
//!   large-message copy bandwidth;
//! * LAM is fastest below ~16 KB;
//! * OpenMPI wins for intermediate sizes;
//! * the SysV semaphore sub-layer adds microseconds per message ("the
//!   high cost of the Linux implementation of the SystemV semaphore"),
//!   while USysV spin locks cost ~100 ns.

use corescope_machine::CalibParams;
use std::fmt;

/// Shared-memory lock sub-layer used by the MPI progress engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockLayer {
    /// System V semaphores: every message pays a semop() syscall pair.
    SysV,
    /// User-space spin locks ("usysv" in LAM).
    USysV,
}

impl LockLayer {
    /// Per-message lock overhead in seconds.
    pub fn cost(self) -> f64 {
        match self {
            // Two semop syscalls at ~1.2 us each on a 2006 kernel.
            LockLayer::SysV => 2.4e-6,
            LockLayer::USysV => 0.12e-6,
        }
    }

    /// Lowercase runtime-option name as used in the paper's figures.
    pub const fn key(self) -> &'static str {
        match self {
            LockLayer::SysV => "sysv",
            LockLayer::USysV => "usysv",
        }
    }
}

impl fmt::Display for LockLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One of the MPI implementations compared in Section 3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiImpl {
    /// MPICH2 1.0.3.
    Mpich2,
    /// LAM 7.1.2.
    Lam,
    /// OpenMPI 1.0.1.
    OpenMpi,
}

impl MpiImpl {
    /// All three implementations, in the paper's order.
    pub fn all() -> [MpiImpl; 3] {
        [MpiImpl::Mpich2, MpiImpl::Lam, MpiImpl::OpenMpi]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MpiImpl::Mpich2 => "MPICH2",
            MpiImpl::Lam => "LAM",
            MpiImpl::OpenMpi => "OpenMPI",
        }
    }

    /// The implementation's cost profile.
    pub fn profile(self) -> MpiProfile {
        match self {
            // High per-message software overhead, strong large-message
            // copy path.
            MpiImpl::Mpich2 => MpiProfile {
                overhead: 3.2e-6,
                copy_bw: 1.45e9,
                eager_threshold: 128.0 * 1024.0,
                rendezvous_handshake: 1.0e-6,
                lock_sysv: LockLayer::SysV.cost(),
                lock_usysv: LockLayer::USysV.cost(),
                same_socket_boost: MpiProfile::SAME_SOCKET_BW_BOOST,
            },
            // Lowest small-message overhead, weakest bulk copy.
            MpiImpl::Lam => MpiProfile {
                overhead: 0.7e-6,
                copy_bw: 1.0e9,
                eager_threshold: 64.0 * 1024.0,
                rendezvous_handshake: 1.4e-6,
                lock_sysv: LockLayer::SysV.cost(),
                lock_usysv: LockLayer::USysV.cost(),
                same_socket_boost: MpiProfile::SAME_SOCKET_BW_BOOST,
            },
            // Middle overhead, good intermediate-size streaming.
            MpiImpl::OpenMpi => MpiProfile {
                overhead: 1.4e-6,
                copy_bw: 1.3e9,
                eager_threshold: 64.0 * 1024.0,
                rendezvous_handshake: 1.2e-6,
                lock_sysv: LockLayer::SysV.cost(),
                lock_usysv: LockLayer::USysV.cost(),
                same_socket_boost: MpiProfile::SAME_SOCKET_BW_BOOST,
            },
        }
    }

    /// The implementation's profile with the lock costs and same-socket
    /// boost taken from a calibration point instead of the shipped
    /// constants. `CalibParams::paper_2006()` reproduces
    /// [`MpiImpl::profile`] exactly.
    pub fn profile_with(self, p: &CalibParams) -> MpiProfile {
        MpiProfile {
            lock_sysv: p.lock_sysv,
            lock_usysv: p.lock_usysv,
            same_socket_boost: p.same_socket_boost,
            ..self.profile()
        }
    }
}

impl fmt::Display for MpiImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost parameters of one MPI implementation's shared-memory transport.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiProfile {
    /// Per-message software overhead in seconds (matching, header
    /// processing), excluding locks.
    pub overhead: f64,
    /// Single-message shared-memory copy bandwidth in bytes/s (the
    /// two-copy in/out path through a shm buffer).
    pub copy_bw: f64,
    /// Messages larger than this use the rendezvous protocol.
    pub eager_threshold: f64,
    /// Extra handshake cost for rendezvous messages, seconds.
    pub rendezvous_handshake: f64,
    /// Per-message [`LockLayer::SysV`] cost in seconds (calibratable;
    /// defaults to [`LockLayer::cost`]).
    pub lock_sysv: f64,
    /// Per-message [`LockLayer::USysV`] cost in seconds (calibratable;
    /// defaults to [`LockLayer::cost`]).
    pub lock_usysv: f64,
    /// Intra-socket copy bandwidth boost this profile applies
    /// (calibratable; defaults to
    /// [`MpiProfile::SAME_SOCKET_BW_BOOST`]).
    pub same_socket_boost: f64,
}

impl MpiProfile {
    /// Intra-node bandwidth boost for messages that stay *within* one
    /// multi-core socket (shared L2-adjacent path instead of crossing
    /// coherent HyperTransport). The paper measures "approximately 10 to
    /// 13%" — we use 12%.
    pub const SAME_SOCKET_BW_BOOST: f64 = 1.12;

    /// Per-message cost of a lock sub-layer under this profile's
    /// calibration. Equals [`LockLayer::cost`] for profiles built by
    /// [`MpiImpl::profile`].
    pub fn lock_cost(&self, lock: LockLayer) -> f64 {
        match lock {
            LockLayer::SysV => self.lock_sysv,
            LockLayer::USysV => self.lock_usysv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysv_is_microseconds_usysv_is_not() {
        assert!(LockLayer::SysV.cost() > 1e-6);
        assert!(LockLayer::USysV.cost() < 0.5e-6);
    }

    #[test]
    fn lam_has_lowest_overhead_mpich2_highest() {
        let m = MpiImpl::Mpich2.profile();
        let l = MpiImpl::Lam.profile();
        let o = MpiImpl::OpenMpi.profile();
        assert!(l.overhead < o.overhead && o.overhead < m.overhead);
    }

    #[test]
    fn mpich2_has_best_bulk_copy() {
        let m = MpiImpl::Mpich2.profile();
        let l = MpiImpl::Lam.profile();
        let o = MpiImpl::OpenMpi.profile();
        assert!(m.copy_bw > o.copy_bw && o.copy_bw > l.copy_bw);
    }

    #[test]
    fn figure14_crossover_near_16kb() {
        // Effective PingPong bandwidth b(s) = s / (overhead + s/copy_bw).
        // MPICH2 must lose to the others at 1 KB and beat LAM at 1 MB.
        let bw = |p: &MpiProfile, s: f64| s / (p.overhead + s / p.copy_bw);
        let (m, l, o) =
            (MpiImpl::Mpich2.profile(), MpiImpl::Lam.profile(), MpiImpl::OpenMpi.profile());
        assert!(bw(&l, 1024.0) > bw(&o, 1024.0));
        assert!(bw(&l, 1024.0) > bw(&m, 1024.0));
        assert!(bw(&o, 64.0 * 1024.0) > bw(&l, 64.0 * 1024.0));
        assert!(bw(&m, 4e6) > bw(&l, 4e6));
        assert!(bw(&m, 4e6) > bw(&o, 4e6));
    }

    #[test]
    fn profiles_carry_the_shipped_calibration() {
        for imp in MpiImpl::all() {
            let p = imp.profile();
            assert_eq!(p.lock_cost(LockLayer::SysV), LockLayer::SysV.cost());
            assert_eq!(p.lock_cost(LockLayer::USysV), LockLayer::USysV.cost());
            assert_eq!(p.same_socket_boost, MpiProfile::SAME_SOCKET_BW_BOOST);
        }
    }

    #[test]
    fn profile_with_paper_point_matches_profile() {
        let point = CalibParams::paper_2006();
        for imp in MpiImpl::all() {
            assert_eq!(imp.profile_with(&point), imp.profile());
        }
    }

    #[test]
    fn profile_with_overrides_lock_costs() {
        let mut point = CalibParams::paper_2006();
        point.lock_sysv = 5.0e-6;
        point.same_socket_boost = 1.25;
        let p = MpiImpl::Lam.profile_with(&point);
        assert_eq!(p.lock_cost(LockLayer::SysV), 5.0e-6);
        assert_eq!(p.same_socket_boost, 1.25);
        // Non-calibrated fields still come from the base profile.
        assert_eq!(p.overhead, MpiImpl::Lam.profile().overhead);
    }

    #[test]
    fn names_and_keys() {
        assert_eq!(MpiImpl::OpenMpi.to_string(), "OpenMPI");
        assert_eq!(LockLayer::SysV.to_string(), "sysv");
        assert_eq!(MpiImpl::all().len(), 3);
    }
}
