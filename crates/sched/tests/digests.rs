//! Golden scenario digests and the batch-digest equivalence property.
//!
//! Every result-cache entry, campaign-store row and `serve` response is
//! keyed by [`Scenario::digest`]. A change to how that digest is
//! computed must not change a single bit of it, or every warm cache and
//! committed campaign silently goes cold. The golden table pins the hex
//! digests of a fixed scenario set that touches every machine (including
//! the non-uniform HBM spec path), fault plans, checkpoint and retry
//! policies and a non-default calibration point. The property test then
//! checks that the memoized batch path ([`Scenario::digests`]) agrees
//! with the one-at-a-time path on random mixed batches.

use corescope_affinity::Scheme;
use corescope_kernels::stream::StreamKernel;
use corescope_machine::faults::FaultPlan;
use corescope_machine::ids::{LinkId, NumaNodeId, RankId, SocketId};
use corescope_machine::recovery::{CheckpointPolicy, CheckpointTarget, RetryPolicy};
use corescope_machine::CalibParams;
use corescope_sched::{Fidelity, Placement, Scenario, System, Workload};
use corescope_smpi::{LockLayer, MpiImpl};
use proptest::prelude::*;

fn bsp(system: System, nranks: usize) -> Scenario {
    Scenario::new(
        system,
        nranks,
        Workload::Bsp { steps: 3, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 },
    )
}

/// The pinned scenario set, labelled for failure messages.
fn golden_set() -> Vec<(&'static str, Scenario)> {
    let mut slow = CalibParams::paper_2006();
    slow.dram_latency *= 1.25;
    slow.ht_bandwidth *= 0.75;
    vec![
        ("tiger-bsp", bsp(System::Tiger, 2)),
        ("dmz-bsp", bsp(System::Dmz, 4)),
        ("longs-bsp", bsp(System::Longs, 16)),
        ("epyc-bsp", bsp(System::Epyc, 8)),
        ("hbm-bsp", bsp(System::Hbm, 4)),
        (
            "hbm-stream-quick",
            Scenario::new(
                System::Hbm,
                16,
                Workload::StreamStar {
                    kernel: StreamKernel::Triad,
                    elements_per_rank: 100_000,
                    sweeps: 2,
                },
            )
            .with_fidelity(Fidelity::Quick)
            .with_placement(Placement::ScatterLocal),
        ),
        (
            "dmz-pingpong-lam",
            Scenario::new(System::Dmz, 2, Workload::PingPong { bytes: 1.25e5, reps: 3 })
                .with_mpi(MpiImpl::Lam)
                .with_lock(LockLayer::SysV)
                .with_placement(Placement::Scheme(Scheme::Interleave)),
        ),
        (
            "longs-faults",
            bsp(System::Longs, 8).with_faults(
                FaultPlan::new()
                    .link_degrade(1e-4, LinkId::new(0), 0.5)
                    .controller_throttle(2e-4, SocketId::new(1), 0.25)
                    .rank_kill(3e-4, RankId::new(2)),
            ),
        ),
        (
            "dmz-checkpoint",
            bsp(System::Dmz, 4).with_recovery(
                CheckpointPolicy::new(1e-3, 1e6)
                    .with_target(CheckpointTarget::Node(NumaNodeId::new(1)))
                    .with_restart_delay(2e-4),
            ),
        ),
        (
            "tiger-retry",
            bsp(System::Tiger, 2)
                .with_retry(RetryPolicy::new(1e-3).with_backoff(2.0).with_max_retries(4)),
        ),
        ("longs-params", bsp(System::Longs, 8).with_params(slow)),
        ("epyc-params-openmpi", bsp(System::Epyc, 16).with_params(slow).with_mpi(MpiImpl::OpenMpi)),
    ]
}

/// Hex digests recorded before the streaming encoder and the
/// prefix-shared batch digests existed.
const GOLDEN: [(&str, &str); 12] = [
    ("tiger-bsp", "799be904ba4e2a0e9b6f78a4c4b325ec"),
    ("dmz-bsp", "72d11a50aa65037fce8348ec70da7af3"),
    ("longs-bsp", "fea72965d42165bb5c842789e55147c2"),
    ("epyc-bsp", "f713831bc178733e92f88df28a97fbe1"),
    ("hbm-bsp", "2509146786b134d2b0b817c7fa4c0449"),
    ("hbm-stream-quick", "a1f58d411c7ad70a70e978a2ee1e6f5b"),
    ("dmz-pingpong-lam", "066ee5958966ffad20deb2ff700794c7"),
    ("longs-faults", "c43f9b31143d550d391f09f0afa43ab7"),
    ("dmz-checkpoint", "6620aac5bffd8f6f2081f9b3e6fc7964"),
    ("tiger-retry", "de741551bd60979c4e26f9d232ffe334"),
    ("longs-params", "db8926fb29e4acab4ebfc92c7e901a36"),
    ("epyc-params-openmpi", "bb9451cf80c730b87b93b2ba81e89ee0"),
];

#[test]
fn golden_digests_are_unchanged() {
    let set = golden_set();
    assert_eq!(set.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((label, scenario), (golden_label, golden_hex)) in set.iter().zip(GOLDEN) {
        assert_eq!(*label, golden_label);
        let hex = scenario.digest().hex();
        if hex != golden_hex {
            mismatches.push(format!("(\"{label}\", \"{hex}\"),"));
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}

/// The calibration fields whose documented range starts at zero: the
/// ones a real calibration point can hold as `0.0` or `-0.0`.
const ZEROABLE: [&str; 4] = ["probe_base", "probe_per_hop", "misplacement", "lookup_latency"];

/// A calibration point drawn from a small menu, so random batches both
/// repeat points (memo hits) and separate them; `zero` picks the field
/// that is zeroed with either sign.
fn params_for(choice: usize, zero: usize) -> CalibParams {
    let mut params = CalibParams::paper_2006();
    let field = CalibParams::field(ZEROABLE[zero % ZEROABLE.len()]).expect("known field");
    match choice % 6 {
        0 => {}
        1 => params.dram_latency *= 1.25,
        2 => params.ht_bandwidth *= 0.75,
        3 => field.write(&mut params, 0.0),
        4 => field.write(&mut params, -0.0),
        _ => {
            params.dram_latency *= 1.25;
            params.ht_bandwidth *= 0.75;
        }
    }
    params
}

#[test]
fn batch_digests_match_the_golden_set() {
    let scenarios: Vec<Scenario> = golden_set().into_iter().map(|(_, s)| s).collect();
    let one_by_one: Vec<_> = scenarios.iter().map(Scenario::digest).collect();
    assert_eq!(Scenario::digests(&scenarios), one_by_one);
    assert!(Scenario::digests(&[]).is_empty());
}

#[test]
fn signed_zero_params_never_share_a_prefix() {
    for (zero, name) in ZEROABLE.iter().enumerate() {
        let batch = [
            bsp(System::Dmz, 2).with_params(params_for(3, zero)),
            bsp(System::Dmz, 2).with_params(params_for(4, zero)),
        ];
        assert!(batch.iter().all(|s| s.validate().is_ok()), "{name}");
        let digests = Scenario::digests(&batch);
        assert_ne!(digests[0], digests[1], "{name}");
        assert_eq!(digests[0], batch[0].digest());
        assert_eq!(digests[1], batch[1].digest());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memoized batch path is the one-at-a-time digest, element by
    /// element, over batches that mix every system with repeated and
    /// perturbed calibration points.
    #[test]
    fn batch_digests_equal_single_digests(
        parts in proptest::collection::vec(
            (0usize..5, 0usize..6, 0usize..4, 1usize..9, 1usize..20),
            0..24,
        ),
    ) {
        let batch: Vec<Scenario> = parts
            .iter()
            .map(|&(sys, choice, zero, nranks, steps)| {
                Scenario::new(
                    System::all()[sys],
                    nranks,
                    Workload::Bsp {
                        steps,
                        flops_per_step: 1e6,
                        bytes_per_step: 1e6,
                        sync_bytes: 8.0,
                    },
                )
                .with_params(params_for(choice, zero))
            })
            .collect();
        let batched = Scenario::digests(&batch);
        prop_assert_eq!(batched.len(), batch.len());
        for (scenario, digest) in batch.iter().zip(&batched) {
            prop_assert_eq!(*digest, scenario.digest());
        }
    }
}
