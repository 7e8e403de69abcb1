//! Property tests for the scenario content hash.
//!
//! The result cache is only sound if the digest behaves like a content
//! hash of *everything* that feeds an engine run: stable under
//! re-encoding and JSON round-trips, and different whenever any single
//! scenario field differs. These properties pin both directions down
//! over generated scenarios. (The vendored `proptest` is sampling-only,
//! so scenarios are assembled from generated raw parts, mirroring the
//! solver property tests in `corescope-machine`.)

use corescope_machine::faults::FaultPlan;
use corescope_machine::ids::RankId;
use corescope_machine::recovery::{CheckpointPolicy, RetryPolicy};
use corescope_sched::{
    json, Fidelity, Placement, Scenario, Scheduler, ServeConfig, Server, System, Workload,
};
use corescope_smpi::MpiImpl;
use proptest::prelude::*;
use std::sync::Arc;

/// Raw generated parts for one scenario: discriminants are taken modulo
/// the variant count so every drawn value is valid.
#[allow(clippy::too_many_arguments)]
fn build_scenario(
    sys: usize,
    nranks: usize,
    wl_kind: usize,
    steps: usize,
    a: f64,
    b: f64,
    kill: Option<(f64, usize)>,
    knobs: (usize, usize, Option<f64>, Option<f64>),
) -> Scenario {
    let (fid, mpi, ckpt, retry) = knobs;
    let system = [System::Tiger, System::Dmz, System::Longs][sys % 3];
    let workload = match wl_kind % 6 {
        0 => Workload::Bsp {
            steps,
            flops_per_step: a * 1.0e3,
            bytes_per_step: b * 1.0e3,
            sync_bytes: 8.0,
        },
        1 => Workload::StreamStar {
            kernel: corescope_kernels::stream::StreamKernel::Triad,
            elements_per_rank: steps * 1000 + 1,
            sweeps: 1 + steps % 7,
        },
        2 => Workload::PingPong { bytes: a, reps: 1 + steps % 15 },
        3 => Workload::Ring { bytes: a, reps: 1 + steps % 15 },
        4 => Workload::Exchange { bytes: b, reps: 1 + steps % 15 },
        _ => Workload::RandomAccessMpi {
            table_words_per_rank: steps as u64 * 64 + 1,
            updates_per_rank: 1 + (b as u64),
        },
    };
    let mut scenario = Scenario::new(system, nranks, workload)
        .with_parked(steps % 3)
        .with_fidelity([Fidelity::Full, Fidelity::Quick][fid % 2])
        .with_mpi([MpiImpl::Mpich2, MpiImpl::Lam, MpiImpl::OpenMpi][mpi % 3]);
    if let Some((at, rank)) = kill {
        scenario = scenario.with_faults(FaultPlan::new().rank_kill(at, RankId::new(rank % nranks)));
    }
    if let Some(interval) = ckpt {
        scenario = scenario.with_recovery(CheckpointPolicy::new(interval, 1.0e6));
    }
    if let Some(timeout) = retry {
        scenario = scenario.with_retry(RetryPolicy::new(timeout));
    }
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The digest is a pure function of the scenario value: recomputing
    /// it, cloning the scenario, and round-tripping through the JSON
    /// wire format all yield the same 128-bit digest.
    #[test]
    fn digest_survives_reencoding_and_json_roundtrip(
        sys in 0usize..3,
        nranks in 1usize..=16,
        wl_kind in 0usize..6,
        steps in 1usize..64,
        a in 1.0f64..1.0e6,
        b in 1.0f64..1.0e6,
        kill in proptest::option::of((0.0f64..10.0, 0usize..16)),
        knobs in (0usize..2, 0usize..3, proptest::option::of(1.0f64..100.0),
                  proptest::option::of(0.001f64..1.0)),
    ) {
        let scenario = build_scenario(sys, nranks, wl_kind, steps, a, b, kill, knobs);
        let digest = scenario.digest();
        prop_assert_eq!(digest, scenario.digest());
        prop_assert_eq!(digest, scenario.clone().digest());

        let wire = scenario.to_json();
        let parsed = json::parse(&wire).map_err(TestCaseError::fail)?;
        let back = Scenario::from_json(&parsed).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &scenario);
        prop_assert_eq!(back.digest(), digest);
    }

    /// Perturbing any single axis of the scenario moves the digest —
    /// otherwise the cache could serve one configuration's numbers for
    /// another's.
    #[test]
    fn each_axis_separates_the_digest(
        sys in 0usize..3,
        nranks in 1usize..=16,
        wl_kind in 0usize..6,
        steps in 1usize..64,
        a in 1.0f64..1.0e6,
        b in 1.0f64..1.0e6,
        kill in proptest::option::of((0.0f64..10.0, 0usize..16)),
        knobs in (0usize..2, 0usize..3, proptest::option::of(1.0f64..100.0),
                  proptest::option::of(0.001f64..1.0)),
        axis in 0usize..7,
    ) {
        let scenario = build_scenario(sys, nranks, wl_kind, steps, a, b, kill, knobs);
        let digest = scenario.digest();
        let perturbed = match axis {
            0 => {
                let system =
                    if scenario.system == System::Dmz { System::Longs } else { System::Dmz };
                Scenario { system, ..scenario.clone() }
            }
            1 => Scenario { nranks: scenario.nranks + 1, ..scenario.clone() },
            2 => {
                let fidelity = match scenario.fidelity {
                    Fidelity::Full => Fidelity::Quick,
                    Fidelity::Quick => Fidelity::Full,
                };
                scenario.clone().with_fidelity(fidelity)
            }
            3 => {
                let mpi =
                    if scenario.mpi == MpiImpl::Lam { MpiImpl::Mpich2 } else { MpiImpl::Lam };
                scenario.clone().with_mpi(mpi)
            }
            4 => scenario.clone().with_placement(Placement::ScatterLocal),
            5 => scenario.clone().with_parked(scenario.parked + 1),
            _ => Scenario {
                workload: Workload::PingPong { bytes: 1.25e5, reps: 3 },
                ..scenario.clone()
            },
        };
        // A perturbation that lands back on the original value (e.g. a
        // PingPong scenario drawing the same literal) proves nothing —
        // only genuinely different scenarios must separate.
        prop_assume!(perturbed != scenario);
        prop_assert_ne!(perturbed.digest(), digest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Protocol robustness: a line of arbitrary byte noise followed by a
    /// valid scenario request always produces exactly two response
    /// lines — one typed `ok:false` for the noise, one `ok:true` for the
    /// scenario. The server never panics, never drops a response, and
    /// never lets garbage desynchronise the request/response pairing.
    #[test]
    fn byte_noise_yields_one_typed_error_and_no_desync(
        noise in proptest::collection::vec(0u8..=255, 1..300),
    ) {
        // Newlines would split the noise into several requests, and an
        // all-whitespace line is skipped by design; both change the
        // expected response count without testing anything new.
        let noise: Vec<u8> = noise.into_iter().filter(|&b| b != b'\n').collect();
        prop_assume!(!noise.iter().all(u8::is_ascii_whitespace));
        // Random bytes that happen to spell a valid request would be
        // answered ok:true; exclude the (astronomically unlikely) case
        // explicitly so the property is exact.
        if let Ok(value) = json::parse_bytes(&noise) {
            prop_assume!(Scenario::from_json(&value).is_err());
            prop_assume!(value.get("artifact").is_none());
        }

        let scenario = Scenario::new(
            System::Dmz,
            2,
            Workload::Bsp { steps: 2, flops_per_step: 1.0e6, bytes_per_step: 1.0e4, sync_bytes: 8.0 },
        );
        let mut input = noise.clone();
        input.push(b'\n');
        input.extend_from_slice(scenario.to_json().as_bytes());
        input.push(b'\n');

        let server = Server::new(Arc::new(Scheduler::new(1)), ServeConfig::default());
        let mut out = Vec::new();
        server
            .serve_io(std::io::Cursor::new(input), &mut out, "prop")
            .map_err(|e| TestCaseError::fail(e.to_string()))?;

        let lines: Vec<&[u8]> = out.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        prop_assert_eq!(lines.len(), 2, "one response line per request");
        let first = json::parse_bytes(lines[0]).map_err(TestCaseError::fail)?;
        prop_assert_eq!(first.get("ok"), Some(&json::Value::Bool(false)));
        prop_assert!(first.get("kind").and_then(json::Value::as_str).is_some());
        let second = json::parse_bytes(lines[1]).map_err(TestCaseError::fail)?;
        prop_assert_eq!(second.get("ok"), Some(&json::Value::Bool(true)));
        let digest = scenario.digest().hex();
        prop_assert_eq!(second.get("digest").and_then(json::Value::as_str), Some(digest.as_str()));
    }
}
