//! Golden scenario digests, golden wire JSON and the batch-digest
//! equivalence property.
//!
//! Every result-cache entry, campaign-store row and `serve` response is
//! keyed by [`Scenario::digest`]. A change to how that digest is
//! computed must not change a single bit of it, or every warm cache and
//! committed campaign silently goes cold. The golden table pins the hex
//! digests of a fixed scenario set that touches every machine (including
//! the non-uniform HBM spec path), every workload kind, every fault kind,
//! checkpoint and retry policies and a non-default calibration point. A
//! second table pins the same set's [`Scenario::to_json`] text: the
//! `serve` wire form. A third pin fingerprints the set's engine results
//! under [`ENGINE_TAG`], so the tag moves exactly when the results do.
//! The property test then checks that the memoized batch path
//! ([`Scenario::digests`]) agrees with the one-at-a-time path on random
//! mixed batches. A last table pins a crc of every rank's expanded op
//! stream for the golden set plus one 16-rank quick cell per workload
//! kind, so a change to how programs are stored or lowered cannot move
//! a single op, tag, peer or cost.

use corescope_affinity::Scheme;
use corescope_apps::md::{AmberMethod, LammpsBenchmark};
use corescope_kernels::blas::BlasVariant;
use corescope_kernels::cg::CgClass;
use corescope_kernels::nasft::FtClass;
use corescope_kernels::stream::StreamKernel;
use corescope_machine::faults::FaultPlan;
use corescope_machine::ids::{LinkId, NumaNodeId, RankId, SocketId};
use corescope_machine::recovery::{CheckpointPolicy, CheckpointTarget, RetryPolicy};
use corescope_machine::{AccessPattern, CalibParams, Op, TraceConfig};
use corescope_sched::json::{self, Value};
use corescope_sched::{
    Encoder, Fidelity, Placement, Scenario, ScenarioResult, System, Workload, ENGINE_TAG,
};
use corescope_smpi::{LockLayer, MpiImpl};
use corescope_store::frame::crc32;
use proptest::prelude::*;

fn bsp(system: System, nranks: usize) -> Scenario {
    bsp_steps(system, nranks, 3)
}

fn bsp_steps(system: System, nranks: usize, steps: usize) -> Scenario {
    Scenario::new(
        system,
        nranks,
        Workload::Bsp { steps, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 },
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
        (
            "dmz-stream-single",
            Scenario::new(
                System::Dmz,
                4,
                Workload::StreamSingle {
                    kernel: StreamKernel::Copy,
                    elements_per_rank: 2_000_000,
                    sweeps: 10,
                },
            ),
        ),
        (
            "longs-hpl",
            Scenario::new(
                System::Longs,
                16,
                Workload::Hpl { n: 4096, nb: 256, dgemm_efficiency: 0.85 },
            ),
        ),
        (
            "tiger-dgemm-single",
            Scenario::new(
                System::Tiger,
                2,
                Workload::DgemmSingle { n: 1000, reps: 3, variant: BlasVariant::Acml },
            ),
        ),
        (
            "dmz-dgemm-star",
            Scenario::new(
                System::Dmz,
                4,
                Workload::DgemmStar { n: 512, reps: 2, variant: BlasVariant::Vanilla },
            )
            .with_fidelity(Fidelity::Quick),
        ),
        (
            "epyc-fft-single",
            Scenario::new(
                System::Epyc,
                8,
                Workload::FftSingle { points_per_rank: 1 << 20, reps: 2 },
            ),
        ),
        (
            "hbm-fft-star",
            Scenario::new(System::Hbm, 16, Workload::FftStar { points_per_rank: 65_536, reps: 1 })
                .with_placement(Placement::ScatterLocal),
        ),
        (
            "dmz-ra-single",
            Scenario::new(
                System::Dmz,
                2,
                Workload::RandomAccessSingle {
                    table_words_per_rank: 1 << 25,
                    updates_per_rank: 1 << 22,
                },
            ),
        ),
        (
            "longs-ra-star",
            Scenario::new(
                System::Longs,
                8,
                Workload::RandomAccessStar {
                    table_words_per_rank: 1 << 24,
                    updates_per_rank: 1 << 20,
                },
            )
            .with_mpi(MpiImpl::OpenMpi),
        ),
        (
            "dmz-ra-mpi",
            Scenario::new(
                System::Dmz,
                4,
                Workload::RandomAccessMpi { table_words_per_rank: 1 << 20, updates_per_rank: 4096 },
            )
            .with_lock(LockLayer::SysV),
        ),
        (
            "longs-ptrans",
            Scenario::new(
                System::Longs,
                16,
                Workload::Ptrans { n: 2048, reps: 1, block_bytes: 8192.5 },
            ),
        ),
        (
            "dmz-nas-cg",
            Scenario::new(System::Dmz, 4, Workload::NasCg { class: CgClass::B })
                .with_placement(Placement::Scheme(Scheme::Interleave)),
        ),
        (
            "longs-nas-ft",
            Scenario::new(System::Longs, 8, Workload::NasFt { class: FtClass::C })
                .with_mpi(MpiImpl::Lam),
        ),
        (
            "tiger-daxpy-single",
            Scenario::new(
                System::Tiger,
                2,
                Workload::DaxpySingle { n: 100_000, reps: 4, variant: BlasVariant::Vanilla },
            ),
        ),
        (
            "epyc-daxpy-star",
            Scenario::new(
                System::Epyc,
                32,
                Workload::DaxpyStar { n: 250_000, reps: 2, variant: BlasVariant::Acml },
            ),
        ),
        (
            "dmz-xs-single",
            Scenario::new(
                System::Dmz,
                4,
                Workload::XsLookupSingle {
                    grid_points: 156_000,
                    nuclides: 64,
                    lookups_per_rank: 1 << 16,
                },
            )
            .with_placement(Placement::Scheme(Scheme::TwoMpiMembind)),
        ),
        (
            "hbm-xs-star",
            Scenario::new(
                System::Hbm,
                8,
                Workload::XsLookupStar {
                    grid_points: 624_000,
                    nuclides: 355,
                    lookups_per_rank: 100_000,
                },
            ),
        ),
        (
            "longs-faults-rest",
            bsp(System::Longs, 8).with_faults(
                FaultPlan::new()
                    .link_fail(1e-4, LinkId::new(3))
                    .link_restore(1.5e-4, LinkId::new(3))
                    .probe_brownout(2e-4, 0.125)
                    .probe_restore(2.5e-4)
                    .rank_stall(3e-4, RankId::new(5))
                    .rank_resume(3.5e-4, RankId::new(5))
                    .controller_restore(4e-4, SocketId::new(2)),
            ),
        ),
        (
            "longs-amber-quick",
            Scenario::new(
                System::Longs,
                16,
                Workload::Amber {
                    atoms: 23_558,
                    method: AmberMethod::Pme,
                    grid_points: 262_144.0,
                    steps: 10,
                },
            )
            .with_fidelity(Fidelity::Quick)
            .with_placement(Placement::Scheme(Scheme::Default)),
        ),
        (
            "dmz-amber-fft-part",
            Scenario::new(
                System::Dmz,
                4,
                Workload::AmberFftPart {
                    atoms: 2_492,
                    method: AmberMethod::Gb,
                    grid_points: 1572.5,
                    steps: 1000,
                },
            )
            .with_placement(Placement::Scheme(Scheme::OneMpiMembind)),
        ),
        (
            "tiger-lammps-eam",
            Scenario::new(System::Tiger, 2, Workload::Lammps { bench: LammpsBenchmark::Eam })
                .with_fidelity(Fidelity::Quick),
        ),
        (
            "longs-pop-baroclinic",
            Scenario::new(
                System::Longs,
                8,
                Workload::PopBaroclinic { nx: 320, ny: 384, nz: 40, steps: 5, cg_iterations: 40 },
            )
            .with_placement(Placement::Scheme(Scheme::OneMpiLocalAlloc)),
        ),
        (
            "dmz-pop-barotropic",
            Scenario::new(
                System::Dmz,
                2,
                Workload::PopBarotropic { nx: 320, ny: 384, nz: 40, steps: 50, cg_iterations: 40 },
            )
            .with_lock(LockLayer::SysV),
        ),
        (
            "longs-nas-cg-hybrid",
            Scenario::new(
                System::Longs,
                16,
                Workload::NasCgHybrid { class: CgClass::A, threads: 2 },
            )
            .with_fidelity(Fidelity::Quick),
        ),
        (
            "epyc-nas-ft-hybrid",
            Scenario::new(
                System::Epyc,
                32,
                Workload::NasFtHybrid { class: FtClass::B, threads: 4 },
            )
            .with_mpi(MpiImpl::OpenMpi),
        ),
        (
            "longs-amber-fft-part",
            Scenario::new(
                System::Longs,
                8,
                Workload::AmberFftPart {
                    atoms: 23_558,
                    method: AmberMethod::Pme,
                    grid_points: 262_144.0,
                    steps: 2,
                },
            )
            .with_fidelity(Fidelity::Quick),
        ),
        (
            "dmz-ring",
            Scenario::new(System::Dmz, 4, Workload::Ring { bytes: 8.0, reps: 5 })
                .with_mpi(MpiImpl::Lam)
                .with_lock(LockLayer::SysV),
        ),
        (
            "dmz-exchange",
            Scenario::new(System::Dmz, 4, Workload::Exchange { bytes: 65536.0, reps: 4 })
                .with_placement(Placement::Scheme(Scheme::Default))
                .with_mpi(MpiImpl::OpenMpi),
        ),
        (
            "dmz-exchange-parked",
            Scenario::new(System::Dmz, 2, Workload::Exchange { bytes: 1024.0, reps: 4 })
                .with_fidelity(Fidelity::Quick)
                .with_placement(Placement::Scheme(Scheme::Default))
                .with_mpi(MpiImpl::OpenMpi)
                .with_parked(2),
        ),
    ]
}

/// Hex digests. The first twelve were recorded before the streaming
/// encoder and the prefix-shared batch digests existed; the next
/// seventeen before the workload and fault codecs were generated from
/// one table; the next seven when the application workloads joined; the
/// next one to give `AmberFftPart` a placeable row; the last three when
/// the ring and exchange probes and parked ranks joined.
const GOLDEN: [(&str, &str); 40] = [
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
    ("dmz-stream-single", "bd2a5f8062145c673b08d57668bed7c3"),
    ("longs-hpl", "75082abc81426c9ca2364b0cde054e31"),
    ("tiger-dgemm-single", "44ecf303f32ffd608e8bf8b092ff66bf"),
    ("dmz-dgemm-star", "bbd96e451d7f7059a83306808f53fae8"),
    ("epyc-fft-single", "e267065cde56595f89faf61fa7eb15cb"),
    ("hbm-fft-star", "2bd60ccfe67f359eb75802ee46327415"),
    ("dmz-ra-single", "6c76903c27e4882d152b5e455eeea880"),
    ("longs-ra-star", "4fdc31760dfc6e016e47c9f2c90483d2"),
    ("dmz-ra-mpi", "1b2ff469f84783f058c0266f686b7ce1"),
    ("longs-ptrans", "742eda7a92650383365e16d82c53efba"),
    ("dmz-nas-cg", "2f03dd4b2f6216d45833ab2e47951930"),
    ("longs-nas-ft", "4f6790dec80b851359e040de9dbe834c"),
    ("tiger-daxpy-single", "0370b5657b728dd5fd93de230a50e7a9"),
    ("epyc-daxpy-star", "3c034223fc88a19878180fba31aca84f"),
    ("dmz-xs-single", "5c1d2955c02e11b64406357aef5c8348"),
    ("hbm-xs-star", "2888c14eddd25438aa12d5094eb49082"),
    ("longs-faults-rest", "e992b08963c847847f560a12ea0d18b0"),
    ("longs-amber-quick", "d9879ceb0e1d41d45558e716e4dafcb9"),
    ("dmz-amber-fft-part", "ca5dfb246ca43ca92a212308bfd69328"),
    ("tiger-lammps-eam", "a37fd18a2ed65e2a11bc2179288a3264"),
    ("longs-pop-baroclinic", "8bdf2d7ad35f1aa88535678b12fe0c65"),
    ("dmz-pop-barotropic", "9d25dc56c0b982c3d4be8e5dfc0f6eae"),
    ("longs-nas-cg-hybrid", "b0ab0bee17efb02f171dfed6bea34f0e"),
    ("epyc-nas-ft-hybrid", "db259e959d03d18998a2334d6b9fd16f"),
    ("longs-amber-fft-part", "838b92cefcb2c012b266f8352b950416"),
    ("dmz-ring", "1dde8a61a309c6667787afbdafaf4d7f"),
    ("dmz-exchange", "077b372f0ddc4f016403c6bd62aa76dc"),
    ("dmz-exchange-parked", "e150ae43a824bdddd31dc6ce9264307f"),
];

/// [`Scenario::to_json`] of the golden set, recorded alongside the
/// later digests: the exact bytes a `serve` client sends and receives.
const WIRE: [(&str, &str); 40] = [
    (
        "tiger-bsp",
        r#"{"system":"tiger","fidelity":"full","nranks":2,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8}}"#,
    ),
    (
        "dmz-bsp",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8}}"#,
    ),
    (
        "longs-bsp",
        r#"{"system":"longs","fidelity":"full","nranks":16,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8}}"#,
    ),
    (
        "epyc-bsp",
        r#"{"system":"epyc","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8}}"#,
    ),
    (
        "hbm-bsp",
        r#"{"system":"hbm","fidelity":"full","nranks":4,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8}}"#,
    ),
    (
        "hbm-stream-quick",
        r#"{"system":"hbm","fidelity":"quick","nranks":16,"placement":"scatter-local","mpi":"mpich2","lock":"usysv","workload":{"kind":"stream-star","kernel":"triad","elements_per_rank":100000,"sweeps":2}}"#,
    ),
    (
        "dmz-pingpong-lam",
        r#"{"system":"dmz","fidelity":"full","nranks":2,"placement":"interleave","mpi":"lam","lock":"sysv","workload":{"kind":"pingpong","bytes":125000,"reps":3}}"#,
    ),
    (
        "longs-faults",
        r#"{"system":"longs","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8},"faults":[{"at":0.0001,"kind":"link-degrade","link":0,"factor":0.5},{"at":0.0002,"kind":"controller-throttle","socket":1,"factor":0.25},{"at":0.0003,"kind":"rank-kill","rank":2}]}"#,
    ),
    (
        "dmz-checkpoint",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8},"recovery":{"interval":0.001,"bytes_per_rank":1000000,"target":{"node":1},"restart_delay":0.0002}}"#,
    ),
    (
        "tiger-retry",
        r#"{"system":"tiger","fidelity":"full","nranks":2,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8},"retry":{"detection_timeout":0.001,"backoff":2,"max_retries":4}}"#,
    ),
    (
        "longs-params",
        r#"{"system":"longs","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8},"params":{"flops_per_cycle":2,"l1_bytes":65536,"l2_bytes":1048576,"line_bytes":64,"stream_mlp":8,"random_mlp":1.6,"strided_mlp":2,"dram_bandwidth":4200000000,"dram_latency":0.00000008750000000000001,"ht_bandwidth":1500000000,"ht_hop_latency":0.000000055,"probe_base":0.000000025,"probe_per_hop":0.000000045,"probe_capacity_small":1000000000000,"probe_capacity_ladder":14000000000,"lock_sysv":0.0000024,"lock_usysv":0.00000012,"same_socket_boost":1.12,"misplacement":0.1,"lookup_mlp":3,"lookup_latency":0.00000006,"onpkg_bandwidth":45000000000,"onpkg_latency":0.00000003,"tier_dram_bandwidth":32000000000,"tier_hbm_bandwidth":600000000000}}"#,
    ),
    (
        "epyc-params-openmpi",
        r#"{"system":"epyc","fidelity":"full","nranks":16,"placement":"two_localalloc","mpi":"openmpi","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8},"params":{"flops_per_cycle":2,"l1_bytes":65536,"l2_bytes":1048576,"line_bytes":64,"stream_mlp":8,"random_mlp":1.6,"strided_mlp":2,"dram_bandwidth":4200000000,"dram_latency":0.00000008750000000000001,"ht_bandwidth":1500000000,"ht_hop_latency":0.000000055,"probe_base":0.000000025,"probe_per_hop":0.000000045,"probe_capacity_small":1000000000000,"probe_capacity_ladder":14000000000,"lock_sysv":0.0000024,"lock_usysv":0.00000012,"same_socket_boost":1.12,"misplacement":0.1,"lookup_mlp":3,"lookup_latency":0.00000006,"onpkg_bandwidth":45000000000,"onpkg_latency":0.00000003,"tier_dram_bandwidth":32000000000,"tier_hbm_bandwidth":600000000000}}"#,
    ),
    (
        "dmz-stream-single",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"stream-single","kernel":"copy","elements_per_rank":2000000,"sweeps":10}}"#,
    ),
    (
        "longs-hpl",
        r#"{"system":"longs","fidelity":"full","nranks":16,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"hpl","n":4096,"nb":256,"dgemm_efficiency":0.85}}"#,
    ),
    (
        "tiger-dgemm-single",
        r#"{"system":"tiger","fidelity":"full","nranks":2,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"dgemm-single","n":1000,"reps":3,"variant":"acml"}}"#,
    ),
    (
        "dmz-dgemm-star",
        r#"{"system":"dmz","fidelity":"quick","nranks":4,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"dgemm-star","n":512,"reps":2,"variant":"vanilla"}}"#,
    ),
    (
        "epyc-fft-single",
        r#"{"system":"epyc","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"fft-single","points_per_rank":1048576,"reps":2}}"#,
    ),
    (
        "hbm-fft-star",
        r#"{"system":"hbm","fidelity":"full","nranks":16,"placement":"scatter-local","mpi":"mpich2","lock":"usysv","workload":{"kind":"fft-star","points_per_rank":65536,"reps":1}}"#,
    ),
    (
        "dmz-ra-single",
        r#"{"system":"dmz","fidelity":"full","nranks":2,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"randomaccess-single","table_words_per_rank":33554432,"updates_per_rank":4194304}}"#,
    ),
    (
        "longs-ra-star",
        r#"{"system":"longs","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"openmpi","lock":"usysv","workload":{"kind":"randomaccess-star","table_words_per_rank":16777216,"updates_per_rank":1048576}}"#,
    ),
    (
        "dmz-ra-mpi",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"two_localalloc","mpi":"mpich2","lock":"sysv","workload":{"kind":"randomaccess-mpi","table_words_per_rank":1048576,"updates_per_rank":4096}}"#,
    ),
    (
        "longs-ptrans",
        r#"{"system":"longs","fidelity":"full","nranks":16,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"ptrans","n":2048,"reps":1,"block_bytes":8192.5}}"#,
    ),
    (
        "dmz-nas-cg",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"interleave","mpi":"mpich2","lock":"usysv","workload":{"kind":"nas-cg","class":"b"}}"#,
    ),
    (
        "longs-nas-ft",
        r#"{"system":"longs","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"lam","lock":"usysv","workload":{"kind":"nas-ft","class":"c"}}"#,
    ),
    (
        "tiger-daxpy-single",
        r#"{"system":"tiger","fidelity":"full","nranks":2,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"daxpy-single","n":100000,"reps":4,"variant":"vanilla"}}"#,
    ),
    (
        "epyc-daxpy-star",
        r#"{"system":"epyc","fidelity":"full","nranks":32,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"daxpy-star","n":250000,"reps":2,"variant":"acml"}}"#,
    ),
    (
        "dmz-xs-single",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"two_membind","mpi":"mpich2","lock":"usysv","workload":{"kind":"xslookup-single","grid_points":156000,"nuclides":64,"lookups_per_rank":65536}}"#,
    ),
    (
        "hbm-xs-star",
        r#"{"system":"hbm","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"xslookup-star","grid_points":624000,"nuclides":355,"lookups_per_rank":100000}}"#,
    ),
    (
        "longs-faults-rest",
        r#"{"system":"longs","fidelity":"full","nranks":8,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"bsp","steps":3,"flops_per_step":1000000,"bytes_per_step":1000000,"sync_bytes":8},"faults":[{"at":0.0001,"kind":"link-fail","link":3},{"at":0.00015,"kind":"link-restore","link":3},{"at":0.0002,"kind":"probe-brownout","factor":0.125},{"at":0.00025,"kind":"probe-restore"},{"at":0.0003,"kind":"rank-stall","rank":5},{"at":0.00035,"kind":"rank-resume","rank":5},{"at":0.0004,"kind":"controller-restore","socket":2}]}"#,
    ),
    (
        "longs-amber-quick",
        r#"{"system":"longs","fidelity":"quick","nranks":16,"placement":"default","mpi":"mpich2","lock":"usysv","workload":{"kind":"amber","atoms":23558,"method":"pme","grid_points":262144,"steps":10}}"#,
    ),
    (
        "dmz-amber-fft-part",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"one_membind","mpi":"mpich2","lock":"usysv","workload":{"kind":"amber-fft-part","atoms":2492,"method":"gb","grid_points":1572.5,"steps":1000}}"#,
    ),
    (
        "tiger-lammps-eam",
        r#"{"system":"tiger","fidelity":"quick","nranks":2,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"lammps","bench":"eam"}}"#,
    ),
    (
        "longs-pop-baroclinic",
        r#"{"system":"longs","fidelity":"full","nranks":8,"placement":"one_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"pop-baroclinic","nx":320,"ny":384,"nz":40,"steps":5,"cg_iterations":40}}"#,
    ),
    (
        "dmz-pop-barotropic",
        r#"{"system":"dmz","fidelity":"full","nranks":2,"placement":"two_localalloc","mpi":"mpich2","lock":"sysv","workload":{"kind":"pop-barotropic","nx":320,"ny":384,"nz":40,"steps":50,"cg_iterations":40}}"#,
    ),
    (
        "longs-nas-cg-hybrid",
        r#"{"system":"longs","fidelity":"quick","nranks":16,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"nas-cg-hybrid","class":"a","threads":2}}"#,
    ),
    (
        "epyc-nas-ft-hybrid",
        r#"{"system":"epyc","fidelity":"full","nranks":32,"placement":"two_localalloc","mpi":"openmpi","lock":"usysv","workload":{"kind":"nas-ft-hybrid","class":"b","threads":4}}"#,
    ),
    (
        "longs-amber-fft-part",
        r#"{"system":"longs","fidelity":"quick","nranks":8,"placement":"two_localalloc","mpi":"mpich2","lock":"usysv","workload":{"kind":"amber-fft-part","atoms":23558,"method":"pme","grid_points":262144,"steps":2}}"#,
    ),
    (
        "dmz-ring",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"two_localalloc","mpi":"lam","lock":"sysv","workload":{"kind":"ring","bytes":8,"reps":5}}"#,
    ),
    (
        "dmz-exchange",
        r#"{"system":"dmz","fidelity":"full","nranks":4,"placement":"default","mpi":"openmpi","lock":"usysv","workload":{"kind":"exchange","bytes":65536,"reps":4}}"#,
    ),
    (
        "dmz-exchange-parked",
        r#"{"system":"dmz","fidelity":"quick","nranks":2,"parked":2,"placement":"default","mpi":"openmpi","lock":"usysv","workload":{"kind":"exchange","bytes":1024,"reps":4}}"#,
    ),
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

#[test]
fn golden_wire_json_is_unchanged() {
    let set = golden_set();
    assert_eq!(set.len(), WIRE.len());
    let mut mismatches = Vec::new();
    for ((label, scenario), (golden_label, golden_json)) in set.iter().zip(WIRE) {
        assert_eq!(*label, golden_label);
        let text = scenario.to_json();
        if text != golden_json {
            mismatches.push(format!("(\"{label}\", r#\"{text}\"#),"));
        }
    }
    assert!(mismatches.is_empty(), "wire JSON moved:\n{}", mismatches.join("\n"));
}

#[test]
fn golden_wire_json_parses_back_to_the_same_scenario() {
    for (label, scenario) in golden_set() {
        let parsed = Scenario::from_json(&json::parse(&scenario.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, scenario, "{label}");
        assert_eq!(parsed.digest(), scenario.digest(), "{label}");
    }
}

/// The [`ENGINE_TAG`] the golden set's results were recorded under, and
/// their fingerprint (see [`results_fingerprint`]).
const RESULTS: (&str, &str) = ("corescope-engine-0.1.0+sched1", "4ba6bf4476abf06c036727bbb6a8b64b");

/// Runs the golden set in order and folds every result into one digest:
/// each `Ok` contributes its makespan's bit pattern and its five counts,
/// each `Err` a fixed marker (errors are never cached). Three golden
/// scenarios fail by design (`longs-faults`, `longs-faults-rest`,
/// `dmz-amber-fft-part`); `longs-amber-fft-part` gives `AmberFftPart` its
/// result coverage.
fn results_fingerprint() -> String {
    let mut enc = Encoder::new();
    for (_, scenario) in golden_set() {
        match scenario.run() {
            Ok(r) => enc
                .f64("makespan", r.makespan)
                .usize("events", r.events)
                .usize("faults_applied", r.faults_applied)
                .usize("checkpoints_taken", r.checkpoints_taken)
                .usize("recoveries", r.recoveries)
                .usize("retries", r.retries),
            Err(_) => enc.tag("result", "err"),
        };
    }
    enc.digest().hex()
}

/// Every cache entry and store row is keyed under [`ENGINE_TAG`], so the
/// tag must change exactly when the engine's results do: results that
/// move under the pinned tag would be served stale from every existing
/// cache, and a bump that moves no result orphans them all for nothing.
#[test]
fn engine_tag_moves_exactly_when_results_do() {
    let (pinned_tag, pinned) = RESULTS;
    let fingerprint = results_fingerprint();
    if fingerprint == pinned {
        assert_eq!(
            ENGINE_TAG, pinned_tag,
            "ENGINE_TAG moved but no golden result changed: the bump orphans every cache \
             entry and store row for nothing; revert it"
        );
    } else {
        assert_ne!(
            ENGINE_TAG, pinned_tag,
            "golden results moved (fingerprint {pinned} -> {fingerprint}) under the pinned \
             ENGINE_TAG: bump ENGINE_TAG and re-pin RESULTS"
        );
        panic!("results moved with the ENGINE_TAG bump: re-pin RESULTS to {fingerprint}");
    }
}

/// Tracing records attribution on the side and never feeds the solver:
/// every golden scenario — every workload kind, fault kind and policy —
/// traced returns exactly what it returns untraced. `Ok` results agree
/// bit for bit, and `Err` results carry the same message.
#[test]
fn tracing_never_changes_a_golden_outcome() {
    for (name, scenario) in golden_set() {
        let traced = scenario
            .observe(TraceConfig::on())
            .and_then(|observed| observed.result)
            .map(|report| ScenarioResult::from_report(&report));
        match (scenario.run(), traced) {
            (Ok(plain), Ok(traced)) => assert_eq!(
                (plain.makespan.to_bits(), plain),
                (traced.makespan.to_bits(), traced),
                "{name}"
            ),
            (Err(plain), Err(traced)) => {
                assert_eq!(plain.to_string(), traced.to_string(), "{name}");
            }
            (plain, traced) => panic!("{name}: untraced {plain:?}, traced {traced:?}"),
        }
    }
}

/// The key-value pairs of one JSON object.
type Fields = Vec<(String, Value)>;

/// The fields of each `{"kind": …}` object of a wire scenario: the
/// workload, then each fault event.
fn kind_objects(wire: &mut Value) -> Vec<&mut Fields> {
    let Value::Obj(top) = wire else { panic!("scenario JSON is an object") };
    let mut objects = Vec::new();
    for (key, value) in top.iter_mut() {
        match (key.as_str(), value) {
            ("workload", Value::Obj(fields)) => objects.push(fields),
            ("faults", Value::Arr(events)) => {
                for event in events {
                    let Value::Obj(fields) = event else { panic!("fault is an object") };
                    objects.push(fields);
                }
            }
            _ => {}
        }
    }
    objects
}

/// A value of the other JSON type: a number where a string belongs and
/// a string where a number belongs.
fn mistyped(value: &Value) -> Value {
    match value {
        Value::Str(_) => Value::Num(1.0),
        _ => Value::Str("1".to_string()),
    }
}

/// Every field of every workload and fault in the golden set, dropped
/// and then mistyped, is an error that names both the kind and the
/// field; an unknown kind is an error that names the kind.
#[test]
fn every_bad_field_is_an_error_naming_kind_and_field() {
    let mut checked = 0;
    for (label, scenario) in golden_set() {
        let wire = json::parse(&scenario.to_json()).unwrap();
        let shapes: Vec<(String, Vec<String>)> = kind_objects(&mut wire.clone())
            .into_iter()
            .map(|fields| {
                let kind = fields.iter().find(|(k, _)| k == "kind").and_then(|(_, v)| v.as_str());
                let names = fields.iter().map(|(k, _)| k.clone()).filter(|k| k != "kind");
                (kind.unwrap().to_string(), names.collect())
            })
            .collect();
        for (object, (kind, names)) in shapes.iter().enumerate() {
            let error_after = |edit: &dyn Fn(&mut Fields)| {
                let mut bad = wire.clone();
                edit(kind_objects(&mut bad).swap_remove(object));
                Scenario::from_json(&bad).unwrap_err()
            };
            for name in names {
                let dropped = error_after(&|fields| fields.retain(|(k, _)| k != name));
                let wrong_type = error_after(&|fields| {
                    for (_, v) in fields.iter_mut().filter(|(k, _)| k == name) {
                        *v = mistyped(v);
                    }
                });
                for err in [dropped, wrong_type] {
                    assert!(err.contains(&format!("'{kind}'")), "{label}: {err}");
                    assert!(err.contains(&format!("\"{name}\"")), "{label}: {err}");
                    checked += 1;
                }
            }
            let typo = format!("{kind}-typo");
            let err = error_after(&|fields| {
                for (_, v) in fields.iter_mut().filter(|(k, _)| k == "kind") {
                    *v = Value::Str(typo.clone());
                }
            });
            assert!(err.contains(&format!("'{typo}'")), "{label}: {err}");
        }
    }
    assert!(checked > 100, "only {checked} bad fields checked");
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

/// A batch member dressed in one of the optional suffix sections, so
/// batches vary past the workload: parked ranks, a fault plan, a
/// checkpoint policy or a retry policy (`extra` in `0..15`).
fn with_extras(scenario: Scenario, extra: usize) -> Scenario {
    let n = extra / 5;
    match extra % 5 {
        0 => scenario,
        1 => scenario.with_parked(1 + n),
        2 => scenario.with_faults(
            FaultPlan::new()
                .link_degrade(1e-4 * (n + 1) as f64, LinkId::new(n), 0.5)
                .rank_kill(3e-4, RankId::new(1)),
        ),
        3 => scenario.with_recovery(
            CheckpointPolicy::new(1e-3, 1e6 * (n + 1) as f64).with_restart_delay(2e-4),
        ),
        _ => scenario.with_retry(RetryPolicy::new(1e-3).with_max_retries(n)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memoized batch path is the one-at-a-time digest, element by
    /// element, over batches that mix every system with repeated and
    /// perturbed calibration points and every optional suffix section.
    /// Woven through each batch, one system cycles through 2–5
    /// calibration points (A, B, A, B …) with the `+0.0` and `-0.0`
    /// points adjacent, so its per-system slot misses, falls back to
    /// the map and refills on every step of the cycle.
    #[test]
    fn batch_digests_equal_single_digests(
        parts in proptest::collection::vec(
            (0usize..5, 0usize..6, 0usize..4, 1usize..9, 1usize..20, 0usize..15),
            0..24,
        ),
        (sys, zero, points, len) in (0usize..5, 0usize..4, 2usize..6, 0usize..32),
    ) {
        let random = parts.iter().map(|&(sys, choice, zero, nranks, steps, extra)| {
            with_extras(bsp_steps(System::all()[sys], nranks, steps), extra)
                .with_params(params_for(choice, zero))
        });
        // Choices 3 and 4 zero one field with either sign; the cycle
        // starts with them, then adds the unperturbed and scaled points.
        let cycle = [3, 4, 0, 1, 5];
        let alternating = (0..len).map(|j| {
            with_extras(bsp_steps(System::all()[sys], 4, 3), j % 15)
                .with_params(params_for(cycle[j % points], zero))
        });
        let mut batch: Vec<Scenario> = Vec::new();
        let (mut random, mut alternating) = (random.peekable(), alternating.peekable());
        while random.peek().is_some() || alternating.peek().is_some() {
            batch.extend(random.next());
            batch.extend(alternating.next());
        }
        let batched = Scenario::digests(&batch);
        prop_assert_eq!(batched.len(), batch.len());
        for (scenario, digest) in batch.iter().zip(&batched) {
            prop_assert_eq!(*digest, scenario.digest());
        }
    }
}

/// One 16-rank quick-fidelity cell per workload kind on Longs, at the
/// bench sweep's quick sizes (the application kinds at a few steps).
fn quick_cells() -> Vec<Scenario> {
    let (table_words_per_rank, updates_per_rank) = (1 << 21, 1 << 14);
    let (grid_points, nuclides, lookups_per_rank) = (624_000, 64, (1 << 20) / 10);
    let workloads = [
        Workload::Bsp { steps: 20, flops_per_step: 5e6, bytes_per_step: 8e6, sync_bytes: 8.0 },
        Workload::StreamSingle {
            kernel: StreamKernel::Triad,
            elements_per_rank: 4_000_000,
            sweeps: 2,
        },
        Workload::StreamStar {
            kernel: StreamKernel::Copy,
            elements_per_rank: 4_000_000,
            sweeps: 2,
        },
        Workload::Hpl { n: 4096, nb: 256, dgemm_efficiency: 0.85 },
        Workload::DgemmSingle { n: 1000, reps: 1, variant: BlasVariant::Acml },
        Workload::DgemmStar { n: 1000, reps: 1, variant: BlasVariant::Vanilla },
        Workload::FftSingle { points_per_rank: 1 << 20, reps: 1 },
        Workload::FftStar { points_per_rank: 1 << 20, reps: 1 },
        Workload::RandomAccessSingle { table_words_per_rank, updates_per_rank },
        Workload::RandomAccessStar { table_words_per_rank, updates_per_rank },
        Workload::RandomAccessMpi { table_words_per_rank, updates_per_rank },
        Workload::Ptrans { n: 2048, reps: 2, block_bytes: 8192.0 },
        Workload::PingPong { bytes: 65536.0, reps: 10 },
        Workload::NasCg { class: CgClass::A },
        Workload::NasFt { class: FtClass::A },
        Workload::DaxpySingle { n: 250_000, reps: 5, variant: BlasVariant::Acml },
        Workload::DaxpyStar { n: 1_000_000, reps: 5, variant: BlasVariant::Vanilla },
        Workload::XsLookupSingle { grid_points, nuclides, lookups_per_rank },
        Workload::XsLookupStar { grid_points, nuclides, lookups_per_rank },
        Workload::Amber {
            atoms: 23_558,
            method: AmberMethod::Pme,
            grid_points: 262_144.0,
            steps: 2,
        },
        Workload::AmberFftPart {
            atoms: 2_492,
            method: AmberMethod::Gb,
            grid_points: 1572.5,
            steps: 5,
        },
        Workload::Lammps { bench: LammpsBenchmark::Chain },
        Workload::PopBaroclinic { nx: 320, ny: 384, nz: 40, steps: 2, cg_iterations: 40 },
        Workload::PopBarotropic { nx: 320, ny: 384, nz: 40, steps: 2, cg_iterations: 40 },
        Workload::NasCgHybrid { class: CgClass::A, threads: 2 },
        Workload::NasFtHybrid { class: FtClass::A, threads: 4 },
        Workload::Ring { bytes: 8.0, reps: 5 },
        Workload::Exchange { bytes: 65536.0, reps: 4 },
    ];
    workloads
        .into_iter()
        .map(|w| Scenario::new(System::Longs, 16, w).with_fidelity(Fidelity::Quick))
        .collect()
}

/// Appends one op's kind, label, peers, tag and every f64 (as its bit
/// pattern) to `out`.
fn encode_op(op: &Op, out: &mut Vec<u8>) {
    fn f(x: f64, out: &mut Vec<u8>) {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    match op {
        Op::Compute(p) => {
            out.push(b'C');
            out.extend_from_slice(p.label.as_bytes());
            out.push(0);
            f(p.flops, out);
            f(p.efficiency, out);
            f(p.traffic.bytes, out);
            f(p.traffic.working_set, out);
            out.push(match p.traffic.pattern {
                AccessPattern::Stream => 0,
                AccessPattern::Random => 1,
                AccessPattern::Strided => 2,
                AccessPattern::Blocked => 3,
                AccessPattern::Lookup => 4,
            });
            f(p.traffic.reuse, out);
            match &p.layout {
                None => out.push(0),
                Some(layout) => {
                    out.push(1);
                    out.extend_from_slice(&(layout.num_nodes() as u64).to_le_bytes());
                    for (node, share) in layout.shares() {
                        out.extend_from_slice(&(node.index() as u64).to_le_bytes());
                        f(share, out);
                    }
                }
            }
        }
        Op::Send { to, bytes, tag, cost } => {
            out.push(b'S');
            out.extend_from_slice(&(to.index() as u64).to_le_bytes());
            f(*bytes, out);
            out.extend_from_slice(&tag.to_le_bytes());
            f(cost.setup, out);
            f(cost.cap, out);
            f(cost.sender_busy, out);
            out.push(u8::from(cost.rendezvous));
        }
        Op::Recv { from, tag } => {
            out.push(b'R');
            out.extend_from_slice(&(from.index() as u64).to_le_bytes());
            out.extend_from_slice(&tag.to_le_bytes());
        }
        Op::Barrier => out.push(b'B'),
        Op::Delay(seconds) => {
            out.push(b'D');
            f(*seconds, out);
        }
    }
}

/// The crc of a scenario's lowered programs: each rank's expanded op
/// stream is encoded and crc'd on its own, and the world's crc covers
/// the rank count and every rank's op count and crc, in rank order. A
/// scenario that cannot be placed has no programs and pins 0.
fn op_stream_crc(scenario: &Scenario) -> u32 {
    let machine = scenario.system.machine_with(&scenario.params);
    let Ok(world) = scenario.lower(&machine) else { return 0 };
    let mut summary = (world.programs().len() as u64).to_le_bytes().to_vec();
    let mut bytes = Vec::new();
    for program in world.programs() {
        bytes.clear();
        let mut ops = 0u64;
        for op in program.iter() {
            encode_op(&op, &mut bytes);
            ops += 1;
        }
        summary.extend_from_slice(&ops.to_le_bytes());
        summary.extend_from_slice(&crc32(&bytes).to_le_bytes());
    }
    crc32(&summary)
}

/// crc32s of the expanded op streams ([`op_stream_crc`]) of the golden
/// set, then of [`quick_cells`] (labelled by kind), recorded from the
/// unrolled builders before programs could hold repeat regions. Golden
/// rows and workload kinds added later are pinned when they are added.
const OP_STREAMS: [(&str, u32); 68] = [
    ("tiger-bsp", 0xec498343),
    ("dmz-bsp", 0xd620a332),
    ("longs-bsp", 0x5c1ab490),
    ("epyc-bsp", 0x5a78758e),
    ("hbm-bsp", 0x11754c82),
    ("hbm-stream-quick", 0xd45b6ebe),
    ("dmz-pingpong-lam", 0x28990a15),
    ("longs-faults", 0xc332a5fe),
    ("dmz-checkpoint", 0xd620a332),
    ("tiger-retry", 0xec498343),
    ("longs-params", 0xc332a5fe),
    ("epyc-params-openmpi", 0x19ff5e02),
    ("dmz-stream-single", 0x5c5a75a7),
    ("longs-hpl", 0x6a9c62f4),
    ("tiger-dgemm-single", 0xbfa7844d),
    ("dmz-dgemm-star", 0x56c96127),
    ("epyc-fft-single", 0x0d6b7afa),
    ("hbm-fft-star", 0xf62a2f88),
    ("dmz-ra-single", 0x8a345455),
    ("longs-ra-star", 0x7829a248),
    ("dmz-ra-mpi", 0xca8006c3),
    ("longs-ptrans", 0xf83934e8),
    ("dmz-nas-cg", 0x8bf9c215),
    ("longs-nas-ft", 0xb1f9df6b),
    ("tiger-daxpy-single", 0xa4680c57),
    ("epyc-daxpy-star", 0xf0ec1b97),
    ("dmz-xs-single", 0x570066d6),
    ("hbm-xs-star", 0x1c40d3a4),
    ("longs-faults-rest", 0xc332a5fe),
    ("longs-amber-quick", 0x37d97837),
    ("dmz-amber-fft-part", 0x00000000),
    ("tiger-lammps-eam", 0xc5a2a353),
    ("longs-pop-baroclinic", 0x646c311e),
    ("dmz-pop-barotropic", 0x641486da),
    ("longs-nas-cg-hybrid", 0xb5733d15),
    ("epyc-nas-ft-hybrid", 0x95136ebe),
    ("longs-amber-fft-part", 0x696b5779),
    ("dmz-ring", 0xf880caab),
    ("dmz-exchange", 0x216795f2),
    ("dmz-exchange-parked", 0xd18c5209),
    ("bsp", 0xc6e85092),
    ("stream-single", 0xa860bd6b),
    ("stream-star", 0xa7bb02c7),
    ("hpl", 0x6a9c62f4),
    ("dgemm-single", 0x11b76d4e),
    ("dgemm-star", 0x32a290df),
    ("fft-single", 0xa181359f),
    ("fft-star", 0x6547ea2d),
    ("randomaccess-single", 0xa73fb133),
    ("randomaccess-star", 0xcc6da153),
    ("randomaccess-mpi", 0x30803aed),
    ("ptrans", 0x21a4e603),
    ("pingpong", 0xcebe76ec),
    ("nas-cg", 0x257737d9),
    ("nas-ft", 0xd3c0a50c),
    ("daxpy-single", 0xa3536b24),
    ("daxpy-star", 0x02ac5c65),
    ("xslookup-single", 0xf779f940),
    ("xslookup-star", 0xfdc6d8b9),
    ("amber", 0x02f02e81),
    ("amber-fft-part", 0xd772af14),
    ("lammps", 0xead306e6),
    ("pop-baroclinic", 0xd56d897a),
    ("pop-barotropic", 0xd1b768b7),
    ("nas-cg-hybrid", 0xb5733d15),
    ("nas-ft-hybrid", 0x0c6bc270),
    ("ring", 0x8aa32184),
    ("exchange", 0x13e18434),
];

#[test]
fn expanded_op_streams_are_unchanged() {
    let labelled =
        golden_set().into_iter().chain(quick_cells().into_iter().map(|s| (s.workload.kind(), s)));
    let computed: Vec<(&str, u32)> =
        labelled.map(|(label, scenario)| (label, op_stream_crc(&scenario))).collect();
    assert_eq!(computed.len(), OP_STREAMS.len());
    let mismatches: Vec<String> = computed
        .iter()
        .zip(OP_STREAMS)
        .filter(|(got, pinned)| **got != *pinned)
        .map(|((label, crc), _)| format!("(\"{label}\", {crc:#010x}),"))
        .collect();
    assert!(mismatches.is_empty(), "op streams moved:\n{}", mismatches.join("\n"));
}
