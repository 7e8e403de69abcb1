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
//! `serve` wire form. The property test then checks that the memoized
//! batch path ([`Scenario::digests`]) agrees with the one-at-a-time path
//! on random mixed batches.

use corescope_affinity::Scheme;
use corescope_apps::md::{AmberMethod, LammpsBenchmark};
use corescope_kernels::blas::BlasVariant;
use corescope_kernels::cg::CgClass;
use corescope_kernels::nasft::FtClass;
use corescope_kernels::stream::StreamKernel;
use corescope_machine::faults::FaultPlan;
use corescope_machine::ids::{LinkId, NumaNodeId, RankId, SocketId};
use corescope_machine::recovery::{CheckpointPolicy, CheckpointTarget, RetryPolicy};
use corescope_machine::CalibParams;
use corescope_sched::json::{self, Value};
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
    ]
}

/// Hex digests. The first twelve were recorded before the streaming
/// encoder and the prefix-shared batch digests existed; the next
/// seventeen before the workload and fault codecs were generated from
/// one table; the last seven when the application workloads joined.
const GOLDEN: [(&str, &str); 36] = [
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
];

/// [`Scenario::to_json`] of the golden set, recorded alongside the
/// later digests: the exact bytes a `serve` client sends and receives.
const WIRE: [(&str, &str); 36] = [
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
