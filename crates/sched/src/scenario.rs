//! The Scenario IR: a canonical value that fully determines one engine
//! run, with a stable content digest and a serde-free JSON form.
//!
//! A [`Scenario`] names everything that feeds the simulation — the
//! machine (whose *full spec* is folded into the digest, not just its
//! name), the fidelity, the workload and its resolved parameters, the
//! placement scheme, the MPI implementation and lock layer, the fault
//! plan, and the recovery policies. Because the engine is deterministic
//! (PR 2's bit-identical guarantee), two scenarios with equal digests
//! produce equal [`ScenarioResult`]s, which is what makes the
//! content-addressed cache in [`crate::cache`] sound.

use crate::encode::{Digest, Encoder};
use crate::fidelity::Fidelity;
use crate::json::{self, Value};
use corescope_affinity::{os_scatter, policy, Scheme};
use corescope_apps::md::{AmberBenchmark, AmberMethod, LammpsBenchmark};
use corescope_apps::ocean::PopModel;
use corescope_apps::xs::{self, TablePlacement};
use corescope_kernels::blas::{
    append_daxpy_single, append_daxpy_star, append_dgemm_single, append_dgemm_star, BlasVariant,
    DaxpyParams, DgemmParams,
};
use corescope_kernels::cg::{CgClass, NasCg as CgKernel};
use corescope_kernels::fft::{append_single as fft_single, append_star as fft_star, FftParams};
use corescope_kernels::hpl::{append_run as hpl_run, HplParams};
use corescope_kernels::nasft::{FtClass, NasFt as FtKernel};
use corescope_kernels::ptrans::{append_run as ptrans_run, PtransParams};
use corescope_kernels::randomaccess::{
    append_mpi as ra_mpi, append_single as ra_single, append_star as ra_star, RaParams,
};
use corescope_kernels::stream::{
    append_single as stream_single, append_star as stream_star, StreamKernel, StreamParams,
};
use corescope_kernels::xslookup::XsParams;
use corescope_machine::engine::RankPlacement;
use corescope_machine::{
    CalibParams, CheckpointPolicy, CheckpointTarget, ComputePhase, Error, FaultEvent, FaultKind,
    FaultPlan, LinkId, Machine, MachineSpec, NumaNodeId, RankId, Result, RetryPolicy, RunReport,
    SocketId, TrafficProfile,
};
use corescope_smpi::{CommWorld, LockLayer, MpiImpl};
use corescope_topo::Generation;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The evaluation machines: the paper's Table 1 systems plus the
/// modern `corescope-topo` generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Cray XD1 node, 2 × single-core Opteron 248.
    Tiger,
    /// 2 × dual-core Opteron 275.
    Dmz,
    /// Iwill H8501, 8 × dual-core Opteron 865.
    Longs,
    /// Modern: 2 packages × 4 chiplets × 4 cores, on-package mesh.
    Epyc,
    /// Modern: 16-core node with DRAM plus an HBM memory-only node.
    Hbm,
}

/// A request named a machine generation that does not exist. Carries
/// the requested string so `repro --machine` can report it next to the
/// valid generation list instead of guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSystem {
    /// What the request said, verbatim.
    pub requested: String,
}

impl std::fmt::Display for UnknownSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let valid: Vec<&str> = System::all().iter().map(|s| s.key()).collect();
        write!(
            f,
            "unknown machine '{}' (valid generations are {})",
            self.requested,
            valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownSystem {}

impl System {
    /// Every system, oldest generation first.
    pub fn all() -> [System; 5] {
        [System::Tiger, System::Dmz, System::Longs, System::Epyc, System::Hbm]
    }

    /// Stable lowercase key (JSON and encoding).
    pub fn key(self) -> &'static str {
        self.generation().key()
    }

    /// Parses [`System::key`] output.
    pub fn parse(s: &str) -> Option<System> {
        System::all().into_iter().find(|sys| sys.key() == s)
    }

    /// Parses a machine key with a typed error for unknown names —
    /// backs the `repro --machine` axis, so a typo reports the valid
    /// generation list instead of silently running the default sweep.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSystem`] carrying the requested string.
    pub fn from_key(s: &str) -> std::result::Result<System, UnknownSystem> {
        System::parse(&s.to_lowercase()).ok_or_else(|| UnknownSystem { requested: s.to_string() })
    }

    /// The corresponding `corescope-topo` generation: every system is
    /// built through the generator (byte-identical to the historical
    /// `systems::*` constructors for the 2006 machines).
    pub fn generation(self) -> Generation {
        match self {
            System::Tiger => Generation::Tiger,
            System::Dmz => Generation::Dmz,
            System::Longs => Generation::Longs,
            System::Epyc => Generation::Epyc,
            System::Hbm => Generation::Hbm,
        }
    }

    /// The preset machine spec.
    pub fn spec(self) -> MachineSpec {
        self.spec_with(&CalibParams::paper_2006())
    }

    /// The machine spec built from an arbitrary calibration point.
    pub fn spec_with(self, params: &CalibParams) -> MachineSpec {
        self.generation().spec_with(params)
    }

    /// Builds the machine.
    pub fn machine(self) -> Machine {
        Machine::new(self.spec())
    }

    /// Builds the machine from an arbitrary calibration point.
    pub fn machine_with(self, params: &CalibParams) -> Machine {
        Machine::new(self.spec_with(params))
    }
}

/// How ranks are pinned and their memory placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// One of the paper's Table 5 `numactl` schemes.
    Scheme(Scheme),
    /// lmbench-style: spread over sockets first, memory allocated locally
    /// (the STREAM scaling figures' core-activation order).
    ScatterLocal,
}

impl Placement {
    /// Stable lowercase key (JSON and encoding); scheme placements reuse
    /// [`Scheme::key`], the CSV column identifiers.
    pub fn key(self) -> &'static str {
        match self {
            Placement::Scheme(s) => s.key(),
            Placement::ScatterLocal => "scatter-local",
        }
    }

    /// Parses [`Placement::key`] output.
    pub fn parse(s: &str) -> Option<Placement> {
        if s == "scatter-local" {
            return Some(Placement::ScatterLocal);
        }
        Scheme::all().into_iter().find(|sch| sch.key() == s).map(Placement::Scheme)
    }

    /// Resolves the placement on a machine.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (typically [`Error::InvalidPlacement`]
    /// when the machine cannot host `nranks` under this placement).
    pub fn resolve(self, machine: &Machine, nranks: usize) -> Result<Vec<RankPlacement>> {
        self.resolve_with(machine, nranks, policy::DEFAULT_MISPLACEMENT)
    }

    /// [`Placement::resolve`] with an explicit first-touch misplacement
    /// fraction; only [`Scheme::Default`] placements are sensitive to it.
    ///
    /// # Errors
    ///
    /// Same as [`Placement::resolve`].
    pub fn resolve_with(
        self,
        machine: &Machine,
        nranks: usize,
        misplacement: f64,
    ) -> Result<Vec<RankPlacement>> {
        match self {
            Placement::Scheme(scheme) => scheme.resolve_with(machine, nranks, misplacement),
            Placement::ScatterLocal => Ok(os_scatter(machine, nranks)?
                .into_iter()
                .map(|core| RankPlacement::new(core, policy::local(machine, core)))
                .collect()),
        }
    }

    /// Whether the placement can host `nranks` on `system` (the paper's
    /// "—" cells enumerate the ones that cannot).
    pub fn placeable(self, system: System, nranks: usize) -> bool {
        self.resolve(&system.machine(), nranks).is_ok()
    }
}

/// The table-page placement a scenario placement implies for the
/// xslookup workloads: scheme placements map per Table 5
/// ([`TablePlacement::from_scheme`]); scatter-local pins memory
/// explicitly, so its tables first-touch with no misplacement.
fn table_placement(placement: Placement, misplacement: f64) -> TablePlacement {
    match placement {
        Placement::Scheme(scheme) => TablePlacement::from_scheme(scheme, misplacement),
        Placement::ScatterLocal => TablePlacement::FirstTouch { misplacement: 0.0 },
    }
}

pub(crate) fn mpi_key(mpi: MpiImpl) -> &'static str {
    match mpi {
        MpiImpl::Mpich2 => "mpich2",
        MpiImpl::Lam => "lam",
        MpiImpl::OpenMpi => "openmpi",
    }
}

fn mpi_parse(s: &str) -> Option<MpiImpl> {
    MpiImpl::all().into_iter().find(|&m| mpi_key(m) == s)
}

fn lock_parse(s: &str) -> Option<LockLayer> {
    [LockLayer::SysV, LockLayer::USysV].into_iter().find(|l| l.key() == s)
}

/// One leaf field of a codec table: how a value is folded into the
/// digest stream, rendered as a JSON value, and parsed back.
trait Leaf: Sized {
    /// What a parse error says the field must hold.
    const EXPECTED: &'static str;
    fn encode(self, name: &str, enc: &mut Encoder);
    fn render(self, out: &mut String);
    fn parse(v: &Value) -> Option<Self>;
}

impl Leaf for usize {
    const EXPECTED: &'static str = "an integer below 2^53";
    fn encode(self, name: &str, enc: &mut Encoder) {
        enc.usize(name, self);
    }
    fn render(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(v: &Value) -> Option<Self> {
        v.as_usize()
    }
}

impl Leaf for u64 {
    const EXPECTED: &'static str = usize::EXPECTED;
    fn encode(self, name: &str, enc: &mut Encoder) {
        enc.u64(name, self);
    }
    fn render(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(v: &Value) -> Option<Self> {
        v.as_usize().map(|n| n as u64)
    }
}

impl Leaf for f64 {
    const EXPECTED: &'static str = "a number";
    fn encode(self, name: &str, enc: &mut Encoder) {
        enc.f64(name, self);
    }
    fn render(self, out: &mut String) {
        out.push_str(&json::num(self));
    }
    fn parse(v: &Value) -> Option<Self> {
        v.as_f64()
    }
}

/// Machine ids travel as their plain index.
macro_rules! id_leaves {
    ($($id:ident),+) => {$(
        impl Leaf for $id {
            const EXPECTED: &'static str = usize::EXPECTED;
            fn encode(self, name: &str, enc: &mut Encoder) {
                self.index().encode(name, enc);
            }
            fn render(self, out: &mut String) {
                self.index().render(out);
            }
            fn parse(v: &Value) -> Option<Self> {
                usize::parse(v).map($id::new)
            }
        }
    )+};
}

id_leaves!(LinkId, SocketId, RankId);

/// Field-level enums travel as a stable lowercase key: a digest tag and
/// a JSON string.
macro_rules! keyed_leaves {
    ($($ty:ident { $($variant:ident = $key:literal),+ $(,)? })+) => {$(
        impl Leaf for $ty {
            const EXPECTED: &'static str = concat!("one of" $(, " \"", $key, "\"")+);
            fn encode(self, name: &str, enc: &mut Encoder) {
                enc.tag(name, match self { $($ty::$variant => $key),+ });
            }
            fn render(self, out: &mut String) {
                let key = match self { $($ty::$variant => $key),+ };
                let _ = write!(out, "\"{key}\"");
            }
            fn parse(v: &Value) -> Option<Self> {
                match v.as_str()? {
                    $($key => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }
    )+};
}

keyed_leaves! {
    StreamKernel { Copy = "copy", Scale = "scale", Add = "add", Triad = "triad" }
    BlasVariant { Acml = "acml", Vanilla = "vanilla" }
    CgClass { S = "s", A = "a", B = "b", C = "c" }
    FtClass { S = "s", A = "a", B = "b", C = "c" }
    AmberMethod { Pme = "pme", Gb = "gb" }
    LammpsBenchmark { Lj = "lj", Chain = "chain", Eam = "eam" }
}

/// Reads field `name` of a `what` of kind `kind`; the error names all
/// three.
fn field<T: Leaf>(v: &Value, what: &str, kind: &str, name: &str) -> std::result::Result<T, String> {
    v.get(name)
        .and_then(T::parse)
        .ok_or_else(|| format!("{what} '{kind}' needs \"{name}\": {}", T::EXPECTED))
}

/// A scenario enum whose variants are listed in a [`codec_table!`].
trait KindCodec: Sized {
    /// Stable lowercase kind key (JSON and encoding).
    fn kind(&self) -> &'static str;
    /// Folds every field into the digest stream, in table order.
    fn encode_fields(&self, enc: &mut Encoder);
    /// Appends `,"field":value` for every field, in table order.
    fn render_fields(&self, out: &mut String);
    /// Parses a JSON object holding a `"kind"` key and that kind's
    /// fields.
    fn parse(v: &Value) -> std::result::Result<Self, String>;
}

/// Generates [`KindCodec`] for an enum from one line per variant:
/// `Variant = "kind-key" { field, field, … }`. The field list is the
/// digest order and the JSON key order, and each field's name is both
/// its digest name and its JSON key. Every pattern lists every field
/// with no `..`, so a line that misses a field does not compile.
macro_rules! codec_table {
    ($ty:ident as $what:literal {
        $($variant:ident = $key:literal { $($field:ident),* })+
    }) => {
        impl KindCodec for $ty {
            fn kind(&self) -> &'static str {
                match self {
                    $($ty::$variant { $($field: _),* } => $key,)+
                }
            }

            fn encode_fields(&self, enc: &mut Encoder) {
                match *self {
                    $($ty::$variant { $($field),* } => {
                        $($field.encode(stringify!($field), enc);)*
                    })+
                }
            }

            fn render_fields(&self, out: &mut String) {
                match *self {
                    $($ty::$variant { $($field),* } => {$(
                        out.push_str(concat!(",\"", stringify!($field), "\":"));
                        $field.render(out);
                    )*})+
                }
            }

            fn parse(v: &Value) -> std::result::Result<Self, String> {
                let kind = v.get("kind").and_then(Value::as_str);
                match kind.ok_or(concat!($what, " needs a \"kind\""))? {
                    $($key => Ok($ty::$variant {
                        $($field: field(v, $what, $key, stringify!($field))?),*
                    }),)+
                    other => Err(format!(concat!("unknown ", $what, " kind '{}'"), other)),
                }
            }
        }
    };
}

/// The workload appended to the world — every parameter fully resolved
/// (fidelity scaling happens at enumeration time, in the artifact code).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Bulk-synchronous: `steps` stream-compute phases, each followed by
    /// an allreduce of `sync_bytes` (the X5 recovery-campaign workload).
    Bsp {
        /// Number of compute+allreduce steps.
        steps: usize,
        /// Flops per step per rank.
        flops_per_step: f64,
        /// DRAM bytes streamed per step per rank.
        bytes_per_step: f64,
        /// Allreduce payload per step.
        sync_bytes: f64,
    },
    /// HPCC "Single" STREAM: rank 0 runs, the rest idle.
    StreamSingle {
        /// STREAM kernel.
        kernel: StreamKernel,
        /// Array length per rank.
        elements_per_rank: usize,
        /// Timed sweeps.
        sweeps: usize,
    },
    /// HPCC "Star" STREAM: every rank runs concurrently.
    StreamStar {
        /// STREAM kernel.
        kernel: StreamKernel,
        /// Array length per rank.
        elements_per_rank: usize,
        /// Timed sweeps.
        sweeps: usize,
    },
    /// HPL (LINPACK).
    Hpl {
        /// Global matrix order.
        n: usize,
        /// Block size.
        nb: usize,
        /// Fraction of peak the DGEMM update sustains.
        dgemm_efficiency: f64,
    },
    /// HPCC "Single" DGEMM.
    DgemmSingle {
        /// Matrix order per rank.
        n: usize,
        /// Repetitions.
        reps: usize,
        /// BLAS implementation.
        variant: BlasVariant,
    },
    /// HPCC "Star" DGEMM.
    DgemmStar {
        /// Matrix order per rank.
        n: usize,
        /// Repetitions.
        reps: usize,
        /// BLAS implementation.
        variant: BlasVariant,
    },
    /// HPCC "Single" FFT.
    FftSingle {
        /// Points per rank.
        points_per_rank: usize,
        /// Repetitions.
        reps: usize,
    },
    /// HPCC "Star" FFT.
    FftStar {
        /// Points per rank.
        points_per_rank: usize,
        /// Repetitions.
        reps: usize,
    },
    /// HPCC "Single" RandomAccess.
    RandomAccessSingle {
        /// Table words per rank.
        table_words_per_rank: u64,
        /// Updates per rank.
        updates_per_rank: u64,
    },
    /// HPCC "Star" RandomAccess.
    RandomAccessStar {
        /// Table words per rank.
        table_words_per_rank: u64,
        /// Updates per rank.
        updates_per_rank: u64,
    },
    /// HPCC MPI RandomAccess (global table, all-to-all updates).
    RandomAccessMpi {
        /// Table words per rank.
        table_words_per_rank: u64,
        /// Updates per rank.
        updates_per_rank: u64,
    },
    /// HPCC PTRANS (block-cyclic transpose).
    Ptrans {
        /// Global matrix order.
        n: usize,
        /// Repetitions.
        reps: usize,
        /// Bytes per tile message.
        block_bytes: f64,
    },
    /// IMB-style PingPong between ranks 0 and 1.
    PingPong {
        /// Payload bytes per direction.
        bytes: f64,
        /// Round trips.
        reps: usize,
    },
    /// NAS CG (conjugate gradient, irregular communication).
    NasCg {
        /// Problem class.
        class: CgClass,
    },
    /// NAS FT (3-D FFT, all-to-all transposes).
    NasFt {
        /// Problem class.
        class: FtClass,
    },
    /// HPCC "Single" DAXPY: rank 0 runs, the rest idle.
    DaxpySingle {
        /// Vector length per rank.
        n: usize,
        /// Repetitions.
        reps: usize,
        /// BLAS implementation.
        variant: BlasVariant,
    },
    /// HPCC "Star" DAXPY: every rank runs concurrently.
    DaxpyStar {
        /// Vector length per rank.
        n: usize,
        /// Repetitions.
        reps: usize,
        /// BLAS implementation.
        variant: BlasVariant,
    },
    /// XSBench-style "Single" cross-section lookup: rank 0 streams
    /// lookups through its replicated unionized table, the rest idle.
    /// The table's pages are placed per the scenario's placement scheme
    /// (first-touch with nearest-node spill, interleave, or membind).
    XsLookupSingle {
        /// Unionized energy grid points.
        grid_points: u64,
        /// Nuclides in the material.
        nuclides: u64,
        /// Lookups the rank performs.
        lookups_per_rank: u64,
    },
    /// XSBench-style "Star" cross-section lookup: every rank streams
    /// lookups through its own replicated table concurrently.
    XsLookupStar {
        /// Unionized energy grid points.
        grid_points: u64,
        /// Nuclides in the material.
        nuclides: u64,
        /// Lookups each rank performs.
        lookups_per_rank: u64,
    },
    /// An AMBER `sander` run: `steps` PME or GB MD steps.
    Amber {
        /// Atom count.
        atoms: usize,
        /// Electrostatics method.
        method: AmberMethod,
        /// PME charge-grid points (unused for GB).
        grid_points: f64,
        /// MD steps.
        steps: usize,
    },
    /// Only the FFT part of `steps` AMBER PME steps (what Table 7 times).
    AmberFftPart {
        /// Atom count.
        atoms: usize,
        /// Electrostatics method.
        method: AmberMethod,
        /// PME charge-grid points.
        grid_points: f64,
        /// MD steps.
        steps: usize,
    },
    /// A LAMMPS benchmark run.
    Lammps {
        /// Which of the three benchmarks.
        bench: LammpsBenchmark,
    },
    /// The baroclinic phases of `steps` POP time steps.
    PopBaroclinic {
        /// Horizontal grid x-extent.
        nx: usize,
        /// Horizontal grid y-extent.
        ny: usize,
        /// Vertical levels.
        nz: usize,
        /// Time steps.
        steps: usize,
        /// CG iterations per barotropic solve.
        cg_iterations: usize,
    },
    /// The barotropic phases of `steps` POP time steps.
    PopBarotropic {
        /// Horizontal grid x-extent.
        nx: usize,
        /// Horizontal grid y-extent.
        ny: usize,
        /// Vertical levels.
        nz: usize,
        /// Time steps.
        steps: usize,
        /// CG iterations per barotropic solve.
        cg_iterations: usize,
    },
    /// NAS CG in the hybrid model: one MPI process per `threads` ranks,
    /// OpenMP threads inside it.
    NasCgHybrid {
        /// Problem class.
        class: CgClass,
        /// Threads per MPI process; must divide the world size.
        threads: usize,
    },
    /// NAS FT in the hybrid model: one MPI process per `threads` ranks,
    /// OpenMP threads inside it.
    NasFtHybrid {
        /// Problem class.
        class: FtClass,
        /// Threads per MPI process; must divide the world size.
        threads: usize,
    },
}

codec_table!(Workload as "workload" {
    Bsp = "bsp" { steps, flops_per_step, bytes_per_step, sync_bytes }
    StreamSingle = "stream-single" { kernel, elements_per_rank, sweeps }
    StreamStar = "stream-star" { kernel, elements_per_rank, sweeps }
    Hpl = "hpl" { n, nb, dgemm_efficiency }
    DgemmSingle = "dgemm-single" { n, reps, variant }
    DgemmStar = "dgemm-star" { n, reps, variant }
    FftSingle = "fft-single" { points_per_rank, reps }
    FftStar = "fft-star" { points_per_rank, reps }
    RandomAccessSingle = "randomaccess-single" { table_words_per_rank, updates_per_rank }
    RandomAccessStar = "randomaccess-star" { table_words_per_rank, updates_per_rank }
    RandomAccessMpi = "randomaccess-mpi" { table_words_per_rank, updates_per_rank }
    Ptrans = "ptrans" { n, reps, block_bytes }
    PingPong = "pingpong" { bytes, reps }
    NasCg = "nas-cg" { class }
    NasFt = "nas-ft" { class }
    DaxpySingle = "daxpy-single" { n, reps, variant }
    DaxpyStar = "daxpy-star" { n, reps, variant }
    XsLookupSingle = "xslookup-single" { grid_points, nuclides, lookups_per_rank }
    XsLookupStar = "xslookup-star" { grid_points, nuclides, lookups_per_rank }
    Amber = "amber" { atoms, method, grid_points, steps }
    AmberFftPart = "amber-fft-part" { atoms, method, grid_points, steps }
    Lammps = "lammps" { bench }
    PopBaroclinic = "pop-baroclinic" { nx, ny, nz, steps, cg_iterations }
    PopBarotropic = "pop-barotropic" { nx, ny, nz, steps, cg_iterations }
    NasCgHybrid = "nas-cg-hybrid" { class, threads }
    NasFtHybrid = "nas-ft-hybrid" { class, threads }
});

codec_table!(FaultKind as "fault" {
    LinkDegrade = "link-degrade" { link, factor }
    LinkRestore = "link-restore" { link }
    ControllerThrottle = "controller-throttle" { socket, factor }
    ControllerRestore = "controller-restore" { socket }
    ProbeBrownout = "probe-brownout" { factor }
    ProbeRestore = "probe-restore" {}
    RankStall = "rank-stall" { rank }
    RankResume = "rank-resume" { rank }
    RankKill = "rank-kill" { rank }
    LinkFail = "link-fail" { link }
});

impl Workload {
    /// Stable lowercase kind key (JSON and encoding).
    pub fn kind(&self) -> &'static str {
        KindCodec::kind(self)
    }

    /// The smallest world this workload makes sense in.
    fn min_ranks(&self) -> usize {
        match self {
            Workload::PingPong { .. } => 2,
            _ => 1,
        }
    }

    /// Appends the workload's operations to a world, mirroring the
    /// artifact code it replaces byte-for-byte. The scenario's placement
    /// (and first-touch misplacement fraction) ride along because the
    /// xslookup workloads place their *table* pages per scheme, on top
    /// of the rank placements the world was built with.
    fn append(
        &self,
        world: &mut CommWorld<'_>,
        placement: Placement,
        misplacement: f64,
    ) -> Result<()> {
        match *self {
            Workload::Bsp { steps, flops_per_step, bytes_per_step, sync_bytes } => {
                let phase = ComputePhase::new(
                    "bsp-step",
                    flops_per_step,
                    TrafficProfile::stream(bytes_per_step),
                );
                for _ in 0..steps {
                    world.compute_all(|_| Some(phase.clone()));
                    world.allreduce(sync_bytes);
                }
            }
            Workload::StreamSingle { kernel, elements_per_rank, sweeps } => {
                stream_single(world, &StreamParams { kernel, elements_per_rank, sweeps });
            }
            Workload::StreamStar { kernel, elements_per_rank, sweeps } => {
                stream_star(world, &StreamParams { kernel, elements_per_rank, sweeps });
            }
            Workload::Hpl { n, nb, dgemm_efficiency } => {
                hpl_run(world, &HplParams { n, nb, dgemm_efficiency });
            }
            Workload::DgemmSingle { n, reps, variant } => {
                append_dgemm_single(world, &DgemmParams { n, reps, variant });
            }
            Workload::DgemmStar { n, reps, variant } => {
                append_dgemm_star(world, &DgemmParams { n, reps, variant });
            }
            Workload::FftSingle { points_per_rank, reps } => {
                fft_single(world, &FftParams { points_per_rank, reps });
            }
            Workload::FftStar { points_per_rank, reps } => {
                fft_star(world, &FftParams { points_per_rank, reps });
            }
            Workload::RandomAccessSingle { table_words_per_rank, updates_per_rank } => {
                ra_single(world, &RaParams { table_words_per_rank, updates_per_rank });
            }
            Workload::RandomAccessStar { table_words_per_rank, updates_per_rank } => {
                ra_star(world, &RaParams { table_words_per_rank, updates_per_rank });
            }
            Workload::RandomAccessMpi { table_words_per_rank, updates_per_rank } => {
                ra_mpi(world, &RaParams { table_words_per_rank, updates_per_rank });
            }
            Workload::Ptrans { n, reps, block_bytes } => {
                ptrans_run(world, &PtransParams { n, reps, block_bytes });
            }
            Workload::PingPong { bytes, reps } => {
                for _ in 0..reps {
                    world.p2p(0, 1, bytes);
                    world.p2p(1, 0, bytes);
                }
            }
            Workload::NasCg { class } => {
                CgKernel { class }.append_run(world);
            }
            Workload::NasFt { class } => {
                FtKernel { class }.append_run(world);
            }
            Workload::DaxpySingle { n, reps, variant } => {
                append_daxpy_single(world, &DaxpyParams { n, reps, variant });
            }
            Workload::DaxpyStar { n, reps, variant } => {
                append_daxpy_star(world, &DaxpyParams { n, reps, variant });
            }
            Workload::XsLookupSingle { grid_points, nuclides, lookups_per_rank } => {
                let params = XsParams { grid_points, nuclides, lookups_per_rank };
                xs::append_single(world, &params, table_placement(placement, misplacement))?;
            }
            Workload::XsLookupStar { grid_points, nuclides, lookups_per_rank } => {
                let params = XsParams { grid_points, nuclides, lookups_per_rank };
                xs::append_star(world, &params, table_placement(placement, misplacement))?;
            }
            Workload::Amber { atoms, method, grid_points, steps } => {
                amber(atoms, method, grid_points, steps).append_run(world);
            }
            Workload::AmberFftPart { atoms, method, grid_points, steps } => {
                let bench = amber(atoms, method, grid_points, steps);
                for _ in 0..steps {
                    bench.append_pme_fft_part(world);
                }
            }
            Workload::Lammps { bench } => bench.append_run(world),
            Workload::PopBaroclinic { nx, ny, nz, steps, cg_iterations } => {
                PopModel { nx, ny, nz, steps, cg_iterations }.append_baroclinic(world, steps);
            }
            Workload::PopBarotropic { nx, ny, nz, steps, cg_iterations } => {
                PopModel { nx, ny, nz, steps, cg_iterations }.append_barotropic(world, steps);
            }
            Workload::NasCgHybrid { class, threads } => {
                CgKernel { class }.append_run_hybrid(world, threads);
            }
            Workload::NasFtHybrid { class, threads } => {
                FtKernel { class }.append_run_hybrid(world, threads);
            }
        }
        Ok(())
    }
}

/// An AMBER benchmark from its inputs; the name is only a label and no
/// append reads it.
fn amber(atoms: usize, method: AmberMethod, grid_points: f64, steps: usize) -> AmberBenchmark {
    AmberBenchmark { name: "", atoms, method, grid_points, steps }
}

/// One fully-specified engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The machine.
    pub system: System,
    /// Fidelity the parameters were resolved at (part of the identity:
    /// quick and full runs never share a cache entry).
    pub fidelity: Fidelity,
    /// World size.
    pub nranks: usize,
    /// Rank/memory placement.
    pub placement: Placement,
    /// MPI implementation (selects the cost profile).
    pub mpi: MpiImpl,
    /// Lock sub-layer.
    pub lock: LockLayer,
    /// The workload.
    pub workload: Workload,
    /// Scheduled mid-run faults (empty == fault-free).
    pub faults: FaultPlan,
    /// Checkpoint/restart policy, if any.
    pub recovery: Option<CheckpointPolicy>,
    /// Transport retry policy, if any.
    pub retry: Option<RetryPolicy>,
    /// The calibration point the machine and MPI substrate are built
    /// from. Part of the identity: every field is folded into the digest,
    /// so results can never alias across parameter points.
    pub params: CalibParams,
}

impl Scenario {
    /// A scenario with the defaults the application tables use: full
    /// fidelity, two-MPI-per-socket localalloc placement, MPICH2 with
    /// spin locks, no faults, no recovery.
    pub fn new(system: System, nranks: usize, workload: Workload) -> Self {
        Self {
            system,
            fidelity: Fidelity::Full,
            nranks,
            placement: Placement::Scheme(Scheme::TwoMpiLocalAlloc),
            mpi: MpiImpl::Mpich2,
            lock: LockLayer::USysV,
            workload,
            faults: FaultPlan::new(),
            recovery: None,
            retry: None,
            params: CalibParams::paper_2006(),
        }
    }

    /// Sets the calibration point.
    #[must_use]
    pub fn with_params(mut self, params: CalibParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the fidelity tag.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the placement.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the MPI implementation.
    #[must_use]
    pub fn with_mpi(mut self, mpi: MpiImpl) -> Self {
        self.mpi = mpi;
        self
    }

    /// Sets the lock sub-layer.
    #[must_use]
    pub fn with_lock(mut self, lock: LockLayer) -> Self {
        self.lock = lock;
        self
    }

    /// Sets the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the checkpoint/restart policy.
    #[must_use]
    pub fn with_recovery(mut self, policy: CheckpointPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Sets the transport retry policy.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Cheap structural checks before a run is attempted (the engine
    /// still validates everything it consumes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] for zero ranks or a workload that
    /// cannot fit the world size.
    pub fn validate(&self) -> Result<()> {
        if self.nranks == 0 {
            return Err(Error::InvalidSpec("scenario needs at least one rank".to_string()));
        }
        let min = self.workload.min_ranks();
        if self.nranks < min {
            return Err(Error::InvalidSpec(format!(
                "workload '{}' needs at least {min} ranks, scenario has {}",
                self.workload.kind(),
                self.nranks
            )));
        }
        if let Workload::NasCgHybrid { threads, .. } | Workload::NasFtHybrid { threads, .. } =
            self.workload
        {
            if !self.nranks.is_multiple_of(threads) {
                return Err(Error::InvalidSpec(format!(
                    "workload '{}' needs a world size divisible by its {threads} threads, \
                     scenario has {}",
                    self.workload.kind(),
                    self.nranks
                )));
            }
        }
        if !self.params.in_bounds() {
            return Err(Error::InvalidSpec(
                "scenario calibration point is outside its documented bounds".to_string(),
            ));
        }
        Ok(())
    }

    /// The canonical content digest: [`crate::ENGINE_TAG`] plus every
    /// field, with the machine's *full spec* (not just its name) folded
    /// in so a spec change orphans stale entries.
    ///
    /// The byte stream is a `(system, params)` prefix followed by the
    /// per-scenario suffix; [`Scenario::digests`] hashes each distinct
    /// prefix once per batch and resumes every suffix from it.
    pub fn digest(&self) -> Digest {
        self.digest_after(digest_prefix(self.system, &self.params))
    }

    /// [`Scenario::digest`] for every scenario of a batch, in order. The
    /// prefix — engine tag, full machine spec and calibration point, the
    /// bulk of the encoded bytes — is computed once per distinct
    /// `(system, params)` pair in the batch. Params are keyed by bit
    /// pattern, matching the encoding, so `0.0` and `-0.0` never share a
    /// prefix.
    pub fn digests(batch: &[Scenario]) -> Vec<Digest> {
        let mut prefixes: HashMap<(System, ParamBits), Digest> = HashMap::new();
        batch
            .iter()
            .map(|s| {
                let prefix = *prefixes
                    .entry((s.system, param_bits(&s.params)))
                    .or_insert_with(|| digest_prefix(s.system, &s.params));
                s.digest_after(prefix)
            })
            .collect()
    }

    /// The per-scenario suffix of the digest stream, resumed from the
    /// `(system, params)` prefix state.
    fn digest_after(&self, prefix: Digest) -> Digest {
        let mut enc = Encoder::resume(prefix);
        enc.tag("system", self.system.key())
            .tag("fidelity", self.fidelity.key())
            .usize("nranks", self.nranks)
            .tag("placement", self.placement.key())
            .tag("mpi", mpi_key(self.mpi))
            .tag("lock", self.lock.key());
        enc.tag("workload", self.workload.kind());
        self.workload.encode_fields(&mut enc);
        enc.list("faults", self.faults.events().len());
        for event in self.faults.events() {
            enc.f64("at", event.at).tag("kind", event.kind.kind());
            event.kind.encode_fields(&mut enc);
        }
        match &self.recovery {
            None => {
                enc.tag("recovery", "none");
            }
            Some(p) => {
                enc.tag("recovery", "checkpoint")
                    .f64("interval", p.interval)
                    .f64("bytes_per_rank", p.bytes_per_rank)
                    .f64("restart_delay", p.restart_delay);
                match p.target {
                    CheckpointTarget::OwnLayout => enc.tag("target", "own"),
                    CheckpointTarget::Node(node) => {
                        enc.tag("target", "node").usize("node", node.index())
                    }
                };
            }
        }
        match &self.retry {
            None => {
                enc.tag("retry", "none");
            }
            Some(r) => {
                enc.tag("retry", "some")
                    .f64("detection_timeout", r.detection_timeout)
                    .f64("backoff", r.backoff)
                    .usize("max_retries", r.max_retries);
            }
        }
        enc.digest()
    }

    /// Runs the scenario on a fresh engine.
    ///
    /// # Errors
    ///
    /// Propagates placement and engine errors.
    pub fn run(&self) -> Result<ScenarioResult> {
        self.validate()?;
        let machine = self.system.machine_with(&self.params);
        let placements =
            self.placement.resolve_with(&machine, self.nranks, self.params.misplacement)?;
        let mut world =
            CommWorld::new(&machine, placements, self.mpi.profile_with(&self.params), self.lock);
        self.workload.append(&mut world, self.placement, self.params.misplacement)?;
        if let Some(policy) = &self.recovery {
            world = world.with_recovery(policy.clone());
        }
        if let Some(policy) = &self.retry {
            world = world.with_retry(policy.clone());
        }
        let report = world.run_with_faults(&self.faults)?;
        Ok(ScenarioResult::from_report(&report))
    }

    /// Renders the scenario as a single-line JSON object (the
    /// `corescope-serve` request body).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"system\":\"{}\",\"fidelity\":\"{}\",\"nranks\":{},\"placement\":\"{}\",\
             \"mpi\":\"{}\",\"lock\":\"{}\",\"workload\":{{\"kind\":\"{}\"",
            self.system.key(),
            self.fidelity.key(),
            self.nranks,
            self.placement.key(),
            mpi_key(self.mpi),
            self.lock.key(),
            self.workload.kind(),
        );
        self.workload.render_fields(&mut out);
        out.push('}');
        for (i, event) in self.faults.events().iter().enumerate() {
            out.push_str(if i == 0 { ",\"faults\":[" } else { "," });
            let _ =
                write!(out, "{{\"at\":{},\"kind\":\"{}\"", json::num(event.at), event.kind.kind());
            event.kind.render_fields(&mut out);
            out.push('}');
        }
        if !self.faults.events().is_empty() {
            out.push(']');
        }
        if let Some(p) = &self.recovery {
            let target = match p.target {
                CheckpointTarget::OwnLayout => "\"own\"".to_string(),
                CheckpointTarget::Node(node) => format!("{{\"node\":{}}}", node.index()),
            };
            out.push_str(&format!(
                ",\"recovery\":{{\"interval\":{},\"bytes_per_rank\":{},\"target\":{target},\
                 \"restart_delay\":{}}}",
                json::num(p.interval),
                json::num(p.bytes_per_rank),
                json::num(p.restart_delay),
            ));
        }
        if let Some(r) = &self.retry {
            out.push_str(&format!(
                ",\"retry\":{{\"detection_timeout\":{},\"backoff\":{},\"max_retries\":{}}}",
                json::num(r.detection_timeout),
                json::num(r.backoff),
                r.max_retries,
            ));
        }
        if self.params != CalibParams::paper_2006() {
            let fields: Vec<String> = CalibParams::FIELDS
                .iter()
                .map(|f| format!("\"{}\":{}", f.name, json::num(f.read(&self.params))))
                .collect();
            out.push_str(&format!(",\"params\":{{{}}}", fields.join(",")));
        }
        out.push('}');
        out
    }

    /// Parses a scenario from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first missing or malformed
    /// field.
    pub fn from_json(v: &Value) -> std::result::Result<Scenario, String> {
        let system = v
            .get("system")
            .and_then(Value::as_str)
            .and_then(System::parse)
            .ok_or("scenario needs \"system\": tiger|dmz|longs|epyc|hbm")?;
        let fidelity = match v.get("fidelity") {
            None => Fidelity::Full,
            Some(f) => {
                f.as_str().and_then(Fidelity::parse).ok_or("bad \"fidelity\" (full|quick)")?
            }
        };
        let nranks =
            v.get("nranks").and_then(Value::as_usize).ok_or("scenario needs integer \"nranks\"")?;
        let placement = match v.get("placement") {
            None => Placement::Scheme(Scheme::TwoMpiLocalAlloc),
            Some(p) => p
                .as_str()
                .and_then(Placement::parse)
                .ok_or("bad \"placement\" (a scheme key or scatter-local)")?,
        };
        let mpi = match v.get("mpi") {
            None => MpiImpl::Mpich2,
            Some(m) => m.as_str().and_then(mpi_parse).ok_or("bad \"mpi\" (mpich2|lam|openmpi)")?,
        };
        let lock = match v.get("lock") {
            None => LockLayer::USysV,
            Some(l) => l.as_str().and_then(lock_parse).ok_or("bad \"lock\" (sysv|usysv)")?,
        };
        let workload =
            Workload::parse(v.get("workload").ok_or("scenario needs a \"workload\" object")?)?;
        let mut faults = FaultPlan::new();
        if let Some(list) = v.get("faults") {
            for event in list.as_arr().ok_or("\"faults\" must be an array")? {
                let kind = FaultKind::parse(event)?;
                faults.push(FaultEvent { at: field(event, "fault", kind.kind(), "at")?, kind });
            }
        }
        let recovery = match v.get("recovery") {
            None | Some(Value::Null) => None,
            Some(r) => {
                let interval = r
                    .get("interval")
                    .and_then(Value::as_f64)
                    .ok_or("recovery needs \"interval\"")?;
                let bytes = r
                    .get("bytes_per_rank")
                    .and_then(Value::as_f64)
                    .ok_or("recovery needs \"bytes_per_rank\"")?;
                let mut policy = CheckpointPolicy::new(interval, bytes);
                match r.get("target") {
                    None => {}
                    Some(Value::Str(s)) if s == "own" => {}
                    Some(t) => {
                        let node = t
                            .get("node")
                            .and_then(Value::as_usize)
                            .ok_or("recovery \"target\" must be \"own\" or {\"node\": i}")?;
                        policy = policy.with_target(CheckpointTarget::Node(NumaNodeId::new(node)));
                    }
                }
                if let Some(d) = r.get("restart_delay") {
                    policy = policy
                        .with_restart_delay(d.as_f64().ok_or("bad recovery \"restart_delay\"")?);
                }
                Some(policy)
            }
        };
        let retry = match v.get("retry") {
            None | Some(Value::Null) => None,
            Some(r) => {
                let timeout = r
                    .get("detection_timeout")
                    .and_then(Value::as_f64)
                    .ok_or("retry needs \"detection_timeout\"")?;
                let mut policy = RetryPolicy::new(timeout);
                if let Some(b) = r.get("backoff") {
                    policy = policy.with_backoff(b.as_f64().ok_or("bad retry \"backoff\"")?);
                }
                if let Some(m) = r.get("max_retries") {
                    policy.max_retries = m.as_usize().ok_or("bad retry \"max_retries\"")?;
                }
                Some(policy)
            }
        };
        let mut params = CalibParams::paper_2006();
        if let Some(obj) = v.get("params") {
            let entries = obj.as_obj().ok_or("\"params\" must be an object")?;
            for (key, value) in entries {
                let field = CalibParams::field(key)
                    .ok_or_else(|| format!("unknown calibration parameter '{key}'"))?;
                let value =
                    value.as_f64().ok_or_else(|| format!("bad calibration value for '{key}'"))?;
                field.write(&mut params, value);
            }
        }
        Ok(Scenario {
            system,
            fidelity,
            nranks,
            placement,
            mpi,
            lock,
            workload,
            faults,
            recovery,
            retry,
            params,
        })
    }
}

/// Every calibration field's bit pattern: the memo key for a digest
/// prefix.
type ParamBits = [u64; CalibParams::FIELDS.len()];

fn param_bits(params: &CalibParams) -> ParamBits {
    std::array::from_fn(|i| CalibParams::FIELDS[i].read(params).to_bits())
}

/// The digest stream's `(system, params)` prefix: the engine tag, the
/// machine's full spec and every calibration field.
fn digest_prefix(system: System, params: &CalibParams) -> Digest {
    let mut enc = Encoder::new();
    enc.str("engine", crate::ENGINE_TAG);
    encode_machine_spec(&mut enc, &system.spec_with(params));
    // The spec covers the machine-side parameters; fold every calib
    // field in explicitly as well so the MPI/placement parameters (and
    // any future field the spec does not surface) are guaranteed to
    // separate digests.
    enc.list("calib", CalibParams::FIELDS.len());
    for field in &CalibParams::FIELDS {
        enc.f64(field.name, field.read(params));
    }
    enc.digest()
}

fn encode_machine_spec(enc: &mut Encoder, spec: &MachineSpec) {
    enc.str("spec.name", &spec.name);
    enc.list("spec.sockets", spec.sockets.len());
    for &s in &spec.sockets {
        enc.f64("socket", s);
    }
    enc.usize("spec.cores_per_socket", spec.cores_per_socket)
        .f64("core.frequency_hz", spec.core.frequency_hz)
        .f64("core.flops_per_cycle", spec.core.flops_per_cycle)
        .f64("cache.l1_bytes", spec.cache.l1_bytes)
        .f64("cache.l2_bytes", spec.cache.l2_bytes)
        .f64("cache.line_bytes", spec.cache.line_bytes)
        .f64("cache.stream_mlp", spec.cache.stream_mlp)
        .f64("cache.random_mlp", spec.cache.random_mlp)
        .f64("cache.strided_mlp", spec.cache.strided_mlp)
        .f64("cache.lookup_mlp", spec.cache.lookup_mlp)
        .f64("memory.controller_bw", spec.memory.controller_bw)
        .f64("memory.idle_latency", spec.memory.idle_latency)
        .f64("memory.lookup_latency", spec.memory.lookup_latency)
        .f64("link.bandwidth", spec.link.bandwidth)
        .f64("link.hop_latency", spec.link.hop_latency)
        .f64("coherence.base_probe", spec.coherence.base_probe)
        .f64("coherence.per_hop_probe", spec.coherence.per_hop_probe)
        .f64("coherence.probe_capacity", spec.coherence.probe_capacity);
    enc.list("spec.edges", spec.edges.len());
    for edge in &spec.edges {
        enc.usize("a", edge.a).usize("b", edge.b);
    }
    // Heterogeneous extensions are encoded only when present so that every
    // uniform machine keeps its pre-extension digest.
    if !spec.is_uniform() {
        enc.usize("spec.memory_only_nodes", spec.memory_only_nodes);
        enc.list("spec.node_memory", spec.node_memory.len());
        for (node, m) in &spec.node_memory {
            enc.usize("node", *node)
                .f64("memory.controller_bw", m.controller_bw)
                .f64("memory.idle_latency", m.idle_latency)
                .f64("memory.lookup_latency", m.lookup_latency);
        }
        enc.list("spec.edge_links", spec.edge_links.len());
        for (edge, l) in &spec.edge_links {
            enc.usize("edge", *edge)
                .f64("link.bandwidth", l.bandwidth)
                .f64("link.hop_latency", l.hop_latency);
        }
    }
}

/// The cacheable outcome of one scenario run: the makespan plus the
/// scalar metrics the sweeps post-process. Per-rank vectors stay out —
/// artifacts that need them run the engine directly (e.g. traced runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioResult {
    /// Simulated makespan in seconds.
    pub makespan: f64,
    /// Discrete events processed.
    pub events: usize,
    /// Scheduled fault events that fired.
    pub faults_applied: usize,
    /// Coordinated checkpoints completed.
    pub checkpoints_taken: usize,
    /// Rollback-and-replay recoveries performed.
    pub recoveries: usize,
    /// Transfer retransmissions triggered by failed links.
    pub retries: usize,
}

impl ScenarioResult {
    /// Extracts the cacheable scalars from an engine report.
    pub fn from_report(report: &RunReport) -> Self {
        Self {
            makespan: report.makespan,
            events: report.metrics.events,
            faults_applied: report.metrics.faults_applied,
            checkpoints_taken: report.metrics.checkpoints_taken,
            recoveries: report.metrics.recoveries,
            retries: report.metrics.retries,
        }
    }

    /// Single-line JSON form (cache entries and serve responses).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"makespan\":{},\"events\":{},\"faults_applied\":{},\"checkpoints_taken\":{},\
             \"recoveries\":{},\"retries\":{}}}",
            json::num(self.makespan),
            self.events,
            self.faults_applied,
            self.checkpoints_taken,
            self.recoveries,
            self.retries,
        )
    }

    /// Parses [`ScenarioResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first missing field.
    pub fn from_json(v: &Value) -> std::result::Result<ScenarioResult, String> {
        let f = |key: &str| {
            v.get(key).and_then(Value::as_f64).ok_or(format!("result needs number \"{key}\""))
        };
        let u = |key: &str| {
            v.get(key).and_then(Value::as_usize).ok_or(format!("result needs integer \"{key}\""))
        };
        Ok(ScenarioResult {
            makespan: f("makespan")?,
            events: u("events")?,
            faults_applied: u("faults_applied")?,
            checkpoints_taken: u("checkpoints_taken")?,
            recoveries: u("recoveries")?,
            retries: u("retries")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bsp(system: System, nranks: usize) -> Scenario {
        Scenario::new(
            system,
            nranks,
            Workload::Bsp { steps: 3, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 },
        )
    }

    #[test]
    fn digest_is_stable_across_clones_and_re_encodings() {
        let s = bsp(System::Dmz, 4);
        assert_eq!(s.digest(), s.digest());
        assert_eq!(s.digest(), s.clone().digest());
    }

    #[test]
    fn digest_separates_every_axis() {
        let base = bsp(System::Dmz, 4);
        let mut others = vec![
            bsp(System::Longs, 4),
            bsp(System::Dmz, 2),
            base.clone().with_fidelity(Fidelity::Quick),
            base.clone().with_placement(Placement::ScatterLocal),
            base.clone().with_mpi(MpiImpl::Lam),
            base.clone().with_lock(LockLayer::SysV),
            base.clone().with_faults(FaultPlan::new().rank_kill(0.5, RankId::new(0))),
            base.clone().with_recovery(CheckpointPolicy::new(0.5, 1e6)),
            base.clone().with_retry(RetryPolicy::new(0.01)),
        ];
        others.push(Scenario {
            workload: Workload::Bsp {
                steps: 4,
                flops_per_step: 1e6,
                bytes_per_step: 1e6,
                sync_bytes: 8.0,
            },
            ..base.clone()
        });
        let d0 = base.digest();
        for other in others {
            assert_ne!(d0, other.digest(), "{other:?} must not collide with base");
        }
    }

    #[test]
    fn run_matches_a_direct_world_build() {
        let s = bsp(System::Dmz, 4);
        let result = s.run().unwrap();

        let machine = System::Dmz.machine();
        let placements = Scheme::TwoMpiLocalAlloc.resolve(&machine, 4).unwrap();
        let mut world =
            CommWorld::new(&machine, placements, MpiImpl::Mpich2.profile(), LockLayer::USysV);
        let phase = ComputePhase::new("bsp-step", 1e6, TrafficProfile::stream(1e6));
        for _ in 0..3 {
            world.compute_all(|_| Some(phase.clone()));
            world.allreduce(8.0);
        }
        let report = world.run().unwrap();
        assert_eq!(result.makespan.to_bits(), report.makespan.to_bits());
        assert_eq!(result.events, report.metrics.events);
    }

    #[test]
    fn unknown_machine_keys_report_the_valid_generations() {
        assert_eq!(System::from_key("EPYC"), Ok(System::Epyc));
        let err = System::from_key("epic").unwrap_err();
        assert_eq!(err.requested, "epic");
        let rendered = err.to_string();
        for key in ["tiger", "dmz", "longs", "epyc", "hbm"] {
            assert!(rendered.contains(key), "{rendered}");
        }
    }

    #[test]
    fn modern_systems_parse_run_and_round_trip() {
        for system in [System::Epyc, System::Hbm] {
            assert_eq!(System::parse(system.key()), Some(system));
            let s = bsp(system, 4);
            let parsed = Scenario::from_json(&json::parse(&s.to_json()).unwrap()).unwrap();
            assert_eq!(parsed, s);
            assert_eq!(parsed.digest(), s.digest());
            let result = s.run().unwrap();
            assert!(result.makespan > 0.0);
        }
        assert_ne!(bsp(System::Epyc, 4).digest(), bsp(System::Hbm, 4).digest());
        assert_ne!(bsp(System::Epyc, 4).digest(), bsp(System::Dmz, 4).digest());
    }

    #[test]
    fn hetero_digest_sections_separate_override_axes() {
        // Two hetero specs that differ only inside the override tables
        // must hash apart (the conditional section is actually encoded).
        let mut a = System::Hbm.spec();
        let mut b = a.clone();
        b.node_memory[0].1.controller_bw *= 2.0;
        a.name = "probe".into();
        b.name = "probe".into();
        let da = {
            let mut enc = Encoder::new();
            encode_machine_spec(&mut enc, &a);
            enc.digest()
        };
        let db = {
            let mut enc = Encoder::new();
            encode_machine_spec(&mut enc, &b);
            enc.digest()
        };
        assert_ne!(da, db);
    }

    #[test]
    fn json_round_trips_and_preserves_the_digest() {
        let plain = bsp(System::Dmz, 4);
        let fancy = bsp(System::Longs, 8)
            .with_fidelity(Fidelity::Quick)
            .with_placement(Placement::Scheme(Scheme::Interleave))
            .with_mpi(MpiImpl::Lam)
            .with_lock(LockLayer::SysV)
            .with_faults(
                FaultPlan::new()
                    .controller_throttle(0.1, SocketId::new(1), 0.5)
                    .controller_restore(0.2, SocketId::new(1))
                    .rank_kill(0.3, RankId::new(2)),
            )
            .with_recovery(
                CheckpointPolicy::new(0.05, 2e6)
                    .with_target(CheckpointTarget::Node(NumaNodeId::new(0)))
                    .with_restart_delay(0.01),
            )
            .with_retry(RetryPolicy::new(0.02));
        for s in [plain, fancy] {
            let parsed = Scenario::from_json(&json::parse(&s.to_json()).unwrap()).unwrap();
            assert_eq!(parsed, s);
            assert_eq!(parsed.digest(), s.digest());
        }
    }

    #[test]
    fn digest_separates_every_calibration_field() {
        let base = bsp(System::Dmz, 4);
        let d0 = base.digest();
        for (i, field) in CalibParams::FIELDS.iter().enumerate() {
            let mut params = CalibParams::paper_2006();
            // Nudge the field to a distinct in-bounds value.
            let v = params.get(i);
            let nudged =
                if v < field.hi { (v + 0.25 * (field.hi - v)).min(field.hi) } else { field.lo };
            params.set(i, nudged);
            let other = base.clone().with_params(params);
            assert_ne!(d0, other.digest(), "field '{}' must separate digests", field.name);
        }
    }

    #[test]
    fn default_params_leave_digest_and_json_unchanged() {
        let base = bsp(System::Dmz, 4);
        let explicit = base.clone().with_params(CalibParams::paper_2006());
        assert_eq!(base.digest(), explicit.digest());
        // Default-point scenarios keep the pre-params JSON shape.
        assert!(!base.to_json().contains("\"params\""));
    }

    #[test]
    fn params_json_round_trips_and_preserves_the_digest() {
        let mut params = CalibParams::paper_2006();
        params.dram_latency *= 1.25;
        params.ht_bandwidth *= 0.75;
        let s = bsp(System::Longs, 8).with_params(params);
        let text = s.to_json();
        assert!(text.contains("\"params\""), "{text}");
        let parsed = Scenario::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.digest(), s.digest());
        // Unknown parameter names are rejected, not ignored.
        let bad = json::parse(
            r#"{"system":"dmz","nranks":2,"workload":{"kind":"pingpong","bytes":8,"reps":1},
                "params":{"warp_factor":9}}"#,
        )
        .unwrap();
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.contains("warp_factor"), "{err}");
    }

    #[test]
    fn perturbed_params_change_the_outcome() {
        let base = Scenario::new(
            System::Dmz,
            2,
            Workload::StreamStar {
                kernel: StreamKernel::Triad,
                elements_per_rank: 100_000,
                sweeps: 2,
            },
        );
        let mut slow = CalibParams::paper_2006();
        slow.dram_bandwidth *= 0.5;
        let perturbed = base.clone().with_params(slow);
        let t0 = base.run().unwrap().makespan;
        let t1 = perturbed.run().unwrap().makespan;
        assert!(t1 > 1.2 * t0, "halving DRAM bandwidth must slow STREAM: {t0} -> {t1}");
    }

    #[test]
    fn out_of_bounds_params_fail_validation() {
        let mut params = CalibParams::paper_2006();
        params.dram_latency = 1.0;
        let s = bsp(System::Dmz, 2).with_params(params);
        assert!(s.validate().is_err());
        assert!(s.run().is_err());
    }

    #[test]
    fn nas_daxpy_and_application_workloads_run() {
        let pop = PopModel { steps: 2, ..PopModel::x1() };
        let (nx, ny, nz, steps, cg_iterations) = (pop.nx, pop.ny, pop.nz, 2, pop.cg_iterations);
        let jac = AmberBenchmark::jac();
        let (atoms, method, grid_points) = (jac.atoms, jac.method, jac.grid_points);
        let workloads = [
            Workload::NasCg { class: CgClass::S },
            Workload::NasFt { class: FtClass::S },
            Workload::DaxpyStar { n: 10_000, reps: 2, variant: BlasVariant::Vanilla },
            Workload::Amber { atoms, method, grid_points, steps },
            Workload::AmberFftPart { atoms, method, grid_points, steps },
            Workload::Lammps { bench: LammpsBenchmark::Chain },
            Workload::PopBaroclinic { nx, ny, nz, steps, cg_iterations },
            Workload::PopBarotropic { nx, ny, nz, steps, cg_iterations },
            Workload::NasCgHybrid { class: CgClass::S, threads: 2 },
            Workload::NasFtHybrid { class: FtClass::S, threads: 2 },
        ];
        for workload in workloads {
            let s = Scenario::new(System::Dmz, 4, workload);
            let r = s.run().unwrap();
            assert!(r.makespan > 0.0, "{}", s.workload.kind());
        }
    }

    #[test]
    fn hybrid_threads_must_divide_the_world() {
        for threads in [0, 3] {
            let s =
                Scenario::new(System::Dmz, 4, Workload::NasCgHybrid { class: CgClass::S, threads });
            let err = s.run().unwrap_err().to_string();
            assert!(err.contains("'nas-cg-hybrid'"), "{err}");
        }
    }

    #[test]
    fn xslookup_placement_decides_the_winner() {
        // The scenario-level view of the x10 crossover: the same star
        // workload flips winners between localalloc and interleave as
        // the table outgrows one DMZ node's usable share.
        let run = |scheme: Scheme, grid_points: u64| {
            let s = Scenario::new(
                System::Dmz,
                4,
                Workload::XsLookupStar { grid_points, nuclides: 64, lookups_per_rank: 1 << 16 },
            )
            .with_placement(Placement::Scheme(scheme));
            s.run().unwrap().makespan
        };
        // ~0.37 GiB/rank vs ~1.5 GiB/rank around the 0.75 GiB boundary.
        let (small, large) = (156_000, 624_000);
        assert!(run(Scheme::TwoMpiLocalAlloc, small) < run(Scheme::Interleave, small));
        assert!(run(Scheme::Interleave, large) < run(Scheme::TwoMpiLocalAlloc, large));
        // Membind packs all four tables onto the central node list and
        // never beats interleave at the large size.
        assert!(run(Scheme::Interleave, large) <= run(Scheme::TwoMpiMembind, large));
    }

    #[test]
    fn result_json_round_trips_exactly() {
        let r = ScenarioResult {
            makespan: 1.0 / 3.0,
            events: 12345,
            faults_applied: 2,
            checkpoints_taken: 7,
            recoveries: 1,
            retries: 0,
        };
        let back = ScenarioResult::from_json(&json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.makespan.to_bits(), r.makespan.to_bits());
    }

    #[test]
    fn validate_rejects_impossible_worlds() {
        assert!(bsp(System::Dmz, 0).validate().is_err());
        let pp = Scenario::new(System::Dmz, 1, Workload::PingPong { bytes: 8.0, reps: 1 });
        assert!(pp.validate().is_err());
        assert!(pp.run().is_err());
    }

    #[test]
    fn unplaceable_schemes_are_detected_without_running() {
        // 16 one-per-socket ranks cannot fit on 8-socket longs.
        let p = Placement::Scheme(Scheme::OneMpiLocalAlloc);
        assert!(!p.placeable(System::Longs, 16));
        assert!(p.placeable(System::Longs, 8));
    }

    #[test]
    fn bad_scenario_json_reports_the_field() {
        let missing = json::parse(r#"{"nranks": 2}"#).unwrap();
        let err = Scenario::from_json(&missing).unwrap_err();
        assert!(err.contains("system"), "{err}");
        let bad_workload =
            json::parse(r#"{"system":"dmz","nranks":2,"workload":{"kind":"nope"}}"#).unwrap();
        let err = Scenario::from_json(&bad_workload).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn integers_an_f64_cannot_hold_exactly_are_rejected() {
        let request = json::parse(
            r#"{"system":"dmz","nranks":2,"workload":{"kind":"randomaccess-single",
                "table_words_per_rank":1024,"updates_per_rank":9007199254740993}}"#,
        )
        .unwrap();
        let err = Scenario::from_json(&request).unwrap_err();
        assert!(err.contains("'randomaccess-single'"), "{err}");
        assert!(err.contains("\"updates_per_rank\""), "{err}");
    }
}
