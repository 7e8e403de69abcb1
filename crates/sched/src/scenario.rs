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

use crate::encode::{const_run, ConstRun, Digest, Encoder};
use crate::fidelity::Fidelity;
use crate::json::{self, Value};
use crate::machines;
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
use corescope_machine::engine::{Observed, RankPlacement};
use corescope_machine::{
    CalibParams, CheckpointPolicy, CheckpointTarget, ComputePhase, Error, FaultEvent, FaultKind,
    FaultPlan, LinkId, LinkSpec, Machine, MachineSpec, MemorySpec, NumaNodeId, RankId, Result,
    RetryPolicy, RunReport, SocketId, TraceConfig, TrafficProfile,
};
use corescope_smpi::{CommWorld, LockLayer, MpiImpl};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, LazyLock};

/// The evaluation machines: the paper's Table 1 systems plus the
/// modern `corescope-topo` generations.
pub use corescope_topo::{Generation as System, UnknownSystem};

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
    pub const fn key(self) -> &'static str {
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
        self.resolve_with(machine, nranks, CalibParams::paper_2006().misplacement)
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

pub(crate) const fn mpi_key(mpi: MpiImpl) -> &'static str {
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

/// A scenario axis folded into the digest stream as a tag field: its
/// name, type byte and stable key as one constant run.
trait Keyed {
    /// The whole tag field's constant run.
    fn tag_run(self) -> &'static ConstRun;
}

/// Implements [`Keyed`] from each variant's own `const fn` key, one
/// table per variant, so a run cannot drift from its key.
macro_rules! keyed {
    ($($ty:ident as $name:literal by $key:path { $($variant:ident),+ })+) => {$(
        impl Keyed for $ty {
            fn tag_run(self) -> &'static ConstRun {
                match self {
                    $($ty::$variant => const_run!($name, b't', $key($ty::$variant)),)+
                }
            }
        }
    )+};
}

keyed! {
    System as "system" by System::key { Tiger, Dmz, Longs, Epyc, Hbm }
    Fidelity as "fidelity" by Fidelity::key { Full, Quick }
    Scheme as "placement" by Scheme::key {
        Default, OneMpiLocalAlloc, OneMpiMembind, TwoMpiLocalAlloc, TwoMpiMembind, Interleave
    }
    MpiImpl as "mpi" by mpi_key { Mpich2, Lam, OpenMpi }
    LockLayer as "lock" by LockLayer::key { SysV, USysV }
}

impl Keyed for Placement {
    fn tag_run(self) -> &'static ConstRun {
        match self {
            Placement::Scheme(scheme) => scheme.tag_run(),
            Placement::ScatterLocal => {
                const_run!("placement", b't', Placement::ScatterLocal.key())
            }
        }
    }
}

/// What a codec-table field's name folds as for one kind of leaf: the
/// head run of a plain field, or the whole tag runs of a keyed one.
trait LeafKind {
    /// One run, or one per variant.
    type Runs: ?Sized + 'static;
    /// A keyed leaf's variant keys, in declaration order.
    const KEYS: &'static [&'static str] = &[];
}

/// Unsigned integer leaves (`usize`, `u64`, machine ids): `name ‖ 'u'`.
struct Uint;
/// Float leaves: `name ‖ 'f'`.
struct Float;

impl LeafKind for Uint {
    type Runs = ConstRun;
}

impl LeafKind for Float {
    type Runs = ConstRun;
}

/// A codec-table field name's runs for leaves of kind `K`: implemented
/// by the marker types of [`heads`], one per distinct field name.
trait Heads<K: LeafKind> {
    fn runs() -> &'static K::Runs;
}

/// One leaf field of a codec table: how a value is folded into the
/// digest stream, rendered as a JSON value, and parsed back.
trait Leaf: Sized {
    /// What a parse error says the field must hold.
    const EXPECTED: &'static str;
    /// The kind of runs a field of this type folds its name as.
    type Kind: LeafKind;
    /// Folds the field named by `N` in one table step, then its value.
    fn encode<N: Heads<Self::Kind>>(self, enc: &mut Encoder);
    fn render(self, out: &mut String);
    fn parse(v: &Value) -> Option<Self>;
}

impl Leaf for usize {
    const EXPECTED: &'static str = "an integer below 2^53";
    type Kind = Uint;
    fn encode<N: Heads<Uint>>(self, enc: &mut Encoder) {
        enc.usize(N::runs(), self);
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
    type Kind = Uint;
    fn encode<N: Heads<Uint>>(self, enc: &mut Encoder) {
        enc.u64(N::runs(), self);
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
    type Kind = Float;
    fn encode<N: Heads<Float>>(self, enc: &mut Encoder) {
        enc.f64(N::runs(), self);
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
            type Kind = Uint;
            fn encode<N: Heads<Uint>>(self, enc: &mut Encoder) {
                self.index().encode::<N>(enc);
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
/// a JSON string. The digest folds the field's name, type byte and key
/// as one run, picked by the variant's position. A type whose keys equal
/// another's `shares` that type's runs.
macro_rules! keyed_leaves {
    ($($ty:ident $(shares $runs:ident)? { $($variant:ident = $key:literal),+ $(,)? })+) => {$(
        keyed_leaves!(@kind $ty $(shares $runs)? [$($key),+]);

        impl Leaf for $ty {
            const EXPECTED: &'static str = concat!("one of" $(, " \"", $key, "\"")+);
            type Kind = keyed_leaves!(@runs $ty $($runs)?);
            fn encode<N: Heads<Self::Kind>>(self, enc: &mut Encoder) {
                let run = &N::runs()[self as usize];
                // The runs are laid out in declaration order.
                #[cfg(any(test, debug_assertions))]
                assert_eq!(run.value(), Some(match self { $($ty::$variant => $key),+ }.as_bytes()));
                enc.constant(run);
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
    (@kind $ty:ident [$($key:literal),+]) => {
        impl LeafKind for $ty {
            type Runs = [ConstRun];
            const KEYS: &'static [&'static str] = &[$($key),+];
        }
    };
    (@kind $ty:ident shares $runs:ident [$($key:literal),+]) => {};
    (@runs $ty:ident) => { $ty };
    (@runs $ty:ident $runs:ident) => { $runs };
}

keyed_leaves! {
    StreamKernel { Copy = "copy", Scale = "scale", Add = "add", Triad = "triad" }
    BlasVariant { Acml = "acml", Vanilla = "vanilla" }
    CgClass { S = "s", A = "a", B = "b", C = "c" }
    FtClass shares CgClass { S = "s", A = "a", B = "b", C = "c" }
    AmberMethod { Pme = "pme", Gb = "gb" }
    LammpsBenchmark { Lj = "lj", Chain = "chain", Eam = "eam" }
}

/// The whole tag runs `name ‖ 't' ‖ key`, one per key.
const fn tag_runs<const N: usize>(name: &'static str, keys: &[&'static str]) -> [ConstRun; N] {
    let mut runs = [const { ConstRun::new(b"", b't', None) }; N];
    let mut i = 0;
    while i < N {
        runs[i] = ConstRun::new(name.as_bytes(), b't', Some(keys[i].as_bytes()));
        i += 1;
    }
    runs
}

/// Declares a marker type per field name with its runs for each kind of
/// leaf the codec tables give that name.
macro_rules! heads {
    ($($name:ident: $($kind:ident)+;)+) => {$(
        pub(super) struct $name;
        $(heads!(@impl $name $kind);)+
    )+};
    (@impl $name:ident Uint) => { heads!(@head $name Uint b'u'); };
    (@impl $name:ident Float) => { heads!(@head $name Float b'f'); };
    (@head $name:ident $kind:ident $ty:literal) => {
        impl Heads<$kind> for $name {
            fn runs() -> &'static ConstRun {
                const_run!(stringify!($name), $ty)
            }
        }
    };
    (@impl $name:ident $kind:ident) => {
        impl Heads<$kind> for $name {
            fn runs() -> &'static [ConstRun] {
                static RUNS: [ConstRun; <$kind as LeafKind>::KEYS.len()] =
                    tag_runs(stringify!($name), <$kind as LeafKind>::KEYS);
                &RUNS
            }
        }
    };
}

/// Every codec-table field name, with the kinds of leaf it holds: one
/// table per distinct run, however many variants share the field.
#[allow(non_camel_case_types)]
mod heads {
    use super::*;

    heads! {
        steps: Uint;
        flops_per_step: Float;
        bytes_per_step: Float;
        sync_bytes: Float;
        kernel: StreamKernel;
        elements_per_rank: Uint;
        sweeps: Uint;
        n: Uint;
        nb: Uint;
        dgemm_efficiency: Float;
        reps: Uint;
        variant: BlasVariant;
        points_per_rank: Uint;
        table_words_per_rank: Uint;
        updates_per_rank: Uint;
        block_bytes: Float;
        bytes: Float;
        class: CgClass;
        grid_points: Uint Float;
        nuclides: Uint;
        lookups_per_rank: Uint;
        atoms: Uint;
        method: AmberMethod;
        bench: LammpsBenchmark;
        nx: Uint;
        ny: Uint;
        nz: Uint;
        cg_iterations: Uint;
        threads: Uint;
        link: Uint;
        factor: Float;
        socket: Uint;
        rank: Uint;
    }
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
    /// The kind's whole tag field as one constant run.
    fn kind_run(&self) -> &'static ConstRun;
    /// Folds every field into the digest stream, in table order.
    fn encode_fields(&self, enc: &mut Encoder);
    /// Appends `,"field":value` for every field, in table order.
    fn render_fields(&self, out: &mut String);
    /// Parses a JSON object holding a `"kind"` key and that kind's
    /// fields.
    fn parse(v: &Value) -> std::result::Result<Self, String>;
}

/// Generates [`KindCodec`] for an enum from one line per variant:
/// `Variant = "kind-key" { field, field, … }`. The kind folds as a tag
/// named `$tag`. The field list is the digest order and the JSON key
/// order, and each field's name is both its digest name and its JSON
/// key; its runs come from [`heads`]. Every pattern lists every field
/// with no `..`, so a line that misses a field does not compile.
macro_rules! codec_table {
    ($ty:ident as $what:literal tagged $tag:literal {
        $($variant:ident = $key:literal { $($field:ident),* })+
    }) => {
        impl KindCodec for $ty {
            fn kind(&self) -> &'static str {
                match self {
                    $($ty::$variant { $($field: _),* } => $key,)+
                }
            }

            fn kind_run(&self) -> &'static ConstRun {
                match self {
                    $($ty::$variant { $($field: _),* } => const_run!($tag, b't', $key),)+
                }
            }

            fn encode_fields(&self, enc: &mut Encoder) {
                match *self {
                    $($ty::$variant { $($field),* } => {
                        $($field.encode::<heads::$field>(enc);)*
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
    /// HPCC ring: every rank sends to its right neighbour and receives
    /// from its left at once, then all ranks meet at a barrier.
    Ring {
        /// Payload bytes per message.
        bytes: f64,
        /// Ring iterations.
        reps: usize,
    },
    /// IMB Exchange: every rank swaps a message with both neighbours of
    /// a periodic chain over the world.
    Exchange {
        /// Payload bytes per message.
        bytes: f64,
        /// Exchange iterations.
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

codec_table!(Workload as "workload" tagged "workload" {
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
    Ring = "ring" { bytes, reps }
    Exchange = "exchange" { bytes, reps }
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

codec_table!(FaultKind as "fault" tagged "kind" {
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
            Workload::PingPong { .. } | Workload::Ring { .. } | Workload::Exchange { .. } => 2,
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
                world.repeat(steps, |world| {
                    world.compute_all(|_| Some(phase.clone()));
                    world.allreduce(sync_bytes);
                });
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
                world.repeat(reps, |world| {
                    world.p2p(0, 1, bytes);
                    world.p2p(1, 0, bytes);
                });
            }
            Workload::Ring { bytes, reps } => {
                world.repeat(reps, |world| {
                    world.ring_shift(bytes);
                    world.barrier();
                });
            }
            Workload::Exchange { bytes, reps } => {
                world.repeat(reps, |world| {
                    world.exchange_step(bytes);
                });
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
    /// Parked processes: ranks after the world's that hold a placement
    /// but run no program (the paper's "2 procs, unbound, 2 parked").
    pub parked: usize,
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
    /// so results can never alias across parameter points. Shared: every
    /// scenario built at [`CalibParams::paper_2006`] holds one process-
    /// wide instance, so the digest and machine memos answer it by
    /// pointer.
    pub params: Arc<CalibParams>,
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
            parked: 0,
            placement: Placement::Scheme(Scheme::TwoMpiLocalAlloc),
            mpi: MpiImpl::Mpich2,
            lock: LockLayer::USysV,
            workload,
            faults: FaultPlan::new(),
            recovery: None,
            retry: None,
            params: Arc::clone(&PAPER_2006),
        }
    }

    /// Sets the calibration point.
    #[must_use]
    pub fn with_params(mut self, params: CalibParams) -> Self {
        self.params = shared_params(params);
        self
    }

    /// Sets the fidelity tag.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the number of parked processes.
    #[must_use]
    pub fn with_parked(mut self, parked: usize) -> Self {
        self.parked = parked;
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
    /// Returns [`Error::InvalidSpec`] for zero ranks, a calibration
    /// point outside its bounds, a workload that cannot fit the world
    /// size, or more ranks (parked ones included) than the machine has
    /// cores.
    pub fn validate(&self) -> Result<()> {
        self.validate_with(|| machines::machine(self.system, &self.params).num_cores())
    }

    /// [`Scenario::validate`], reading the machine's core count from
    /// `cores` once the calibration point is known to be in bounds.
    fn validate_with(&self, cores: impl FnOnce() -> usize) -> Result<()> {
        if self.nranks == 0 {
            return Err(Error::InvalidSpec("scenario needs at least one rank".to_string()));
        }
        self.check_params()?;
        let cores = cores();
        if self.nranks + self.parked > cores {
            return Err(Error::InvalidSpec(format!(
                "{} ranks and {} parked exceed the {cores} cores of {}",
                self.nranks,
                self.parked,
                self.system.key()
            )));
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
        Ok(())
    }

    /// Rejects a calibration point outside its documented bounds. Every
    /// in-bounds point builds a valid machine, so passing this check
    /// keeps [`System::spec_with`] from panicking.
    pub(crate) fn check_params(&self) -> Result<()> {
        if self.params.in_bounds() {
            Ok(())
        } else {
            Err(Error::InvalidSpec(
                "scenario calibration point is outside its documented bounds".to_string(),
            ))
        }
    }

    /// The canonical content digest: [`crate::ENGINE_TAG`] plus every
    /// field, with the machine's *full spec* (not just its name) folded
    /// in so a spec change orphans stale entries.
    ///
    /// The byte stream is a `(system, params)` prefix followed by the
    /// per-scenario suffix. The prefix is read from this thread's bounded
    /// memo of prefixes, shared with [`Scenario::digests`], and the
    /// suffix resumes from it.
    pub fn digest(&self) -> Digest {
        let prefix = PREFIXES.with_borrow_mut(|memo| memo.get(self.system, &self.params));
        self.digest_after(prefix)
    }

    /// [`Scenario::digest`] for every scenario of a batch, in order. The
    /// prefix — engine tag, full machine spec and calibration point, the
    /// bulk of the encoded bytes — is computed once per distinct
    /// `(system, params)` pair this thread meets, looked up through a
    /// per-system slot in front of a map. Params are keyed by bit
    /// pattern, matching the encoding, so `0.0` and `-0.0` never share a
    /// prefix.
    pub fn digests(batch: &[Scenario]) -> Vec<Digest> {
        PREFIXES.with_borrow_mut(|memo| {
            batch.iter().map(|s| s.digest_after(memo.get(s.system, &s.params))).collect()
        })
    }

    /// The per-scenario suffix of the digest stream, resumed from the
    /// `(system, params)` prefix state.
    fn digest_after(&self, prefix: Digest) -> Digest {
        let mut enc = Encoder::resume(prefix);
        enc.constant(self.system.tag_run())
            .constant(self.fidelity.tag_run())
            .usize(const_run!("nranks", b'u'), self.nranks);
        // Encoded only when present, so every unparked scenario keeps its
        // digest.
        if self.parked > 0 {
            enc.usize(const_run!("parked", b'u'), self.parked);
        }
        enc.constant(self.placement.tag_run())
            .constant(self.mpi.tag_run())
            .constant(self.lock.tag_run())
            .constant(self.workload.kind_run());
        self.workload.encode_fields(&mut enc);
        enc.list(const_run!("faults", b'l'), self.faults.events().len());
        for event in self.faults.events() {
            enc.f64(const_run!("at", b'f'), event.at).constant(event.kind.kind_run());
            event.kind.encode_fields(&mut enc);
        }
        match &self.recovery {
            None => {
                enc.constant(const_run!("recovery", b't', "none"));
            }
            Some(p) => {
                enc.constant(const_run!("recovery", b't', "checkpoint"))
                    .f64(const_run!("interval", b'f'), p.interval)
                    .f64(const_run!("bytes_per_rank", b'f'), p.bytes_per_rank)
                    .f64(const_run!("restart_delay", b'f'), p.restart_delay);
                match p.target {
                    CheckpointTarget::OwnLayout => enc.constant(const_run!("target", b't', "own")),
                    CheckpointTarget::Node(node) => {
                        enc.constant(const_run!("target", b't', "node")).usize(&NODE, node.index())
                    }
                };
            }
        }
        match &self.retry {
            None => {
                enc.constant(const_run!("retry", b't', "none"));
            }
            Some(r) => {
                enc.constant(const_run!("retry", b't', "some"))
                    .f64(const_run!("detection_timeout", b'f'), r.detection_timeout)
                    .f64(const_run!("backoff", b'f'), r.backoff)
                    .usize(const_run!("max_retries", b'u'), r.max_retries);
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
        Ok(ScenarioResult::from_report(&self.observe(TraceConfig::off())?.result?))
    }

    /// Runs the scenario on a fresh engine and keeps everything observed
    /// along the way: the engine outcome, partial metrics when it ends
    /// in a typed error, and (with [`TraceConfig::on`]) a full
    /// [`corescope_machine::RunTrace`]. This is the one lowering of a
    /// scenario to an engine run; [`Scenario::run`] is this with tracing
    /// off, and tracing never changes the outcome. The machine comes from
    /// a process-wide memo keyed by the system and the calibration
    /// point's bits, so runs at one point share one build of it.
    ///
    /// # Errors
    ///
    /// Returns validation and placement errors; engine errors land in
    /// [`Observed::result`].
    pub fn observe(&self, trace: TraceConfig) -> Result<Observed> {
        self.check_params()?;
        let machine = machines::machine(self.system, &self.params);
        Ok(self.lower(&machine)?.observe(&self.faults, trace))
    }

    /// Whether `machine` can host the scenario's ranks, parked ones
    /// included, under its placement (the paper's "—" cells are the ones
    /// that cannot).
    pub fn placeable(&self, machine: &Machine) -> bool {
        self.placement.resolve(machine, self.nranks + self.parked).is_ok()
    }

    /// Lowers the scenario onto `machine` (built by
    /// [`System::machine_with`] from the scenario's own parameters): the
    /// placed world with every rank's program, then the parked ranks, and
    /// the scenario's recovery and retry policies, ready to run under
    /// [`Scenario::faults`].
    ///
    /// # Errors
    ///
    /// Returns validation and placement errors.
    pub fn lower<'m>(&self, machine: &'m Machine) -> Result<CommWorld<'m>> {
        /// Per-message software overhead factor when parked processes
        /// share the node. The engine's parked ranks are otherwise
        /// silent; this 15% surcharge stands in for their scheduler
        /// noise.
        const PARKED_OVERHEAD: f64 = 1.15;
        self.validate_with(|| machine.num_cores())?;
        let mut placements = self.placement.resolve_with(
            machine,
            self.nranks + self.parked,
            self.params.misplacement,
        )?;
        let parked = placements.split_off(self.nranks);
        let mut profile = self.mpi.profile_with(&self.params);
        if self.parked > 0 {
            profile.overhead *= PARKED_OVERHEAD;
        }
        let mut world = CommWorld::new(machine, placements, profile, self.lock);
        self.workload.append(&mut world, self.placement, self.params.misplacement)?;
        world.park(parked);
        if let Some(policy) = &self.recovery {
            world = world.with_recovery(policy.clone());
        }
        if let Some(policy) = &self.retry {
            world = world.with_retry(policy.clone());
        }
        Ok(world)
    }

    /// Renders the scenario as a single-line JSON object (the
    /// `corescope-serve` request body).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"system\":\"{}\",\"fidelity\":\"{}\",\"nranks\":{}",
            self.system.key(),
            self.fidelity.key(),
            self.nranks,
        );
        // Written only when present, like the digest field.
        if self.parked > 0 {
            let _ = write!(out, ",\"parked\":{}", self.parked);
        }
        let _ = write!(
            out,
            ",\"placement\":\"{}\",\"mpi\":\"{}\",\"lock\":\"{}\",\"workload\":{{\"kind\":\"{}\"",
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
        if *self.params != CalibParams::paper_2006() {
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
        let parked = match v.get("parked") {
            None => 0,
            Some(p) => p.as_usize().ok_or("bad \"parked\" (an integer)")?,
        };
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
                if !(field.lo..=field.hi).contains(&value) {
                    return Err(format!(
                        "calibration parameter '{key}' = {value} is outside its bounds [{}, {}]",
                        field.lo, field.hi
                    ));
                }
                field.write(&mut params, value);
            }
        }
        Ok(Scenario {
            system,
            fidelity,
            nranks,
            parked,
            placement,
            mpi,
            lock,
            workload,
            faults,
            recovery,
            retry,
            params: shared_params(params),
        })
    }
}

/// The process's one [`CalibParams::paper_2006`] instance, shared by
/// every scenario at the shipped calibration point.
static PAPER_2006: LazyLock<Arc<CalibParams>> =
    LazyLock::new(|| Arc::new(CalibParams::paper_2006()));

/// `params` as a scenario holds it: the shared instance when it is the
/// shipped point bit for bit, a fresh one otherwise.
fn shared_params(params: CalibParams) -> Arc<CalibParams> {
    if params.to_bits() == PAPER_2006.to_bits() {
        Arc::clone(&PAPER_2006)
    } else {
        Arc::new(params)
    }
}

/// Every calibration field's bit pattern: the memo key for a digest
/// prefix.
type ParamBits = [u64; CalibParams::FIELDS.len()];

/// Digest prefixes keyed by `(system, params bits)`.
///
/// Each system has a slot holding its last calibration point and prefix.
/// A batch usually holds one point per system, and its scenarios share
/// that point's [`Arc`], so nearly every lookup is one pointer comparison
/// against the slot; a point equal bit for bit but held apart costs one
/// key comparison more. A slot miss, as in a calibration sweep, falls
/// back to the SipHash map and refills the slot. The map holds at most
/// [`PrefixMemo::CAP`] points and starts over when full, so a thread
/// that meets unboundedly many points keeps a bounded memo.
#[derive(Default)]
struct PrefixMemo {
    slots: [Option<(Arc<CalibParams>, ParamBits, Digest)>; System::all().len()],
    map: HashMap<(System, ParamBits), Digest>,
}

impl PrefixMemo {
    /// Distinct `(system, params)` points the map holds before it is
    /// cleared.
    const CAP: usize = 1024;

    fn get(&mut self, system: System, params: &Arc<CalibParams>) -> Digest {
        let slot = &mut self.slots[system as usize];
        if let Some((last, _, prefix)) = slot {
            if Arc::ptr_eq(last, params) {
                return *prefix;
            }
        }
        let bits = params.to_bits();
        let prefix = match slot {
            Some((_, last, prefix)) if *last == bits => *prefix,
            _ => match self.map.get(&(system, bits)) {
                Some(&prefix) => prefix,
                None => {
                    if self.map.len() >= Self::CAP {
                        self.map.clear();
                    }
                    let prefix = digest_prefix(system, params);
                    self.map.insert((system, bits), prefix);
                    prefix
                }
            },
        };
        *slot = Some((Arc::clone(params), bits, prefix));
        prefix
    }
}

thread_local! {
    /// This thread's digest prefixes. A prefix is a pure function of the
    /// system, the calibration point and [`crate::ENGINE_TAG`], so every
    /// digest on the thread may share it.
    static PREFIXES: RefCell<PrefixMemo> = RefCell::new(PrefixMemo::default());
}

/// Every calibration field's head run, `name ‖ 'f'`, in
/// [`CalibParams::FIELDS`] order.
static CALIB_HEADS: [ConstRun; CalibParams::FIELDS.len()] = {
    let mut runs = [const { ConstRun::new(b"", b'f', None) }; CalibParams::FIELDS.len()];
    let mut i = 0;
    while i < runs.len() {
        runs[i] = ConstRun::new(CalibParams::FIELDS[i].name.as_bytes(), b'f', None);
        i += 1;
    }
    runs
};

/// The `node` head, shared by a checkpoint target and a spec's node
/// memory.
static NODE: ConstRun = ConstRun::new(b"node", b'u', None);

/// The digest stream's `(system, params)` prefix: the engine tag, the
/// machine's full spec and every calibration field. A point that builds
/// no valid spec (outside the calibration bounds) folds a marker in the
/// spec's place; it never runs, so its digest keys no result.
fn digest_prefix(system: System, params: &CalibParams) -> Digest {
    let mut enc = Encoder::new();
    enc.constant(const_run!("engine", b's', crate::ENGINE_TAG));
    match system.try_spec_with(params) {
        Ok(spec) => encode_machine_spec(&mut enc, &spec),
        Err(_) => {
            enc.constant(const_run!("spec", b't', "invalid"));
        }
    }
    // The spec covers the machine-side parameters; fold every calib
    // field in explicitly as well so the MPI/placement parameters (and
    // any future field the spec does not surface) are guaranteed to
    // separate digests.
    enc.list(const_run!("calib", b'l'), CalibParams::FIELDS.len());
    for (field, head) in CalibParams::FIELDS.iter().zip(&CALIB_HEADS) {
        enc.f64(head, field.read(params));
    }
    enc.digest()
}

/// A memory controller's fields, as the spec and its node overrides
/// fold them.
fn encode_memory(enc: &mut Encoder, m: &MemorySpec) {
    enc.f64(const_run!("memory.controller_bw", b'f'), m.controller_bw)
        .f64(const_run!("memory.idle_latency", b'f'), m.idle_latency)
        .f64(const_run!("memory.lookup_latency", b'f'), m.lookup_latency);
}

/// A link's fields, as the spec and its edge overrides fold them.
fn encode_link(enc: &mut Encoder, l: &LinkSpec) {
    enc.f64(const_run!("link.bandwidth", b'f'), l.bandwidth)
        .f64(const_run!("link.hop_latency", b'f'), l.hop_latency);
}

fn encode_machine_spec(enc: &mut Encoder, spec: &MachineSpec) {
    enc.str(const_run!("spec.name", b's'), &spec.name);
    enc.list(const_run!("spec.sockets", b'l'), spec.sockets.len());
    for &s in &spec.sockets {
        enc.f64(const_run!("socket", b'f'), s);
    }
    enc.usize(const_run!("spec.cores_per_socket", b'u'), spec.cores_per_socket)
        .f64(const_run!("core.frequency_hz", b'f'), spec.core.frequency_hz)
        .f64(const_run!("core.flops_per_cycle", b'f'), spec.core.flops_per_cycle)
        .f64(const_run!("cache.l1_bytes", b'f'), spec.cache.l1_bytes)
        .f64(const_run!("cache.l2_bytes", b'f'), spec.cache.l2_bytes)
        .f64(const_run!("cache.line_bytes", b'f'), spec.cache.line_bytes)
        .f64(const_run!("cache.stream_mlp", b'f'), spec.cache.stream_mlp)
        .f64(const_run!("cache.random_mlp", b'f'), spec.cache.random_mlp)
        .f64(const_run!("cache.strided_mlp", b'f'), spec.cache.strided_mlp)
        .f64(const_run!("cache.lookup_mlp", b'f'), spec.cache.lookup_mlp);
    encode_memory(enc, &spec.memory);
    encode_link(enc, &spec.link);
    enc.f64(const_run!("coherence.base_probe", b'f'), spec.coherence.base_probe)
        .f64(const_run!("coherence.per_hop_probe", b'f'), spec.coherence.per_hop_probe)
        .f64(const_run!("coherence.probe_capacity", b'f'), spec.coherence.probe_capacity);
    enc.list(const_run!("spec.edges", b'l'), spec.edges.len());
    for edge in &spec.edges {
        enc.usize(const_run!("a", b'u'), edge.a).usize(const_run!("b", b'u'), edge.b);
    }
    // Heterogeneous extensions are encoded only when present so that every
    // uniform machine keeps its pre-extension digest.
    if !spec.is_uniform() {
        enc.usize(const_run!("spec.memory_only_nodes", b'u'), spec.memory_only_nodes);
        enc.list(const_run!("spec.node_memory", b'l'), spec.node_memory.len());
        for (node, m) in &spec.node_memory {
            enc.usize(&NODE, *node);
            encode_memory(enc, m);
        }
        enc.list(const_run!("spec.edge_links", b'l'), spec.edge_links.len());
        for (edge, l) in &spec.edge_links {
            enc.usize(const_run!("edge", b'u'), *edge);
            encode_link(enc, l);
        }
    }
}

/// The cacheable outcome of one scenario run: the makespan plus the
/// scalar metrics the sweeps post-process. Per-rank vectors and traces
/// stay out — artifacts that need them call [`Scenario::observe`].
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

    /// Single-line JSON form (serve responses; disk cache entries are
    /// store frames, see [`crate::cache`]).
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

    /// One scenario per workload kind and per keyed field value, per
    /// system, placement, MPI stack and lock layer, a quick and a parked
    /// one, every fault kind, and every branch of the recovery and retry
    /// policies: between them, every constant run the codec folds.
    fn codec_corpus() -> Vec<Scenario> {
        use corescope_machine::{LinkId, NumaNodeId};
        let (n, reps, bytes, grid_points) = (64, 1, 8.0, 64.0);
        let (table_words_per_rank, updates_per_rank) = (64, 8);
        let (nuclides, lookups_per_rank) = (4, 8);
        let (nx, ny, nz, steps, cg_iterations) = (8, 8, 2, 1, 2);
        let mut workloads = vec![
            Workload::Bsp { steps, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 },
            Workload::StreamStar { kernel: StreamKernel::Triad, elements_per_rank: 64, sweeps: 1 },
            Workload::Hpl { n, nb: 8, dgemm_efficiency: 0.8 },
            Workload::DgemmSingle { n, reps, variant: BlasVariant::Acml },
            Workload::DgemmStar { n, reps, variant: BlasVariant::Acml },
            Workload::FftSingle { points_per_rank: 64, reps },
            Workload::FftStar { points_per_rank: 64, reps },
            Workload::RandomAccessSingle { table_words_per_rank, updates_per_rank },
            Workload::RandomAccessStar { table_words_per_rank, updates_per_rank },
            Workload::RandomAccessMpi { table_words_per_rank, updates_per_rank },
            Workload::Ptrans { n, reps, block_bytes: bytes },
            Workload::PingPong { bytes, reps },
            Workload::Ring { bytes, reps },
            Workload::Exchange { bytes, reps },
            Workload::DaxpySingle { n, reps, variant: BlasVariant::Acml },
            Workload::XsLookupSingle { grid_points: 64, nuclides, lookups_per_rank },
            Workload::XsLookupStar { grid_points: 64, nuclides, lookups_per_rank },
            Workload::Amber { atoms: 64, method: AmberMethod::Pme, grid_points, steps },
            Workload::AmberFftPart { atoms: 64, method: AmberMethod::Pme, grid_points, steps },
            Workload::PopBaroclinic { nx, ny, nz, steps, cg_iterations },
            Workload::PopBarotropic { nx, ny, nz, steps, cg_iterations },
            Workload::NasCgHybrid { class: CgClass::S, threads: 2 },
            Workload::NasFtHybrid { class: FtClass::S, threads: 2 },
        ];
        let kernels = [StreamKernel::Copy, StreamKernel::Scale, StreamKernel::Add];
        workloads.extend(kernels.map(|kernel| Workload::StreamSingle {
            kernel,
            elements_per_rank: 64,
            sweeps: 1,
        }));
        workloads.push(Workload::DaxpyStar { n, reps, variant: BlasVariant::Vanilla });
        workloads.extend(
            [CgClass::S, CgClass::A, CgClass::B, CgClass::C].map(|class| Workload::NasCg { class }),
        );
        workloads.extend(
            [FtClass::S, FtClass::A, FtClass::B, FtClass::C].map(|class| Workload::NasFt { class }),
        );
        workloads.push(Workload::Amber { atoms: 64, method: AmberMethod::Gb, grid_points, steps });
        workloads.extend(LammpsBenchmark::all().map(|bench| Workload::Lammps { bench }));

        let mut corpus: Vec<Scenario> =
            workloads.into_iter().map(|w| Scenario::new(System::Dmz, 4, w)).collect();
        corpus.extend(System::all().map(|system| bsp(system, 2)));
        corpus.push(bsp(System::Dmz, 2).with_placement(Placement::ScatterLocal));
        corpus.extend(
            Scheme::all().map(|s| bsp(System::Dmz, 2).with_placement(Placement::Scheme(s))),
        );
        corpus.extend(MpiImpl::all().map(|mpi| bsp(System::Dmz, 2).with_mpi(mpi)));
        corpus
            .extend([LockLayer::SysV, LockLayer::USysV].map(|l| bsp(System::Dmz, 2).with_lock(l)));
        corpus.push(bsp(System::Dmz, 2).with_fidelity(Fidelity::Quick).with_parked(1));
        let (link, socket, rank) = (LinkId::new(0), SocketId::new(1), RankId::new(1));
        let every_fault = FaultPlan::new()
            .link_degrade(1e-4, link, 0.5)
            .link_restore(2e-4, link)
            .controller_throttle(3e-4, socket, 0.5)
            .controller_restore(4e-4, socket)
            .probe_brownout(5e-4, 0.5)
            .probe_restore(6e-4)
            .rank_stall(7e-4, rank)
            .rank_resume(8e-4, rank)
            .rank_kill(9e-4, rank)
            .link_fail(1e-3, link);
        let checkpoint = CheckpointPolicy::new(1e-3, 1e6);
        corpus.push(
            bsp(System::Dmz, 2)
                .with_faults(every_fault)
                .with_recovery(checkpoint.clone())
                .with_retry(RetryPolicy::new(1e-3)),
        );
        corpus.push(
            bsp(System::Dmz, 2)
                .with_recovery(checkpoint.with_target(CheckpointTarget::Node(NumaNodeId::new(1)))),
        );
        corpus
    }

    /// Every constant run the codec defines folds like the bytes of its
    /// string. The keyed axes are checked run against key here; the
    /// field names, kind keys and spec and calibration names are folded
    /// by digesting a corpus that reaches each of them, and in unit
    /// tests every table step asserts it equals the byte fold it stands
    /// for.
    #[test]
    fn every_constant_run_folds_like_its_bytes() {
        let states = [0, 1, 0xff, 0x100, 0x6c62272e07bb014262b821756295c58d, u128::MAX];
        let check = |run: &ConstRun, name: &str, key: &str| {
            for h in states {
                let by_table = Encoder::resume(Digest(h)).constant(run).digest();
                let by_byte = Encoder::resume(Digest(h)).tag(name, key).digest();
                assert_eq!(by_table, by_byte, "{name} {key}");
            }
        };
        for system in System::all() {
            check(system.tag_run(), "system", system.key());
        }
        for fidelity in [Fidelity::Full, Fidelity::Quick] {
            check(fidelity.tag_run(), "fidelity", fidelity.key());
        }
        let schemes = Scheme::all().map(Placement::Scheme);
        for placement in schemes.into_iter().chain([Placement::ScatterLocal]) {
            check(placement.tag_run(), "placement", placement.key());
        }
        for mpi in MpiImpl::all() {
            check(mpi.tag_run(), "mpi", mpi_key(mpi));
        }
        for lock in [LockLayer::SysV, LockLayer::USysV] {
            check(lock.tag_run(), "lock", lock.key());
        }
        let corpus = codec_corpus();
        let single: Vec<Digest> = corpus.iter().map(Scenario::digest).collect();
        assert_eq!(Scenario::digests(&corpus), single);
    }

    #[test]
    fn a_point_with_no_machine_digests_without_a_spec() {
        let mut zero = CalibParams::paper_2006();
        zero.dram_bandwidth = 0.0;
        let mut negative = zero;
        negative.dram_bandwidth = -1.0;
        assert!(System::Dmz.try_spec_with(&zero).is_err());
        let good = bsp(System::Dmz, 2);
        let batch = [
            good.clone(),
            good.clone().with_params(zero),
            good.clone().with_params(negative),
            good.clone().with_params(zero),
        ];
        let single: Vec<Digest> = batch.iter().map(Scenario::digest).collect();
        assert_eq!(Scenario::digests(&batch), single);
        assert_ne!(single[0], single[1]);
        assert_ne!(single[1], single[2], "the calibration point still separates digests");
        assert_eq!(single[1], single[3]);
    }

    #[test]
    fn the_prefix_memo_is_bounded_and_exact() {
        let mut memo = PrefixMemo::default();
        let mut params = CalibParams::paper_2006();
        let base = params.dram_latency;
        for i in 0..=PrefixMemo::CAP {
            params.dram_latency = base * (1.0 + i as f64 * 1e-6);
            let shared = Arc::new(params);
            assert_eq!(memo.get(System::Dmz, &shared), digest_prefix(System::Dmz, &params));
            assert!(memo.map.len() <= PrefixMemo::CAP);
        }
        assert_eq!(memo.map.len(), 1, "a full memo starts over");
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
    fn scenarios_at_the_shipped_point_share_one_instance() {
        assert!(std::mem::size_of::<Scenario>() <= 192, "{}", std::mem::size_of::<Scenario>());
        let built = bsp(System::Dmz, 4);
        let explicit = bsp(System::Longs, 2).with_params(CalibParams::paper_2006());
        let parsed = Scenario::from_json(&json::parse(&built.to_json()).unwrap()).unwrap();
        assert!(Arc::ptr_eq(&built.params, &explicit.params));
        assert!(Arc::ptr_eq(&built.params, &parsed.params));
        let mut moved = CalibParams::paper_2006();
        moved.dram_latency *= 1.25;
        let other = built.clone().with_params(moved);
        assert!(!Arc::ptr_eq(&built.params, &other.params));
        // A point equal bit for bit but held apart digests the same.
        let apart = Scenario { params: Arc::new(CalibParams::paper_2006()), ..built.clone() };
        assert_eq!(Scenario::digests(&[built.clone(), apart.clone(), built]), {
            let d = apart.digest();
            vec![d, d, d]
        });
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
        // A point no machine can be built from is rejected by the bounds
        // check before any spec is built, not by a panic.
        let mut params = CalibParams::paper_2006();
        params.dram_bandwidth = 0.0;
        let s = bsp(System::Dmz, 2).with_params(params);
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("outside its documented bounds"), "{err}");
        let err = s.run().unwrap_err().to_string();
        assert!(err.contains("outside its documented bounds"), "{err}");
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
        let back = json::parse(&r.to_json()).unwrap();
        let count = |key: &str| back.get(key).and_then(Value::as_usize);
        let makespan = back.get("makespan").and_then(Value::as_f64);
        assert_eq!(makespan.map(f64::to_bits), Some(r.makespan.to_bits()));
        assert_eq!(count("events"), Some(r.events));
        assert_eq!(count("faults_applied"), Some(r.faults_applied));
        assert_eq!(count("checkpoints_taken"), Some(r.checkpoints_taken));
        assert_eq!(count("recoveries"), Some(r.recoveries));
        assert_eq!(count("retries"), Some(r.retries));
    }

    #[test]
    fn validate_rejects_impossible_worlds() {
        assert!(bsp(System::Dmz, 0).validate().is_err());
        let pp = Scenario::new(System::Dmz, 1, Workload::PingPong { bytes: 8.0, reps: 1 });
        assert!(pp.validate().is_err());
        assert!(pp.run().is_err());
    }

    /// PingPong half-round-trip time in seconds (the IMB "t" column).
    fn pingpong_time(s: Scenario) -> f64 {
        let Workload::PingPong { reps, .. } = s.workload else { panic!("not a pingpong") };
        s.run().unwrap().makespan / (2.0 * reps as f64)
    }

    /// Ring or Exchange time per iteration in seconds.
    fn iteration_time(s: Scenario) -> f64 {
        let (Workload::Ring { reps, .. } | Workload::Exchange { reps, .. }) = s.workload else {
            panic!("not a ring or exchange")
        };
        s.run().unwrap().makespan / reps as f64
    }

    fn imb(system: System, nranks: usize, workload: Workload, scheme: Scheme) -> Scenario {
        Scenario::new(system, nranks, workload).with_placement(Placement::Scheme(scheme))
    }

    #[test]
    fn pingpong_latency_is_microseconds_for_small_messages() {
        let pp = Workload::PingPong { bytes: 1.0, reps: 20 };
        let t =
            pingpong_time(imb(System::Dmz, 2, pp, Scheme::OneMpiLocalAlloc).with_mpi(MpiImpl::Lam));
        assert!(t > 0.5e-6 && t < 5e-6, "t = {:.2} us", t * 1e6);
    }

    #[test]
    fn pingpong_bandwidth_approaches_copy_bw_for_large_messages() {
        let pp = Workload::PingPong { bytes: 4e6, reps: 3 };
        let bw = 4e6 / pingpong_time(imb(System::Dmz, 2, pp, Scheme::OneMpiLocalAlloc));
        let copy_bw = MpiImpl::Mpich2.profile().copy_bw;
        assert!(bw > 0.75 * copy_bw && bw <= copy_bw * 1.01, "bw = {bw:.3e}");
    }

    #[test]
    fn same_socket_pingpong_beats_cross_socket() {
        let pp = Workload::PingPong { bytes: 1e6, reps: 3 };
        let bw = |scheme| {
            1e6 / pingpong_time(imb(System::Dmz, 2, pp.clone(), scheme).with_mpi(MpiImpl::OpenMpi))
        };
        // Bound to one socket (cores 0, 1) vs. spread across sockets.
        let gain = bw(Scheme::TwoMpiLocalAlloc) / bw(Scheme::OneMpiLocalAlloc);
        assert!(
            gain > 1.05 && gain < 1.2,
            "paper reports ~10-13% intra-socket benefit, got {gain:.3}"
        );
    }

    #[test]
    fn pingpong_time_is_independent_of_reps() {
        // The 2×reps p2p ops are strictly dependent — no pipelining may
        // shorten later round trips. Guard the per-half-round-trip time
        // against engine dependency-handling changes.
        let at = |reps| {
            let pp = Workload::PingPong { bytes: 1024.0, reps };
            pingpong_time(imb(System::Dmz, 2, pp, Scheme::OneMpiLocalAlloc))
        };
        let reference = at(1);
        for reps in [2, 7, 40] {
            let t = at(reps);
            assert!(
                (t - reference).abs() <= reference * 1e-6,
                "reps={reps}: {t:e} vs reference {reference:e}"
            );
        }
    }

    #[test]
    fn exchange_time_scales_with_message_size() {
        let at = |bytes| {
            let exchange = Workload::Exchange { bytes, reps: 5 };
            iteration_time(
                imb(System::Dmz, 2, exchange, Scheme::Default).with_mpi(MpiImpl::OpenMpi),
            )
        };
        assert!(at(1e6) > 5.0 * at(64.0));
    }

    #[test]
    fn parked_processes_hold_cores_and_cost_overhead() {
        let exchange = |parked| {
            imb(System::Dmz, 2, Workload::Exchange { bytes: 1024.0, reps: 5 }, Scheme::Default)
                .with_mpi(MpiImpl::OpenMpi)
                .with_parked(parked)
        };
        let (plain, parked) = (exchange(0), exchange(2));
        let machine = System::Dmz.machine();
        let world = parked.lower(&machine).unwrap();
        assert_eq!(world.size(), 4);
        assert!(world.programs()[2..].iter().all(|p| p.is_empty()));
        assert!(iteration_time(parked) > iteration_time(plain));
    }

    #[test]
    fn parked_ranks_separate_digests_and_round_trip() {
        let base = imb(System::Dmz, 2, Workload::Exchange { bytes: 8.0, reps: 2 }, Scheme::Default);
        let parked = base.clone().with_parked(2);
        assert_ne!(base.digest(), parked.digest());
        assert!(!base.to_json().contains("\"parked\""));
        let text = parked.to_json();
        assert!(text.contains("\"nranks\":2,\"parked\":2,"), "{text}");
        let back = Scenario::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, parked);
        assert_eq!(back.digest(), parked.digest());
    }

    #[test]
    fn ring_latency_exceeds_pingpong_latency() {
        // Figure 13: "As expected ring latencies are higher than PingPong
        // latencies".
        let longs = |workload| {
            imb(System::Longs, 16, workload, Scheme::TwoMpiLocalAlloc).with_mpi(MpiImpl::Lam)
        };
        let ring = iteration_time(longs(Workload::Ring { bytes: 8.0, reps: 10 }));
        let pp = pingpong_time(longs(Workload::PingPong { bytes: 8.0, reps: 10 }));
        assert!(ring > pp, "ring {ring:.3e} vs pingpong {pp:.3e}");
    }

    #[test]
    fn sysv_dominates_ring_latency() {
        // Figure 13: differences between ring and pingpong "are
        // overwhelmed by the high latencies associated with the SysV MPI
        // sub-layer".
        let ring = |lock| {
            let ring = Workload::Ring { bytes: 8.0, reps: 5 };
            iteration_time(
                imb(System::Longs, 16, ring, Scheme::TwoMpiLocalAlloc)
                    .with_mpi(MpiImpl::Lam)
                    .with_lock(lock),
            )
        };
        let (sysv, usysv) = (ring(LockLayer::SysV), ring(LockLayer::USysV));
        assert!(sysv > 1.5 * usysv, "sysv {sysv:.3e} vs usysv {usysv:.3e}");
    }

    #[test]
    fn ring_bandwidth_reflects_topology_congestion() {
        // The ladder congests ring traffic relative to a 2-socket node's
        // point-to-point links.
        let bw = |system, nranks| {
            let ring = Workload::Ring { bytes: 2e6, reps: 3 };
            2e6 / iteration_time(
                imb(system, nranks, ring, Scheme::TwoMpiLocalAlloc).with_mpi(MpiImpl::Lam),
            )
        };
        let (bw_longs, bw_dmz) = (bw(System::Longs, 16), bw(System::Dmz, 4));
        assert!(bw_longs < bw_dmz, "ladder ring bw {bw_longs:.3e} should trail dmz {bw_dmz:.3e}");
    }

    #[test]
    fn communication_probes_need_two_ranks() {
        for workload in [
            Workload::PingPong { bytes: 8.0, reps: 1 },
            Workload::Ring { bytes: 8.0, reps: 1 },
            Workload::Exchange { bytes: 8.0, reps: 1 },
        ] {
            let s = imb(System::Dmz, 1, workload, Scheme::Default);
            let err = s.validate().unwrap_err().to_string();
            assert!(err.contains(&format!("'{}'", s.workload.kind())), "{err}");
            assert!(s.run().is_err());
            // Parked ranks do not count towards the world.
            assert!(s.with_parked(1).validate().is_err());
        }
    }

    #[test]
    fn parked_ranks_count_against_the_machine() {
        let exchange = |parked| {
            imb(System::Dmz, 2, Workload::Exchange { bytes: 8.0, reps: 1 }, Scheme::Default)
                .with_parked(parked)
        };
        let machine = System::Dmz.machine();
        assert!(exchange(2).validate().is_ok());
        assert!(exchange(2).placeable(&machine));
        let err = exchange(3).validate().unwrap_err().to_string();
        assert!(err.contains("4 cores"), "{err}");
        assert!(!exchange(3).placeable(&machine));
        assert!(exchange(3).run().is_err());
    }

    #[test]
    fn a_barrier_with_parked_ranks_is_an_error_not_a_hang() {
        let ring = imb(System::Dmz, 2, Workload::Ring { bytes: 8.0, reps: 2 }, Scheme::Default);
        assert!(ring.with_parked(2).run().is_err());
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
        let out_of_bounds = json::parse(
            r#"{"system":"dmz","nranks":2,"workload":{"kind":"pingpong","bytes":1024,"reps":2},
                "params":{"dram_bandwidth":0}}"#,
        )
        .unwrap();
        let err = Scenario::from_json(&out_of_bounds).unwrap_err();
        assert!(err.contains("'dram_bandwidth'"), "{err}");
        assert!(err.contains("[2000000000, 6400000000]"), "{err}");
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
