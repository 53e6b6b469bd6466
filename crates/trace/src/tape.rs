//! The tape data model: a compact SSA-style rendering of one recorded run.

use flexfloat::{ArrayId, BinOp, TypeConfig, ValueId};
use tp_formats::FpFormat;

/// A format slot on the tape.
///
/// Formats are stored *symbolically* wherever they came from a tunable
/// variable: replay resolves `Var(i)` through the candidate
/// [`TypeConfig`], which is what lets one tape serve every candidate. A
/// format that did not come from a declared variable (e.g. an explicit
/// `fx32` literal) is pinned as `Fixed` and replays unchanged — exactly
/// what live execution does with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmtRef {
    /// The format of the `i`-th recorded variable (index into
    /// [`Trace::var_names`]).
    Var(u16),
    /// A configuration-independent format, replayed as recorded.
    Fixed(FpFormat),
}

/// One entry of the tape.
///
/// Ops that produce a value are assigned consecutive [`ValueId`]s (1-based)
/// in tape order; likewise array-producing ops and [`ArrayId`]s. Operand
/// ids always refer to earlier entries — the tape is SSA by construction,
/// because ids are handed out at execution time by identity, never inferred
/// from bit patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum TapeOp {
    /// `Fx::new`/`Fx::zero`: a literal rounded into a variable's format.
    /// `raw` is the pre-rounding value (config-independent by the
    /// recording contract), so replay can re-round it into the candidate
    /// format. Produces a value.
    Leaf {
        /// Destination format slot.
        fmt: FmtRef,
        /// The literal before rounding.
        raw: f64,
    },
    /// `FxArray::from_f64s` (pre-rounding values). Produces an array.
    ArrayNew {
        /// Element format slot.
        fmt: FmtRef,
        /// The initializer before rounding.
        raw: Vec<f64>,
    },
    /// `FxArray::zeros`. Produces an array.
    ArrayZeros {
        /// Element format slot.
        fmt: FmtRef,
        /// Element count.
        len: u32,
    },
    /// `FxArray::clone`: a deep copy of `src`'s state at this point.
    /// Produces an array.
    ArrayDup {
        /// The cloned array.
        src: ArrayId,
    },
    /// `FxArray::get`. Produces a value.
    Load {
        /// Source array.
        arr: ArrayId,
        /// Element index.
        idx: u32,
    },
    /// `FxArray::set` with the *pre-cast* value id (the rounding into the
    /// array's format is re-derived at replay).
    Store {
        /// Destination array.
        arr: ArrayId,
        /// Element index.
        idx: u32,
        /// The stored value (pre-cast).
        v: ValueId,
    },
    /// An explicit `Fx::to`. Produces a value.
    Cast {
        /// The converted value.
        v: ValueId,
        /// Destination format slot.
        dst: FmtRef,
    },
    /// A binary arithmetic op on pre-promotion operands. Produces a value.
    Bin {
        /// Which operation.
        op: BinOp,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// `Fx::sqrt`. Produces a value.
    Sqrt {
        /// The operand.
        v: ValueId,
    },
    /// `Fx::min`/`Fx::max` (RISC-V semantics). Produces a value.
    MinMax {
        /// `true` for `min`.
        is_min: bool,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Sign negation. Produces a value.
    Neg {
        /// The operand.
        v: ValueId,
    },
    /// Absolute value. Produces a value.
    Abs {
        /// The operand.
        v: ValueId,
    },
    /// A quiet comparison and the outcome the recorded run observed — the
    /// anchor of the divergence guard.
    Cmp {
        /// `true` for `<=`, `false` for `<`.
        is_le: bool,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
        /// What the recorded run observed.
        outcome: bool,
    },
    /// `Fx::value` escaping a value as `f64` (an output tap).
    Extract {
        /// The escaping value.
        v: ValueId,
    },
    /// `FxArray::to_f64s` escaping a whole array (an output tap).
    ExtractArray {
        /// The escaping array.
        arr: ArrayId,
    },
    /// `FxArray::peek` escaping one element (an output tap).
    ExtractElement {
        /// The escaping array.
        arr: ArrayId,
        /// Element index.
        idx: u32,
    },
    /// `Recorder::int_ops` — preserved so replay reproduces the recorded
    /// statistics exactly.
    IntOps {
        /// Instruction count.
        n: u64,
    },
    /// A `VectorSection` opened.
    VectorEnter,
    /// A `VectorSection` closed.
    VectorExit,
}

/// How replay reconstructs the program's output vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputPlan {
    /// The recorded extract taps, flattened in tape order, were bitwise
    /// equal to the returned outputs: replay returns the replayed values of
    /// those taps.
    FromExtracts,
    /// No value ever escaped the `Fx` layer (e.g. KNN returns neighbour
    /// *indices*): the outputs are a function of control flow only, so
    /// under a non-divergent replay they equal the recorded outputs
    /// verbatim.
    Verbatim,
}

/// Discriminant of a [`Packed`] tape entry. Binary ops and comparisons get
/// one tag per flavour so the replay loop is a flat jump, not a nested
/// decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    Leaf,
    ArrayNew,
    ArrayZeros,
    ArrayDup,
    Load,
    Store,
    Cast,
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
    Min,
    Max,
    Neg,
    Abs,
    CmpLt,
    CmpLe,
    /// Fused `Bin` + `Cast`-of-its-result (raw view only; the full tape
    /// keeps the two ops distinct for the observed interpreter). Produces
    /// TWO values — the bin result, then the cast result — preserving the
    /// tape's value numbering.
    AddCast,
    /// See [`Tag::AddCast`].
    SubCast,
    /// See [`Tag::AddCast`].
    MulCast,
    /// See [`Tag::AddCast`].
    DivCast,
    Extract,
    ExtractArray,
    ExtractElement,
    IntOps,
    VectorEnter,
    VectorExit,
}

/// One fixed-width (12-byte) tape entry.
///
/// The tape is the inner loop of every candidate evaluation, so its memory
/// footprint *is* its speed: a whole kernel trace has to stream through
/// cache once per replay. Variable payloads live out of line — literal and
/// initializer `f64`s in [`Trace::pool`], formats interned in
/// [`Trace::fmt_slots`] — and arrays are few enough that an [`ArrayId`]
/// rides in the 16-bit `fmt` field, so every entry is `tag + u16 + two u32
/// operands`. The public [`TapeOp`] enum is the decoded *view* of the full
/// tape ([`Trace::op`]), not the storage.
///
/// The `fmt` field means different things on the two tapes a [`Trace`]
/// keeps. On the full tape (`Trace::ops`, replayed by the observed
/// interpreter) it names a format slot. On the raw view
/// (`Trace::raw_ops`) every entry that consults a format instead holds
/// the index of its dispatch cell in `Trace::cells`: which formats the
/// entry computes in is a static fact of the tape, resolved once at
/// record time (see [`CellKey`]), so the raw interpreter tracks no
/// per-value format. A comparison's raw cell index shares the field with
/// its recorded outcome in the top bit ([`OUTCOME_BIT`]), which caps a
/// trace at [`MAX_CELLS`] cells.
///
/// Field meaning per tag ([`ValueId`]/[`ArrayId`] operands as named):
///
/// | tag | `fmt` (full tape) | `fmt` (raw view) | `a` | `b` |
/// |---|---|---|---|---|
/// | `Leaf` | slot | cell | pool index of `raw` | — |
/// | `ArrayNew` | slot | cell | pool offset | length |
/// | `ArrayZeros` | slot | — | length | — |
/// | `ArrayDup` | source array | source array | — | — |
/// | `Load` | array | array | index | — |
/// | `Store` | array | cell (holds the array) | index | value |
/// | `Cast` | dst slot | cell | value | — |
/// | `Add..Div`, `Min`, `Max` | — | cell | lhs | rhs |
/// | `AddCast..DivCast` | (raw view only) | cell | lhs | rhs |
/// | `Sqrt` | — | cell | value | — |
/// | `Neg`, `Abs` | — | — | value | — |
/// | `CmpLt`/`CmpLe` | outcome (0/1) | cell, outcome in [`OUTCOME_BIT`] | lhs | rhs |
/// | `Extract` | — | — | value | — |
/// | `ExtractArray` | array | array | — | — |
/// | `ExtractElement` | array | array | index | — |
/// | `IntOps` | — | (stripped) | count | — |
/// | `VectorEnter`/`Exit` | — | (stripped) | — | — |
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packed {
    pub(crate) tag: Tag,
    pub(crate) fmt: u16,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// The bit of a raw-view comparison's `fmt` field that holds its recorded
/// outcome; the bits below it hold the entry's cell index.
pub(crate) const OUTCOME_BIT: u16 = 1 << 15;

/// Most dispatch cells one trace may intern: every cell index must fit
/// below [`OUTCOME_BIT`].
pub(crate) const MAX_CELLS: usize = OUTCOME_BIT as usize;

/// Most format slots one trace may intern: a value's slot set is a
/// `u128` bit mask ([`Trace::sets`]).
pub(crate) const MAX_SLOTS: usize = u128::BITS as usize;

impl Packed {
    pub(crate) fn new(tag: Tag) -> Self {
        Packed {
            tag,
            fmt: 0,
            a: 0,
            b: 0,
        }
    }

    /// The entry with a comparison's recorded outcome masked off — the
    /// part of a raw-view entry that is program shape rather than input
    /// data.
    pub(crate) fn shape(self) -> (Tag, u16, u32, u32) {
        let fmt = match self.tag {
            Tag::CmpLt | Tag::CmpLe => self.fmt & !OUTCOME_BIT,
            _ => self.fmt,
        };
        (self.tag, fmt, self.a, self.b)
    }
}

/// What a raw-view dispatch cell is keyed on. Every operand is a *slot
/// set*, an index into [`Trace::sets`]: a value's format under any
/// configuration is the widest — by the `(man_bits, exp_bits)` key of
/// `Fx::promote` — of its set's resolved formats. A leaf, load or cast
/// gives a one-slot set; a promotion gives the union of its operands'
/// sets, which is exactly what `Fx::promote` picks because equal keys mean
/// equal formats. So the formats an entry consults are known at record
/// time up to the configuration, and the raw interpreter reads them from
/// the cell instead of tracking a format per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellKey {
    /// The format of a set (`Leaf`, `ArrayNew`, `Sqrt`).
    Format(u16),
    /// The promotion of two operand sets (`Add..Div`, `Min`, `Max`,
    /// comparisons).
    Promote(u16, u16),
    /// The rounding of a value of set `src` into set `dst` (`Cast`).
    Cast {
        /// Destination set.
        dst: u16,
        /// Source set.
        src: u16,
    },
    /// A promotion followed by a cast of its result into `dst` (the fused
    /// `AddCast..DivCast` tags).
    BinCast(u16, u16, u16),
    /// The rounding of a value of set `src` into array `arr`, whose
    /// elements have set `dst` (`Store`; the array rides in the cell
    /// because the entry's `fmt` field holds the cell).
    Store {
        /// Destination array.
        arr: u16,
        /// The array's element set.
        dst: u16,
        /// The stored value's set.
        src: u16,
    },
}

impl CellKey {
    /// The key as one integer — kind in the top byte, then up to three
    /// 16-bit operands — for cheap hashing and comparison while interning.
    pub(crate) fn packed(self) -> u64 {
        let (kind, x, y, z) = match self {
            CellKey::Format(s) => (0, s, 0, 0),
            CellKey::Promote(sa, sb) => (1, sa, sb, 0),
            CellKey::Cast { dst, src } => (2, dst, src, 0),
            CellKey::BinCast(sa, sb, dst) => (3, sa, sb, dst),
            CellKey::Store { arr, dst, src } => (4, arr, dst, src),
        };
        kind << 56 | u64::from(x) << 32 | u64::from(y) << 16 | u64::from(z)
    }
}

/// A recorded run of a tunable program on one input set, replayable under
/// any candidate [`TypeConfig`].
///
/// Produced by [`Trace::record`]; consumed by [`Trace::replay`]. A `Trace`
/// is plain data (`Send + Sync`), so one trace can be shared by any number
/// of concurrent replays.
#[derive(Debug, Clone)]
pub struct Trace {
    pub(crate) ops: Vec<Packed>,
    /// The raw interpreter's stripped view of `ops`: statistics-only
    /// entries (`IntOps`, `VectorEnter`/`Exit`) removed and `Cast`s of a
    /// just-produced `Bin` result fused into `AddCast..DivCast` entries.
    /// Scanning fewer entries matters — the tape is memory-bound.
    pub(crate) raw_ops: Vec<Packed>,
    /// Full-tape index of each comparison, in tape order — maps the raw
    /// interpreter's k-th comparison back to a [`Replayed::Divergent`]
    /// address on the full tape.
    pub(crate) cmp_sites: Vec<u32>,
    /// Out-of-line `f64` payloads (leaf literals, array initializers).
    pub(crate) pool: Vec<f64>,
    /// Interned format slots; the full tape's `Packed::fmt` indexes here.
    /// Replay resolves the whole table against the candidate config once,
    /// so the per-op cost is one array read instead of a config lookup.
    pub(crate) fmt_slots: Vec<FmtRef>,
    /// Interned slot sets, as bit masks over `fmt_slots`. Set `i < slots`
    /// is the one-slot set `{i}`; unions made by promotions follow.
    pub(crate) sets: Vec<u128>,
    /// Interned dispatch cells; the raw view's `Packed::fmt` indexes here.
    /// Replay resolves each cell once per candidate (O(cells)).
    pub(crate) cells: Vec<CellKey>,
    pub(crate) n_values: u32,
    pub(crate) n_arrays: u32,
    pub(crate) var_names: Vec<&'static str>,
    pub(crate) recorded_config: TypeConfig,
    pub(crate) plan: OutputPlan,
    pub(crate) outputs: Vec<f64>,
    pub(crate) comparisons: u32,
}

impl Trace {
    /// `true` when `other` records the *same program shape* as `self`:
    /// identical raw op stream (comparison outcomes aside), format slots,
    /// slot sets, dispatch cells, variable names, table sizes, pool length
    /// and output plan — i.e. the same kernel taped on a different input
    /// set, with possibly different recorded branch outcomes.
    #[must_use]
    pub fn same_shape(&self, other: &Trace) -> bool {
        // A comparison's outcome bit is input-data-dependent and not part
        // of the shape; its cell index is.
        self.raw_ops.len() == other.raw_ops.len()
            && self
                .raw_ops
                .iter()
                .map(|p| p.shape())
                .eq(other.raw_ops.iter().map(|p| p.shape()))
            && self.fmt_slots == other.fmt_slots
            && self.sets == other.sets
            && self.cells == other.cells
            && self.var_names == other.var_names
            && (self.n_values, self.n_arrays) == (other.n_values, other.n_arrays)
            && self.pool.len() == other.pool.len()
            && self.plan == other.plan
            && self.outputs.len() == other.outputs.len()
    }

    /// Number of tape entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the tape has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Decodes tape entry `i` into its public view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn op(&self, i: usize) -> TapeOp {
        let p = self.ops[i];
        let fmt = |slot: u16| self.fmt_slots[usize::from(slot)];
        match p.tag {
            Tag::Leaf => TapeOp::Leaf {
                fmt: fmt(p.fmt),
                raw: self.pool[p.a as usize],
            },
            Tag::ArrayNew => TapeOp::ArrayNew {
                fmt: fmt(p.fmt),
                raw: self.pool[p.a as usize..p.a as usize + p.b as usize].to_vec(),
            },
            Tag::ArrayZeros => TapeOp::ArrayZeros {
                fmt: fmt(p.fmt),
                len: p.a,
            },
            Tag::ArrayDup => TapeOp::ArrayDup {
                src: u32::from(p.fmt),
            },
            Tag::Load => TapeOp::Load {
                arr: u32::from(p.fmt),
                idx: p.a,
            },
            Tag::Store => TapeOp::Store {
                arr: u32::from(p.fmt),
                idx: p.a,
                v: p.b,
            },
            Tag::Cast => TapeOp::Cast {
                v: p.a,
                dst: fmt(p.fmt),
            },
            Tag::Add => TapeOp::Bin {
                op: BinOp::Add,
                a: p.a,
                b: p.b,
            },
            Tag::Sub => TapeOp::Bin {
                op: BinOp::Sub,
                a: p.a,
                b: p.b,
            },
            Tag::Mul => TapeOp::Bin {
                op: BinOp::Mul,
                a: p.a,
                b: p.b,
            },
            Tag::Div => TapeOp::Bin {
                op: BinOp::Div,
                a: p.a,
                b: p.b,
            },
            Tag::Sqrt => TapeOp::Sqrt { v: p.a },
            Tag::Min => TapeOp::MinMax {
                is_min: true,
                a: p.a,
                b: p.b,
            },
            Tag::Max => TapeOp::MinMax {
                is_min: false,
                a: p.a,
                b: p.b,
            },
            Tag::Neg => TapeOp::Neg { v: p.a },
            Tag::Abs => TapeOp::Abs { v: p.a },
            Tag::CmpLt => TapeOp::Cmp {
                is_le: false,
                a: p.a,
                b: p.b,
                outcome: p.fmt != 0,
            },
            Tag::CmpLe => TapeOp::Cmp {
                is_le: true,
                a: p.a,
                b: p.b,
                outcome: p.fmt != 0,
            },
            Tag::AddCast | Tag::SubCast | Tag::MulCast | Tag::DivCast => {
                unreachable!("fused tags only exist on the raw view")
            }
            Tag::Extract => TapeOp::Extract { v: p.a },
            Tag::ExtractArray => TapeOp::ExtractArray {
                arr: u32::from(p.fmt),
            },
            Tag::ExtractElement => TapeOp::ExtractElement {
                arr: u32::from(p.fmt),
                idx: p.a,
            },
            Tag::IntOps => TapeOp::IntOps { n: u64::from(p.a) },
            Tag::VectorEnter => TapeOp::VectorEnter,
            Tag::VectorExit => TapeOp::VectorExit,
        }
    }

    /// Number of recorded comparisons — each one is a potential divergence
    /// point. A trace with zero comparisons replays under *every*
    /// configuration (straight-line kernels like CONV/DWT/JACOBI).
    #[must_use]
    pub fn comparisons(&self) -> u32 {
        self.comparisons
    }

    /// The (injective) configuration the trace was recorded under. Each
    /// variable got a distinct wide format, which is how tape formats are
    /// resolved back to variables; replaying under this exact configuration
    /// reproduces the recorded run bit for bit.
    #[must_use]
    pub fn recorded_config(&self) -> &TypeConfig {
        &self.recorded_config
    }

    /// The names of the recorded variables, in tape [`FmtRef::Var`] index
    /// order.
    #[must_use]
    pub fn var_names(&self) -> &[&'static str] {
        &self.var_names
    }

    /// The outputs the recording run produced (under
    /// [`Trace::recorded_config`]).
    #[must_use]
    pub fn recorded_outputs(&self) -> &[f64] {
        &self.outputs
    }

    /// The decoded tape, for inspection and reporting.
    pub fn ops(&self) -> impl Iterator<Item = TapeOp> + '_ {
        (0..self.len()).map(|i| self.op(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Fx, VarSpec};

    /// The raw-view comparison entry of a trace with one comparison.
    fn cmp_site(trace: &Trace) -> usize {
        trace
            .raw_ops
            .iter()
            .position(|p| p.tag == Tag::CmpLt)
            .expect("one comparison")
    }

    #[test]
    fn same_shape_ignores_only_the_comparison_outcome() {
        // The outcome is recorded but steers nothing, so two input sets on
        // either side of the threshold tape the same op stream.
        let taped = |x0: f64| {
            Trace::record(&[VarSpec::scalar("x")], move |cfg| {
                let x = Fx::new(x0, cfg.format_of("x"));
                let one = Fx::new(1.0, cfg.format_of("x"));
                let _ = x.lt(one);
                vec![(x * one).value()]
            })
            .unwrap()
        };
        let (below, above) = (taped(0.5), taped(1.5));
        let (lo, hi) = (
            below.raw_ops[cmp_site(&below)],
            above.raw_ops[cmp_site(&above)],
        );
        assert_eq!(lo.fmt ^ hi.fmt, OUTCOME_BIT, "only the outcomes differ");
        assert!(below.same_shape(&above));

        // Any other bit of the field is the comparison's cell: shape.
        let site = cmp_site(&below);
        let mut other = below.clone();
        other.raw_ops[site].fmt ^= 1;
        assert!(!below.same_shape(&other));
        other.raw_ops[site].fmt ^= 1 | OUTCOME_BIT;
        assert!(below.same_shape(&other));
    }
}
