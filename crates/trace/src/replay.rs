//! Tape replay under a candidate configuration.
//!
//! Two interpreters share the tape:
//!
//! * [`Trace::replay`] picks the **raw** interpreter when nothing is
//!   observing the thread (no [`Recorder`], no installed backend): values
//!   are plain `f64`s and every operation inlines the emulated datapath
//!   ([`Emulated`]) directly — the same arithmetic the uninstalled `Fx`
//!   fast path executes, minus the per-op thread-local checks and
//!   statistics bookkeeping. This is what makes a replayed candidate
//!   evaluation cheaper than a live kernel run.
//! * When a `Recorder` is running or a backend is installed, replay drives
//!   the real [`Fx`]/[`FxArray`] API instead, so recorded statistics and
//!   backend dispatch are exact by construction.
//!
//! Both interpreters are bit-identical in outputs and divergence decisions
//! (`raw_path_matches_fx_path` below, and the kernel-level proptests in
//! `tests/replay_equivalence.rs`, pin this).
//!
//! The raw interpreter tracks no format per value. Which formats an entry
//! computes in is a static fact of the tape: recording gives every value
//! a set of format slots and interns each distinct combination an entry
//! consults as a dispatch cell ([`CellKey`]). A replay resolves the
//! trace's cells against the candidate configuration once ([`Tables`],
//! O(cells)), and each raw entry reads its cell, `tables.cells[fmt]`.

use std::cell::RefCell;

use flexfloat::backend::Emulated;
use flexfloat::{BinOp, Engine, FpBackend, Fx, FxArray, Recorder, TypeConfig, VectorSection};
use tp_formats::{FpFormat, BINARY32};

use crate::tape::{CellKey, FmtRef, OutputPlan, Packed, Tag, Trace, OUTCOME_BIT};

/// A dispatch cell ([`CellKey`]) resolved against one candidate
/// configuration: everything a raw-view entry needs to know about formats.
/// The fields split in two halves. `fmt`/`san_a`/`san_b` describe the
/// computation — the format it runs in and which operand the promotion
/// re-rounds — and `dst`/`exact` describe a rounding into a destination.
/// A cell fills only the fields its key needs.
#[derive(Clone, Copy)]
struct Cell {
    /// The format the entry computes in: a leaf's or array's format, the
    /// promoted operand format, or a square root's operand format.
    fmt: FpFormat,
    /// The left operand must be re-rounded into `fmt`.
    san_a: bool,
    /// The right operand must be re-rounded into `fmt`.
    san_b: bool,
    /// Destination of a cast or store.
    dst: FpFormat,
    /// The destination is a superset of the source, so the re-rounding is
    /// an identity on in-grid values and is skipped.
    exact: bool,
    /// Destination array of a store.
    arr: u16,
}

impl Cell {
    const EMPTY: Cell = Cell {
        fmt: BINARY32,
        san_a: false,
        san_b: false,
        dst: BINARY32,
        exact: true,
        arr: 0,
    };

    /// Resolves `key` given the resolved format of every slot set.
    ///
    /// The promotion rule here is **provably equivalent to `Fx::promote`**:
    /// both pick the winner by the lexicographic key `(man_bits,
    /// exp_bits)`. An [`FpFormat`] is fully determined by `(exp_bits,
    /// man_bits)`, so equal keys imply *the same format* — and for the
    /// mixed pairs where one side has the wider mantissa but the narrower
    /// exponent (binary16 vs binary16alt), both rules pick the wider
    /// mantissa and saturate the loser's out-of-range values through the
    /// sanitize, exactly like the `convert` that `Fx::promote` inserts.
    /// The only liberty taken is skipping the sanitize when the winner is
    /// a *superset* of the loser (identity on in-grid values). Because the
    /// winner is a maximum under a total order, promoting a chain resolves
    /// to the widest format of the chain's slot set, which is how the
    /// record-time set rule ([`CellKey`]) reaches the same format.
    /// `promotion_parity_with_fx_promote` and
    /// `promotion_chains_match_fx_promote` below pin the equivalence.
    fn resolve(key: CellKey, set_fmts: &[FpFormat]) -> Cell {
        let set = |s: u16| set_fmts[usize::from(s)];
        let promote = |sa: u16, sb: u16| {
            let (fa, fb) = (set(sa), set(sb));
            if (fa.man_bits(), fa.exp_bits()) >= (fb.man_bits(), fb.exp_bits()) {
                Cell {
                    fmt: fa,
                    san_b: !fa.is_superset_of(fb),
                    ..Cell::EMPTY
                }
            } else {
                Cell {
                    fmt: fb,
                    san_a: !fb.is_superset_of(fa),
                    ..Cell::EMPTY
                }
            }
        };
        // Re-rounding into a superset format is an identity on in-grid
        // values — skipping it is the one sanitize the interpreter can
        // prove away that the generic Fx path pays unconditionally.
        let round = |cell: Cell, dst: FpFormat, src: FpFormat| Cell {
            dst,
            exact: dst.is_superset_of(src),
            ..cell
        };
        match key {
            CellKey::Format(s) => Cell {
                fmt: set(s),
                ..Cell::EMPTY
            },
            CellKey::Promote(sa, sb) => promote(sa, sb),
            CellKey::Cast { dst, src } => round(Cell::EMPTY, set(dst), set(src)),
            CellKey::BinCast(sa, sb, dst) => {
                let bin = promote(sa, sb);
                round(bin, set(dst), bin.fmt)
            }
            CellKey::Store { arr, dst, src } => Cell {
                arr,
                ..round(Cell::EMPTY, set(dst), set(src))
            },
        }
    }

    /// The two operands of a promoting entry, re-rounded as the cell says.
    #[inline]
    fn operands(self, va: f64, vb: f64) -> (f64, f64) {
        (
            if self.san_a {
                self.fmt.sanitize_f64(va)
            } else {
                va
            },
            if self.san_b {
                self.fmt.sanitize_f64(vb)
            } else {
                vb
            },
        )
    }

    /// `v` rounded into the cell's destination.
    #[inline]
    fn round(self, v: f64) -> f64 {
        if self.exact {
            v
        } else {
            self.dst.sanitize_f64(v)
        }
    }
}

/// The per-replay dispatch table of the raw interpreter: the trace's slot
/// sets and cells resolved against one candidate configuration. Rebuilt
/// once per replay in O(slots + sets + cells), read once per tape entry.
#[derive(Default)]
struct Tables {
    /// Resolved format of each interned slot.
    slot_fmts: Vec<FpFormat>,
    /// Resolved format of each slot set: its widest slot.
    set_fmts: Vec<FpFormat>,
    /// Resolved dispatch cells; the raw view's `Packed::fmt` indexes here.
    cells: Vec<Cell>,
}

impl Tables {
    /// Resolves `trace`'s slots, slot sets and cells against `config`.
    fn rebuild(&mut self, trace: &Trace, config: &TypeConfig) {
        self.slot_fmts.clear();
        self.slot_fmts
            .extend(trace.fmt_slots.iter().map(|slot| match *slot {
                FmtRef::Var(i) => config.format_of(trace.var_names[usize::from(i)]),
                FmtRef::Fixed(fmt) => fmt,
            }));
        let slot_fmts = &self.slot_fmts;
        self.set_fmts.clear();
        self.set_fmts.extend(trace.sets.iter().map(|&mask| {
            // The set's slots, lowest first: clear one bit per step.
            std::iter::successors(Some(mask), |&m| Some(m & m.wrapping_sub(1)))
                .take_while(|&m| m != 0)
                .map(|m| slot_fmts[m.trailing_zeros() as usize])
                .max_by_key(|f| (f.man_bits(), f.exp_bits()))
                .expect("slot sets are non-empty")
        }));
        let set_fmts = &self.set_fmts;
        self.cells.clear();
        self.cells
            .extend(trace.cells.iter().map(|&key| Cell::resolve(key, set_fmts)));
    }
}

/// Most retired array buffers a thread's scratch will keep for reuse.
const MAX_SPARE_BUFFERS: usize = 16;

/// Most bytes of retired array capacity a thread's scratch will keep. A
/// long-lived `tp-serve` worker replays many differently-shaped traces;
/// without a cap it would retain the high-water mark of every kernel it
/// has ever tuned, per thread.
const MAX_SPARE_BYTES: usize = 4 << 20;

/// Retired array storage, recycled into later replays' arrays. Bounded by
/// [`MAX_SPARE_BUFFERS`] / [`MAX_SPARE_BYTES`].
#[derive(Default)]
struct Spare {
    bufs: Vec<Vec<f64>>,
    /// Total capacity bytes currently held in `bufs`.
    bytes: usize,
}

impl Spare {
    /// Takes a recycled buffer (empty, capacity retained) or a fresh one.
    #[inline]
    fn take(&mut self) -> Vec<f64> {
        match self.bufs.pop() {
            Some(mut buf) => {
                self.bytes -= buf.capacity() * std::mem::size_of::<f64>();
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Recycles every array buffer of `arrays` (leaving it empty, capacity
    /// kept), dropping any buffer that would break a retention cap.
    fn retire(&mut self, arrays: &mut Vec<Vec<f64>>) {
        for buf in arrays.drain(..) {
            let bytes = buf.capacity() * std::mem::size_of::<f64>();
            if self.bufs.len() < MAX_SPARE_BUFFERS && self.bytes + bytes <= MAX_SPARE_BYTES {
                self.bytes += bytes;
                self.bufs.push(buf);
            }
        }
    }
}

/// The raw interpreter's machine state: the value table (plain `f64`s —
/// a value's format is a static fact of the tape, read from the consuming
/// entry's cell), the arrays, the extracted outputs and the comparison
/// cursor.
#[derive(Default)]
struct Regs {
    vals: Vec<f64>,
    arrays: Vec<Vec<f64>>,
    out: Vec<f64>,
    cmp_seq: usize,
}

impl Regs {
    /// Resets to the start of `trace`'s tape: slot 0 of the value and
    /// array tables is a dummy so ids index directly.
    fn reset(&mut self, trace: &Trace, spare: &mut Spare) {
        self.vals.clear();
        self.vals.reserve(trace.n_values as usize + 1);
        self.vals.push(0.0);
        self.arrays.push(spare.take());
        self.out.clear();
        self.out.reserve(trace.outputs.len());
        self.cmp_seq = 0;
    }
}

/// Reusable raw-interpreter buffers. A tuning run replays the same tape
/// dozens of times; the value table alone is hundreds of kilobytes, and a
/// fresh allocation per replay means an mmap/munmap round trip (plus the
/// page faults of first touch) per candidate. The scratch is thread-local:
/// replays on pool workers each reuse their own.
///
/// Invariant between replays: `regs.arrays` is empty — every exit path
/// (including early [`Replayed::Divergent`] returns) retires its arrays
/// into `spare`, so no per-run state leaks into the next replay.
#[derive(Default)]
struct Scratch {
    regs: Regs,
    spare: Spare,
    /// Resolved dispatch tables of the current replay.
    tables: Tables,
}

impl Scratch {
    /// Debug-build check of the between-replays invariants.
    fn debug_assert_clean(&self) {
        debug_assert!(
            self.regs.arrays.is_empty(),
            "scratch.arrays leaked across replays"
        );
        debug_assert!(
            self.spare.bufs.len() <= MAX_SPARE_BUFFERS,
            "spare count cap violated"
        );
        debug_assert!(
            self.spare.bytes <= MAX_SPARE_BYTES,
            "spare byte cap violated"
        );
        debug_assert_eq!(
            self.spare.bytes,
            self.spare
                .bufs
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>(),
            "spare byte accounting drifted"
        );
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with the calling thread's replay scratch, asserting (in debug
/// builds) the between-replays invariants on entry and exit. `f` must
/// leave `scratch.arrays` retired.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.debug_assert_clean();
        let result = f(scratch);
        scratch.debug_assert_clean();
        result
    })
}

/// The result of one replay attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Replayed {
    /// The replay completed: these outputs are **bit-identical** to what a
    /// live run of the program under the same configuration (and the same
    /// backend) would have produced.
    Output(Vec<f64>),
    /// A recorded comparison outcome flipped under the candidate formats,
    /// so control flow may differ from the recorded path — the caller must
    /// fall back to live execution for this candidate.
    Divergent {
        /// Index of the flipping [`TapeOp::Cmp`](crate::TapeOp::Cmp) on the
        /// tape ([`Trace::op`] decodes it).
        at: usize,
    },
}

impl Replayed {
    /// The outputs, or `None` on divergence.
    #[must_use]
    pub fn output(self) -> Option<Vec<f64>> {
        match self {
            Replayed::Output(out) => Some(out),
            Replayed::Divergent { .. } => None,
        }
    }
}

impl Trace {
    /// Re-executes the tape under `config` and returns the program outputs
    /// — or [`Replayed::Divergent`] as soon as a recorded comparison
    /// outcome flips.
    ///
    /// When the thread is observed (a [`Recorder`] is running or a backend
    /// is installed), replay drives the real [`Fx`]/[`FxArray`] API in
    /// recorded order: operand promotion, array-store rounding, recorded
    /// statistics (every [`Recorder`] event, including `int_ops` and
    /// vector sections) and backend dispatch all happen exactly as a live
    /// run would perform them. Otherwise a raw interpreter executes the
    /// same arithmetic without the bookkeeping (see the module docs). In
    /// both cases a non-divergent replay is bit-identical to live
    /// execution in outputs — and, when observed, in
    /// [`TraceCounts`](flexfloat::TraceCounts) too.
    ///
    /// Callers that only want the counts of *successful* replays (the tuner
    /// does) should wrap the call in
    /// [`Recorder::scoped`](flexfloat::Recorder::scoped) and absorb the
    /// counts only when the replay completes; a divergent replay has
    /// recorded a prefix of the live run's events.
    #[must_use]
    pub fn replay(&self, config: &TypeConfig) -> Replayed {
        tp_obs::counter_inc("trace.replay_calls");
        if Recorder::is_enabled() || Engine::is_active() {
            self.replay_fx(config)
        } else {
            self.replay_raw(config)
        }
    }

    /// The observed interpreter: drives the real `Fx`/`FxArray` API so the
    /// thread's `Recorder` and installed backend see exactly what a live
    /// run would show them.
    fn replay_fx(&self, config: &TypeConfig) -> Replayed {
        let fmts = self.resolve_formats(config);

        // Slot 0 of each table is a dummy so ids index directly.
        let mut values: Vec<Fx> = Vec::with_capacity(self.n_values as usize + 1);
        values.push(Fx::zero(BINARY32));
        let mut arrays: Vec<FxArray> = Vec::with_capacity(self.n_arrays as usize + 1);
        arrays.push(FxArray::zeros(BINARY32, 0));
        let mut sections: Vec<VectorSection> = Vec::new();
        let mut out: Vec<f64> = Vec::new();

        for (at, p) in self.ops.iter().enumerate() {
            let Packed { tag, fmt, a, b } = *p;
            match tag {
                Tag::Leaf => {
                    values.push(Fx::new(self.pool[a as usize], fmts[usize::from(fmt)]));
                }
                Tag::ArrayNew => {
                    let raw = &self.pool[a as usize..a as usize + b as usize];
                    arrays.push(FxArray::from_f64s(fmts[usize::from(fmt)], raw));
                }
                Tag::ArrayZeros => {
                    arrays.push(FxArray::zeros(fmts[usize::from(fmt)], a as usize));
                }
                Tag::ArrayDup => {
                    let dup = arrays[usize::from(fmt)].clone();
                    arrays.push(dup);
                }
                Tag::Load => values.push(arrays[usize::from(fmt)].get(a as usize)),
                Tag::Store => {
                    let value = values[b as usize];
                    arrays[usize::from(fmt)].set(a as usize, value);
                }
                Tag::Cast => values.push(values[a as usize].to(fmts[usize::from(fmt)])),
                Tag::Add => values.push(values[a as usize] + values[b as usize]),
                Tag::Sub => values.push(values[a as usize] - values[b as usize]),
                Tag::Mul => values.push(values[a as usize] * values[b as usize]),
                Tag::Div => values.push(values[a as usize] / values[b as usize]),
                Tag::Sqrt => values.push(values[a as usize].sqrt()),
                Tag::Min => values.push(values[a as usize].min(values[b as usize])),
                Tag::Max => values.push(values[a as usize].max(values[b as usize])),
                Tag::Neg => values.push(-values[a as usize]),
                Tag::Abs => values.push(values[a as usize].abs()),
                Tag::CmpLt | Tag::CmpLe => {
                    let (va, vb) = (values[a as usize], values[b as usize]);
                    let got = if tag == Tag::CmpLe {
                        va.le(vb)
                    } else {
                        va.lt(vb)
                    };
                    if got != (fmt != 0) {
                        // The recorded path is no longer the path this
                        // configuration would take: refuse, never guess.
                        return Replayed::Divergent { at };
                    }
                }
                Tag::AddCast | Tag::SubCast | Tag::MulCast | Tag::DivCast => {
                    unreachable!("fused tags only exist on the raw view")
                }
                Tag::Extract => out.push(values[a as usize].value()),
                Tag::ExtractArray => out.extend(arrays[usize::from(fmt)].to_f64s()),
                Tag::ExtractElement => out.push(arrays[usize::from(fmt)].peek(a as usize)),
                Tag::IntOps => Recorder::int_ops(u64::from(a)),
                Tag::VectorEnter => sections.push(VectorSection::enter()),
                Tag::VectorExit => {
                    sections.pop();
                }
            }
        }

        match self.plan {
            OutputPlan::FromExtracts => Replayed::Output(out),
            OutputPlan::Verbatim => Replayed::Output(self.outputs.clone()),
        }
    }

    /// Resolves the interned format-slot table against `config`, once per
    /// replay — per-op format access is then a plain array read.
    fn resolve_formats(&self, config: &TypeConfig) -> Vec<FpFormat> {
        self.fmt_slots
            .iter()
            .map(|slot| match *slot {
                FmtRef::Var(i) => config.format_of(self.var_names[usize::from(i)]),
                FmtRef::Fixed(fmt) => fmt,
            })
            .collect()
    }

    /// The unobserved interpreter: plain `f64` values + format slots
    /// through the inlined emulated datapath, on the thread's recycled
    /// scratch. Must mirror the uninstalled `Fx` path operation for
    /// operation — promotion rule, store rounding, RISC-V min/max, quiet
    /// comparisons — so its outputs are bit-identical to
    /// [`Trace::replay_fx`] (and therefore to live execution).
    fn replay_raw(&self, config: &TypeConfig) -> Replayed {
        with_scratch(|scratch| {
            let Scratch {
                regs,
                spare,
                tables,
            } = scratch;
            tables.rebuild(self, config);
            regs.reset(self, spare);
            let result = match self.run_raw(tables, regs, spare) {
                Some(at) => Replayed::Divergent { at },
                None => Replayed::Output(self.take_output(regs)),
            };
            // Divergent or not, per-run state must not leak into the
            // next replay.
            spare.retire(&mut regs.arrays);
            result
        })
    }

    /// The program outputs of a completed raw run.
    fn take_output(&self, regs: &mut Regs) -> Vec<f64> {
        match self.plan {
            OutputPlan::FromExtracts => std::mem::take(&mut regs.out),
            OutputPlan::Verbatim => self.outputs.clone(),
        }
    }

    /// The raw interpreter loop, the only one: runs the raw view against
    /// `tables`, mutating `regs` in place (new arrays draw their storage
    /// from `spare`). Every entry that consults a format reads its
    /// resolved cell, `tables.cells[fmt]`. Returns the full-tape
    /// divergence site as soon as a recorded comparison flips.
    fn run_raw(&self, tables: &Tables, regs: &mut Regs, spare: &mut Spare) -> Option<usize> {
        let Regs {
            vals,
            arrays,
            out,
            cmp_seq,
        } = regs;
        let cells = &tables.cells[..];
        for p in &self.raw_ops {
            let Packed { tag, fmt, a, b } = *p;
            let (a, b) = (a as usize, b as usize);
            match tag {
                Tag::Leaf => vals.push(cells[usize::from(fmt)].fmt.sanitize_f64(self.pool[a])),
                Tag::ArrayNew => {
                    let f = cells[usize::from(fmt)].fmt;
                    let mut data = spare.take();
                    data.extend(self.pool[a..a + b].iter().map(|&x| f.sanitize_f64(x)));
                    arrays.push(data);
                }
                Tag::ArrayZeros => {
                    let mut data = spare.take();
                    data.resize(a, 0.0);
                    arrays.push(data);
                }
                Tag::ArrayDup => {
                    let mut data = spare.take();
                    data.extend_from_slice(&arrays[usize::from(fmt)]);
                    arrays.push(data);
                }
                Tag::Load => vals.push(arrays[usize::from(fmt)][a]),
                Tag::Store => {
                    let c = cells[usize::from(fmt)];
                    arrays[usize::from(c.arr)][a] = c.round(vals[b]);
                }
                Tag::Cast => vals.push(cells[usize::from(fmt)].round(vals[a])),
                Tag::Add | Tag::Sub | Tag::Mul | Tag::Div => {
                    let c = cells[usize::from(fmt)];
                    let (va, vb) = c.operands(vals[a], vals[b]);
                    let op = match tag {
                        Tag::Add => BinOp::Add,
                        Tag::Sub => BinOp::Sub,
                        Tag::Mul => BinOp::Mul,
                        _ => BinOp::Div,
                    };
                    vals.push(Emulated.bin_op(c.fmt, op, va, vb));
                }
                Tag::AddCast | Tag::SubCast | Tag::MulCast | Tag::DivCast => {
                    // Fused bin + cast-of-result: two values, one entry,
                    // one cell.
                    let c = cells[usize::from(fmt)];
                    let (va, vb) = c.operands(vals[a], vals[b]);
                    let op = match tag {
                        Tag::AddCast => BinOp::Add,
                        Tag::SubCast => BinOp::Sub,
                        Tag::MulCast => BinOp::Mul,
                        _ => BinOp::Div,
                    };
                    let raw = Emulated.bin_op(c.fmt, op, va, vb);
                    vals.push(raw);
                    vals.push(c.round(raw));
                }
                Tag::Sqrt => vals.push(Emulated.sqrt(cells[usize::from(fmt)].fmt, vals[a])),
                Tag::Min | Tag::Max => {
                    let c = cells[usize::from(fmt)];
                    let (va, vb) = c.operands(vals[a], vals[b]);
                    vals.push(if tag == Tag::Min {
                        Emulated.min(c.fmt, va, vb)
                    } else {
                        Emulated.max(c.fmt, va, vb)
                    });
                }
                Tag::Neg => vals.push(-vals[a]),
                Tag::Abs => vals.push(vals[a].abs()),
                Tag::CmpLt | Tag::CmpLe => {
                    let c = cells[usize::from(fmt & !OUTCOME_BIT)];
                    let (va, vb) = c.operands(vals[a], vals[b]);
                    let got = if tag == Tag::CmpLe { va <= vb } else { va < vb };
                    let seq = *cmp_seq;
                    *cmp_seq += 1;
                    if got != (fmt & OUTCOME_BIT != 0) {
                        // Map the k-th raw comparison back to its
                        // full-tape address.
                        return Some(self.cmp_sites[seq] as usize);
                    }
                }
                Tag::Extract => out.push(vals[a]),
                Tag::ExtractArray => out.extend_from_slice(&arrays[usize::from(fmt)]),
                Tag::ExtractElement => out.push(arrays[usize::from(fmt)][a]),
                // Stripped from the raw view (nothing observes them).
                Tag::IntOps | Tag::VectorEnter | Tag::VectorExit => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordError;
    use flexfloat::{TraceCounts, VarSpec};
    use tp_formats::{BINARY16, BINARY16ALT, BINARY8};

    /// Σ (xᵢ · w) over an array and a scalar, outputs via `to_f64s`.
    fn dot_run(cfg: &TypeConfig) -> Vec<f64> {
        let xs = FxArray::from_f64s(cfg.format_of("x"), &[1.5, 2.0, -0.75, 3.25]);
        let w = Fx::new(0.3, cfg.format_of("w"));
        let mut out = FxArray::zeros(cfg.format_of("out"), 4);
        for i in 0..4 {
            Recorder::int_ops(2);
            out.set(i, xs.get(i) * w);
        }
        out.to_f64s()
    }

    fn dot_vars() -> Vec<VarSpec> {
        vec![
            VarSpec::array("x", 4),
            VarSpec::scalar("w"),
            VarSpec::array("out", 4),
        ]
    }

    fn configs() -> Vec<TypeConfig> {
        let mut cfgs = vec![TypeConfig::baseline()];
        for fx in [BINARY8, BINARY16, BINARY32] {
            for fw in [BINARY16ALT, BINARY32] {
                cfgs.push(TypeConfig::baseline().with("x", fx).with("w", fw));
            }
        }
        cfgs
    }

    #[test]
    fn straight_line_replay_is_bit_identical_to_live() {
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        assert_eq!(trace.comparisons(), 0);
        for cfg in configs() {
            let replayed = trace.replay(&cfg).output().expect("no comparisons");
            let live = dot_run(&cfg);
            assert_eq!(
                replayed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                live.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{cfg}"
            );
        }
    }

    #[test]
    fn replay_under_recorded_config_reproduces_recorded_outputs() {
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        let out = trace.replay(trace.recorded_config()).output().unwrap();
        assert_eq!(out, trace.recorded_outputs());
    }

    #[test]
    fn replay_counts_match_live_counts() {
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        for cfg in configs() {
            let (_, live) = Recorder::scoped(|| dot_run(&cfg));
            let (_, replayed) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(live, replayed, "{cfg}");
        }
    }

    #[test]
    fn recording_under_an_enclosing_recorder_counts_nothing() {
        let ((), counts) = Recorder::record(|| {
            let _ = Trace::record(&dot_vars(), dot_run).unwrap();
        });
        assert_eq!(counts, TraceCounts::new());
    }

    /// A value-dependent branch: output depends on whether x stays below a
    /// nearby threshold, which flips once precision drops.
    fn branchy_run(cfg: &TypeConfig) -> Vec<f64> {
        let x = Fx::new(1.0 + 3.0 / 1024.0, cfg.format_of("x"));
        let limit = Fx::new(1.0 + 4.0 / 1024.0, cfg.format_of("x"));
        let picked = if x.lt(limit) { x + x } else { x * x };
        vec![picked.value()]
    }

    #[test]
    fn divergence_guard_fires_when_a_comparison_flips() {
        let vars = [VarSpec::scalar("x")];
        let trace = Trace::record(&vars, branchy_run).unwrap();
        assert_eq!(trace.comparisons(), 1);

        // Wide enough to keep the ordering: replay stays on the tape.
        let fine = TypeConfig::baseline().with("x", BINARY16);
        assert_eq!(
            trace.replay(&fine).output().unwrap(),
            branchy_run(&fine),
            "no divergence at binary16"
        );

        // binary8 rounds both operands to 1.0: the `<` flips, and replay
        // must refuse rather than follow the stale path.
        let coarse = TypeConfig::baseline().with("x", BINARY8);
        match trace.replay(&coarse) {
            Replayed::Divergent { at } => {
                assert!(matches!(trace.op(at), crate::TapeOp::Cmp { .. }));
            }
            Replayed::Output(out) => panic!("expected divergence, got {out:?}"),
        }
    }

    #[test]
    fn vector_sections_and_min_max_round_trip() {
        let vars = [VarSpec::array("a", 3), VarSpec::scalar("s")];
        let run = |cfg: &TypeConfig| {
            let a = FxArray::from_f64s(cfg.format_of("a"), &[0.7, -1.2, 2.5]);
            let s = Fx::new(0.1, cfg.format_of("s"));
            let _v = VectorSection::enter();
            let hi = a.get(0).max(a.get(1)).max(a.get(2));
            let lo = a.get(0).min(a.get(1)).min(a.get(2));
            drop(_v);
            vec![(hi - lo).sqrt().value(), (-(hi * s)).abs().value()]
        };
        let trace = Trace::record(&vars, run).unwrap();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline()
                .with("a", BINARY8)
                .with("s", BINARY16),
        ] {
            let (live_out, live_counts) = Recorder::scoped(|| run(&cfg));
            let (replayed, counts) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(replayed.output().unwrap(), live_out);
            assert_eq!(counts, live_counts);
        }
    }

    #[test]
    fn raw_path_matches_fx_path() {
        // The unobserved (raw) and observed (Fx-driven) interpreters must
        // be bit-identical; an enclosing scoped Recorder forces the Fx
        // path without otherwise changing the arithmetic.
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        for cfg in configs() {
            let raw = trace.replay(&cfg).output().unwrap();
            let (via_fx, _) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(
                raw.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                via_fx
                    .output()
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "{cfg}"
            );
        }
        // Divergence decisions agree too.
        let vars = [VarSpec::scalar("x")];
        let branchy = Trace::record(&vars, branchy_run).unwrap();
        for fmt in [BINARY8, BINARY16, BINARY16ALT, BINARY32] {
            let cfg = TypeConfig::baseline().with("x", fmt);
            let raw = branchy.replay(&cfg);
            let (via_fx, _) = Recorder::scoped(|| branchy.replay(&cfg));
            assert_eq!(raw, via_fx, "{cfg}");
        }
    }

    /// The format grid of the promotion parity tests: every `FormatKind`,
    /// a systematic `(e, m)` grid and xorshift-drawn flexfloat formats.
    fn format_grid() -> Vec<FpFormat> {
        let mut formats = vec![BINARY8, BINARY16, BINARY16ALT, BINARY32];
        for e in [2u32, 3, 5, 8, 11] {
            for m in [1u32, 2, 7, 9, 10, 23, 24, 30, 52] {
                if let Ok(f) = FpFormat::new(e, m) {
                    formats.push(f);
                }
            }
        }
        // xorshift64: deterministic "random" flexfloat formats.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..48 {
            let e = 1 + (next() % 11) as u32;
            let m = 1 + (next() % 52) as u32;
            if let Ok(f) = FpFormat::new(e, m) {
                formats.push(f);
            }
        }
        formats.dedup();
        formats
    }

    /// Exhaustive pairwise pin of the raw promotion cells against
    /// `Fx::promote`: every `FormatKind` pair — including the mixed
    /// binary16 (wider mantissa, narrower exponent) vs binary16alt (the
    /// reverse) pair — a systematic `(e, m)` grid, and randomized
    /// flexfloat formats. The live run promotes through `Fx::promote`; the
    /// raw replay promotes through its resolved cells; bit-identical
    /// outputs over +,−,×,÷,min,max prove the rules agree (see the
    /// equivalence argument on `Cell::resolve`).
    #[test]
    fn promotion_parity_with_fx_promote() {
        let formats = format_grid();

        // Operand values chosen to make the promotion visible: fine-grained
        // mantissas (round differently at every precision) and a magnitude
        // outside the small-exponent ranges (saturates when the winner has
        // the narrow exponent — the exact case where the tie-break rules
        // could disagree).
        let run = |cfg: &TypeConfig| {
            let x = Fx::new(1.0 + 317.0 / 4096.0, cfg.format_of("x"));
            let y = Fx::new(-196_608.0 * (1.0 + 1.0 / 1024.0), cfg.format_of("y"));
            vec![
                (x + y).value(),
                (x - y).value(),
                (x * y).value(),
                (x / y).value(),
                x.min(y).value(),
                x.max(y).value(),
            ]
        };
        let vars = [VarSpec::scalar("x"), VarSpec::scalar("y")];
        let trace = Trace::record(&vars, run).unwrap();
        for &fa in &formats {
            for &fb in &formats {
                let cfg = TypeConfig::baseline().with("x", fa).with("y", fb);
                let raw = trace.replay(&cfg).output().expect("straight-line");
                let live = run(&cfg);
                assert_eq!(
                    raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    live.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "promotion parity broke for {fa} vs {fb}"
                );
            }
        }
    }

    /// The chain rule behind the record-time slot sets: a value made by
    /// promotions has the widest format of every slot it came from, so
    /// chains of three and four variables — `((x + y) * z).to(w)`, min/max
    /// of mixed operands, a store of a mixed product into an array of a
    /// fourth format, a comparison of mixed operands — must replay
    /// bit-identically to live runs, and the raw and observed
    /// interpreters must take the same divergence decisions. Covers every
    /// assignment of the four platform formats plus xorshift-drawn
    /// 4-tuples from the format grid.
    #[test]
    fn promotion_chains_match_fx_promote() {
        let run = |cfg: &TypeConfig| {
            let (fx, fy, fz, fw) = (
                cfg.format_of("x"),
                cfg.format_of("y"),
                cfg.format_of("z"),
                cfg.format_of("w"),
            );
            let x = Fx::new(1.0 + 317.0 / 4096.0, fx);
            let y = Fx::new(-196_608.0 * (1.0 + 1.0 / 1024.0), fy);
            let z = Fx::new(0.3, fz);
            let mut w = FxArray::from_f64s(fw, &[2.5, -0.1, 0.0]);
            let chain = ((x + y) * z).to(fw);
            w.set(2, x * y * z);
            let mixed = (x - w.get(0)).min(y * z).max((z + w.get(1)).abs());
            let root = (x * z + w.get(0)).sqrt();
            // A comparison of mixed chains, close enough to flip once the
            // formats get coarse: replay must then refuse (or not) exactly
            // as the observed interpreter does.
            let t = Fx::new(1.0 + 300.0 / 4096.0, fz);
            let picked = if (t * z).lt(x * z) {
                chain + mixed
            } else {
                chain - mixed
            };
            let mut out = vec![chain.value(), mixed.value(), root.value(), picked.value()];
            out.extend(w.to_f64s());
            out
        };
        let vars = [
            VarSpec::scalar("x"),
            VarSpec::scalar("y"),
            VarSpec::scalar("z"),
            VarSpec::array("w", 3),
        ];
        let trace = Trace::record(&vars, run).unwrap();
        assert_eq!(trace.comparisons(), 1);

        let platform = [BINARY8, BINARY16, BINARY16ALT, BINARY32];
        let mut tuples: Vec<[FpFormat; 4]> = Vec::new();
        for i in 0..4usize.pow(4) {
            tuples.push([0, 1, 2, 3].map(|d| platform[i / 4usize.pow(d) % 4]));
        }
        let grid = format_grid();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut pick = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            grid[(state % grid.len() as u64) as usize]
        };
        for _ in 0..1500 {
            tuples.push([pick(), pick(), pick(), pick()]);
        }

        let (mut outputs, mut divergent) = (0, 0);
        for [fx, fy, fz, fw] in tuples {
            let cfg = TypeConfig::baseline()
                .with("x", fx)
                .with("y", fy)
                .with("z", fz)
                .with("w", fw);
            let raw = trace.replay(&cfg);
            let (via_fx, _) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(raw, via_fx, "raw and observed decisions differ at {cfg}");
            match raw {
                Replayed::Output(out) => {
                    outputs += 1;
                    let live = run(&cfg);
                    assert_eq!(
                        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        live.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "chain parity broke at {cfg}"
                    );
                }
                Replayed::Divergent { .. } => divergent += 1,
            }
        }
        // Both branches of the decision are exercised.
        assert!(outputs > 0 && divergent > 0, "{outputs} / {divergent}");
    }

    /// Replaying a large trace must not pin its buffers forever: the spare
    /// pool is capped by count and bytes, so a later small replay runs with
    /// a small footprint even on a thread that once replayed a huge kernel.
    #[test]
    fn scratch_spare_retention_is_bounded() {
        // One array over the byte cap: must be dropped, not retained.
        let big_len = MAX_SPARE_BYTES / std::mem::size_of::<f64>() + 4096;
        let vars = [VarSpec::array("a", big_len)];
        let big = Trace::record(&vars, |cfg| {
            let data = vec![1.0; big_len];
            let a = FxArray::from_f64s(cfg.format_of("a"), &data);
            vec![a.peek(0)]
        })
        .unwrap();
        let _ = big.replay(&TypeConfig::baseline()).output().unwrap();
        SCRATCH.with(|s| {
            let s = s.borrow();
            s.debug_assert_clean();
            assert!(
                s.spare.bytes <= MAX_SPARE_BYTES,
                "spare holds {} bytes",
                s.spare.bytes
            );
            assert!(
                s.spare.bufs.iter().all(|b| b.capacity() < big_len),
                "the over-cap buffer was retained"
            );
        });

        // Many small arrays: the count cap holds.
        let many_vars = [VarSpec::array("a", 4)];
        let many = Trace::record(&many_vars, |cfg| {
            let mut out = Vec::new();
            for _ in 0..3 * MAX_SPARE_BUFFERS {
                let a = FxArray::from_f64s(cfg.format_of("a"), &[1.0, 2.0, 3.0, 4.0]);
                out.push(a.peek(0));
            }
            out
        })
        .unwrap();
        let _ = many.replay(&TypeConfig::baseline()).output().unwrap();
        SCRATCH.with(|s| {
            let s = s.borrow();
            s.debug_assert_clean();
            assert!(
                s.spare.bufs.len() <= MAX_SPARE_BUFFERS,
                "{}",
                s.spare.bufs.len()
            );
        });
    }

    /// A divergent early return must retire its arrays like a completed
    /// replay does — per-run state must never leak into the next replay.
    #[test]
    fn divergent_replay_leaves_scratch_clean() {
        let vars = [VarSpec::array("x", 2)];
        let run = |cfg: &TypeConfig| {
            let x = FxArray::from_f64s(
                cfg.format_of("x"),
                &[1.0 + 3.0 / 1024.0, 1.0 + 4.0 / 1024.0],
            );
            let (a, b) = (x.get(0), x.get(1));
            let picked = if a.lt(b) { a + b } else { a * b };
            vec![picked.value()]
        };
        let trace = Trace::record(&vars, run).unwrap();
        let coarse = TypeConfig::baseline().with("x", BINARY8);
        assert!(matches!(trace.replay(&coarse), Replayed::Divergent { .. }));
        SCRATCH.with(|s| {
            let s = s.borrow();
            assert!(s.regs.arrays.is_empty(), "divergent exit leaked arrays");
            s.debug_assert_clean();
        });
    }

    #[test]
    fn cloned_arrays_get_their_own_tape_identity() {
        // A derived Clone would alias the source's tape array; the manual
        // impl records an ArrayDup, so post-clone stores stay independent.
        let vars = [VarSpec::array("a", 2)];
        let run = |cfg: &TypeConfig| {
            let a = FxArray::from_f64s(cfg.format_of("a"), &[1.5, 2.5]);
            let mut b = a.clone();
            b.set(0, a.get(1) * a.get(1));
            let mut out = a.to_f64s();
            out.extend(b.to_f64s());
            out
        };
        let trace = Trace::record(&vars, run).unwrap();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline().with("a", BINARY8),
        ] {
            let (live_out, live_counts) = Recorder::scoped(|| run(&cfg));
            let (replayed, counts) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(replayed.output().unwrap(), live_out, "{cfg}");
            assert_eq!(counts, live_counts, "{cfg}");
        }
        // And the raw interpreter agrees.
        let cfg = TypeConfig::baseline().with("a", BINARY8);
        assert_eq!(trace.replay(&cfg).output().unwrap(), run(&cfg));
    }

    #[test]
    fn foreign_values_poison_the_trace() {
        // `outside` is created before the recorder exists, so its dataflow
        // identity is unknown — the trace must refuse, not guess.
        let outside = Fx::new(2.0, BINARY32);
        let vars = [VarSpec::scalar("x")];
        let err = Trace::record(&vars, |cfg| {
            let x = Fx::new(1.5, cfg.format_of("x"));
            vec![(x * outside).value()]
        })
        .unwrap_err();
        assert!(matches!(err, RecordError::Unreplayable(_)), "{err}");
    }

    #[test]
    fn transformed_outputs_are_rejected() {
        // The program post-processes an escaped value in plain f64, so the
        // escape taps cannot reconstruct the output vector.
        let vars = [VarSpec::scalar("x")];
        let err = Trace::record(&vars, |cfg| {
            let x = Fx::new(1.5, cfg.format_of("x"));
            vec![(x * x).value() * 2.0]
        })
        .unwrap_err();
        assert_eq!(err, RecordError::OutputsNotReplayable);
    }

    #[test]
    fn control_flow_only_outputs_replay_verbatim() {
        // KNN-style program: the output is an *index*, never an Fx value.
        let vars = [VarSpec::array("d", 3)];
        let run = |cfg: &TypeConfig| {
            let d = FxArray::from_f64s(cfg.format_of("d"), &[0.8, 0.3, 0.9]);
            let mut best = 0usize;
            for i in 1..3 {
                if d.get(i).lt(d.get(best)) {
                    best = i;
                }
            }
            vec![best as f64]
        };
        let trace = Trace::record(&vars, run).unwrap();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline().with("d", BINARY8),
        ] {
            match trace.replay(&cfg) {
                Replayed::Output(out) => assert_eq!(out, run(&cfg), "{cfg}"),
                // A flip means live would pick another index: falling back
                // is exactly the contract.
                Replayed::Divergent { .. } => {}
            }
        }
    }

    #[test]
    fn too_many_variables_is_reported() {
        let vars: Vec<VarSpec> = (0..64)
            .map(|i| {
                // Leak a handful of names once; tests only.
                let name: &'static str = Box::leak(format!("v{i}").into_boxed_str());
                VarSpec::scalar(name)
            })
            .collect();
        let err = Trace::record(&vars, |_| vec![]).unwrap_err();
        assert!(matches!(err, RecordError::TooManyVariables { .. }), "{err}");
    }

    /// `n` distinct formats no program variable is recorded under (the
    /// recording pool has `m >= 24`).
    fn fixed_formats(n: usize) -> Vec<FpFormat> {
        let all = (2u32..=11).flat_map(|e| (1u32..=23).map(move |m| (e, m)));
        let formats: Vec<FpFormat> = all
            .filter_map(|(e, m)| FpFormat::new(e, m).ok())
            .filter(|&f| f != BINARY32)
            .take(n)
            .collect();
        assert_eq!(formats.len(), n);
        formats
    }

    /// A program whose leaves name `formats`, summed left to right so
    /// every promotion widens the running slot set.
    fn sum_of_leaves(formats: &[FpFormat]) -> Vec<f64> {
        let total = formats
            .iter()
            .map(|&f| Fx::new(0.1, f))
            .fold(Fx::new(0.0, BINARY32), |acc, x| acc + x);
        vec![total.value()]
    }

    #[test]
    fn slot_sets_up_to_the_encoding_limit_replay() {
        // Slot 0 is always binary32, so 127 more fill all 128 slots.
        let formats = fixed_formats(crate::tape::MAX_SLOTS - 1);
        let trace = Trace::record(&[], |_| sum_of_leaves(&formats)).unwrap();
        assert_eq!(trace.fmt_slots.len(), crate::tape::MAX_SLOTS);
        let out = trace.replay(&TypeConfig::baseline()).output().unwrap();
        assert_eq!(out, sum_of_leaves(&formats));
    }

    #[test]
    fn too_many_format_slots_is_reported() {
        let formats = fixed_formats(crate::tape::MAX_SLOTS);
        let err = Trace::record(&[], |_| sum_of_leaves(&formats)).unwrap_err();
        assert_eq!(
            err,
            RecordError::EncodingLimit {
                what: "format slots",
                max: crate::tape::MAX_SLOTS,
            }
        );
    }

    #[test]
    fn too_many_dispatch_cells_is_reported() {
        // A store's cell names its array, so one store into each of more
        // arrays than there are cell indices overflows the cell table.
        let arrays = crate::tape::MAX_CELLS + 1;
        let err = Trace::record(&[], |_| {
            let v = Fx::new(0.5, BINARY32);
            for _ in 0..arrays {
                FxArray::zeros(BINARY32, 1).set(0, v);
            }
            vec![]
        })
        .unwrap_err();
        assert_eq!(
            err,
            RecordError::EncodingLimit {
                what: "dispatch cells",
                max: crate::tape::MAX_CELLS,
            }
        );
    }
}
