//! The recording backend and [`Trace::record`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use flexfloat::backend::{Emulated, FlagSet};
use flexfloat::{
    ArrayId, BinOp, Engine, FpBackend, Recorder, TapeSink, TypeConfig, ValueId, VarSpec,
};
use tp_formats::{FpFormat, BINARY32};

use crate::tape::{FmtRef, OutputPlan, Packed, Tag, Trace};

/// Why a run could not be captured as a replayable trace.
///
/// None of these are errors in the *program* — they mark runs outside the
/// recording contract (DESIGN.md §7), for which the caller simply keeps
/// evaluating live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// More tunable variables than distinguishing formats: the recording
    /// configuration could not give every variable a unique format.
    TooManyVariables {
        /// Declared variable count.
        vars: usize,
        /// Available distinguishing formats.
        max: usize,
    },
    /// The op stream referenced a value or array created while the
    /// recorder was not installed (or otherwise outside the contract), so
    /// dataflow identity is unknown.
    Unreplayable(&'static str),
    /// Values escaped the `Fx` layer, but the escape taps do not line up
    /// with the returned outputs (reordered, transformed or partial), so
    /// replay could not reconstruct the output vector.
    OutputsNotReplayable,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::TooManyVariables { vars, max } => {
                write!(
                    f,
                    "{vars} tunable variables, only {max} distinguishing formats"
                )
            }
            RecordError::Unreplayable(reason) => write!(f, "unreplayable op stream: {reason}"),
            RecordError::OutputsNotReplayable => {
                f.write_str("escape taps do not reconstruct the output vector")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// `true` when a (full-tape) entry allocates a new [`ValueId`].
fn produces_value(tag: Tag) -> bool {
    matches!(
        tag,
        Tag::Leaf
            | Tag::Load
            | Tag::Cast
            | Tag::Add
            | Tag::Sub
            | Tag::Mul
            | Tag::Div
            | Tag::Sqrt
            | Tag::Min
            | Tag::Max
            | Tag::Neg
            | Tag::Abs
    )
}

/// The distinguishing-format pool for recording configurations.
///
/// Requirements: distinct per variable (so a tape format resolves to
/// exactly one variable), at least binary32 precision and range (so the
/// recorded control flow matches the reference semantics as closely as
/// possible), and disjoint from every format a program would name
/// explicitly (the four platform formats all have `m <= 23`). The first
/// eight have `2m + 2 <= 52`, keeping the recording run on the native-f64
/// fast path; the tail (only reached by programs with more than eight
/// variables) is correct but slower.
fn format_pool() -> impl Iterator<Item = FpFormat> {
    let fast = [24u32, 25]
        .into_iter()
        .flat_map(|m| (8u32..=11).map(move |e| (e, m)));
    let wide = (26u32..=52).map(|m| (11u32, m));
    fast.chain(wide)
        .map(|(e, m)| FpFormat::new(e, m).expect("pool widths are valid"))
}

struct RecState {
    ops: Vec<Packed>,
    pool: Vec<f64>,
    fmt_slots: Vec<FmtRef>,
    /// Format -> interned slot index (memoizes [`RecState::slot`]).
    slot_index: HashMap<FpFormat, u16>,
    /// One-entry cache in front of `slot_index`: kernels intern a handful
    /// of formats but look one of them up per cast/leaf, and the lookups
    /// cluster (every accumulator round-off names the same format).
    last_slot: (FpFormat, u16),
    next_value: ValueId,
    next_array: ArrayId,
    /// Every value that escaped the `Fx` layer, flattened in tape order —
    /// compared against the returned outputs to derive the output plan.
    extracted: Vec<f64>,
    comparisons: u32,
    poisoned: Option<&'static str>,
    /// Recording-config format -> variable index (injective by
    /// construction).
    fmt_vars: HashMap<FpFormat, u16>,
}

impl RecState {
    /// Interns `fmt` as a tape format slot: a `Var` reference when it is a
    /// recording-config format, `Fixed` otherwise.
    fn slot(&mut self, fmt: FpFormat) -> u16 {
        if self.last_slot.0 == fmt {
            return self.last_slot.1;
        }
        if let Some(&i) = self.slot_index.get(&fmt) {
            self.last_slot = (fmt, i);
            return i;
        }
        let slot = match self.fmt_vars.get(&fmt) {
            Some(&i) => FmtRef::Var(i),
            None => FmtRef::Fixed(fmt),
        };
        let i = u16::try_from(self.fmt_slots.len()).unwrap_or_else(|_| {
            self.poisoned
                .get_or_insert("more than 65535 distinct formats");
            0
        });
        if usize::from(i) == self.fmt_slots.len() {
            self.fmt_slots.push(slot);
            self.slot_index.insert(fmt, i);
            self.last_slot = (fmt, i);
        }
        i
    }

    /// Appends `raw` to the payload pool, returning its offset.
    fn pooled(&mut self, raw: &[f64]) -> u32 {
        let off = u32::try_from(self.pool.len()).unwrap_or_else(|_| {
            self.poisoned.get_or_insert("payload pool exceeds u32");
            0
        });
        self.pool.extend_from_slice(raw);
        off
    }

    /// Validates an operand id: `0` (created outside the recorder) or a
    /// forward reference poisons the trace. The op stream keeps flowing —
    /// recording is an observer and must not disturb the run — but the
    /// finished trace is rejected.
    fn operand(&mut self, v: ValueId) -> ValueId {
        if v == 0 || v >= self.next_value {
            self.poisoned
                .get_or_insert("operand value created outside the recording");
        }
        v
    }

    /// Validates an array operand and narrows it to the 16-bit field it
    /// occupies in a [`Packed`] entry.
    fn array_operand(&mut self, a: ArrayId) -> u16 {
        if a == 0 || a >= self.next_array {
            self.poisoned
                .get_or_insert("array created outside the recording");
        }
        u16::try_from(a).unwrap_or_else(|_| {
            self.poisoned.get_or_insert("more than 65535 arrays");
            0
        })
    }

    fn index(&mut self, i: usize) -> u32 {
        u32::try_from(i).unwrap_or_else(|_| {
            self.poisoned.get_or_insert("array index exceeds u32");
            0
        })
    }

    fn push_value(&mut self, op: Packed) -> ValueId {
        self.ops.push(op);
        let id = self.next_value;
        self.next_value += 1;
        id
    }

    fn push_array(&mut self, op: Packed) -> ArrayId {
        self.ops.push(op);
        let id = self.next_array;
        self.next_array += 1;
        id
    }
}

/// The recording backend: an [`FpBackend`] wrapper that delegates every
/// computation to an inner backend while capturing the logical op stream
/// (via the [`TapeSink`] hook surface) into a tape.
///
/// Install it with [`Engine::with`] — [`Trace::record`] does exactly that,
/// wrapping whatever backend the calling thread already has installed (so
/// recording under `TP_BACKEND=softfloat` still computes on the softfloat
/// datapath).
///
/// The tape under construction lives in a thread-local slot, not behind a
/// lock: recording is a per-op hot path (one event per FP operation of the
/// recorded run), and an uncontended mutex acquisition per event was the
/// single largest recording cost. The recorded region must therefore stay
/// on the recording thread — an event arriving on any other thread finds
/// no state, flags the recorder, and the finished trace is rejected
/// rather than silently incomplete.
pub struct TraceRecorder {
    inner: Arc<dyn FpBackend>,
    /// `inner` is the emulated default: compute inline instead of through
    /// two virtual hops (recording is one event per FP op; the indirection
    /// was measurable).
    inline_emulated: bool,
    foreign_ops: AtomicBool,
}

thread_local! {
    /// The [`RecState`] of the recording in progress on this thread.
    static TAPE: RefCell<Option<RecState>> = const { RefCell::new(None) };
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl TraceRecorder {
    /// A recorder delegating computation to `inner` (the thread's current
    /// backend, or the emulated fast path), resolving formats to variables
    /// through the injective `fmt_vars` map.
    fn new(inner: Option<Arc<dyn FpBackend>>) -> Self {
        TraceRecorder {
            inline_emulated: inner.is_none(),
            inner: inner.unwrap_or_else(|| Arc::new(Emulated)),
            foreign_ops: AtomicBool::new(false),
        }
    }

    fn with_state<R: Default>(&self, f: impl FnOnce(&mut RecState) -> R) -> R {
        TAPE.with(|t| match &mut *t.borrow_mut() {
            Some(state) => f(state),
            None => {
                // The traced region fanned out (or outlived its recording):
                // this event cannot be placed on the tape, so the whole
                // trace is void.
                self.foreign_ops.store(true, Ordering::Relaxed);
                R::default()
            }
        })
    }
}

impl FpBackend for TraceRecorder {
    fn name(&self) -> &'static str {
        "trace-recorder"
    }

    fn bin_op(&self, fmt: FpFormat, op: BinOp, a: f64, b: f64) -> f64 {
        if self.inline_emulated {
            return Emulated.bin_op(fmt, op, a, b);
        }
        self.inner.bin_op(fmt, op, a, b)
    }

    fn sqrt(&self, fmt: FpFormat, x: f64) -> f64 {
        if self.inline_emulated {
            return Emulated.sqrt(fmt, x);
        }
        self.inner.sqrt(fmt, x)
    }

    fn fma(&self, fmt: FpFormat, a: f64, b: f64, c: f64) -> f64 {
        self.inner.fma(fmt, a, b, c)
    }

    fn cast(&self, from: FpFormat, to: FpFormat, x: f64) -> f64 {
        if self.inline_emulated {
            return Emulated.cast(from, to, x);
        }
        self.inner.cast(from, to, x)
    }

    fn min(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        self.inner.min(fmt, a, b)
    }

    fn max(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        self.inner.max(fmt, a, b)
    }

    fn lt(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.inner.lt(fmt, a, b)
    }

    fn le(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.inner.le(fmt, a, b)
    }

    fn flags(&self) -> FlagSet {
        self.inner.flags()
    }

    fn clear_flags(&self) {
        self.inner.clear_flags();
    }

    fn tape(&self) -> Option<&dyn TapeSink> {
        Some(self)
    }
}

impl TapeSink for TraceRecorder {
    fn leaf(&self, fmt: FpFormat, raw: f64) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Leaf);
            op.fmt = s.slot(fmt);
            op.a = s.pooled(&[raw]);
            s.push_value(op)
        })
    }

    fn array_new(&self, fmt: FpFormat, raw: &[f64]) -> ArrayId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ArrayNew);
            op.fmt = s.slot(fmt);
            op.a = s.pooled(raw);
            op.b = s.index(raw.len());
            s.push_array(op)
        })
    }

    fn array_zeros(&self, fmt: FpFormat, len: usize) -> ArrayId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ArrayZeros);
            op.fmt = s.slot(fmt);
            op.a = s.index(len);
            s.push_array(op)
        })
    }

    fn array_clone(&self, array: ArrayId) -> ArrayId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ArrayDup);
            op.fmt = s.array_operand(array);
            s.push_array(op)
        })
    }

    fn array_load(&self, array: ArrayId, index: usize) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Load);
            op.fmt = s.array_operand(array);
            op.a = s.index(index);
            s.push_value(op)
        })
    }

    fn array_store(&self, array: ArrayId, index: usize, v: ValueId) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Store);
            op.fmt = s.array_operand(array);
            op.a = s.index(index);
            op.b = s.operand(v);
            s.ops.push(op);
        });
    }

    fn cast(&self, v: ValueId, dst: FpFormat) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Cast);
            op.a = s.operand(v);
            op.fmt = s.slot(dst);
            s.push_value(op)
        })
    }

    fn bin_op(&self, bin: BinOp, a: ValueId, b: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(match bin {
                BinOp::Add => Tag::Add,
                BinOp::Sub => Tag::Sub,
                BinOp::Mul => Tag::Mul,
                BinOp::Div => Tag::Div,
            });
            op.a = s.operand(a);
            op.b = s.operand(b);
            s.push_value(op)
        })
    }

    fn sqrt(&self, v: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Sqrt);
            op.a = s.operand(v);
            s.push_value(op)
        })
    }

    fn min_max(&self, is_min: bool, a: ValueId, b: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(if is_min { Tag::Min } else { Tag::Max });
            op.a = s.operand(a);
            op.b = s.operand(b);
            s.push_value(op)
        })
    }

    fn neg(&self, v: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Neg);
            op.a = s.operand(v);
            s.push_value(op)
        })
    }

    fn abs(&self, v: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Abs);
            op.a = s.operand(v);
            s.push_value(op)
        })
    }

    fn cmp(&self, is_le: bool, a: ValueId, b: ValueId, outcome: bool) {
        self.with_state(|s| {
            let mut op = Packed::new(if is_le { Tag::CmpLe } else { Tag::CmpLt });
            op.a = s.operand(a);
            op.b = s.operand(b);
            op.fmt = u16::from(outcome);
            s.comparisons += 1;
            s.ops.push(op);
        });
    }

    fn extract(&self, v: ValueId, val: f64) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Extract);
            op.a = s.operand(v);
            s.extracted.push(val);
            s.ops.push(op);
        });
    }

    fn extract_array(&self, array: ArrayId, values: &[f64]) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ExtractArray);
            op.fmt = s.array_operand(array);
            s.extracted.extend_from_slice(values);
            s.ops.push(op);
        });
    }

    fn extract_element(&self, array: ArrayId, index: usize, val: f64) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ExtractElement);
            op.fmt = s.array_operand(array);
            op.a = s.index(index);
            s.extracted.push(val);
            s.ops.push(op);
        });
    }

    fn int_ops(&self, n: u64) {
        self.with_state(|s| {
            // Kernel calls pass single-digit counts; u32 is plenty, and a
            // pathological overflow just splits across entries.
            let mut left = n;
            loop {
                let chunk = u32::try_from(left).unwrap_or(u32::MAX);
                let mut op = Packed::new(Tag::IntOps);
                op.a = chunk;
                s.ops.push(op);
                left -= u64::from(chunk);
                if left == 0 {
                    break;
                }
            }
        });
    }

    fn vector_enter(&self) {
        self.with_state(|s| s.ops.push(Packed::new(Tag::VectorEnter)));
    }

    fn vector_exit(&self) {
        self.with_state(|s| s.ops.push(Packed::new(Tag::VectorExit)));
    }
}

impl Trace {
    /// Records one run of a tunable program as a replayable tape.
    ///
    /// `vars` are the program's declared variables; `run` is the program
    /// body, invoked exactly once with the *recording configuration* — an
    /// injective assignment of distinguishing wide formats (≥ binary32
    /// precision and range) to the declared variables, which is how tape
    /// formats resolve back to variables.
    ///
    /// The run executes on the thread's current backend (wrapped by the
    /// recorder), so recording composes with [`Engine::with`] and
    /// `TP_BACKEND`. If a [`Recorder`](flexfloat::Recorder) is running on
    /// this thread, the recording run is isolated in a scope and its counts
    /// are **discarded**: recording is tuning bookkeeping, not program
    /// workload, and the replay engine re-issues the real ops — this is the
    /// "ops are counted exactly once" half of the Recorder/trace contract
    /// (the other half, replay counts ≡ live counts, is pinned by
    /// `tests/replay_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Returns a [`RecordError`] when the run is outside the recording
    /// contract (DESIGN.md §7): more variables than distinguishing formats,
    /// values flowing in from outside the recorded region, or escaped
    /// values that do not reconstruct the output vector. Callers treat any
    /// error as "keep evaluating live".
    pub fn record(
        vars: &[VarSpec],
        run: impl FnOnce(&TypeConfig) -> Vec<f64>,
    ) -> Result<Trace, RecordError> {
        tp_obs::counter_inc("trace.recordings");
        let pool_len = format_pool().count();
        if vars.len() > pool_len {
            return Err(RecordError::TooManyVariables {
                vars: vars.len(),
                max: pool_len,
            });
        }
        let mut config = TypeConfig::baseline();
        let mut fmt_vars = HashMap::new();
        let mut var_names = Vec::with_capacity(vars.len());
        for (spec, fmt) in vars.iter().zip(format_pool()) {
            config.set(spec.name, fmt);
            fmt_vars.insert(fmt, u16::try_from(var_names.len()).expect("pool is small"));
            var_names.push(spec.name);
        }

        // Install the builder state into this thread's tape slot for the
        // duration of the run (saving any enclosing recording; restored
        // also on panic via the guard below).
        struct TapeSlot(Option<RecState>);
        impl TapeSlot {
            fn take(mut self) -> RecState {
                let saved = self.0.take();
                TAPE.with(|t| std::mem::replace(&mut *t.borrow_mut(), saved))
                    .expect("recording state present until taken")
            }
        }
        impl Drop for TapeSlot {
            fn drop(&mut self) {
                if let Some(saved) = self.0.take() {
                    // Unwound mid-run: drop our half-built state, restore.
                    TAPE.with(|t| *t.borrow_mut() = Some(saved));
                } else if std::thread::panicking() {
                    TAPE.with(|t| *t.borrow_mut() = None);
                }
            }
        }
        // Slot 0 is always BINARY32, which lets the one-entry slot cache
        // start valid: `(BINARY32, 0)` is a true mapping from the first op.
        let state = RecState {
            ops: Vec::with_capacity(1024),
            pool: Vec::new(),
            fmt_slots: vec![FmtRef::Fixed(BINARY32)],
            slot_index: HashMap::from([(BINARY32, 0u16)]),
            last_slot: (BINARY32, 0),
            next_value: 1,
            next_array: 1,
            extracted: Vec::new(),
            comparisons: 0,
            poisoned: None,
            fmt_vars,
        };
        debug_assert!(!state.fmt_vars.contains_key(&BINARY32), "pool is wide");
        let saved = TAPE.with(|t| t.borrow_mut().replace(state));
        let slot = TapeSlot(saved);

        let recorder = Arc::new(TraceRecorder::new(Engine::current()));
        let recorded = {
            let (recorder, config) = (recorder.clone(), config.clone());
            move || Engine::with(recorder, || run(&config))
        };
        let outputs = if Recorder::is_enabled() {
            // Isolate and drop the recording run's counts (see above).
            Recorder::scoped(recorded).0
        } else {
            recorded()
        };

        let state = slot.take();
        if recorder.foreign_ops.load(Ordering::Relaxed) {
            return Err(RecordError::Unreplayable(
                "traced region ran operations off the recording thread",
            ));
        }
        if let Some(reason) = state.poisoned {
            return Err(RecordError::Unreplayable(reason));
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let plan = if bits(&state.extracted) == bits(&outputs) {
            OutputPlan::FromExtracts
        } else if state.extracted.is_empty() {
            OutputPlan::Verbatim
        } else {
            return Err(RecordError::OutputsNotReplayable);
        };

        // The raw interpreter's view: statistics-only entries stripped
        // (nothing observes them there) and every `Cast` whose operand is
        // the `Bin` result produced by the immediately preceding raw entry
        // fused into one `AddCast..DivCast` entry — the dominant
        // accumulate-then-round idiom (`(acc + x*w).to(acc_fmt)`) costs one
        // entry less per op. Comparison indices are mapped back to the
        // full tape through `cmp_sites`.
        let mut raw_ops: Vec<Packed> = Vec::with_capacity(state.ops.len());
        let mut cmp_sites: Vec<u32> = Vec::with_capacity(state.comparisons as usize);
        let mut next_value: ValueId = 1;
        for (i, p) in state.ops.iter().enumerate() {
            match p.tag {
                Tag::IntOps | Tag::VectorEnter | Tag::VectorExit => continue,
                Tag::CmpLt | Tag::CmpLe => {
                    cmp_sites.push(u32::try_from(i).expect("tape indices fit u32"));
                    raw_ops.push(*p);
                    continue;
                }
                Tag::Cast => {
                    // `next_value` is the id this cast will produce; its
                    // operand is fusable when it is the value produced by
                    // the previous raw entry and that entry is a plain bin.
                    if p.a + 1 == next_value {
                        if let Some(prev) = raw_ops.last_mut() {
                            let fused = match prev.tag {
                                Tag::Add => Some(Tag::AddCast),
                                Tag::Sub => Some(Tag::SubCast),
                                Tag::Mul => Some(Tag::MulCast),
                                Tag::Div => Some(Tag::DivCast),
                                _ => None,
                            };
                            if let Some(tag) = fused {
                                prev.tag = tag;
                                prev.fmt = p.fmt;
                                next_value += 1;
                                continue;
                            }
                        }
                    }
                    raw_ops.push(*p);
                    next_value += 1;
                    continue;
                }
                _ => {}
            }
            raw_ops.push(*p);
            if produces_value(p.tag) {
                next_value += 1;
            }
        }

        Ok(Trace {
            ops: state.ops,
            raw_ops,
            cmp_sites,
            pool: state.pool,
            fmt_slots: state.fmt_slots,
            n_values: state.next_value - 1,
            n_arrays: state.next_array - 1,
            var_names,
            recorded_config: config,
            plan,
            outputs,
            comparisons: state.comparisons,
        })
    }
}
