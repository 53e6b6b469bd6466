//! Pluggable execution backends — one kernel source, three datapaths.
//!
//! The paper realizes a single arithmetic semantics at three levels: the
//! FlexFloat emulation library (fast, native `f64`), the SmallFloatUnit
//! hardware datapath (bit-exact integer kernels), and the analytic platform
//! model. This module unifies them behind one abstraction: every
//! [`Fx`](crate::Fx) / [`FxArray`](crate::FxArray) /
//! [`FlexFloat`](crate::FlexFloat) operation dispatches through the
//! *active* [`FpBackend`] (see DESIGN.md §6).
//!
//! * [`Emulated`] — today's fast path: compute on the host `f64` datapath,
//!   sanitize once. This is semantically identical to having no backend
//!   installed at all; the *uninstalled* state is the zero-overhead
//!   default (a thread-local flag check per op, exactly like
//!   [`Recorder::is_enabled`](crate::Recorder::is_enabled)).
//! * [`SoftFloat`] — routes every operation through the pure-integer
//!   `tp-softfloat` kernels and accumulates the IEEE exception flags the
//!   hardware would raise ([`FlagSet`], surfaced via [`Engine::flags`]).
//! * `FpuModel` (in `tp-fpu`, downstream) — routes operations through the
//!   `SmallFloatUnit` cycle/energy model, accumulating *measured* costs.
//!
//! All three produce **bit-identical** results for every operation on every
//! format (`tests/backends.rs` pins this per kernel and per format), so a
//! backend swap changes what is *measured*, never what is *computed*.
//!
//! # Scoped installation
//!
//! Backends install per-thread with the same panic-safe save/restore
//! pattern as [`Recorder::scoped`](crate::Recorder::scoped):
//!
//! ```
//! use std::sync::Arc;
//! use flexfloat::backend::{Engine, SoftFloat};
//! use flexfloat::Fx;
//! use tp_formats::BINARY8;
//!
//! let backend = Arc::new(SoftFloat::new());
//! let sum = Engine::with(backend.clone(), || {
//!     let a = Fx::new(1.75, BINARY8);
//!     (a * a).value() // computed by the pure-integer kernels
//! });
//! assert_eq!(sum, 3.0); // bit-identical to the emulated fast path
//! assert!(backend.flags().inexact); // 3.0625 was rounded
//! ```
//!
//! Worker threads do not inherit the installation automatically; the
//! fan-out layer (`tp_tuner::parallel_map`) captures
//! [`Engine::current`] and re-install it on each worker, which is what
//! keeps tuning runs backend-generic *and* worker-count-invariant.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};

use tp_formats::{FpFormat, RoundingMode};
use tp_softfloat::ops;
pub use tp_softfloat::FlagSet;

/// The four binary arithmetic operations a backend must implement.
///
/// Unlike [`OpKind`](crate::OpKind) (the *statistics* classification, which
/// merges add and sub into one hardware block), a backend needs to know
/// which operation to execute, so all four are distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// An arithmetic datapath for the flexfloat value types.
///
/// Operands and results are exchanged as *in-grid* `f64` values: every
/// argument is exactly representable in its format (the invariant all
/// flexfloat types maintain), and every result must be too. Implementations
/// that work on bit patterns encode with the direct
/// [`FpFormat::encode_in_grid`] path and decode with
/// [`FpFormat::decode_to_f64`].
///
/// # Contract
///
/// * **Bit-exactness** — results must be bit-identical to the
///   correctly-rounded (`RoundingMode::default()`, i.e. nearest-even)
///   operation in `fmt`, NaNs canonicalized to the format's quiet NaN.
///   The backend-equivalence suite (`tests/backends.rs`) enforces this.
/// * **Comparison semantics** — [`FpBackend::min`] / [`FpBackend::max`]
///   follow RISC-V `fmin`/`fmax` (NaN loses, `-0 < +0`); [`FpBackend::lt`]
///   / [`FpBackend::le`] are IEEE quiet predicates (false on unordered).
/// * **Thread-safety** — backends are shared as `Arc<dyn FpBackend>`
///   across the fan-out layers, so interior state (accumulated flags,
///   measured cycles) must be synchronized.
pub trait FpBackend: Send + Sync {
    /// Short identifier used in reports (e.g. `"softfloat"`).
    fn name(&self) -> &'static str;

    /// Computes `a op b` in `fmt`.
    fn bin_op(&self, fmt: FpFormat, op: BinOp, a: f64, b: f64) -> f64;

    /// Correctly-rounded square root in `fmt`.
    fn sqrt(&self, fmt: FpFormat, x: f64) -> f64;

    /// Fused multiply-add `a * b + c` with a single rounding in `fmt`.
    fn fma(&self, fmt: FpFormat, a: f64, b: f64, c: f64) -> f64;

    /// Converts `x` from `from` to `to`.
    fn cast(&self, from: FpFormat, to: FpFormat, x: f64) -> f64;

    /// RISC-V `fmin`: NaN loses to a number, `-0 < +0`.
    fn min(&self, fmt: FpFormat, a: f64, b: f64) -> f64;

    /// RISC-V `fmax`: NaN loses to a number, `-0 < +0`.
    fn max(&self, fmt: FpFormat, a: f64, b: f64) -> f64;

    /// Quiet `a < b` (false on unordered).
    fn lt(&self, fmt: FpFormat, a: f64, b: f64) -> bool;

    /// Quiet `a <= b` (false on unordered).
    fn le(&self, fmt: FpFormat, a: f64, b: f64) -> bool;

    /// Quiet `a == b` (false on unordered, `-0 == +0`) — RISC-V `feq`.
    ///
    /// Operands are in-grid values of `fmt`, where native `f64` equality
    /// is already the exact IEEE quiet predicate, so the default suffices
    /// for computing backends; accounting backends override it to count
    /// the comparison.
    fn eq(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        let _ = fmt;
        a == b
    }

    /// The IEEE exception flags accumulated since construction (or the last
    /// [`FpBackend::clear_flags`]). Backends without flag tracking — the
    /// emulated fast path deliberately has none — report
    /// [`FlagSet::NONE`].
    fn flags(&self) -> FlagSet {
        FlagSet::NONE
    }

    /// Clears the accumulated exception flags.
    fn clear_flags(&self) {}

    /// The backend's tape sink, if it records an operation tape.
    ///
    /// This is the hook surface the `tp-trace` recording backend plugs
    /// into: when the active backend returns a sink, the [`Fx`](crate::Fx)
    /// / [`FxArray`](crate::FxArray) layer reports every *logical*
    /// operation — pre-promotion, with SSA value ids — so the sink can
    /// build a replayable tape (see DESIGN.md §7). Ordinary compute
    /// backends return `None` (the default) and pay nothing.
    fn tape(&self) -> Option<&dyn TapeSink> {
        None
    }
}

/// Identifier of a traced SSA value (1-based; `0` = untraced). Every
/// [`Fx`](crate::Fx) carries the id the active [`TapeSink`] assigned to it,
/// so later operations can name their operands exactly — by *identity*, not
/// by bit pattern, which is what makes replay dataflow-exact even when two
/// distinct values happen to be bitwise equal.
pub type ValueId = u32;

/// Identifier of a traced array (1-based; `0` = untraced), carried by
/// [`FxArray`](crate::FxArray) so loads and stores name their storage.
pub type ArrayId = u32;

/// Observer interface for the *logical* (pre-promotion) operation stream of
/// the [`Fx`](crate::Fx) / [`FxArray`](crate::FxArray) layer.
///
/// A backend that returns `Some(self)` from [`FpBackend::tape`] receives one
/// call per logical operation, *in execution order*, in addition to the
/// normal compute dispatch. Methods that produce a value return the
/// [`ValueId`] to attach to the result; the ids are the tape's SSA names.
///
/// Two deliberate asymmetries against the compute interface:
///
/// * **Pre-promotion.** [`TapeSink::bin_op`] and friends see the original
///   operand ids, *before* `Fx` promotes mixed formats — promotion is a
///   function of the formats in force, which a replay under a different
///   [`TypeConfig`](crate::TypeConfig) must re-derive, not copy.
/// * **Sign ops are included.** `neg`/`abs` are free sign manipulations
///   that the [`Recorder`](crate::Recorder) ignores, but they transform
///   values, so a dataflow-exact tape must see them.
///
/// Operand ids of `0` mean a value that was created while no sink was
/// active; sinks should treat the trace as unreplayable in that case rather
/// than guess the value's provenance.
pub trait TapeSink {
    /// A literal/initialization entering the traced region: `raw` is the
    /// value *before* rounding into `fmt` (replay re-rounds it into the
    /// format the candidate configuration assigns).
    fn leaf(&self, fmt: FpFormat, raw: f64) -> ValueId;

    /// A new array initialized from `raw` values (pre-rounding).
    fn array_new(&self, fmt: FpFormat, raw: &[f64]) -> ArrayId;

    /// A new zero-filled array of `len` elements.
    fn array_zeros(&self, fmt: FpFormat, len: usize) -> ArrayId;

    /// A deep copy of `array` ([`FxArray::clone`](crate::FxArray)): the
    /// duplicate starts with `array`'s *current* contents and is
    /// independent from then on.
    fn array_clone(&self, array: ArrayId) -> ArrayId;

    /// `array[index]` loaded into a new value.
    fn array_load(&self, array: ArrayId, index: usize) -> ValueId;

    /// Value `v` stored into `array[index]` (the store's format rounding is
    /// re-derived at replay, so `v` is the pre-cast id).
    fn array_store(&self, array: ArrayId, index: usize, v: ValueId);

    /// An explicit conversion of `v` toward `dst` ([`Fx::to`](crate::Fx::to)
    /// as written in the program; promotion-inserted casts are *not*
    /// reported — replay re-derives them).
    fn cast(&self, v: ValueId, dst: FpFormat) -> ValueId;

    /// A binary arithmetic operation on the original (pre-promotion)
    /// operands.
    fn bin_op(&self, op: BinOp, a: ValueId, b: ValueId) -> ValueId;

    /// Square root of `v`.
    fn sqrt(&self, v: ValueId) -> ValueId;

    /// RISC-V `fmin`/`fmax` on the original operands.
    fn min_max(&self, is_min: bool, a: ValueId, b: ValueId) -> ValueId;

    /// Sign negation (free; invisible to the [`Recorder`](crate::Recorder)).
    fn neg(&self, v: ValueId) -> ValueId;

    /// Absolute value (free; invisible to the
    /// [`Recorder`](crate::Recorder)).
    fn abs(&self, v: ValueId) -> ValueId;

    /// A quiet comparison (`<` or `<=`) and the boolean it produced — the
    /// divergence guard of replay-based tuning hangs off this outcome.
    fn cmp(&self, is_le: bool, a: ValueId, b: ValueId, outcome: bool);

    /// `v`'s numeric value escaped to plain `f64`
    /// ([`Fx::value`](crate::Fx::value)); `val` is what was read.
    fn extract(&self, v: ValueId, val: f64);

    /// A whole array escaped to plain `f64`s
    /// ([`FxArray::to_f64s`](crate::FxArray::to_f64s)).
    fn extract_array(&self, array: ArrayId, values: &[f64]);

    /// One element escaped to plain `f64`
    /// ([`FxArray::peek`](crate::FxArray::peek)).
    fn extract_element(&self, array: ArrayId, index: usize, val: f64);

    /// `n` integer/control instructions
    /// ([`Recorder::int_ops`](crate::Recorder::int_ops)) — kept on the tape
    /// so a replay reproduces the recorded counts exactly.
    fn int_ops(&self, n: u64);

    /// A [`VectorSection`](crate::VectorSection) opened.
    fn vector_enter(&self);

    /// A [`VectorSection`](crate::VectorSection) closed.
    fn vector_exit(&self);
}

/// Thread dispatch state, not yet resolved: the first dispatch folds the
/// process-wide `TP_BACKEND` default into the thread's `ACTIVE` slot and
/// settles on one of the other two states.
const BK_UNRESOLVED: u8 = 0;
/// No backend anywhere: operations take the inlined emulated fast path.
const BK_NONE: u8 = 1;
/// `ACTIVE` holds a backend (scoped installation or the folded-in global).
const BK_SOME: u8 = 2;

thread_local! {
    /// Fast-path guard, checked on every op — a plain `Cell` so the
    /// uninstalled case costs exactly one thread-local read (the
    /// process-default lookup happens once per thread, not per op).
    static STATE: Cell<u8> = const { Cell::new(BK_UNRESOLVED) };
    static ACTIVE: RefCell<Option<Arc<dyn FpBackend>>> = const { RefCell::new(None) };
}

/// Process-wide default backend, consulted when a thread has no scoped
/// installation. Initialized once, lazily, from the `TP_BACKEND`
/// environment variable (`emulated`/unset → none, `softfloat` → the
/// pure-integer kernels) — this is what lets CI rerun whole test suites
/// under another datapath without touching any call site.
static GLOBAL: OnceLock<Option<Arc<dyn FpBackend>>> = OnceLock::new();

fn global_backend() -> &'static Option<Arc<dyn FpBackend>> {
    GLOBAL.get_or_init(|| match std::env::var("TP_BACKEND").as_deref() {
        Ok("softfloat") => Some(Arc::new(SoftFloat::new()) as Arc<dyn FpBackend>),
        Ok("emulated") => Some(Arc::new(Emulated) as Arc<dyn FpBackend>),
        Err(std::env::VarError::NotPresent) => None,
        // Fail fast: a typo (or the in-process-only "fpu" spelling) must
        // not silently run the emulated path while the harness believes it
        // is exercising another datapath.
        Ok(other) => panic!(
            "TP_BACKEND={other:?} is not an env-selectable backend \
             (use \"emulated\" or \"softfloat\"; the fpu-model backend has \
             downstream dependencies and can only be installed in-process \
             via Engine::with)"
        ),
        Err(e) => panic!("TP_BACKEND is set but unreadable: {e}"),
    })
}

/// Handle for the thread's backend installation — the dispatch twin of
/// [`Recorder`](crate::Recorder).
///
/// The two ambient facilities compose: a backend computes (and may record
/// a tape through [`FpBackend::tape`]); the `Recorder` counts. Installing
/// a tape-recording backend does not change what the `Recorder` sees —
/// the "count ops exactly once" contract between them is documented on
/// [`Recorder`](crate::Recorder) and DESIGN.md §7.
#[derive(Debug, Clone, Copy)]
pub struct Engine;

impl Engine {
    /// Runs `f` with `backend` installed as this thread's datapath and
    /// returns its result. Installations nest: the previous backend (if
    /// any) is saved first and restored afterwards — also on panic —
    /// mirroring [`Recorder::scoped`](crate::Recorder::scoped).
    pub fn with<T>(backend: Arc<dyn FpBackend>, f: impl FnOnce() -> T) -> T {
        /// Restores the saved installation when dropped, so a panicking
        /// scope cannot leave the thread dispatching to the wrong backend.
        struct Restore(u8, Option<Arc<dyn FpBackend>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                STATE.with(|s| s.set(self.0));
                ACTIVE.with(|a| *a.borrow_mut() = self.1.take());
            }
        }

        let saved_backend = ACTIVE.with(|a| a.borrow_mut().replace(backend));
        let saved_state = STATE.with(|s| s.replace(BK_SOME));
        let _restore = Restore(saved_state, saved_backend);
        f()
    }

    /// The effective backend of this thread: the scoped installation if one
    /// exists, else the process-wide `TP_BACKEND` default, else `None`
    /// (the emulated fast path).
    ///
    /// Fan-out code captures this once per `parallel_map` call and
    /// re-installs it on each worker thread with [`Engine::with`].
    #[must_use]
    pub fn current() -> Option<Arc<dyn FpBackend>> {
        if resolved_state() == BK_NONE {
            return None;
        }
        ACTIVE.with(|a| a.borrow().clone())
    }

    /// `true` while any backend (scoped or process default) is active on
    /// this thread — i.e. while operations are *not* taking the inlined
    /// emulated fast path.
    #[must_use]
    pub fn is_active() -> bool {
        resolved_state() == BK_SOME
    }

    /// Name of the effective backend (`"emulated"` when none is installed,
    /// since the fast path computes exactly what [`Emulated`] computes).
    #[must_use]
    pub fn active_name() -> &'static str {
        dispatch(|b| b.name()).unwrap_or("emulated")
    }

    /// The exception flags of the effective backend ([`FlagSet::NONE`]
    /// when none is installed or the backend does not track flags).
    #[must_use]
    pub fn flags() -> FlagSet {
        dispatch(|b| b.flags()).unwrap_or(FlagSet::NONE)
    }
}

/// The thread's dispatch state, resolving the `TP_BACKEND` process default
/// into the thread-local slot on first use (cold; once per thread).
#[cold]
fn resolve_state() -> u8 {
    let global = global_backend().clone();
    let state = if global.is_some() { BK_SOME } else { BK_NONE };
    ACTIVE.with(|a| *a.borrow_mut() = global);
    STATE.with(|s| s.set(state));
    state
}

#[inline]
fn resolved_state() -> u8 {
    let state = STATE.with(Cell::get);
    if state == BK_UNRESOLVED {
        return resolve_state();
    }
    state
}

/// Runs `f` against the effective backend, or returns `None` when the
/// thread is on the uninstalled fast path. This is the per-op dispatch
/// point used by `Fx`/`FlexFloat`; the uninstalled case costs exactly one
/// thread-local `Cell` read — the same as the `Recorder::is_enabled` check
/// that already guards every op.
#[inline]
pub(crate) fn dispatch<R>(f: impl FnOnce(&dyn FpBackend) -> R) -> Option<R> {
    if resolved_state() == BK_NONE {
        return None;
    }
    ACTIVE.with(|a| a.borrow().as_deref().map(f))
}

/// Runs `f` against the active backend's tape sink, or returns `None` when
/// no backend is installed or the backend does not record a tape. Like
/// [`dispatch`], the uninstalled case costs exactly one thread-local `Cell`
/// read; with an ordinary compute backend installed it adds one virtual
/// call that returns `None`.
#[inline]
pub(crate) fn tap<R>(f: impl FnOnce(&dyn TapeSink) -> R) -> Option<R> {
    if resolved_state() == BK_NONE {
        return None;
    }
    ACTIVE.with(|a| a.borrow().as_deref().and_then(|b| b.tape()).map(f))
}

/// Dispatch-or-fallback for min/max, shared by `Fx` and `FlexFloat`: the
/// active backend if one is installed, else the native RISC-V semantics.
#[inline]
pub(crate) fn min_max(fmt: FpFormat, a: f64, b: f64, want_min: bool) -> f64 {
    dispatch(|bk| {
        if want_min {
            bk.min(fmt, a, b)
        } else {
            bk.max(fmt, a, b)
        }
    })
    .unwrap_or_else(|| native_min_max(a, b, want_min))
}

/// `true` when native-f64 arithmetic plus one final rounding is provably
/// bit-exact for `fmt` (Figueroa's `2m + 2 <= 52` double-rounding bound).
fn native_exact(fmt: FpFormat) -> bool {
    2 * fmt.man_bits() + 2 <= 52
}

/// RISC-V `fmin`/`fmax` on in-grid `f64` values: NaN loses, `-0 < +0`,
/// two NaNs give the canonical NaN (an `f64` NaN here; the caller's format
/// canonicalizes the encoding).
pub(crate) fn native_min_max(a: f64, b: f64, want_min: bool) -> f64 {
    if a.is_nan() {
        return b;
    }
    if b.is_nan() {
        return a;
    }
    // Order -0 strictly below +0, as fmin/fmax require.
    let key = |x: f64| (x, x.is_sign_negative() as u8 as f64 * -0.5);
    let a_first = key(a) <= key(b);
    if a_first == want_min {
        a
    } else {
        b
    }
}

/// The native-`f64` fast path as an explicit backend: compute on the host
/// datapath, sanitize once (falling back to the softfloat kernels for the
/// wide formats where double rounding would be unsound — the same rule
/// [`FlexFloat`](crate::FlexFloat) applies).
///
/// Installing `Emulated` computes exactly what the uninstalled default
/// computes; it exists so harnesses can name the default explicitly in
/// backend matrices.
#[derive(Debug, Clone, Copy, Default)]
pub struct Emulated;

impl FpBackend for Emulated {
    fn name(&self) -> &'static str {
        "emulated"
    }

    // The uninstalled fast path funnels through these methods, so they
    // must inline into the per-operator call sites (where `op` is a
    // constant and the match folds away).
    #[inline]
    fn bin_op(&self, fmt: FpFormat, op: BinOp, a: f64, b: f64) -> f64 {
        if native_exact(fmt) {
            let raw = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
            };
            return fmt.sanitize_f64(raw);
        }
        let (ab, bb) = (fmt.encode_in_grid(a), fmt.encode_in_grid(b));
        let mode = RoundingMode::default();
        let bits = match op {
            BinOp::Add => ops::add(fmt, ab, bb, mode),
            BinOp::Sub => ops::sub(fmt, ab, bb, mode),
            BinOp::Mul => ops::mul(fmt, ab, bb, mode),
            BinOp::Div => ops::div(fmt, ab, bb, mode),
        };
        fmt.decode_to_f64(bits)
    }

    fn sqrt(&self, fmt: FpFormat, x: f64) -> f64 {
        if native_exact(fmt) {
            return fmt.sanitize_f64(x.sqrt());
        }
        let bits = ops::sqrt(fmt, fmt.encode_in_grid(x), RoundingMode::default());
        fmt.decode_to_f64(bits)
    }

    fn fma(&self, fmt: FpFormat, a: f64, b: f64, c: f64) -> f64 {
        // The 2m+2 argument does not cover fused operations, so FMA always
        // goes through the integer kernels (one rounding, any format).
        let bits = ops::fused_mul_add(
            fmt,
            fmt.encode_in_grid(a),
            fmt.encode_in_grid(b),
            fmt.encode_in_grid(c),
            RoundingMode::default(),
        );
        fmt.decode_to_f64(bits)
    }

    fn cast(&self, _from: FpFormat, to: FpFormat, x: f64) -> f64 {
        to.sanitize_f64(x)
    }

    fn min(&self, _fmt: FpFormat, a: f64, b: f64) -> f64 {
        native_min_max(a, b, true)
    }

    fn max(&self, _fmt: FpFormat, a: f64, b: f64) -> f64 {
        native_min_max(a, b, false)
    }

    fn lt(&self, _fmt: FpFormat, a: f64, b: f64) -> bool {
        a < b
    }

    fn le(&self, _fmt: FpFormat, a: f64, b: f64) -> bool {
        a <= b
    }
}

/// The pure-integer datapath: every operation goes through the
/// `tp-softfloat` kernels on encoded bit patterns, and the IEEE exception
/// flags of the flag-reporting variants accumulate like a RISC-V `fcsr`
/// register (read them with [`SoftFloat::flags`] / [`Engine::flags`]).
///
/// Flags are tracked for the narrow formats (`2m + 2 <= 52`, all four
/// platform formats) where the flagged kernels are defined; wider formats
/// still compute bit-exactly but raise nothing.
#[derive(Debug, Default)]
pub struct SoftFloat {
    flags: Mutex<FlagSet>,
}

impl SoftFloat {
    /// A backend with an empty flag register.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated exception flags.
    #[must_use]
    pub fn flags(&self) -> FlagSet {
        *self.flags.lock().expect("flag register poisoned")
    }

    fn raise(&self, flags: FlagSet) {
        if flags != FlagSet::NONE {
            *self.flags.lock().expect("flag register poisoned") |= flags;
        }
    }
}

impl FpBackend for SoftFloat {
    fn name(&self) -> &'static str {
        "softfloat"
    }

    fn bin_op(&self, fmt: FpFormat, op: BinOp, a: f64, b: f64) -> f64 {
        let (ab, bb) = (fmt.encode_in_grid(a), fmt.encode_in_grid(b));
        let mode = RoundingMode::default();
        let bits = if native_exact(fmt) {
            let (bits, flags) = match op {
                BinOp::Add => ops::add_flagged(fmt, ab, bb, mode),
                // a - b = a + (-b) exactly (sign flip is lossless, and NaNs
                // canonicalize either way); there is no sub_flagged kernel.
                BinOp::Sub => ops::add_flagged(fmt, ab, bb ^ (1u64 << fmt.sign_shift()), mode),
                BinOp::Mul => ops::mul_flagged(fmt, ab, bb, mode),
                BinOp::Div => ops::div_flagged(fmt, ab, bb, mode),
            };
            self.raise(flags);
            bits
        } else {
            match op {
                BinOp::Add => ops::add(fmt, ab, bb, mode),
                BinOp::Sub => ops::sub(fmt, ab, bb, mode),
                BinOp::Mul => ops::mul(fmt, ab, bb, mode),
                BinOp::Div => ops::div(fmt, ab, bb, mode),
            }
        };
        fmt.decode_to_f64(bits)
    }

    fn sqrt(&self, fmt: FpFormat, x: f64) -> f64 {
        let xb = fmt.encode_in_grid(x);
        let mode = RoundingMode::default();
        let bits = if native_exact(fmt) {
            let (bits, flags) = ops::sqrt_flagged(fmt, xb, mode);
            self.raise(flags);
            bits
        } else {
            ops::sqrt(fmt, xb, mode)
        };
        fmt.decode_to_f64(bits)
    }

    fn fma(&self, fmt: FpFormat, a: f64, b: f64, c: f64) -> f64 {
        let bits = ops::fused_mul_add(
            fmt,
            fmt.encode_in_grid(a),
            fmt.encode_in_grid(b),
            fmt.encode_in_grid(c),
            RoundingMode::default(),
        );
        fmt.decode_to_f64(bits)
    }

    fn cast(&self, _from: FpFormat, to: FpFormat, x: f64) -> f64 {
        // `round_from_f64` is integer-only internally (it works on the bit
        // pattern), and differentially matches `ops::convert` bit-for-bit
        // (tests/conformance.rs) — so one rounding yields bits and flags.
        let outcome = to.round_from_f64(x, RoundingMode::default());
        self.raise(FlagSet {
            inexact: outcome.inexact,
            overflow: outcome.overflow,
            underflow: outcome.underflow,
            ..FlagSet::NONE
        });
        to.decode_to_f64(outcome.bits)
    }

    fn min(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        fmt.decode_to_f64(ops::min(fmt, fmt.encode_in_grid(a), fmt.encode_in_grid(b)))
    }

    fn max(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        fmt.decode_to_f64(ops::max(fmt, fmt.encode_in_grid(a), fmt.encode_in_grid(b)))
    }

    fn lt(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        ops::lt(fmt, fmt.encode_in_grid(a), fmt.encode_in_grid(b))
    }

    fn le(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        ops::le(fmt, fmt.encode_in_grid(a), fmt.encode_in_grid(b))
    }

    fn eq(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        ops::eq(fmt, fmt.encode_in_grid(a), fmt.encode_in_grid(b))
    }

    fn flags(&self) -> FlagSet {
        SoftFloat::flags(self)
    }

    fn clear_flags(&self) {
        *self.flags.lock().expect("flag register poisoned") = FlagSet::NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    fn b8(x: f64) -> f64 {
        BINARY8.sanitize_f64(x)
    }

    #[test]
    fn default_thread_has_no_backend() {
        // (Unless the whole process runs under TP_BACKEND, in which case
        // the name reflects that global choice.)
        match std::env::var("TP_BACKEND").as_deref() {
            Ok("softfloat") => assert_eq!(Engine::active_name(), "softfloat"),
            _ => {
                assert_eq!(Engine::active_name(), "emulated");
                assert!(Engine::current().is_none() || Engine::is_active());
            }
        }
    }

    #[test]
    fn with_installs_and_restores() {
        let outer = Engine::active_name();
        Engine::with(Arc::new(SoftFloat::new()), || {
            assert_eq!(Engine::active_name(), "softfloat");
            assert!(Engine::is_active());
            // Nested installation shadows, then restores.
            Engine::with(Arc::new(Emulated), || {
                assert_eq!(Engine::active_name(), "emulated");
            });
            assert_eq!(Engine::active_name(), "softfloat");
        });
        assert_eq!(Engine::active_name(), outer);
    }

    #[test]
    fn with_restores_on_panic() {
        // Resolve first (active_name folds the process default in), then
        // snapshot the settled state the panic must restore.
        let before = (Engine::active_name(), STATE.with(Cell::get));
        let result = std::panic::catch_unwind(|| {
            Engine::with(Arc::new(SoftFloat::new()), || panic!("scope dies"));
        });
        assert!(result.is_err());
        assert_eq!(STATE.with(Cell::get), before.1);
        assert_eq!(Engine::active_name(), before.0);
    }

    #[test]
    fn backends_agree_on_binary8_arithmetic() {
        let soft = SoftFloat::new();
        let emu = Emulated;
        for a in 0..=0xFFu64 {
            for b in 0..=0xFFu64 {
                let (va, vb) = (BINARY8.decode_to_f64(a), BINARY8.decode_to_f64(b));
                for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
                    let e = emu.bin_op(BINARY8, op, va, vb);
                    let s = soft.bin_op(BINARY8, op, va, vb);
                    assert!(
                        e.to_bits() == s.to_bits() || (e.is_nan() && s.is_nan()),
                        "{op:?}({va:e}, {vb:e}): emulated {e:e} vs softfloat {s:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn softfloat_backend_accumulates_flags() {
        let soft = SoftFloat::new();
        assert!(soft.flags().is_empty());
        let _ = soft.bin_op(BINARY8, BinOp::Mul, 1.75, 1.75); // inexact
        assert!(soft.flags().inexact);
        let _ = soft.bin_op(BINARY8, BinOp::Div, 1.0, 0.0);
        let f = soft.flags();
        assert!(f.inexact && f.div_by_zero, "{f}");
        soft.clear_flags();
        assert!(soft.flags().is_empty());
    }

    #[test]
    fn engine_surfaces_flags_of_active_backend() {
        let flags = Engine::with(Arc::new(SoftFloat::new()), || {
            let a = crate::Fx::new(1.75, BINARY8);
            let _ = a * a;
            Engine::flags()
        });
        assert!(flags.inexact);
    }

    #[test]
    fn min_max_riscv_zero_and_nan_semantics() {
        for backend in [&Emulated as &dyn FpBackend, &SoftFloat::new()] {
            let n = f64::NAN;
            assert_eq!(backend.min(BINARY32, 1.0, n), 1.0, "{}", backend.name());
            assert_eq!(backend.max(BINARY32, n, 1.0), 1.0, "{}", backend.name());
            assert!(backend.min(BINARY32, n, n).is_nan());
            assert!(backend.min(BINARY32, 0.0, -0.0).is_sign_negative());
            assert!(backend.min(BINARY32, -0.0, 0.0).is_sign_negative());
            assert!(!backend.max(BINARY32, 0.0, -0.0).is_sign_negative());
            assert_eq!(backend.min(BINARY32, -3.0, 2.0), -3.0);
            assert_eq!(backend.max(BINARY32, -3.0, 2.0), 2.0);
        }
    }

    #[test]
    fn comparisons_agree_on_specials() {
        let soft = SoftFloat::new();
        let vals = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    soft.lt(BINARY16, b8(a), b8(b)),
                    Emulated.lt(BINARY16, b8(a), b8(b))
                );
                assert_eq!(
                    soft.le(BINARY16, b8(a), b8(b)),
                    Emulated.le(BINARY16, b8(a), b8(b))
                );
            }
        }
    }

    #[test]
    fn wide_formats_fall_back_to_integer_kernels() {
        // M = 40 > 25: both backends must still be correctly rounded.
        let wide = FpFormat::new(11, 40).unwrap();
        let a = wide.sanitize_f64(1.0 + 2f64.powi(-40));
        let b = wide.sanitize_f64(2f64.powi(-41) + 2f64.powi(-80));
        let want = 1.0 + 2f64.powi(-40) + 2f64.powi(-40);
        assert_eq!(Emulated.bin_op(wide, BinOp::Add, a, b), want);
        assert_eq!(SoftFloat::new().bin_op(wide, BinOp::Add, a, b), want);
    }
}
