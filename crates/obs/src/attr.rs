//! Energy/precision attribution: op counts, FPU cycles and picojoules
//! keyed on *(kernel, phase, op-class, format-pair)*.
//!
//! `MeasuredStats` can say a run retired N FP instructions for E pJ;
//! it cannot say which kernel, which phase (baseline vs tuned), which
//! op class or which format pair the joules went to. This module is the
//! receiving end of the `AttributionSink` tap on `tp_fpu::FpuModel`:
//! the backend reports every accounted op here into a per-thread shard,
//! and shards merge into one global table when their labels change, at
//! [`absorb`](crate::absorb) and at thread exit. (Unlike the metric
//! shards, these are flushed rather than read in place: a shard picks
//! up its ambient labels when it flushes.)
//!
//! # Keys and labels
//!
//! The op class and formats come from the FPU backend per call; the
//! *kernel* and *phase* labels are ambient, installed by the harness
//! with [`set_labels`] around each measured run (scoped, restore-on-
//! drop). Ops recorded outside any label scope land under `("-", "-")`
//! rather than being dropped — the reconciliation contract is **no
//! dropped or double-counted ops**.
//!
//! # Exact reconciliation
//!
//! Per-key energy accumulates in `f64`. The `EnergyTable` quantizes
//! every per-op energy to the dyadic grid of 2⁻²⁰ pJ, which makes f64
//! addition of op energies *exact* (every partial sum below ~8.6e9 pJ
//! is representable), hence associative — so the sum over attribution
//! cells equals `FpuStats::total_energy_pj` bit-for-bit regardless of
//! sharding or absorb order. `exp_energy_attribution` and
//! `tests/energy_attribution.rs` assert this with `==`, not an epsilon.
//!
//! # Gating
//!
//! Recording is gated on the metrics knob ([`enabled`](crate::enabled))
//! *and* on a sink actually being installed on the backend — with no
//! sink the backend never calls here, so ordinary runs pay nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One attribution row: where the ops/cycles/energy are charged.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AttrKey {
    /// Kernel label installed by [`set_labels`] (`-` when unlabelled).
    pub kernel: String,
    /// Phase label installed by [`set_labels`] — by convention
    /// `baseline` or `tuned` (`-` when unlabelled).
    pub phase: String,
    /// Op class as reported by the backend tap: `add`, `sub`, `mul`,
    /// `convert`, `div_emulated`, `sqrt_emulated`, `fma_emulated`,
    /// `cmp`, `off_grid`.
    pub class: String,
    /// Format pair: a single format name for same-format ops
    /// (`binary16`), `from->to` for conversions (`binary32->binary8`).
    pub formats: String,
}

/// Accumulated charge for one [`AttrKey`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AttrCell {
    /// Number of ops (one per backend tap call). Saturating.
    pub ops: u64,
    /// FPU cycles charged by the unit (0 for emulated/cmp/off-grid
    /// classes, which the unit does not account). Saturating.
    pub cycles: u64,
    /// Picojoules charged by the `EnergyTable` (dyadic-quantized, so
    /// accumulation is exact — see the module docs).
    pub energy_pj: f64,
}

impl AttrCell {
    /// Folds `other` into this cell (saturating counts; energy sums are
    /// exact on the dyadic grid). Consumers use it to roll rows up — e.g.
    /// all unit-class rows of one run for reconciliation.
    pub fn merge(&mut self, other: AttrCell) {
        self.ops = self.ops.saturating_add(other.ops);
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.energy_pj += other.energy_pj;
    }
}

static GLOBAL_ATTR: Mutex<BTreeMap<AttrKey, AttrCell>> = Mutex::new(BTreeMap::new());

// The thread-local half. The shard keys on the backend-provided
// (class, from, to) statics only — no allocation on the record path —
// and picks up the ambient (kernel, phase) labels when it flushes.
// Flushes happen whenever the labels change (set_labels / guard drop),
// at absorb points, and on thread exit (LocalAttr::drop).
type ShardKey = (&'static str, &'static str, &'static str);

struct LocalAttr(RefCell<BTreeMap<ShardKey, AttrCell>>);

impl Drop for LocalAttr {
    fn drop(&mut self) {
        flush_map(std::mem::take(&mut *self.0.borrow_mut()));
    }
}

thread_local! {
    static LABELS: RefCell<(String, String)> = RefCell::new((String::from("-"), String::from("-")));
    static ATTR_SHARD: LocalAttr = const { LocalAttr(RefCell::new(BTreeMap::new())) };
    static HAVE_LOCAL: Cell<bool> = const { Cell::new(false) };
}

fn current_labels() -> (String, String) {
    LABELS
        .try_with(|l| l.borrow().clone())
        .unwrap_or_else(|_| (String::from("-"), String::from("-")))
}

fn flush_map(map: BTreeMap<ShardKey, AttrCell>) {
    if map.is_empty() {
        return;
    }
    let (kernel, phase) = current_labels();
    let mut global = GLOBAL_ATTR.lock().expect("attribution table poisoned");
    for ((class, from, to), cell) in map {
        let formats = if from == to {
            from.to_owned()
        } else {
            format!("{from}->{to}")
        };
        global
            .entry(AttrKey {
                kernel: kernel.clone(),
                phase: phase.clone(),
                class: class.to_owned(),
                formats,
            })
            .or_default()
            .merge(cell);
    }
}

fn flush_local() {
    if !HAVE_LOCAL.with(Cell::get) {
        return;
    }
    HAVE_LOCAL.with(|c| c.set(false));
    let _ = ATTR_SHARD.try_with(|shard| {
        flush_map(std::mem::take(&mut *shard.0.borrow_mut()));
    });
}

/// Installs *(kernel, phase)* labels on the calling thread until the
/// returned guard drops (restoring the previous labels). The pending
/// shard is flushed on both edges so ops recorded before, inside, and
/// after the scope are attributed to the labels in force when they ran.
#[must_use = "labels are only installed while the guard lives"]
pub fn set_labels(kernel: &str, phase: &str) -> LabelGuard {
    flush_local();
    let prev = LABELS
        .with(|l| std::mem::replace(&mut *l.borrow_mut(), (kernel.to_owned(), phase.to_owned())));
    LabelGuard { prev }
}

/// Restores the previous attribution labels on drop (flushing first).
/// See [`set_labels`].
#[derive(Debug)]
pub struct LabelGuard {
    prev: (String, String),
}

impl Drop for LabelGuard {
    fn drop(&mut self) {
        flush_local();
        let prev = std::mem::take(&mut self.prev);
        let _ = LABELS.try_with(|l| *l.borrow_mut() = prev);
    }
}

/// Charges one op to the current labels. Called by the backend's
/// attribution sink; `cycles`/`energy_pj` are the unit's charge for
/// this op (0 for classes the unit does not account). No-op when
/// metrics are off. No allocation: the shard keys on the `'static`
/// strings the backend passes.
pub fn record(
    class: &'static str,
    from: &'static str,
    to: &'static str,
    cycles: u64,
    energy_pj: f64,
) {
    if !crate::enabled() {
        return;
    }
    let _ = ATTR_SHARD.try_with(|shard| {
        HAVE_LOCAL.with(|c| c.set(true));
        shard
            .0
            .borrow_mut()
            .entry((class, from, to))
            .or_default()
            .merge(AttrCell {
                ops: 1,
                cycles,
                energy_pj,
            });
    });
}

/// Flushes the calling thread's attribution shard into the global
/// table. Called from [`absorb`](crate::absorb).
pub fn absorb_attr() {
    flush_local();
}

/// The global attribution table, key-ordered (deterministic). Absorbs
/// the calling thread's shard first; rows recorded by *other* live
/// threads appear once those threads absorb, change labels or exit.
#[must_use]
pub fn snapshot_attr() -> Vec<(AttrKey, AttrCell)> {
    flush_local();
    GLOBAL_ATTR
        .lock()
        .expect("attribution table poisoned")
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Clears the thread-local shard and the global table. Tests and
/// harnesses only, like [`reset`](crate::reset).
pub fn reset_attr() {
    HAVE_LOCAL.with(|c| c.set(false));
    let _ = ATTR_SHARD.try_with(|shard| shard.0.borrow_mut().clear());
    GLOBAL_ATTR
        .lock()
        .expect("attribution table poisoned")
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::MODE_LOCK;
    use crate::MetricsMode;

    fn with_attr_on(f: impl FnOnce()) {
        let _guard = crate::lock(&MODE_LOCK);
        crate::force_mode(MetricsMode::On);
        reset_attr();
        f();
        reset_attr();
        crate::force_mode(MetricsMode::Off);
    }

    #[test]
    fn labels_scope_and_restore() {
        with_attr_on(|| {
            record("add", "binary16", "binary16", 2, 1.5);
            {
                let _labels = set_labels("gemm", "tuned");
                record("add", "binary16", "binary16", 2, 1.5);
                record("convert", "binary32", "binary8", 1, 0.5);
            }
            record("mul", "binary32", "binary32", 3, 2.0);
            let table = snapshot_attr();
            let find = |kernel: &str, phase: &str, class: &str| {
                table
                    .iter()
                    .find(|(k, _)| k.kernel == kernel && k.phase == phase && k.class == class)
                    .map(|(_, c)| *c)
            };
            let unlabelled_add = find("-", "-", "add").expect("unlabelled add row");
            assert_eq!((unlabelled_add.ops, unlabelled_add.cycles), (1, 2));
            let tuned_add = find("gemm", "tuned", "add").expect("labelled add row");
            assert_eq!(tuned_add.ops, 1);
            let conv = find("gemm", "tuned", "convert").expect("conversion row");
            let key = table
                .iter()
                .find(|(k, _)| k.class == "convert")
                .map(|(k, _)| k.formats.clone())
                .unwrap();
            assert_eq!(key, "binary32->binary8");
            assert_eq!(conv.ops, 1);
            assert!(find("-", "-", "mul").is_some(), "post-scope op unlabelled");
        });
    }

    #[test]
    fn thread_shards_absorb_on_exit_and_totals_are_exact() {
        with_attr_on(|| {
            // 2^-20-grid energies: sums must be exact, not approximate.
            let e = 3.0 + 1.0 / 1_048_576.0;
            let _labels = set_labels("fft", "baseline");
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(move || {
                        // Worker threads carry their own (default) labels.
                        let _worker = set_labels("fft", "baseline");
                        for _ in 0..100 {
                            record("mul", "binary16alt", "binary16alt", 2, e);
                        }
                    });
                }
            });
            let table = snapshot_attr();
            let (_, cell) = table
                .iter()
                .find(|(k, _)| k.kernel == "fft" && k.class == "mul")
                .expect("fft mul row");
            assert_eq!(cell.ops, 400);
            assert_eq!(cell.cycles, 800);
            assert_eq!(cell.energy_pj, 400.0 * e, "dyadic sums are exact");
        });
    }

    #[test]
    fn metrics_off_records_nothing() {
        let _guard = crate::lock(&MODE_LOCK);
        crate::force_mode(MetricsMode::Off);
        reset_attr();
        record("add", "binary32", "binary32", 2, 1.0);
        crate::force_mode(MetricsMode::On);
        assert!(snapshot_attr().is_empty());
        reset_attr();
        crate::force_mode(MetricsMode::Off);
    }
}
