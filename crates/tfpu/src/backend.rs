//! [`FpuModel`] — the [`SmallFloatUnit`](crate::SmallFloatUnit)'s
//! cycle/energy account as a pluggable `flexfloat` execution backend.
//!
//! Installing this backend (via `flexfloat::Engine::with`) charges every
//! `Fx`/`FlexFloat` operation to the microarchitectural FPU model:
//! add/sub/mul in the four platform formats are charged the latency and
//! energy [`SmallFloatUnit::scalar`](crate::SmallFloatUnit::scalar)
//! charges, FP→FP conversions what
//! [`SmallFloatUnit::convert`](crate::SmallFloatUnit::convert) charges,
//! and the operations the unit does not implement in hardware — division,
//! square root and FMA (software-emulated on the PULPino core, exactly as
//! in the paper), the quiet comparisons, and formats outside the
//! platform's four — are counted separately in [`MeasuredStats`] with no
//! hardware charge.
//!
//! The model counts and does not compute: each operation is one relaxed
//! atomic increment on its class's bucket, and the result comes from
//! [`Emulated`] — native `f64` plus one rounding, which is exact for all
//! four platform formats (`2m + 2 <= 52`, Figueroa's double-rounding
//! bound) and falls back to the `tp-softfloat` kernels for wider ones. A
//! kernel run under `FpuModel` therefore produces the same outputs and
//! `TraceCounts` as the emulated fast path — plus a measured cycle/energy
//! account that `tp-platform` cross-validates against its analytic
//! [`CycleReport`](../tp_platform/struct.CycleReport.html). The
//! independent integer datapath is the `SoftFloat` backend's.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use flexfloat::backend::{BinOp, Emulated, FpBackend};
use tp_formats::{FormatKind, FpFormat, ALL_KINDS};

use crate::energy::EnergyTable;
use crate::op::ArithOp;
use crate::unit::{convert_charge, scalar_charge, FpuStats};

/// A tap observing every operation the backend accounts: the op class,
/// the formats involved, and the unit's cycle/energy charge (0 for
/// classes the unit has no hardware block for). Installed with
/// [`FpuModel::with_sink`]; with no sink the backend never builds or
/// reports any of this, so ordinary runs pay nothing.
///
/// The tap is **observational by contract**: it sees each op as the
/// op is counted and cannot influence its result. `tp_obs::attr` is
/// the intended receiver — its table is keyed on (kernel, phase,
/// op-class, format-pair) and reconciles exactly against
/// [`MeasuredStats`] (no dropped or double-counted ops: every backend
/// operation reaches the sink exactly once, in the same bucket
/// [`MeasuredStats`] counts it in).
pub trait AttributionSink: Send + Sync + std::fmt::Debug {
    /// Reports one accounted op. `from`/`to` are format names (equal
    /// for non-conversions; `"off-grid"` for formats outside the
    /// platform's four). `cycles`/`energy_pj` are the unit's charge —
    /// the exact quantities accumulated into [`FpuStats`] — and 0 for
    /// emulated/cmp/off-grid classes, which the unit does not account.
    fn record(
        &self,
        class: &'static str,
        from: &'static str,
        to: &'static str,
        cycles: u64,
        energy_pj: f64,
    );
}

/// Static display name of an in-grid format (the `FormatKind` Display
/// strings, as `&'static str` so sinks can key on them without
/// allocating).
#[must_use]
pub fn kind_name(kind: FormatKind) -> &'static str {
    match kind {
        FormatKind::Binary8 => "binary8",
        FormatKind::Binary16 => "binary16",
        FormatKind::Binary16Alt => "binary16alt",
        FormatKind::Binary32 => "binary32",
    }
}

fn fmt_label(fmt: FpFormat) -> &'static str {
    FormatKind::of_format(fmt).map_or("off-grid", kind_name)
}

/// Execution counts accumulated by an [`FpuModel`] backend: the unit's
/// charged instructions plus the operations the unit has no hardware
/// block for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeasuredStats {
    /// Statistics of the instructions charged to the `SmallFloatUnit`
    /// (arithmetic in the four platform formats, and conversions).
    pub fpu: FpuStats,
    /// Divisions, software-emulated (no divider slice in Fig. 3).
    pub emulated_div: u64,
    /// Square roots, software-emulated.
    pub emulated_sqrt: u64,
    /// Fused multiply-adds, software-emulated (the unit has no FMA block).
    pub emulated_fma: u64,
    /// Quiet comparisons / min / max (single-cycle, no datapath toggling).
    pub cmp_ops: u64,
    /// Operations in formats outside the platform's four storage kinds
    /// (e.g. tuning probes), computed bit-exactly in software with no
    /// hardware account.
    pub off_grid_ops: u64,
}

impl MeasuredStats {
    /// Total retired FP instructions: every backend operation counts in
    /// exactly one bucket (unit-executed, software-emulated, comparison,
    /// or off-grid), so the sum is the retired-instruction count an
    /// instruction-stream frontend can reconcile against — `tp-isa`'s
    /// `RunStats::backend_fp_ops` equals this by construction.
    #[must_use]
    pub fn retired_fp_instructions(&self) -> u64 {
        self.fpu.instructions
            + self.emulated_div
            + self.emulated_sqrt
            + self.emulated_fma
            + self.cmp_ops
            + self.off_grid_ops
    }

    /// The run's energy/cycle account in summary form — the totals the
    /// attribution plane reconciles against (see [`EnergyAccount`]).
    #[must_use]
    pub fn energy_account(&self) -> EnergyAccount {
        EnergyAccount {
            unit_ops: self.fpu.instructions,
            unit_cycles: self.fpu.total_latency,
            unit_energy_pj: self.fpu.total_energy_pj,
            emulated_ops: self.emulated_div + self.emulated_sqrt + self.emulated_fma,
            cmp_ops: self.cmp_ops,
            off_grid_ops: self.off_grid_ops,
        }
    }

    /// The statistics accumulated since `baseline` (a snapshot taken from
    /// the same backend earlier). Counters are cumulative, so this is
    /// field-wise subtraction — the per-run accounting hook harnesses use
    /// to attribute measurements to one kernel run on a shared backend.
    #[must_use]
    pub fn delta_since(&self, baseline: &MeasuredStats) -> MeasuredStats {
        MeasuredStats {
            fpu: crate::unit::FpuStats {
                instructions: self.fpu.instructions - baseline.fpu.instructions,
                total_latency: self.fpu.total_latency - baseline.fpu.total_latency,
                total_energy_pj: self.fpu.total_energy_pj - baseline.fpu.total_energy_pj,
            },
            emulated_div: self.emulated_div - baseline.emulated_div,
            emulated_sqrt: self.emulated_sqrt - baseline.emulated_sqrt,
            emulated_fma: self.emulated_fma - baseline.emulated_fma,
            cmp_ops: self.cmp_ops - baseline.cmp_ops,
            off_grid_ops: self.off_grid_ops - baseline.off_grid_ops,
        }
    }
}

/// Summary energy/cycle totals of a measured run, derived from
/// [`MeasuredStats`]: what the unit charged (ops, cycles, pJ) and how
/// many operations fell outside the unit (emulated, comparisons,
/// off-grid — all charged 0 by the hardware model). The attribution
/// plane's contract is that its per-(kernel, phase, op-class, format)
/// rows sum *exactly* to these totals — `unit_energy_pj` with `==`,
/// because `EnergyTable` quantizes to a dyadic grid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyAccount {
    /// Instructions the `SmallFloatUnit` executed (arith + conversions).
    pub unit_ops: u64,
    /// Cycles the unit charged for those instructions.
    pub unit_cycles: u64,
    /// Picojoules the unit charged for those instructions.
    pub unit_energy_pj: f64,
    /// Software-emulated ops (div + sqrt + fma): counted, not charged.
    pub emulated_ops: u64,
    /// Quiet comparisons / min / max: counted, not charged.
    pub cmp_ops: u64,
    /// Ops in formats outside the platform grid: counted, not charged.
    pub off_grid_ops: u64,
}

impl EnergyAccount {
    /// Every operation in the account, across all classes — equals
    /// [`MeasuredStats::retired_fp_instructions`].
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.unit_ops + self.emulated_ops + self.cmp_ops + self.off_grid_ops
    }
}

// Bucket layout. The unit-charged classes come first, so a bucket index
// below `UNIT_BUCKETS` is also the row of its charge in `FpuModel::charges`.
/// add/sub/mul × the four kinds, at `op * 4 + kind`.
const ARITH: usize = 0;
/// FP→FP conversions, 4 × 4 kinds, at `CONVERT + from * 4 + to`.
const CONVERT: usize = 12;
const UNIT_BUCKETS: usize = 28;
const DIV: usize = 28;
const SQRT: usize = 29;
const FMA: usize = 30;
const CMP: usize = 31;
const OFF_GRID: usize = 32;
const BUCKETS: usize = 33;

fn arith_bucket(op: ArithOp, kind: FormatKind) -> usize {
    ARITH + op as usize * 4 + kind as usize
}

fn convert_bucket(from: FormatKind, to: FormatKind) -> usize {
    CONVERT + from as usize * 4 + to as usize
}

/// Latency and energy of every unit-charged bucket, read from the same
/// functions `SmallFloatUnit` and `operation_modes` charge with.
fn charge_table() -> [(u32, f64); UNIT_BUCKETS] {
    let energy = EnergyTable::paper();
    let mut table = [(0, 0.0); UNIT_BUCKETS];
    for from in ALL_KINDS {
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul] {
            table[arith_bucket(op, from)] = scalar_charge(&energy, op, from);
        }
        for to in ALL_KINDS {
            table[convert_bucket(from, to)] = convert_charge(&energy, from, to);
        }
    }
    table
}

/// The `SmallFloatUnit` accounting backend: counts every `flexfloat`
/// operation in its class's bucket and computes the result with
/// [`Emulated`], accumulating [`MeasuredStats`].
///
/// The backend is shared as `Arc<dyn FpBackend>` and may be installed on
/// several worker threads at once: the buckets are atomic counters, so
/// concurrent operations are never lost. A [`FpuModel::stats`] taken
/// while other threads are still issuing reads each bucket once and may
/// straddle an operation; taken after they finish, it is exact.
///
/// ```
/// use std::sync::Arc;
/// use flexfloat::{Engine, Fx};
/// use tp_formats::BINARY8;
/// use tp_fpu::FpuModel;
///
/// let fpu = Arc::new(FpuModel::new());
/// let out = Engine::with(fpu.clone(), || {
///     let a = Fx::new(1.5, BINARY8);
///     let b = Fx::new(0.25, BINARY8);
///     (a + b).value()
/// });
/// assert_eq!(out, 1.75); // bit-identical to the emulated path
/// let stats = fpu.stats();
/// assert_eq!(stats.fpu.instructions, 1);
/// assert_eq!(stats.fpu.total_latency, 1); // binary8 add is single-cycle
/// assert!(stats.fpu.total_energy_pj > 0.0);
/// ```
#[derive(Debug)]
pub struct FpuModel {
    counts: [AtomicU64; BUCKETS],
    /// Cycles and pJ per operation of each unit-charged bucket.
    charges: [(u32, f64); UNIT_BUCKETS],
    sink: Option<Arc<dyn AttributionSink>>,
}

impl Default for FpuModel {
    fn default() -> Self {
        FpuModel {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            charges: charge_table(),
            sink: None,
        }
    }
}

impl FpuModel {
    /// A backend charging the paper-calibrated energy table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A backend that additionally reports every accounted op to `sink`
    /// (see [`AttributionSink`]).
    #[must_use]
    pub fn with_sink(sink: Arc<dyn AttributionSink>) -> Self {
        FpuModel {
            sink: Some(sink),
            ..Self::default()
        }
    }

    /// Counts one operation in `bucket` and reports it to the sink, if any.
    fn count(&self, bucket: usize, class: &'static str, from: &'static str, to: &'static str) {
        self.counts[bucket].fetch_add(1, Relaxed);
        if let Some(sink) = &self.sink {
            let (cycles, energy) = self
                .charges
                .get(bucket)
                .map_or((0, 0.0), |&(latency, energy)| (u64::from(latency), energy));
            sink.record(class, from, to, cycles, energy);
        }
    }

    fn count_off_grid(&self) {
        self.count(OFF_GRID, "off_grid", "off-grid", "off-grid");
    }

    /// Counts a software-emulated op: `class` in `bucket` for the
    /// platform formats, off-grid otherwise.
    fn count_emulated(&self, fmt: FpFormat, bucket: usize, class: &'static str) {
        match FormatKind::of_format(fmt) {
            Some(kind) => self.count(bucket, class, kind_name(kind), kind_name(kind)),
            None => self.count_off_grid(),
        }
    }

    fn count_cmp(&self, fmt: FpFormat) {
        self.count(CMP, "cmp", fmt_label(fmt), fmt_label(fmt));
    }

    /// The statistics accumulated so far.
    ///
    /// The unit totals are bucket count × charge, summed: every charge
    /// sits on the 2⁻²⁰ pJ grid, so the energy is exact and bit-identical
    /// to an op-by-op sum (see the `energy` module docs).
    #[must_use]
    pub fn stats(&self) -> MeasuredStats {
        let n = |bucket: usize| self.counts[bucket].load(Relaxed);
        let mut fpu = FpuStats::default();
        for (bucket, &(latency, energy)) in self.charges.iter().enumerate() {
            let ops = n(bucket);
            fpu.instructions += ops;
            fpu.total_latency += ops * u64::from(latency);
            fpu.total_energy_pj += ops as f64 * energy;
        }
        MeasuredStats {
            fpu,
            emulated_div: n(DIV),
            emulated_sqrt: n(SQRT),
            emulated_fma: n(FMA),
            cmp_ops: n(CMP),
            off_grid_ops: n(OFF_GRID),
        }
    }

    /// Resets all accumulated statistics.
    pub fn reset(&self) {
        for count in &self.counts {
            count.store(0, Relaxed);
        }
    }
}

impl FpBackend for FpuModel {
    fn name(&self) -> &'static str {
        "fpu-model"
    }

    fn bin_op(&self, fmt: FpFormat, op: BinOp, a: f64, b: f64) -> f64 {
        match (FormatKind::of_format(fmt), op) {
            (Some(kind), BinOp::Add | BinOp::Sub | BinOp::Mul) => {
                let (arith, class) = match op {
                    BinOp::Add => (ArithOp::Add, "add"),
                    BinOp::Sub => (ArithOp::Sub, "sub"),
                    _ => (ArithOp::Mul, "mul"),
                };
                let name = kind_name(kind);
                self.count(arith_bucket(arith, kind), class, name, name);
            }
            // No divider slice: emulated in software on the core.
            (_, BinOp::Div) => self.count_emulated(fmt, DIV, "div_emulated"),
            (None, _) => self.count_off_grid(),
        }
        Emulated.bin_op(fmt, op, a, b)
    }

    fn sqrt(&self, fmt: FpFormat, x: f64) -> f64 {
        self.count_emulated(fmt, SQRT, "sqrt_emulated");
        Emulated.sqrt(fmt, x)
    }

    fn fma(&self, fmt: FpFormat, a: f64, b: f64, c: f64) -> f64 {
        self.count_emulated(fmt, FMA, "fma_emulated");
        Emulated.fma(fmt, a, b, c)
    }

    fn cast(&self, from: FpFormat, to: FpFormat, x: f64) -> f64 {
        match (FormatKind::of_format(from), FormatKind::of_format(to)) {
            (Some(fk), Some(tk)) => {
                self.count(
                    convert_bucket(fk, tk),
                    "convert",
                    kind_name(fk),
                    kind_name(tk),
                );
            }
            _ => self.count_off_grid(),
        }
        Emulated.cast(from, to, x)
    }

    fn min(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        self.count_cmp(fmt);
        Emulated.min(fmt, a, b)
    }

    fn max(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        self.count_cmp(fmt);
        Emulated.max(fmt, a, b)
    }

    fn lt(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.count_cmp(fmt);
        Emulated.lt(fmt, a, b)
    }

    fn le(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.count_cmp(fmt);
        Emulated.le(fmt, a, b)
    }

    fn eq(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.count_cmp(fmt);
        Emulated.eq(fmt, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Engine, Fx};
    use std::sync::{Arc, Mutex};
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    use crate::op::FpuOp;
    use crate::unit::{operation_modes, SmallFloatUnit};

    #[test]
    fn arithmetic_matches_emulated_path() {
        let fpu = Arc::new(FpuModel::new());
        for (x, y) in [(1.5, 0.25), (1.75, 1.75), (-3.0, 2.0), (0.1, 0.2)] {
            for fmt in [BINARY8, BINARY16, BINARY32] {
                let plain = {
                    let (a, b) = (Fx::new(x, fmt), Fx::new(y, fmt));
                    [
                        (a + b).value(),
                        (a - b).value(),
                        (a * b).value(),
                        (a / b).value(),
                    ]
                };
                let measured = Engine::with(fpu.clone(), || {
                    let (a, b) = (Fx::new(x, fmt), Fx::new(y, fmt));
                    [
                        (a + b).value(),
                        (a - b).value(),
                        (a * b).value(),
                        (a / b).value(),
                    ]
                });
                assert_eq!(plain, measured, "{fmt} {x} {y}");
            }
        }
    }

    #[test]
    fn measured_stats_accumulate_per_class() {
        let fpu = Arc::new(FpuModel::new());
        Engine::with(fpu.clone(), || {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.5, BINARY16);
            let _ = a + b; // unit
            let _ = a * b; // unit
            let _ = a / b; // emulated
            let _ = a.sqrt(); // emulated
            let _ = a.min(b); // cmp
            let _ = a.lt(b); // cmp
            let _ = a.to(BINARY8); // unit conversion
        });
        let s = fpu.stats();
        assert_eq!(s.fpu.instructions, 3); // add, mul, convert
        assert_eq!(s.emulated_div, 1);
        assert_eq!(s.emulated_sqrt, 1);
        assert_eq!(s.cmp_ops, 2);
        assert_eq!(s.off_grid_ops, 0);
        // 16-bit arithmetic is 2-cycle, the conversion 1-cycle.
        assert_eq!(s.fpu.total_latency, 2 + 2 + 1);
        fpu.reset();
        assert_eq!(fpu.stats(), MeasuredStats::default());
    }

    #[test]
    fn retired_instruction_hooks_cover_every_bucket() {
        let fpu = Arc::new(FpuModel::new());
        Engine::with(fpu.clone(), || {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.5, BINARY16);
            let _ = a + b; // unit
            let _ = a / b; // emulated div
            let _ = a.lt(b); // cmp
        });
        let mid = fpu.stats();
        assert_eq!(mid.retired_fp_instructions(), 3);
        Engine::with(fpu.clone(), || {
            let a = Fx::new(2.0, BINARY8);
            let _ = a.sqrt(); // emulated sqrt
            let _ = a * a; // unit
        });
        let end = fpu.stats();
        assert_eq!(end.retired_fp_instructions(), 5);
        let delta = end.delta_since(&mid);
        assert_eq!(delta.retired_fp_instructions(), 2);
        assert_eq!(delta.emulated_sqrt, 1);
        assert_eq!(delta.fpu.instructions, 1);
        assert_eq!(delta.emulated_div, 0);
        // binary8 arithmetic is single-cycle.
        assert_eq!(delta.fpu.total_latency, 1);
    }

    #[test]
    fn feq_counts_as_a_comparison() {
        use flexfloat::backend::FpBackend;
        let fpu = FpuModel::new();
        assert!(fpu.eq(BINARY16, 1.5, 1.5));
        assert!(!fpu.eq(BINARY16, 1.5, 0.5));
        assert!(!fpu.eq(BINARY16, f64::NAN, f64::NAN), "quiet: NaN != NaN");
        assert!(fpu.eq(BINARY16, 0.0, -0.0), "-0 == +0");
        assert_eq!(fpu.stats().cmp_ops, 4);
    }

    type SinkRow = (&'static str, &'static str, &'static str, u64, f64);

    #[derive(Debug, Default)]
    struct TestSink {
        rows: Mutex<Vec<SinkRow>>,
    }

    impl AttributionSink for TestSink {
        fn record(
            &self,
            class: &'static str,
            from: &'static str,
            to: &'static str,
            cycles: u64,
            energy_pj: f64,
        ) {
            self.rows
                .lock()
                .unwrap()
                .push((class, from, to, cycles, energy_pj));
        }
    }

    #[test]
    fn sink_sees_every_op_exactly_once_and_totals_reconcile() {
        let sink = Arc::new(TestSink::default());
        let fpu = Arc::new(FpuModel::with_sink(sink.clone()));
        let odd = FpFormat::new(6, 5).unwrap();
        Engine::with(fpu.clone(), || {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.5, BINARY16);
            let _ = a + b;
            let _ = a - b;
            let _ = a * b;
            let _ = a / b;
            let _ = a.sqrt();
            let _ = a.min(b);
            let _ = a.lt(b);
            let _ = a.to(BINARY8);
            let (c, d) = (Fx::new(1.3, odd), Fx::new(0.7, odd));
            let _ = c * d;
        });
        let s = fpu.stats();
        let rows = sink.rows.lock().unwrap();
        assert_eq!(rows.len() as u64, s.retired_fp_instructions());
        let unit_classes = ["add", "sub", "mul", "convert"];
        let unit: Vec<_> = rows
            .iter()
            .filter(|(c, ..)| unit_classes.contains(c))
            .collect();
        assert_eq!(unit.len() as u64, s.fpu.instructions);
        assert_eq!(
            unit.iter().map(|(.., cy, _)| cy).sum::<u64>(),
            s.fpu.total_latency
        );
        // Exact, not approximate: dyadic-quantized energies sum exactly.
        assert_eq!(
            unit.iter().map(|(.., e)| e).sum::<f64>(),
            s.fpu.total_energy_pj
        );
        let count = |class: &str| rows.iter().filter(|(c, ..)| *c == class).count() as u64;
        assert_eq!(count("div_emulated"), s.emulated_div);
        assert_eq!(count("sqrt_emulated"), s.emulated_sqrt);
        assert_eq!(count("cmp"), s.cmp_ops);
        assert_eq!(count("off_grid"), s.off_grid_ops);
        // Non-unit classes carry no hardware charge.
        for (c, _, _, cy, e) in rows.iter() {
            if !unit_classes.contains(c) {
                assert_eq!((*cy, *e), (0, 0.0), "{c}");
            }
        }
        // Conversion rows carry the format pair.
        let conv = rows.iter().find(|(c, ..)| *c == "convert").unwrap();
        assert_eq!((conv.1, conv.2), ("binary16", "binary8"));
        // The summary account matches field-by-field.
        let account = s.energy_account();
        assert_eq!(account.total_ops(), s.retired_fp_instructions());
        assert_eq!(account.unit_energy_pj, s.fpu.total_energy_pj);
    }

    #[test]
    fn off_grid_formats_fall_back_bit_exactly() {
        let fpu = Arc::new(FpuModel::new());
        let odd = FpFormat::new(6, 5).unwrap();
        let plain = {
            let (a, b) = (Fx::new(1.3, odd), Fx::new(0.7, odd));
            (a * b).value()
        };
        let measured = Engine::with(fpu.clone(), || {
            let (a, b) = (Fx::new(1.3, odd), Fx::new(0.7, odd));
            (a * b).value()
        });
        assert_eq!(plain, measured);
        let s = fpu.stats();
        assert_eq!(s.off_grid_ops, 1);
        assert_eq!(s.fpu.instructions, 0);
    }

    /// A fixed mix touching every bucket class: unit arithmetic and
    /// conversions, div, sqrt, fma, comparisons and an off-grid format.
    fn op_mix() {
        let odd = FpFormat::new(6, 5).unwrap();
        for i in 0..200 {
            let x = 1.0 + f64::from(i) / 64.0;
            let (a, b) = (Fx::new(x, BINARY16), Fx::new(0.5, BINARY16));
            let _ = a + b;
            let _ = a - b;
            let _ = a * b;
            let _ = a / b;
            let _ = a.sqrt();
            let h = flexfloat::Binary16::new(x);
            let _ = h.mul_add(h, h);
            let _ = a.min(b);
            let _ = a.lt(b);
            let c = a.to(BINARY8);
            let _ = c * c;
            let _ = c.to(BINARY32) + Fx::new(x, BINARY32);
            let (d, e) = (Fx::new(x, odd), Fx::new(0.7, odd));
            let _ = d * e;
        }
    }

    #[test]
    fn shared_model_loses_no_updates_across_threads() {
        let single = Arc::new(FpuModel::new());
        Engine::with(single.clone(), op_mix);
        let one = single.stats();
        assert!(one.fpu.instructions > 0 && one.emulated_div > 0 && one.emulated_fma > 0);
        assert!(one.emulated_sqrt > 0 && one.cmp_ops > 0 && one.off_grid_ops > 0);

        let shared = Arc::new(FpuModel::new());
        // All four start together, so their increments interleave.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let fpu = shared.clone();
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    Engine::with(fpu, op_mix);
                });
            }
        });
        let four = shared.stats();
        assert_eq!(
            four,
            MeasuredStats {
                fpu: FpuStats {
                    instructions: 4 * one.fpu.instructions,
                    total_latency: 4 * one.fpu.total_latency,
                    // Exact: grid energies scale and sum without rounding.
                    total_energy_pj: 4.0 * one.fpu.total_energy_pj,
                },
                emulated_div: 4 * one.emulated_div,
                emulated_sqrt: 4 * one.emulated_sqrt,
                emulated_fma: 4 * one.emulated_fma,
                cmp_ops: 4 * one.cmp_ops,
                off_grid_ops: 4 * one.off_grid_ops,
            }
        );
    }

    #[test]
    fn per_op_charges_match_the_unit() {
        let modes = operation_modes(&crate::EnergyTable::paper());
        let fpu = FpuModel::new();
        let mut unit = SmallFloatUnit::new();
        let charged = |issue: &crate::Issue, run: &dyn Fn()| {
            let before = fpu.stats();
            run();
            let delta = fpu.stats().delta_since(&before);
            assert_eq!(delta.retired_fp_instructions(), 1);
            assert_eq!(delta.fpu.instructions, 1);
            assert_eq!(delta.fpu.total_latency, u64::from(issue.latency));
            assert_eq!(delta.fpu.total_energy_pj, issue.energy_pj);
        };
        let mode = |op: FpuOp| {
            let row = modes.iter().find(|r| r.op == op && !r.vector).unwrap();
            (row.latency, row.energy_pj)
        };
        for kind in ALL_KINDS {
            let f = kind.format();
            for (op, bin) in [
                (ArithOp::Add, BinOp::Add),
                (ArithOp::Sub, BinOp::Sub),
                (ArithOp::Mul, BinOp::Mul),
            ] {
                let issue = unit.scalar(op, kind, 0, 0);
                charged(&issue, &|| {
                    fpu.bin_op(f, bin, 1.5, 0.5);
                });
                assert_eq!(
                    mode(FpuOp::Arith(op, kind)),
                    (issue.latency, issue.energy_pj)
                );
            }
            // `from == to` included: `cast` can receive it.
            for to in ALL_KINDS {
                let issue = unit.convert(kind, to, 0);
                charged(&issue, &|| {
                    fpu.cast(f, to.format(), 1.5);
                });
                if kind != to {
                    assert_eq!(
                        mode(FpuOp::CvtFF { from: kind, to }),
                        (issue.latency, issue.energy_pj)
                    );
                }
            }
        }
    }
}
