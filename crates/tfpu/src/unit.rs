//! The `SmallFloatUnit`: dispatch, SIMD execution, and accounting.

use tp_formats::{FormatKind, RoundingMode};
use tp_softfloat::ops;

use crate::energy::EnergyTable;
use crate::op::{ArithOp, FpuOp};
use crate::slices::{SliceActivity, SliceKind};

/// Outcome of one issued FPU instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Issue {
    /// Result lanes (one element for scalar operations).
    pub lanes: Vec<u64>,
    /// Latency in cycles until the result is available.
    pub latency: u32,
    /// Dynamic energy of the instruction, in pJ.
    pub energy_pj: f64,
    /// Which slices toggled (everything else was operand-silenced).
    pub activity: SliceActivity,
}

/// Cumulative execution statistics of a unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FpuStats {
    /// Instructions issued.
    pub instructions: u64,
    /// Sum of result latencies (NOT wall-clock: the unit is pipelined at
    /// one instruction per cycle).
    pub total_latency: u64,
    /// Total dynamic energy, in pJ.
    pub total_energy_pj: f64,
}

/// Functional + timing + energy model of the transprecision FPU of
/// Section IV (Fig. 3): a 32-bit slice, two 16-bit slices and four 8-bit
/// slices behind shared operand-distribution and output-selection networks.
///
/// Arithmetic is executed bit-accurately through the `tp-softfloat`
/// datapaths (standing in for the Synopsys DesignWare blocks of the paper);
/// latency and energy come from the slice model and the [`EnergyTable`].
///
/// ```
/// use tp_formats::{FormatKind, RoundingMode, BINARY8};
/// use tp_fpu::{ArithOp, SmallFloatUnit};
///
/// let mut fpu = SmallFloatUnit::new();
/// let a = BINARY8.round_from_f64(1.5, RoundingMode::default()).bits;
/// let b = BINARY8.round_from_f64(0.25, RoundingMode::default()).bits;
/// let issue = fpu.scalar(ArithOp::Add, FormatKind::Binary8, a, b);
/// assert_eq!(BINARY8.decode_to_f64(issue.lanes[0]), 1.75);
/// assert_eq!(issue.latency, 1); // binary8 arithmetic is single-cycle
/// ```
#[derive(Debug, Clone, Default)]
pub struct SmallFloatUnit {
    energy: EnergyTable,
    stats: FpuStats,
}

impl SmallFloatUnit {
    /// A unit with the default (paper-calibrated) energy table.
    #[must_use]
    pub fn new() -> Self {
        SmallFloatUnit {
            energy: EnergyTable::paper(),
            stats: FpuStats::default(),
        }
    }

    /// A unit with a custom energy table.
    #[must_use]
    pub fn with_energy(energy: EnergyTable) -> Self {
        SmallFloatUnit {
            energy,
            stats: FpuStats::default(),
        }
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> FpuStats {
        self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset(&mut self) {
        self.stats = FpuStats::default();
    }

    /// The energy table in use.
    #[must_use]
    pub fn energy_table(&self) -> &EnergyTable {
        &self.energy
    }

    fn account(&mut self, latency: u32, energy: f64) {
        self.stats.instructions += 1;
        self.stats.total_latency += u64::from(latency);
        self.stats.total_energy_pj += energy;
    }

    /// Issues a scalar arithmetic operation. Only the hosting slice is
    /// active; all others are operand-silenced.
    pub fn scalar(&mut self, op: ArithOp, fmt: FormatKind, a: u64, b: u64) -> Issue {
        let f = fmt.format();
        let bits = match op {
            ArithOp::Add => ops::add(f, a, b, RoundingMode::NearestEven),
            ArithOp::Sub => ops::sub(f, a, b, RoundingMode::NearestEven),
            ArithOp::Mul => ops::mul(f, a, b, RoundingMode::NearestEven),
        };
        let (latency, energy) = scalar_charge(&self.energy, op, fmt);
        self.account(latency, energy);
        Issue {
            lanes: vec![bits],
            latency,
            energy_pj: energy,
            activity: SliceActivity::scalar(fmt),
        }
    }

    /// Issues a vector (sub-word SIMD) arithmetic operation across all
    /// replicas of the hosting slice: 2×16-bit or 4×8-bit lanes.
    ///
    /// # Panics
    ///
    /// Panics unless `a` and `b` both have exactly
    /// [`FormatKind::simd_lanes`] elements (32-bit formats have a single
    /// lane; issue them as scalars instead).
    pub fn vector(&mut self, op: ArithOp, fmt: FormatKind, a: &[u64], b: &[u64]) -> Issue {
        let lanes = fmt.simd_lanes() as usize;
        assert!(lanes > 1, "{fmt} has no sub-word lanes; use `scalar`");
        assert_eq!(a.len(), lanes, "operand A lane count");
        assert_eq!(b.len(), lanes, "operand B lane count");
        let f = fmt.format();
        let out: Vec<u64> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| match op {
                ArithOp::Add => ops::add(f, x, y, RoundingMode::NearestEven),
                ArithOp::Sub => ops::sub(f, x, y, RoundingMode::NearestEven),
                ArithOp::Mul => ops::mul(f, x, y, RoundingMode::NearestEven),
            })
            .collect();
        let latency = SliceKind::hosting(fmt).arith_latency();
        let energy = self.energy.vector_arith(op, fmt);
        self.account(latency, energy);
        Issue {
            lanes: out,
            latency,
            energy_pj: energy,
            activity: SliceActivity::vector(fmt),
        }
    }

    /// Issues an FP → FP conversion (one cycle).
    pub fn convert(&mut self, from: FormatKind, to: FormatKind, bits: u64) -> Issue {
        let out = ops::convert(from.format(), to.format(), bits, RoundingMode::NearestEven);
        let (latency, energy) = convert_charge(&self.energy, from, to);
        self.account(latency, energy);
        // Conversions ride the wider of the two slices.
        let host = if from.width_bits() >= to.width_bits() {
            from
        } else {
            to
        };
        Issue {
            lanes: vec![out],
            latency,
            energy_pj: energy,
            activity: SliceActivity::scalar(host),
        }
    }

    /// Issues an FP → int32 conversion (one cycle, RNE).
    pub fn to_int(&mut self, fmt: FormatKind, bits: u64) -> (i32, Issue) {
        let v = ops::to_i32(fmt.format(), bits, RoundingMode::NearestEven);
        let latency = SliceKind::conversion_latency();
        let energy = self.energy.conversion(fmt.width_bits(), 32);
        self.account(latency, energy);
        (
            v,
            Issue {
                lanes: vec![v as u32 as u64],
                latency,
                energy_pj: energy,
                activity: SliceActivity::scalar(fmt),
            },
        )
    }

    /// Issues an int32 → FP conversion (one cycle, RNE).
    pub fn from_int(&mut self, fmt: FormatKind, v: i32) -> Issue {
        let out = ops::from_i32(fmt.format(), v, RoundingMode::NearestEven);
        let latency = SliceKind::conversion_latency();
        let energy = self.energy.conversion(32, fmt.width_bits());
        self.account(latency, energy);
        Issue {
            lanes: vec![out],
            latency,
            energy_pj: energy,
            activity: SliceActivity::scalar(fmt),
        }
    }

    /// Issues an FP16/FP16alt → int16 conversion (the Fig. 3 narrow
    /// conversion block on the 16-bit slices; one cycle, RNE).
    pub fn to_int16(&mut self, fmt: FormatKind, bits: u64) -> (i16, Issue) {
        let v = ops::to_i16(fmt.format(), bits, RoundingMode::NearestEven);
        let latency = SliceKind::conversion_latency();
        let energy = self.energy.conversion(fmt.width_bits(), 16);
        self.account(latency, energy);
        (
            v,
            Issue {
                lanes: vec![v as u16 as u64],
                latency,
                energy_pj: energy,
                activity: SliceActivity::scalar(fmt),
            },
        )
    }

    /// Issues an int16 → FP conversion (one cycle, RNE).
    pub fn from_int16(&mut self, fmt: FormatKind, v: i16) -> Issue {
        let out = ops::from_i16(fmt.format(), v, RoundingMode::NearestEven);
        let latency = SliceKind::conversion_latency();
        let energy = self.energy.conversion(16, fmt.width_bits());
        self.account(latency, energy);
        Issue {
            lanes: vec![out],
            latency,
            energy_pj: energy,
            activity: SliceActivity::scalar(fmt),
        }
    }

    /// Issues an FP8 → int8 conversion (the Fig. 3 block on the 8-bit
    /// slices; one cycle, RNE).
    pub fn to_int8(&mut self, fmt: FormatKind, bits: u64) -> (i8, Issue) {
        let v = ops::to_i8(fmt.format(), bits, RoundingMode::NearestEven);
        let latency = SliceKind::conversion_latency();
        let energy = self.energy.conversion(fmt.width_bits(), 8);
        self.account(latency, energy);
        (
            v,
            Issue {
                lanes: vec![v as u8 as u64],
                latency,
                energy_pj: energy,
                activity: SliceActivity::scalar(fmt),
            },
        )
    }

    /// Issues an int8 → FP conversion (one cycle, RNE).
    pub fn from_int8(&mut self, fmt: FormatKind, v: i8) -> Issue {
        let out = ops::from_i8(fmt.format(), v, RoundingMode::NearestEven);
        let latency = SliceKind::conversion_latency();
        let energy = self.energy.conversion(8, fmt.width_bits());
        self.account(latency, energy);
        Issue {
            lanes: vec![out],
            latency,
            energy_pj: energy,
            activity: SliceActivity::scalar(fmt),
        }
    }
}

/// Latency (cycles) and energy (pJ) of one scalar arithmetic issue: the
/// charge [`SmallFloatUnit::scalar`], [`operation_modes`] and the
/// `FpuModel` backend's charge table all read.
pub(crate) fn scalar_charge(energy: &EnergyTable, op: ArithOp, fmt: FormatKind) -> (u32, f64) {
    (
        SliceKind::hosting(fmt).arith_latency(),
        energy.scalar_arith(op, fmt),
    )
}

/// Latency (cycles) and energy (pJ) of one FP → FP conversion issue: the
/// charge [`SmallFloatUnit::convert`], [`operation_modes`] and the
/// `FpuModel` backend's charge table all read.
pub(crate) fn convert_charge(energy: &EnergyTable, from: FormatKind, to: FormatKind) -> (u32, f64) {
    (
        SliceKind::conversion_latency(),
        energy.conversion(from.width_bits(), to.width_bits()),
    )
}

/// One row of the modes-of-operation report (experiment E8): latency,
/// throughput and energy for an operation in a given execution mode.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// The operation.
    pub op: FpuOp,
    /// `true` for the SIMD mode (all replicas active).
    pub vector: bool,
    /// Elements produced per issue.
    pub lanes: u32,
    /// Result latency in cycles.
    pub latency: u32,
    /// Energy per issue, in pJ.
    pub energy_pj: f64,
    /// Energy per element, in pJ.
    pub energy_per_element_pj: f64,
}

/// Enumerates every mode of operation of the unit with its latency and
/// energy — the data behind the paper's FPU characterization (Section V-A:
/// "energy costs of FP operations were obtained through simulation of the
/// post-layout design in all modes of operation").
#[must_use]
pub fn operation_modes(energy: &EnergyTable) -> Vec<ModeRow> {
    use tp_formats::ALL_KINDS;
    let mut rows = Vec::new();
    for &fmt in &ALL_KINDS {
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul] {
            let (latency, e) = scalar_charge(energy, op, fmt);
            rows.push(ModeRow {
                op: FpuOp::Arith(op, fmt),
                vector: false,
                lanes: 1,
                latency,
                energy_pj: e,
                energy_per_element_pj: e,
            });
            if fmt.simd_lanes() > 1 {
                let ev = energy.vector_arith(op, fmt);
                rows.push(ModeRow {
                    op: FpuOp::Arith(op, fmt),
                    vector: true,
                    lanes: fmt.simd_lanes(),
                    latency,
                    energy_pj: ev,
                    energy_per_element_pj: ev / f64::from(fmt.simd_lanes()),
                });
            }
        }
    }
    // Conversions: FP<->FP pairs and FP<->int32.
    for &from in &ALL_KINDS {
        for &to in &ALL_KINDS {
            if from != to {
                let (latency, e) = convert_charge(energy, from, to);
                rows.push(ModeRow {
                    op: FpuOp::CvtFF { from, to },
                    vector: false,
                    lanes: 1,
                    latency,
                    energy_pj: e,
                    energy_per_element_pj: e,
                });
            }
        }
        rows.push(ModeRow {
            op: FpuOp::CvtFI(from),
            vector: false,
            lanes: 1,
            latency: SliceKind::conversion_latency(),
            energy_pj: energy.conversion(from.width_bits(), 32),
            energy_per_element_pj: energy.conversion(from.width_bits(), 32),
        });
        rows.push(ModeRow {
            op: FpuOp::CvtIF(from),
            vector: false,
            lanes: 1,
            latency: SliceKind::conversion_latency(),
            energy_pj: energy.conversion(32, from.width_bits()),
            energy_per_element_pj: energy.conversion(32, from.width_bits()),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32, BINARY8};
    use FormatKind::{Binary16, Binary32, Binary8};

    fn enc8(x: f64) -> u64 {
        BINARY8.round_from_f64(x, RoundingMode::NearestEven).bits
    }

    #[test]
    fn scalar_arithmetic_is_bit_accurate() {
        let mut fpu = SmallFloatUnit::new();
        let r = fpu.scalar(ArithOp::Mul, Binary8, enc8(1.5), enc8(2.0));
        assert_eq!(BINARY8.decode_to_f64(r.lanes[0]), 3.0);
        let a = BINARY32.round_from_f64(0.1, RoundingMode::NearestEven).bits;
        let b = BINARY32.round_from_f64(0.2, RoundingMode::NearestEven).bits;
        let r = fpu.scalar(ArithOp::Add, Binary32, a, b);
        assert_eq!(r.lanes[0], ((0.1f32 + 0.2f32).to_bits()) as u64);
    }

    #[test]
    fn latencies_per_mode() {
        let mut fpu = SmallFloatUnit::new();
        assert_eq!(fpu.scalar(ArithOp::Add, Binary32, 0, 0).latency, 2);
        assert_eq!(fpu.scalar(ArithOp::Add, Binary16, 0, 0).latency, 2);
        assert_eq!(fpu.scalar(ArithOp::Add, Binary8, 0, 0).latency, 1);
        assert_eq!(fpu.convert(Binary32, Binary8, 0).latency, 1);
        assert_eq!(fpu.from_int(Binary16, 5).latency, 1);
    }

    #[test]
    fn vector_executes_all_lanes() {
        let mut fpu = SmallFloatUnit::new();
        let a: Vec<u64> = [1.0, 2.0, 3.0, 4.0].iter().map(|&x| enc8(x)).collect();
        let b: Vec<u64> = [0.5, 0.5, 0.5, 0.5].iter().map(|&x| enc8(x)).collect();
        let r = fpu.vector(ArithOp::Mul, Binary8, &a, &b);
        let vals: Vec<f64> = r.lanes.iter().map(|&x| BINARY8.decode_to_f64(x)).collect();
        assert_eq!(vals, vec![0.5, 1.0, 1.5, 2.0]);
        assert_eq!(r.activity.slice8, 4);
        // Vector op is cheaper than the 4 scalars it replaces.
        let scalar_e = fpu.energy_table().scalar_arith(ArithOp::Mul, Binary8);
        assert!(r.energy_pj < 4.0 * scalar_e);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn vector_lane_mismatch_panics() {
        let mut fpu = SmallFloatUnit::new();
        let _ = fpu.vector(ArithOp::Add, Binary16, &[0, 0], &[0]);
    }

    #[test]
    #[should_panic(expected = "no sub-word lanes")]
    fn vector_binary32_panics() {
        let mut fpu = SmallFloatUnit::new();
        let _ = fpu.vector(ArithOp::Add, Binary32, &[0], &[0]);
    }

    #[test]
    fn conversions_round_correctly() {
        let mut fpu = SmallFloatUnit::new();
        let wide = BINARY32
            .round_from_f64(std::f64::consts::PI, RoundingMode::NearestEven)
            .bits;
        let narrow = fpu.convert(Binary32, Binary8, wide);
        assert_eq!(BINARY8.decode_to_f64(narrow.lanes[0]), 3.0);
        let (i, _) = fpu.to_int(
            Binary16,
            BINARY16
                .round_from_f64(42.6, RoundingMode::NearestEven)
                .bits,
        );
        assert_eq!(i, 43);
        let f = fpu.from_int(Binary8, 300);
        assert_eq!(BINARY8.decode_to_f64(f.lanes[0]), 320.0);
    }

    #[test]
    fn narrow_int_conversion_blocks() {
        let mut fpu = SmallFloatUnit::new();
        let h = BINARY16
            .round_from_f64(1234.4, RoundingMode::NearestEven)
            .bits;
        let (v, issue) = fpu.to_int16(Binary16, h);
        assert_eq!(v, 1234);
        assert_eq!(issue.latency, 1);
        assert_eq!(issue.activity.slice16, 1);
        let back = fpu.from_int16(Binary16, 1234);
        assert_eq!(BINARY16.decode_to_f64(back.lanes[0]), 1234.0);

        let b = BINARY8.round_from_f64(96.0, RoundingMode::NearestEven).bits;
        let (v, issue) = fpu.to_int8(Binary8, b);
        assert_eq!(v, 96);
        assert_eq!(issue.activity.slice8, 1);
        let big = BINARY8
            .round_from_f64(500.0, RoundingMode::NearestEven)
            .bits;
        assert_eq!(fpu.to_int8(Binary8, big).0, i8::MAX); // saturates
        let back = fpu.from_int8(Binary8, -96);
        assert_eq!(BINARY8.decode_to_f64(back.lanes[0]), -96.0);
        // Narrow conversions are cheaper than 32-bit-wide ones.
        let narrow = fpu.energy_table().conversion(8, 8);
        let wide = fpu.energy_table().conversion(32, 8);
        assert!(narrow < wide);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut fpu = SmallFloatUnit::new();
        let _ = fpu.scalar(ArithOp::Add, Binary8, 0, 0);
        let _ = fpu.convert(Binary8, Binary16, 0);
        let s = fpu.stats();
        assert_eq!(s.instructions, 2);
        assert_eq!(s.total_latency, 2); // 1 + 1
        assert!(s.total_energy_pj > 0.0);
        fpu.reset();
        assert_eq!(fpu.stats(), FpuStats::default());
    }

    #[test]
    fn operand_silencing_leaves_other_slices_idle() {
        let mut fpu = SmallFloatUnit::new();
        let r = fpu.scalar(ArithOp::Add, Binary16, 0, 0);
        assert_eq!(r.activity.slice32, 0);
        assert_eq!(r.activity.slice16, 1);
        assert_eq!(r.activity.slice8, 0);
    }

    #[test]
    fn modes_table_is_complete() {
        let rows = operation_modes(&EnergyTable::paper());
        // 4 formats * 3 arith scalar + 3 formats * 3 vector = 12 + 9 = 21.
        let arith = rows
            .iter()
            .filter(|r| matches!(r.op, FpuOp::Arith(..)))
            .count();
        assert_eq!(arith, 21);
        // 12 FP->FP pairs + 4 F2I + 4 I2F = 20 conversions.
        let cvt = rows
            .iter()
            .filter(|r| !matches!(r.op, FpuOp::Arith(..)))
            .count();
        assert_eq!(cvt, 20);
        // Every vector row beats its scalar sibling per element.
        for v in rows.iter().filter(|r| r.vector) {
            let s = rows
                .iter()
                .find(|r| r.op == v.op && !r.vector)
                .expect("scalar sibling exists");
            assert!(
                v.energy_per_element_pj < s.energy_per_element_pj,
                "{}",
                v.op
            );
        }
    }
}
