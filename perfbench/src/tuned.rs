//! Kernels with their tuning results, shared by every workload's set-up,
//! output checks, energy ratio and layer probes.

use std::sync::Arc;

use flexfloat::{Recorder, TypeConfig};
use tp_bench::MEASURE_SET;
use tp_fpu::FpuModel;
use tp_store::TuningRecord;
use tp_tuner::{
    distributed_search, relative_rms_error, validated_storage_config, SearchParams, Tunable,
    TunerMode, TuningOutcome,
};

use crate::spans::timed;

/// A kernel, its tuning outcome and the validated storage config.
pub struct Tuned {
    pub app: Box<dyn Tunable>,
    pub outcome: TuningOutcome,
    pub storage: TypeConfig,
}

/// The search every workload runs: the paper's parameters at `threshold`,
/// auto worker count, batched replay. Mode and batching are pinned rather
/// than read from the environment, so the benchmark measures the same
/// configuration wherever it runs.
#[must_use]
pub fn params(threshold: f64) -> SearchParams {
    SearchParams::paper(threshold)
        .with_workers(0)
        .with_mode(TunerMode::Replay)
        .with_batch(true)
}

/// Resolves `spec` in the default kernel registry.
///
/// # Panics
///
/// On a spec the registry does not know: the workload tables name only
/// registered kernels.
#[must_use]
pub fn kernel(spec: &str) -> Box<dyn Tunable> {
    tp_kernels::registry()
        .resolve(spec)
        .unwrap_or_else(|| panic!("kernel {spec:?} is registered"))
}

/// Tunes `app` at `threshold` and validates its storage config.
#[must_use]
pub fn tune(app: Box<dyn Tunable>, threshold: f64) -> Tuned {
    let p = params(threshold);
    let outcome = timed("tuner", "tuner.distributed_search", || {
        distributed_search(app.as_ref(), p)
    });
    let storage = validated_storage_config(app.as_ref(), &outcome, p.type_system, p.input_sets);
    Tuned {
        app,
        outcome,
        storage,
    }
}

impl Tuned {
    /// The tuning's output check: the tuned config meets its threshold on
    /// every input set when the kernel runs live.
    #[must_use]
    pub fn meets_threshold(&self) -> bool {
        let config = self.outcome.eval_config();
        (0..params(self.outcome.threshold).input_sets).all(|set| {
            let reference = self.app.reference(set);
            let out = self.app.run(&config, set);
            relative_rms_error(&reference, &out) <= self.outcome.threshold
        })
    }

    /// The persistable record of this tuning (the shape `tp-store` keeps).
    #[must_use]
    pub fn record(&self) -> TuningRecord {
        let counts = |cfg: &TypeConfig| Recorder::scoped(|| self.app.run(cfg, MEASURE_SET)).1;
        TuningRecord {
            outcome: self.outcome.clone(),
            storage: self.storage.clone(),
            baseline_counts: counts(&TypeConfig::baseline()),
            tuned_counts: counts(&self.storage),
        }
    }
}

/// The bit patterns of `values`, for bit-identity checks.
#[must_use]
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One kernel run on a fresh `FpuModel`.
#[derive(Debug, Clone, PartialEq)]
pub struct FpuRun {
    /// Output bit patterns.
    pub outputs: Vec<u64>,
    pub instructions: u64,
    pub cycles: u64,
    pub energy_pj: f64,
}

/// Runs `app` under `config` on the measurement input set on a fresh
/// `FpuModel`.
#[must_use]
pub fn fpu_run(app: &dyn Tunable, config: &TypeConfig) -> FpuRun {
    let fpu = Arc::new(FpuModel::new());
    let outputs = timed("tfpu", "tfpu.run_on", || {
        app.run_on(fpu.clone(), config, MEASURE_SET)
    });
    let stats = fpu.stats();
    FpuRun {
        outputs: bits(&outputs),
        instructions: stats.retired_fp_instructions(),
        cycles: stats.fpu.total_latency,
        energy_pj: stats.fpu.total_energy_pj,
    }
}

/// Tuned over binary32 `FpuModel` energy, summed over `tuned`.
#[must_use]
pub fn energy_ratio(tuned: &[Tuned]) -> f64 {
    let (mut tuned_pj, mut baseline_pj) = (0.0, 0.0);
    for t in tuned {
        tuned_pj += fpu_run(t.app.as_ref(), &t.storage).energy_pj;
        baseline_pj += fpu_run(t.app.as_ref(), &TypeConfig::baseline()).energy_pj;
    }
    tuned_pj / baseline_pj
}
