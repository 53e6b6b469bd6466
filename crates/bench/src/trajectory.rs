//! The tracked perf trajectory: live vs replay tuning wall-clock,
//! snapshotted per PR as `BENCH_<pr>.json`.
//!
//! Two measurements per kernel, which must choose **bit-identical
//! formats** (and spend the same number of evaluations — a non-divergent
//! replay serves the very verdict the live run would have):
//!
//! * **live** — [`TunerMode::Live`], every candidate re-runs the kernel;
//! * **replay** — [`TunerMode::Replay`], every candidate is a tape replay
//!   (or a verdict memo hit), with live fallback on divergence.
//!
//! [`measure_kernel`] *asserts* the identity rather than reporting it, so
//! the bench-smoke CI step fails hard if replay ever drifts a decision.
//! The numbers land in a JSON snapshot ([`to_json`]) committed to the repo
//! root per PR, making the speed trajectory diffable across the PR stack.

use std::time::Instant;

use tp_kernels::all_kernels;
use tp_platform::PlatformParams;
use tp_store::json::Value;
use tp_tuner::{distributed_search, SearchParams, Tunable, TunerMode, TuningOutcome};

/// Straight-line kernels (zero recorded comparisons — no candidate ever
/// diverges, every evaluation is served from the tape). These are the
/// kernels the replay acceptance gates bind on.
pub const STRAIGHT_LINE: [&str; 6] = ["CONV", "DWT", "JACOBI", "GEMM", "FFT", "MLP"];

/// One kernel's live/replay wall-clock row.
#[derive(Debug, Clone)]
pub struct KernelTrajectory {
    /// Kernel name.
    pub app: String,
    /// Best-of-two live tuning wall-clock, milliseconds.
    pub live_ms: f64,
    /// Best-of-two replay-mode tuning wall-clock, milliseconds.
    pub replay_ms: f64,
    /// Candidate evaluations served from a tape.
    pub replayed: u64,
    /// Candidate evaluations that hit the divergence guard.
    pub diverged: u64,
    /// Share of replay attempts that fell back to live execution.
    pub fallback_rate: f64,
}

impl KernelTrajectory {
    /// Replay wall-clock relative to live.
    #[must_use]
    pub fn replay_ratio(&self) -> f64 {
        self.replay_ms / self.live_ms
    }

    /// `true` when this kernel is in the [`STRAIGHT_LINE`] gate set.
    #[must_use]
    pub fn is_straight_line(&self) -> bool {
        STRAIGHT_LINE.contains(&self.app.as_str())
    }
}

/// Best-of-two timing: the second run measures against warm allocators and
/// the minimum suppresses scheduler noise — both runs produce identical
/// outcomes (the search is deterministic), so taking the min is sound.
fn tune(app: &dyn Tunable, params: SearchParams) -> (TuningOutcome, f64) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..2 {
        let start = Instant::now();
        outcome = Some(distributed_search(app, params));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (outcome.expect("ran at least once"), best)
}

/// Measures one kernel's live / replay trajectory at `threshold`.
///
/// # Panics
///
/// If the two modes disagree on any chosen format or on the evaluation
/// count — decision drift in replay is a correctness bug, not a data
/// point, so the bench-smoke CI step fails instead of publishing the
/// number.
#[must_use]
pub fn measure_kernel(app: &dyn Tunable, threshold: f64) -> KernelTrajectory {
    let paper = || SearchParams::paper(threshold);
    let (live, live_ms) = tune(app, paper().with_mode(TunerMode::Live));
    let (replay, replay_ms) = tune(app, paper().with_mode(TunerMode::Replay));

    for (a, b) in live.vars.iter().zip(&replay.vars) {
        assert_eq!(
            (a.precision_bits, a.needs_wide_range),
            (b.precision_bits, b.needs_wide_range),
            "{}/{}: replay changed a chosen format",
            live.app,
            a.spec.name
        );
    }
    assert_eq!(
        live.evaluations, replay.evaluations,
        "{}: replay changed the evaluation count",
        live.app
    );

    KernelTrajectory {
        app: live.app,
        live_ms,
        replay_ms,
        replayed: replay.replay.replayed,
        diverged: replay.replay.diverged,
        fallback_rate: replay.replay.fallback_rate(),
    }
}

/// [`measure_kernel`] over the whole registry, in registration order.
#[must_use]
pub fn measure_suite(threshold: f64) -> Vec<KernelTrajectory> {
    all_kernels()
        .iter()
        .map(|app| measure_kernel(app.as_ref(), threshold))
        .collect()
}

/// Mean replay/live ratio over the straight-line rows (`0.0` if none).
#[must_use]
pub fn straight_line_mean(rows: &[KernelTrajectory]) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.is_straight_line())
        .map(KernelTrajectory::replay_ratio)
        .collect();
    crate::mean(&ratios)
}

/// The per-kernel trajectory as a GitHub-flavored markdown table (the
/// bench-smoke step appends this to the job summary).
#[must_use]
pub fn markdown_table(rows: &[KernelTrajectory]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "| kernel | live ms | replay ms | replay/live | replayed | diverged | fallback |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} | {:.2}x | {} | {} | {:.1}% |",
            r.app,
            r.live_ms,
            r.replay_ms,
            r.replay_ratio(),
            r.replayed,
            r.diverged,
            r.fallback_rate * 100.0
        );
    }
    out
}

/// One kernel's paper-claims numbers at the loose threshold: the headline
/// quantities the paper's figures plot, pinned alongside the wall-clock so
/// the snapshot also tracks *what* the tuner decided, not just how fast.
#[derive(Debug, Clone)]
pub struct ClaimRow {
    /// Kernel name.
    pub app: String,
    /// Share of FP operations running in sub-32-bit formats after tuning.
    pub small_format_op_share: f64,
    /// Tuned memory accesses relative to the binary32 baseline.
    pub memory_ratio: f64,
    /// Tuned cycles relative to the binary32 baseline.
    pub cycle_ratio: f64,
    /// Tuned energy relative to the binary32 baseline.
    pub energy_ratio: f64,
}

/// Evaluates the suite at `threshold` on the paper platform model and
/// extracts the claims rows.
#[must_use]
pub fn paper_claims(threshold: f64) -> Vec<ClaimRow> {
    crate::evaluate_suite(threshold, &PlatformParams::paper())
        .iter()
        .map(|r| ClaimRow {
            app: r.app.clone(),
            small_format_op_share: r.tuned_counts.small_format_op_share(),
            memory_ratio: r.memory_ratio(),
            cycle_ratio: r.cycle_ratio(),
            energy_ratio: r.energy_ratio(),
        })
        .collect()
}

/// Renders the whole snapshot as the `BENCH_<pr>.json` document.
///
/// Schema (all `f64`s in the store's exact string rendering):
/// `{ pr, threshold, workers, backend, kernels: [ { app, live_ms,
/// replay_ms, replay_ratio, replayed, diverged, fallback_rate } ],
/// straight_line: { kernels, mean_replay_ratio }, paper_claims: { threshold, kernels: [ { app,
/// small_format_op_share, memory_ratio, cycle_ratio, energy_ratio } ],
/// best_small_format_op_share } }`.
#[must_use]
pub fn to_json(
    pr: u32,
    threshold: f64,
    rows: &[KernelTrajectory],
    claims_threshold: f64,
    claims: &[ClaimRow],
) -> String {
    let mean_ratio = straight_line_mean(rows);
    let best_share = claims
        .iter()
        .map(|c| c.small_format_op_share)
        .fold(0.0f64, f64::max);
    Value::obj()
        .field("pr", Value::Num(u64::from(pr)))
        .field("threshold", Value::f64(threshold))
        .field("workers", Value::Num(crate::effective_workers() as u64))
        .field(
            "backend",
            Value::Str(flexfloat::Engine::active_name().to_owned()),
        )
        .field(
            "kernels",
            Value::Arr(
                rows.iter()
                    .map(|r| {
                        Value::obj()
                            .field("app", Value::Str(r.app.clone()))
                            .field("live_ms", Value::f64(r.live_ms))
                            .field("replay_ms", Value::f64(r.replay_ms))
                            .field("replay_ratio", Value::f64(r.replay_ratio()))
                            .field("replayed", Value::Num(r.replayed))
                            .field("diverged", Value::Num(r.diverged))
                            .field("fallback_rate", Value::f64(r.fallback_rate))
                    })
                    .collect(),
            ),
        )
        .field(
            "straight_line",
            Value::obj()
                .field(
                    "kernels",
                    Value::Arr(
                        STRAIGHT_LINE
                            .iter()
                            .map(|k| Value::Str((*k).to_owned()))
                            .collect(),
                    ),
                )
                .field("mean_replay_ratio", Value::f64(mean_ratio)),
        )
        .field(
            "paper_claims",
            Value::obj()
                .field("threshold", Value::f64(claims_threshold))
                .field(
                    "kernels",
                    Value::Arr(
                        claims
                            .iter()
                            .map(|c| {
                                Value::obj()
                                    .field("app", Value::Str(c.app.clone()))
                                    .field(
                                        "small_format_op_share",
                                        Value::f64(c.small_format_op_share),
                                    )
                                    .field("memory_ratio", Value::f64(c.memory_ratio))
                                    .field("cycle_ratio", Value::f64(c.cycle_ratio))
                                    .field("energy_ratio", Value::f64(c.energy_ratio))
                            })
                            .collect(),
                    ),
                )
                .field("best_small_format_op_share", Value::f64(best_share)),
        )
        .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_kernels::Conv;

    /// The snapshot machinery end-to-end on one small kernel: the
    /// live/replay identity assertions inside [`measure_kernel`] hold, the
    /// JSON parses, and the gate fields are present.
    #[test]
    fn snapshot_round_trips_on_a_small_kernel() {
        let app = Conv::small();
        let row = measure_kernel(&app, 1e-1);
        assert_eq!(row.app, "CONV");
        assert!(row.live_ms > 0.0 && row.replay_ms > 0.0);
        assert_eq!(row.diverged, 0, "CONV is straight-line");
        assert!(row.is_straight_line());

        let claims = vec![ClaimRow {
            app: "CONV".to_owned(),
            small_format_op_share: 0.9,
            memory_ratio: 0.5,
            cycle_ratio: 0.8,
            energy_ratio: 0.6,
        }];
        let text = to_json(7, 1e-1, std::slice::from_ref(&row), 1e-1, &claims);
        let doc = Value::parse(&text).expect("snapshot JSON parses");
        assert_eq!(doc.get("pr").unwrap().as_num(), Some(7));
        let kernels = doc.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels[0].get("app").unwrap().as_str(), Some("CONV"));
        assert!(kernels[0].get("replay_ratio").unwrap().as_f64().is_some());
        let sl = doc.get("straight_line").unwrap();
        assert!(sl.get("mean_replay_ratio").unwrap().as_f64().is_some());
        let claims = doc.get("paper_claims").unwrap();
        assert_eq!(
            claims.get("best_small_format_op_share").unwrap().as_f64(),
            Some(0.9)
        );

        let table = markdown_table(std::slice::from_ref(&row));
        assert!(table.contains("| CONV |"), "{table}");
        assert!(table.lines().count() == 3, "{table}");
    }
}
