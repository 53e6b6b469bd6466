//! Bench-smoke trajectory snapshot: regenerates `BENCH_<pr>.json`.
//!
//! Runs the live-vs-replay tuning wall-clock matrix (see
//! `tp_bench::trajectory`) over the full kernel registry plus the
//! paper-claims suite evaluation, prints the markdown table CI appends to
//! the job summary, and writes the JSON snapshot. Under `TP_METRICS=prom`
//! it ends with a Prometheus metrics snapshot of the whole run
//! (`tp_bench::maybe_emit_metrics`).
//!
//! The decision-identity assertions live *inside* the measurement
//! (`measure_kernel` panics on any format or evaluation-count drift
//! between the modes), so a run that completes is itself the proof that
//! replay changed no decision — CI fails otherwise.
//!
//! Usage: `exp_bench_trajectory [--pr N] [--out PATH]`
//! (defaults: `--pr 10`, `--out BENCH_<pr>.json` in the current directory).

use tp_bench::trajectory::{
    markdown_table, measure_suite, paper_claims, straight_line_mean, to_json,
};

/// Parses `--flag value` out of the raw argument list; panics on a flag
/// with no value (fail fast, same contract as the env knobs).
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pr: u32 = arg_value(&args, "--pr").map_or(10, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--pr {v:?} is not a PR number"))
    });
    let out = arg_value(&args, "--out").unwrap_or_else(|| format!("BENCH_{pr}.json"));

    let threshold = 1e-3;
    let claims_threshold = 1e-1;
    println!("bench trajectory (PR {pr}): live vs replay tuning wall-clock");
    println!("config: {}", tp_bench::env::config());
    println!();

    let rows = measure_suite(threshold);
    print!("{}", markdown_table(&rows));
    println!();

    let mean = straight_line_mean(&rows);
    println!("straight-line mean replay/live: {mean:.2}x");

    let claims = paper_claims(claims_threshold);
    let json = to_json(pr, threshold, &rows, claims_threshold, &claims);
    std::fs::write(&out, json.as_bytes()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    tp_bench::maybe_emit_metrics();
}
