//! Per-layer probes for traced runs: each times calls into one layer's
//! public functions, on the workload's own kernels and tuned configs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use flexfloat::backend::SoftFloat;
use flexfloat::{Engine, Recorder, TypeConfig};
use tp_bench::MEASURE_SET;
use tp_store::{record_from_json, record_to_json, JobKey, Store};
use tp_trace::{Replayed, Trace};
use tp_tuner::distributed_search;

use crate::spans::{span, timed};
use crate::stats::per_unit;
use crate::tuned::{bits, fpu_run, params, Tuned};
use crate::Report;

/// Repetitions of each timed call, so one probe is not one sample.
const REPEATS: usize = 3;

fn ns(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e9
}

/// Tape entries a replay executed: all of them, or up to the divergence.
fn executed(trace: &Trace, replayed: &Replayed) -> u64 {
    match replayed {
        Replayed::Output(_) => trace.len() as u64,
        Replayed::Divergent { at } => *at as u64 + 1,
    }
}

/// `core`: `Tunable::run` on the Emulated backend under the tuned storage
/// config, per FP operation `Recorder::scoped` counts.
pub fn core(tuned: &[Tuned], report: &mut Report) {
    let (mut total_ns, mut ops) = (0.0, 0);
    for t in tuned {
        ops += REPEATS as u64
            * Recorder::scoped(|| t.app.run(&t.storage, MEASURE_SET))
                .1
                .total_fp_ops();
        for _ in 0..REPEATS {
            let started = Instant::now();
            std::hint::black_box(timed("core", "core.run", || {
                t.app.run(&t.storage, MEASURE_SET)
            }));
            total_ns += ns(started);
        }
    }
    report.layer("core.emulated_ns_per_op", per_unit(total_ns, ops), "ns");
}

/// `trace`: recording each input set, then replaying the tapes under the
/// tuned config one by one, as one batch, and as a set of candidates.
/// Replay time is per tape entry executed (a divergent replay stops early).
pub fn trace(tuned: &[Tuned], report: &mut Report) {
    let (mut entries, mut record_ns) = (0, 0.0);
    let (mut replay_entries, mut replay_ns) = (0, 0.0);
    let (mut batch_entries, mut batch_ns) = (0, 0.0);
    let (mut cand_entries, mut cand_ns) = (0, 0.0);
    for t in tuned {
        let vars = t.app.variables();
        let mut tapes = Vec::new();
        for set in 0..params(t.outcome.threshold).input_sets {
            let started = Instant::now();
            let tape = timed("trace", "trace.record", || {
                Trace::record(&vars, |cfg| t.app.run(cfg, set))
            });
            record_ns += ns(started);
            if let Ok(tape) = tape {
                entries += tape.len() as u64;
                tapes.push(tape);
            }
        }
        let config = t.outcome.eval_config();
        let baseline = TypeConfig::baseline();
        for _ in 0..REPEATS {
            for tape in &tapes {
                let started = Instant::now();
                let out = timed("trace", "trace.replay", || tape.replay(&config));
                replay_ns += ns(started);
                replay_entries += executed(tape, &out);
            }
            let lanes: Vec<&Trace> = tapes.iter().collect();
            let started = Instant::now();
            let outs = timed("trace", "trace.replay_batch", || {
                Trace::replay_batch(&lanes, &config)
            });
            batch_ns += ns(started);
            batch_entries += lanes
                .iter()
                .zip(&outs)
                .map(|(tape, out)| executed(tape, out))
                .sum::<u64>();
            if let Some(tape) = tapes.first() {
                let candidates = [&config, &t.storage, &baseline];
                let started = Instant::now();
                let outs = timed("trace", "trace.replay_candidates", || {
                    tape.replay_candidates(&candidates)
                });
                cand_ns += ns(started);
                cand_entries += outs.iter().map(|out| executed(tape, out)).sum::<u64>();
            }
        }
    }
    report.layer("trace.tape_entries", entries as f64, "count");
    report.layer(
        "trace.record_ns_per_entry",
        per_unit(record_ns, entries),
        "ns",
    );
    report.layer(
        "trace.replay_ns_per_entry",
        per_unit(replay_ns, replay_entries),
        "ns",
    );
    report.layer(
        "trace.replay_batch_ns_per_lane_entry",
        per_unit(batch_ns, batch_entries),
        "ns",
    );
    report.layer(
        "trace.replay_candidates_ns_per_lane_entry",
        per_unit(cand_ns, cand_entries),
        "ns",
    );
}

/// `tuner`: one `distributed_search` per kernel; busy time, evaluations
/// and the share of replay attempts that did not diverge.
pub fn tuner(tuned: &[Tuned], report: &mut Report) {
    let (mut search_ns, mut evaluations, mut replayed, mut diverged) = (0.0, 0, 0, 0);
    for t in tuned {
        let started = Instant::now();
        let outcome = timed("tuner", "tuner.distributed_search", || {
            distributed_search(t.app.as_ref(), params(t.outcome.threshold))
        });
        search_ns += ns(started);
        report.check(outcome.vars == t.outcome.vars);
        evaluations += outcome.evaluations;
        replayed += outcome.replay.replayed;
        diverged += outcome.replay.diverged;
    }
    let n = tuned.len() as u64;
    report.layer("tuner.search_ms", per_unit(search_ns / 1e6, n), "ms");
    report.layer(
        "tuner.evaluations",
        per_unit(evaluations as f64, n),
        "count",
    );
    report.layer(
        "tuner.replay_share",
        per_unit(replayed as f64, replayed + diverged),
        "ratio",
    );
}

/// `store`: `Store::put`/`get` and the record JSON codec on the records
/// of the workload's tunings, in a fresh directory under `root`.
pub fn store(tuned: &[Tuned], root: &Path, report: &mut Report) {
    let dir = root.join(format!("store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_default(&dir).expect("probe store opens");
    let (mut put_ns, mut get_ns, mut encode_ns, mut decode_ns, mut calls) = (0.0, 0.0, 0.0, 0.0, 0);
    for t in tuned {
        let record = t.record();
        let key = JobKey::of(
            t.app.name(),
            &t.app.variables(),
            &params(t.outcome.threshold),
            Engine::active_name(),
        );
        for _ in 0..REPEATS {
            let started = Instant::now();
            let stored = timed("store", "store.put", || store.put(key, &record));
            put_ns += ns(started);
            let started = Instant::now();
            let got = timed("store", "store.get", || store.get(key));
            get_ns += ns(started);
            let started = Instant::now();
            let json = timed("store", "store.record_to_json", || record_to_json(&record));
            encode_ns += ns(started);
            let started = Instant::now();
            let decoded = timed("store", "store.record_from_json", || {
                record_from_json(&json)
            });
            decode_ns += ns(started);
            report.check(
                stored.is_ok()
                    && got.as_ref() == Some(&record)
                    && decoded.ok() == Some(record.clone()),
            );
            calls += 1;
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    report.layer("store.put_us", per_unit(put_ns / 1e3, calls), "us");
    report.layer("store.get_us", per_unit(get_ns / 1e3, calls), "us");
    report.layer("store.encode_us", per_unit(encode_ns / 1e3, calls), "us");
    report.layer("store.decode_us", per_unit(decode_ns / 1e3, calls), "us");
}

/// `tfpu` and `softfloat`: `run_on` with `FpuModel` and with `SoftFloat`
/// under the tuned storage configs, per retired FP instruction. The
/// simulated cycle and energy totals must repeat exactly.
pub fn fpu(tuned: &[Tuned], report: &mut Report) {
    let (mut fpu_ns, mut soft_ns, mut instructions) = (0.0, 0.0, 0);
    let (mut cycles, mut energy_pj) = (0, 0.0);
    for t in tuned {
        let first = fpu_run(t.app.as_ref(), &t.storage);
        cycles += first.cycles;
        energy_pj += first.energy_pj;
        for _ in 0..REPEATS {
            let started = Instant::now();
            let again = fpu_run(t.app.as_ref(), &t.storage);
            fpu_ns += ns(started);
            report.check(again == first);
            instructions += again.instructions;
            let soft = Arc::new(SoftFloat::new());
            let started = Instant::now();
            let out = {
                let _span = span("softfloat", "softfloat.run_on");
                t.app.run_on(soft, &t.storage, MEASURE_SET)
            };
            soft_ns += ns(started);
            report.check(bits(&out) == first.outputs);
        }
    }
    report.layer("tfpu.ns_per_op", per_unit(fpu_ns, instructions), "ns");
    report.layer("tfpu.cycles", cycles as f64, "count");
    report.layer("tfpu.energy_pj", energy_pj, "pJ");
    report.layer("softfloat.ns_per_op", per_unit(soft_ns, instructions), "ns");
}
