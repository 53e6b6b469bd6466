//! Multi-trace and multi-candidate replay entry points.
//!
//! * [`Trace::replay_batch`]: every input set's tape under one
//!   configuration — plain per-trace [`Trace::replay`], kept as a
//!   convenience for callers that hold a group of tapes.
//! * [`Trace::replay_candidates`]: several candidate configurations in
//!   one call. The format-slot tables are resolved up front and diffed;
//!   every tape entry before the first reference to a *differing* slot
//!   computes bit-identically under every candidate (all slots it can
//!   touch resolve equally, so every promotion/cast table cell it
//!   consults is equal), so that prefix runs once on the raw interpreter
//!   ([`Trace::run_raw`]) and its state is forked per candidate at the
//!   first difference.
//!
//! Both fall back to per-trace [`Trace::replay`] whenever the thread is
//! observed (a recorder or installed backend must see every event in
//! recorded order) — callers never need to pre-check.

use flexfloat::{Engine, Recorder, TypeConfig};

use crate::replay::{Regs, Replayed, Spare, Tables};
use crate::tape::{Tag, Trace};

impl Trace {
    /// Replays every trace in `traces` under `config`, returning one
    /// [`Replayed`] per trace, in order — exactly `traces[i].replay(config)`.
    #[must_use]
    pub fn replay_batch(traces: &[&Trace], config: &TypeConfig) -> Vec<Replayed> {
        traces.iter().map(|t| t.replay(config)).collect()
    }

    /// Replays `self` under every configuration in `configs` in one call,
    /// returning one [`Replayed`] per configuration, in order. The shared
    /// tape prefix — every entry before the first reference to a format
    /// slot on which the configurations disagree — is executed once; the
    /// interpreter forks per candidate only for the suffix. Each result is
    /// bit-identical to `self.replay(configs[i])`.
    #[must_use]
    pub fn replay_candidates(&self, configs: &[&TypeConfig]) -> Vec<Replayed> {
        let [_, rest @ ..] = configs else {
            return Vec::new();
        };
        if rest.is_empty() || Recorder::is_enabled() || Engine::is_active() {
            return configs.iter().map(|cfg| self.replay(cfg)).collect();
        }

        let mut tables: Vec<Tables> = Vec::with_capacity(configs.len());
        for cfg in configs {
            let mut t = Tables::default();
            t.rebuild(self, cfg);
            tables.push(t);
        }

        // A slot "differs" when any candidate resolves it to another
        // format than candidate 0 does.
        let n = tables[0].n();
        let differs: Vec<bool> = (0..n)
            .map(|s| {
                let f0 = tables[0].fmts[s];
                tables[1..].iter().any(|t| t.fmts[s] != f0)
            })
            .collect();

        // The prefix ends at the first entry that *introduces* a value or
        // array under a differing slot. Inductively every slot reachable
        // inside the prefix is non-differing, so every promotion/cast cell
        // the prefix consults is equal across candidates and its value
        // columns are bit-identical — safe to share.
        let prefix_end = self
            .raw_ops
            .iter()
            .position(|p| {
                let introduces_slot = matches!(
                    p.tag,
                    Tag::Leaf
                        | Tag::ArrayNew
                        | Tag::ArrayZeros
                        | Tag::Cast
                        | Tag::AddCast
                        | Tag::SubCast
                        | Tag::MulCast
                        | Tag::DivCast
                );
                introduces_slot && differs[usize::from(p.fmt)]
            })
            .unwrap_or(self.raw_ops.len());

        // Forked states own their buffers, so nothing is recycled here.
        let mut spare = Spare::default();
        let mut shared = Regs::default();
        shared.reset(self, &mut spare);
        if let Some(at) = self.run_raw(&tables[0], &mut shared, &mut spare, 0, prefix_end) {
            // The prefix consults only equal table cells, so a prefix
            // divergence is every candidate's divergence.
            return vec![Replayed::Divergent { at }; configs.len()];
        }

        let last = configs.len() - 1;
        (0..configs.len())
            .map(|k| {
                // The last candidate takes the shared prefix by move.
                let mut st = if k == last {
                    std::mem::take(&mut shared)
                } else {
                    shared.clone()
                };
                let end = self.raw_ops.len();
                match self.run_raw(&tables[k], &mut st, &mut spare, prefix_end, end) {
                    Some(at) => Replayed::Divergent { at },
                    None => Replayed::Output(self.take_output(&mut st)),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Fx, FxArray, VarSpec};
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    /// A small straight-line kernel parameterized by its input data.
    fn taped(xs: [f64; 4], w: f64) -> Trace {
        let vars = vec![
            VarSpec::array("x", 4),
            VarSpec::scalar("w"),
            VarSpec::array("out", 4),
        ];
        Trace::record(&vars, move |cfg| {
            let x = FxArray::from_f64s(cfg.format_of("x"), &xs);
            let wv = Fx::new(w, cfg.format_of("w"));
            let mut out = FxArray::zeros(cfg.format_of("out"), 4);
            let mut acc = Fx::new(0.0, cfg.format_of("w"));
            for i in 0..4 {
                let t = (x.get(i) * wv).to(cfg.format_of("out"));
                out.set(i, t);
                acc = acc + x.get(i);
            }
            let mut o = out.to_f64s();
            o.push(acc.sqrt().abs().value());
            o
        })
        .unwrap()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        let traces = [
            taped([1.5, 2.0, -0.75, 3.25], 0.3),
            taped([0.1, -0.2, 0.4, 8.0], 1.7),
            taped([9.0, 0.5, 0.25, -4.5], -0.9),
        ];
        let refs: Vec<&Trace> = traces.iter().collect();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline()
                .with("x", BINARY8)
                .with("w", BINARY16),
            TypeConfig::baseline()
                .with("x", BINARY16)
                .with("out", BINARY8),
        ] {
            let batched = Trace::replay_batch(&refs, &cfg);
            for (t, b) in traces.iter().zip(&batched) {
                assert_eq!(t.replay(&cfg), *b, "{cfg}");
            }
        }
    }

    /// One lane diverges, the others complete: per-lane outcomes (and the
    /// divergence site) must match per-trace sequential replay.
    #[test]
    fn per_lane_divergence_matches_sequential() {
        let branchy = |x0: f64| {
            let vars = vec![VarSpec::array("x", 2)];
            Trace::record(&vars, move |cfg| {
                let x = FxArray::from_f64s(cfg.format_of("x"), &[x0, 1.0 + 4.0 / 1024.0]);
                let (a, b) = (x.get(0), x.get(1));
                let picked = if a.lt(b) { a + b } else { a * b };
                vec![picked.value()]
            })
            .unwrap()
        };
        // All lanes record the same branch (same tape shape); lane 1
        // sits right below the threshold and flips at binary8, lanes 0
        // and 2 are comfortably below at any precision.
        let traces = [branchy(0.5), branchy(1.0 + 3.0 / 1024.0), branchy(0.25)];
        let refs: Vec<&Trace> = traces.iter().collect();
        assert!(refs[1..].iter().all(|t| refs[0].same_shape(t)));

        let coarse = TypeConfig::baseline().with("x", BINARY8);
        let batched = Trace::replay_batch(&refs, &coarse);
        let sequential: Vec<Replayed> = traces.iter().map(|t| t.replay(&coarse)).collect();
        assert_eq!(batched, sequential);
        assert!(matches!(batched[1], Replayed::Divergent { .. }));
        assert!(matches!(batched[0], Replayed::Output(_)));
        assert!(matches!(batched[2], Replayed::Output(_)));
    }

    #[test]
    fn shape_mismatch_falls_back_to_sequential() {
        let a = taped([1.5, 2.0, -0.75, 3.25], 0.3);
        let vars = vec![VarSpec::scalar("w")];
        let b = Trace::record(&vars, |cfg| {
            let w = Fx::new(0.25, cfg.format_of("w"));
            vec![(w * w).value()]
        })
        .unwrap();
        assert!(!a.same_shape(&b));
        let cfg = TypeConfig::baseline().with("w", BINARY16);
        let batched = Trace::replay_batch(&[&a, &b], &cfg);
        assert_eq!(batched[0], a.replay(&cfg));
        assert_eq!(batched[1], b.replay(&cfg));
    }

    #[test]
    fn candidates_match_sequential_bit_for_bit() {
        let trace = taped([1.5, 2.0, -0.75, 3.25], 0.3);
        let cfgs = [
            TypeConfig::baseline(),
            TypeConfig::baseline().with("x", BINARY8),
            TypeConfig::baseline()
                .with("x", BINARY16)
                .with("w", BINARY8),
            TypeConfig::baseline().with("out", BINARY8),
        ];
        let refs: Vec<&TypeConfig> = cfgs.iter().collect();
        let multi = trace.replay_candidates(&refs);
        for (cfg, got) in cfgs.iter().zip(&multi) {
            assert_eq!(trace.replay(cfg), *got, "{cfg}");
        }
        // Identical configs share the whole tape as prefix.
        let same = trace.replay_candidates(&[&cfgs[0], &cfgs[0]]);
        assert_eq!(same[0], same[1]);
        assert_eq!(same[0], trace.replay(&cfgs[0]));
    }

    #[test]
    fn candidates_report_divergence_like_sequential() {
        let vars = vec![VarSpec::scalar("x")];
        let trace = Trace::record(&vars, |cfg| {
            let x = Fx::new(1.0 + 3.0 / 1024.0, cfg.format_of("x"));
            let limit = Fx::new(1.0 + 4.0 / 1024.0, cfg.format_of("x"));
            let picked = if x.lt(limit) { x + x } else { x * x };
            vec![picked.value()]
        })
        .unwrap();
        let fine = TypeConfig::baseline().with("x", BINARY16);
        let coarse = TypeConfig::baseline().with("x", BINARY8);
        let got = trace.replay_candidates(&[&fine, &coarse]);
        assert_eq!(got[0], trace.replay(&fine));
        assert_eq!(got[1], trace.replay(&coarse));
        assert!(matches!(got[1], Replayed::Divergent { .. }));
        assert_eq!(
            got[0],
            Replayed::Output(vec![match trace.replay(&fine) {
                Replayed::Output(ref o) => o[0],
                Replayed::Divergent { .. } => unreachable!(),
            }])
        );
    }

    #[test]
    fn observed_thread_falls_back_per_trace() {
        let traces = [
            taped([1.5, 2.0, -0.75, 3.25], 0.3),
            taped([0.1, -0.2, 0.4, 8.0], 1.7),
        ];
        let refs: Vec<&Trace> = traces.iter().collect();
        let cfg = TypeConfig::baseline().with("x", BINARY32);
        let (batched, counts) = Recorder::scoped(|| Trace::replay_batch(&refs, &cfg));
        let (sequential, seq_counts) =
            Recorder::scoped(|| refs.iter().map(|t| t.replay(&cfg)).collect::<Vec<_>>());
        assert_eq!(batched, sequential);
        assert_eq!(counts, seq_counts, "observed batch must record like live");
    }
}
