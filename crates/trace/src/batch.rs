//! Multi-trace and multi-candidate replay entry points, both plain maps
//! of [`Trace::replay`] kept as conveniences:
//!
//! * [`Trace::replay_batch`]: every input set's tape under one
//!   configuration.
//! * [`Trace::replay_candidates`]: one tape under several candidate
//!   configurations.

use flexfloat::TypeConfig;

use crate::replay::Replayed;
use crate::tape::Trace;

impl Trace {
    /// Replays every trace in `traces` under `config`, returning one
    /// [`Replayed`] per trace, in order — exactly `traces[i].replay(config)`.
    #[must_use]
    pub fn replay_batch(traces: &[&Trace], config: &TypeConfig) -> Vec<Replayed> {
        traces.iter().map(|t| t.replay(config)).collect()
    }

    /// Replays `self` under every configuration in `configs`, returning
    /// one [`Replayed`] per configuration, in order — exactly
    /// `self.replay(configs[i])`.
    #[must_use]
    pub fn replay_candidates(&self, configs: &[&TypeConfig]) -> Vec<Replayed> {
        configs.iter().map(|cfg| self.replay(cfg)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Fx, FxArray, Recorder, VarSpec};
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
