//! The platform's environment knobs, in one place.
//!
//! Every `TP_*` variable the workspace reacts to is documented and
//! resolved here (the README's "Environment knobs" table renders this
//! module). All of them **fail fast** on invalid values — a typo must be
//! a crash at startup, not a silent fallback that shows up as a
//! mysterious performance or behavior change:
//!
//! | Variable | Values | Default | Effect |
//! |---|---|---|---|
//! | `TP_BACKEND` | `emulated`, `softfloat` | `emulated` | Process-default execution datapath (resolved in `flexfloat::Engine` at dispatch; validated here too) |
//! | `TP_WORKERS` | positive integer | `available_parallelism` | Worker threads for the tuning search and suite fan-out (`tp_tuner::resolve_workers`) |
//! | `TP_TUNER_MODE` | `live`, `replay` | `replay` | Candidate evaluation strategy (`TunerMode::from_env`) |
//! | `TP_STORE_DIR` | directory path | unset (store off) | Persistent tuning-result store root; set it and warm runs skip the search |
//! | `TP_STORE_CAP` | bytes, with optional `K`/`M`/`G` suffix | `256M` | Store eviction cap (LRU beyond it) |
//! | `TP_METRICS` | `off`, `on`, `json`, `prom` | `off` | Metrics collection (`tp_obs`); `json`/`prom` also make harness binaries print a snapshot at exit. Observational only — never affects results or `JobKey`s |
//! | `TP_TRACE_EVENTS` | file path | unset (tracing off) | Causal span-tree tracing (`tp_obs::trace`); harness binaries and the daemon write the session's spans to the path as Chrome trace-event JSON at exit (load in `chrome://tracing`/Perfetto). Observational only, same contract as `TP_METRICS` |
//!
//! Some of the knobs are *dispatch-site* parsed by lower crates that
//! cannot depend on this one (`TP_BACKEND` folds into the thread's
//! backend slot inside `flexfloat`; `TP_WORKERS` resolves inside
//! `tp_tuner::pool`; `TP_METRICS` inside `tp_obs`), with identical
//! spellings and the same fail-fast contract. This module re-exposes
//! them so harnesses — the `exp_*` binaries and the `tp-serve` daemon —
//! can resolve, validate and print the whole configuration up front.

use std::path::PathBuf;
use std::sync::Arc;

use flexfloat::{Engine, FpBackend};
use tp_store::{Store, DEFAULT_CAP_BYTES};
use tp_tuner::TunerMode;

/// Resolved view of every knob, for logging a run's configuration.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// The effective backend name (`TP_BACKEND`, or the thread's active
    /// backend, or `"emulated"`).
    pub backend: String,
    /// The effective worker count (`TP_WORKERS` / auto).
    pub workers: usize,
    /// The effective tuner mode (`TP_TUNER_MODE` / replay).
    pub mode: TunerMode,
    /// The store root, if the store is enabled (`TP_STORE_DIR`).
    pub store_dir: Option<PathBuf>,
    /// The store eviction cap in bytes (`TP_STORE_CAP`).
    pub store_cap: u64,
    /// The metrics mode (`TP_METRICS` / off).
    pub metrics: tp_obs::MetricsMode,
    /// The trace-events dump path, if tracing is on (`TP_TRACE_EVENTS`).
    pub trace_events: Option<String>,
}

impl std::fmt::Display for EnvConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend={} workers={} mode={} store={} metrics={} tracing={}",
            self.backend,
            self.workers,
            self.mode,
            match &self.store_dir {
                Some(dir) => format!("{} (cap {} bytes)", dir.display(), self.store_cap),
                None => "off".to_owned(),
            },
            self.metrics,
            match &self.trace_events {
                Some(path) => format!("on -> {path}"),
                None => "off".to_owned(),
            },
        )
    }
}

/// Resolves and validates every knob at once. Harness binaries call this
/// first, so an invalid variable aborts before any work happens.
#[must_use]
pub fn config() -> EnvConfig {
    EnvConfig {
        backend: backend()
            .map_or_else(|| Engine::active_name().to_owned(), |b| b.name().to_owned()),
        workers: workers(),
        mode: tuner_mode(),
        store_dir: store_dir(),
        store_cap: store_cap(),
        metrics: metrics_mode(),
        trace_events: trace_events(),
    }
}

/// The trace-events dump path: `TP_TRACE_EVENTS` (any non-empty path —
/// resolved dispatch-site in `tp_obs::trace`, unreadable values panic),
/// or `None` (tracing off). Observational by contract, like
/// `TP_METRICS`: span trees never affect results or `JobKey`s.
#[must_use]
pub fn trace_events() -> Option<String> {
    tp_obs::trace::trace_events_path()
}

/// The effective metrics mode: `TP_METRICS` (`off`/`on`/`json`/`prom`,
/// unknown values panic — resolved dispatch-site in `tp_obs`), default
/// off. Observational by contract: results, `TraceCounts` and `JobKey`s
/// are identical under every mode.
#[must_use]
pub fn metrics_mode() -> tp_obs::MetricsMode {
    tp_obs::MetricsMode::from_env()
}

/// The backend `TP_BACKEND` names, if set. The actual dispatch-site
/// resolution lives in `flexfloat::Engine` (which this validates against
/// via [`crate::backend_by_name`], same spelling, same fail-fast).
///
/// # Panics
///
/// On an unknown backend name — mirroring the dispatch-site behavior, but
/// at startup instead of first FP operation.
#[must_use]
pub fn backend() -> Option<Arc<dyn FpBackend>> {
    match std::env::var("TP_BACKEND") {
        Ok(name) => Some(crate::backend_by_name(&name).unwrap_or_else(|| {
            panic!("TP_BACKEND={name:?} is not an env-selectable backend (use \"emulated\" or \"softfloat\")")
        })),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("TP_BACKEND is set but unreadable: {e}"),
    }
}

/// The effective worker count: `TP_WORKERS` if set (must be a positive
/// integer — anything else panics, see `tp_tuner::resolve_workers`),
/// otherwise the machine's available parallelism.
#[must_use]
pub fn workers() -> usize {
    tp_tuner::resolve_workers(0)
}

/// The effective tuner mode: `TP_TUNER_MODE` (`live`/`replay`, unknown
/// values panic), default replay.
#[must_use]
pub fn tuner_mode() -> TunerMode {
    TunerMode::from_env()
}

/// The tuning-result store root: `TP_STORE_DIR`, or `None` (store
/// disabled) when unset. An empty value counts as unset, so
/// `TP_STORE_DIR= cmd` can switch the store off in a wrapper script.
#[must_use]
pub fn store_dir() -> Option<PathBuf> {
    match std::env::var("TP_STORE_DIR") {
        Ok(dir) if dir.is_empty() => None,
        Ok(dir) => Some(PathBuf::from(dir)),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("TP_STORE_DIR is set but unreadable: {e}"),
    }
}

/// The store eviction cap: `TP_STORE_CAP` parsed by [`parse_cap`],
/// default [`DEFAULT_CAP_BYTES`].
///
/// # Panics
///
/// On a malformed value (not a positive byte count with an optional
/// `K`/`M`/`G` suffix).
#[must_use]
pub fn store_cap() -> u64 {
    match std::env::var("TP_STORE_CAP") {
        Ok(s) => parse_cap(&s).unwrap_or_else(|e| panic!("TP_STORE_CAP={s:?}: {e}")),
        Err(std::env::VarError::NotPresent) => DEFAULT_CAP_BYTES,
        Err(e) => panic!("TP_STORE_CAP is set but unreadable: {e}"),
    }
}

/// Opens a fresh handle on the store `TP_STORE_DIR`/`TP_STORE_CAP`
/// describe, or `None` when the store is disabled. Each call re-reads
/// the environment and re-scans the directory — use [`shared_store`] on
/// hot paths.
///
/// # Panics
///
/// If the directory is set but cannot be opened — a configured store that
/// silently degrades to "no cache" would defeat the point of configuring
/// it.
#[must_use]
pub fn store() -> Option<Store> {
    let dir = store_dir()?;
    Some(
        Store::open(&dir, store_cap())
            .unwrap_or_else(|e| panic!("TP_STORE_DIR={}: {e}", dir.display())),
    )
}

/// The process-wide store handle the evaluation entry points route
/// through: `TP_STORE_DIR`/`TP_STORE_CAP` are resolved **once**, on
/// first use, and every subsequent caller shares the one handle (a
/// `Store` is `Sync`). Opening per call would re-scan the entries
/// directory and race index rewrites once per kernel per threshold
/// under `evaluate_suite`'s fan-out. Consequence: changing
/// `TP_STORE_DIR` mid-process is not observed on this path — use
/// [`store`] (or `evaluate_app_in`) for explicit, per-call handles.
#[must_use]
pub fn shared_store() -> Option<&'static Store> {
    static SHARED: std::sync::OnceLock<Option<Store>> = std::sync::OnceLock::new();
    SHARED.get_or_init(store).as_ref()
}

/// Parses a byte-count string: a positive integer with an optional
/// (case-insensitive) `K`/`M`/`G` binary suffix — `"1048576"`, `"64M"`,
/// `"2G"`.
///
/// # Errors
///
/// A human-readable description of why the value is not a byte count.
pub fn parse_cap(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k' | 'K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('m' | 'M') => (&t[..t.len() - 1], 1u64 << 20),
        Some('g' | 'G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("{s:?} is not a byte count (digits + optional K/M/G)"))?;
    let bytes = n
        .checked_mul(mult)
        .ok_or_else(|| format!("{s:?} overflows a 64-bit byte count"))?;
    if bytes == 0 {
        return Err(format!("{s:?} is zero; a store needs a positive cap"));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cap_accepts_suffixes() {
        assert_eq!(parse_cap("1024"), Ok(1024));
        assert_eq!(parse_cap("4K"), Ok(4096));
        assert_eq!(parse_cap("4k"), Ok(4096));
        assert_eq!(parse_cap("64M"), Ok(64 << 20));
        assert_eq!(parse_cap("2G"), Ok(2 << 30));
        assert_eq!(parse_cap(" 8M "), Ok(8 << 20));
    }

    #[test]
    fn parse_cap_rejects_garbage() {
        for bad in ["", "M", "-1", "1.5G", "0", "0K", "four", "99999999999G"] {
            assert!(parse_cap(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn config_resolves_without_env() {
        // In the default test environment no TP_* variable is set (or CI
        // sets valid ones), so the snapshot must simply resolve.
        let cfg = config();
        assert!(cfg.workers >= 1);
        assert!(!cfg.backend.is_empty());
        let shown = cfg.to_string();
        assert!(shown.contains("workers="), "{shown}");
        assert!(shown.contains("metrics="), "{shown}");
    }
}
