//! The benchmark's own spans: timed from the benchmark's code around the
//! calls it makes into each layer's public functions. The program itself
//! is not instrumented for this; its `tp_obs` plane is switched on in
//! traced runs only and counted as overhead.
//!
//! A span records its layer, name, thread, start and duration, and its
//! self time (duration minus the time of the spans opened inside it on
//! the same thread). Spans are kept in memory and written out once, as
//! Chrome trace JSON, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per run; later spans are counted but not stored, so a long
/// traced run cannot exhaust memory.
const MAX_SPANS: usize = 400_000;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

#[derive(Debug, Clone)]
struct Record {
    layer: &'static str,
    name: &'static str,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
}

#[derive(Default)]
struct Store {
    records: Vec<Record>,
    /// Closed intervals during which spans were recorded.
    sections: Vec<(u64, u64)>,
    open_section: Option<u64>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(Mutex::default)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Child time accumulated by each span open on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Starts (`true`) or ends (`false`) a traced section. Spans opened
/// outside a section cost one atomic load and record nothing.
pub fn set_tracing(on: bool) {
    let now = now_ns();
    let mut store = store().lock().expect("span store poisoned");
    match (on, store.open_section) {
        (true, None) => store.open_section = Some(now),
        (false, Some(start)) => {
            store.sections.push((start, now));
            store.open_section = None;
        }
        _ => {}
    }
    ON.store(on, Ordering::SeqCst);
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span(Option<(&'static str, &'static str, u64)>);

/// Opens a span for a call into `layer`.
pub fn span(layer: &'static str, name: &'static str) -> Span {
    if !ON.load(Ordering::Relaxed) {
        return Span(None);
    }
    OPEN.with(|open| open.borrow_mut().push(0));
    Span(Some((layer, name, now_ns())))
}

/// Runs `f` inside a span.
pub fn timed<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(layer, name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((layer, name, start_ns)) = self.0 else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        let child_ns = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let child = open.pop().unwrap_or(0);
            if let Some(parent) = open.last_mut() {
                *parent += dur_ns;
            }
            child
        });
        let record = Record {
            layer,
            name,
            tid: TID.with(|t| *t),
            start_ns,
            dur_ns,
            self_ns: dur_ns.saturating_sub(child_ns),
        };
        // Never panic in drop: a poisoned store just loses the span.
        if let Ok(mut store) = store().lock() {
            if store.records.len() < MAX_SPANS {
                store.records.push(record);
            } else {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// What the recorded spans add up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Self time per layer, in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Share of traced wall time covered by at least one span, in %.
    pub coverage_pct: f64,
    /// Spans recorded.
    pub spans: usize,
    /// Spans beyond the in-memory cap (counted, not stored).
    pub dropped: u64,
}

/// Sums the spans recorded so far.
#[must_use]
pub fn summary() -> Summary {
    let store = store().lock().expect("span store poisoned");
    let mut self_ms = BTreeMap::new();
    for r in &store.records {
        *self_ms.entry(r.layer).or_insert(0.0) += r.self_ns as f64 / 1e6;
    }
    let traced: u64 = store.sections.iter().map(|(s, e)| e - s).sum();
    let spans: Vec<(u64, u64)> = store
        .records
        .iter()
        .map(|r| (r.start_ns, r.start_ns + r.dur_ns))
        .collect();
    let covered = overlap(&union(spans), &store.sections);
    Summary {
        self_ms,
        coverage_pct: crate::stats::percent(covered as f64, traced as f64),
        spans: store.records.len(),
        dropped: DROPPED.load(Ordering::Relaxed),
    }
}

/// The union of `intervals`, as sorted disjoint intervals.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Total length of the intersection of two sorted disjoint interval lists.
fn overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let start = a[i].0.max(b[j].0);
        let end = a[i].1.min(b[j].1);
        total += end.saturating_sub(start);
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// The recorded spans as Chrome trace JSON (`chrome://tracing`,
/// Perfetto): one complete event per span, the layer as its category.
#[must_use]
pub fn chrome_trace() -> String {
    let store = store().lock().expect("span store poisoned");
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in store.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3}}}}}",
            r.name,
            r.layer,
            r.tid,
            r.start_ns as f64 / 1e3,
            r.dur_ns as f64 / 1e3,
            r.self_ns as f64 / 1e3,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlapping_intervals() {
        assert_eq!(
            union(vec![(5, 7), (0, 2), (1, 3), (7, 9)]),
            vec![(0, 3), (5, 9)]
        );
    }

    #[test]
    fn overlap_counts_only_the_shared_part() {
        let spans = [(0, 3), (5, 9)];
        assert_eq!(overlap(&spans, &[(2, 6)]), 2);
        assert_eq!(overlap(&spans, &[(0, 10)]), 7);
        assert_eq!(overlap(&spans, &[(3, 5)]), 0);
    }
}
