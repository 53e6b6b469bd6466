//! The service probe of traced runs: an in-process `tp_serve::Server` on
//! loopback TCP with a `tp_store::Store` in a fresh directory, driven by two
//! closed-loop clients that each connect, `SUBMIT`, wait for the `RESULT`
//! and close, like `tp_client submit --wait`.
//!
//! The request list is fixed by the seed and issued in rounds. Every round
//! holds the same requests in a seeded order: the cold ones (a `:small`
//! kernel at a threshold no earlier request used, so each runs a search
//! and a `Store::put`) and each warm key `warm_repeats` times (keys
//! that set-up already ran through a first server on the same store, so
//! the timed server's first touch of a key is a store read and later
//! touches are job-map hits). Runs stop at a round boundary once the time
//! is up, so every run issues whole rounds of the same mix.
//!
//! The clients speak the wire protocol through `tp_serve::proto` on their
//! own sockets instead of `tp_serve::Client`, because `Client` has no
//! connect or read timeout: with these, a stalled server (for instance one
//! that ran out of file descriptors) shows up as counted failures instead
//! of a hung benchmark. They close with a reset, so a run leaves no
//! `TIME_WAIT` sockets behind to slow the next one.

use std::io::{BufReader, BufWriter, Cursor};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tp_serve::proto::{parse_request, read_frame, write_frame};
use tp_serve::{Client, ServeConfig, Server, ServerStats};
use tp_store::{record_from_json, Store, TuningRecord};

use crate::rng::Rng;
use crate::spans::{span, timed};
use crate::stats;
use crate::sys;

/// The loosest of the paper's quality thresholds; cold requests ask for
/// fresh values just above it.
const COLD_THRESHOLD: f64 = 1e-1;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Past the deadline, a round still in flight is cut off after this long
/// (only a stalled server takes that long to finish a round).
const GRACE: Duration = Duration::from_secs(20);
const CLIENTS: usize = 2;

/// A request key: kernel spelling and threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    pub app: String,
    pub threshold: f64,
}

impl Key {
    fn submit_payload(&self) -> String {
        format!("SUBMIT app={} threshold={}", self.app, self.threshold)
    }
}

/// What one run sends.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Keys set-up settles first; each is sent `warm_repeats` times a round.
    pub warm: Vec<Key>,
    pub warm_repeats: usize,
    /// The round's cold requests: kernels sent at `:small` size and a
    /// fresh threshold.
    pub cold: Vec<&'static str>,
}

impl Mix {
    fn round_len(&self) -> usize {
        self.cold.len() + self.warm.len() * self.warm_repeats
    }

    /// Round `r` of the seeded request list.
    fn round(&self, seed: u64, r: usize) -> Vec<Request> {
        let mut rng = Rng::new(seed, 1000 + r as u64);
        let mut requests: Vec<Request> = Vec::with_capacity(self.round_len());
        for (i, name) in self.cold.iter().enumerate() {
            // A threshold no earlier request used, so the request is a new
            // key; just above the loosest paper threshold, so its search
            // stays short.
            let threshold = COLD_THRESHOLD
                * (1.0
                    + (r * self.cold.len() + i + 1) as f64 * 1e-9
                    + (rng.next_u64() % 1_000_000) as f64 * 1e-16);
            requests.push(Request {
                key: Key {
                    app: format!("{name}:small"),
                    threshold,
                },
                warm: None,
            });
        }
        for _ in 0..self.warm_repeats {
            for (w, key) in self.warm.iter().enumerate() {
                requests.push(Request {
                    key: key.clone(),
                    warm: Some(w),
                });
            }
        }
        rng.shuffle(&mut requests);
        requests
    }
}

#[derive(Debug, Clone)]
struct Request {
    key: Key,
    /// Index into `Mix::warm` for warm requests.
    warm: Option<usize>,
}

/// A settled request.
#[derive(Debug, Clone, Copy)]
struct Done {
    ms: f64,
    connect_us: f64,
    cold: bool,
    ok: bool,
}

/// A set-up store: the directory, and the record each warm key settled to.
pub struct Prepared {
    dir: PathBuf,
    expected: Vec<TuningRecord>,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: a fresh store directory under `root`, with every warm key run
/// through a first server instance on it.
///
/// # Errors
///
/// A description of the first request that failed.
pub fn prepare(mix: &Mix, root: &Path, tag: &str) -> Result<Prepared, String> {
    let dir = root.join(format!("store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_default(&dir).map_err(|e| format!("open store: {e}"))?;
    // Owned from here on, so the directory goes away on every error path.
    let mut prepared = Prepared {
        dir,
        expected: Vec::new(),
    };
    let server = bind(store)?;
    let addr = server.local_addr();
    let expected = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run());
        let expected: Result<Vec<TuningRecord>, String> = mix
            .warm
            .iter()
            .map(|key| request(addr, &key.submit_payload()).map(|(record, _, _)| record))
            .collect();
        shutdown(addr);
        serving.join().expect("server thread panicked");
        expected
    });
    prepared.expected = expected?;
    Ok(prepared)
}

fn bind(store: Store) -> Result<Server, String> {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        store: Some(store),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))
}

/// Shuts the server at `addr` down. A server that cannot be told to stop
/// would keep its thread, and the run, alive forever, so that ends the
/// process instead.
fn shutdown(addr: SocketAddr) {
    if let Err(e) = Client::connect(addr).and_then(|mut c| c.shutdown()) {
        eprintln!("perfbench: shutting the server down failed: {e}");
        std::process::exit(2);
    }
}

/// One closed-loop request: connect, SUBMIT, RESULT wait, close. Returns
/// the record, whether the server served it from its store, and the
/// connect time in µs.
fn request(addr: SocketAddr, submit: &str) -> Result<(TuningRecord, bool, f64), String> {
    let started = Instant::now();
    let stream = timed("serve", "serve.connect", || {
        TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
    })
    .map_err(|e| format!("connect: {e}"))?;
    let connect_us = started.elapsed().as_secs_f64() * 1e6;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| sys::reset_on_close(&stream))
        .map_err(|e| format!("socket options: {e}"))?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut reader = BufReader::new(stream);
    let mut call = |payload: &str| -> Result<String, String> {
        write_frame(&mut writer, payload).map_err(|e| format!("write: {e}"))?;
        read_frame(&mut reader)
            .map_err(|e| format!("read: {e}"))?
            .ok_or_else(|| "server closed the connection".to_owned())
    };
    let submitted = timed("serve", "serve.submit", || call(submit))?;
    let key = match submitted.split_whitespace().collect::<Vec<_>>()[..] {
        ["OK", key, _state] => key.to_owned(),
        _ => return Err(submitted),
    };
    let result = timed("serve", "serve.result_wait", || {
        call(&format!("RESULT {key} wait"))
    })?;
    let (head, body) = result.split_once('\n').unwrap_or((result.as_str(), ""));
    let cache_hit = match head {
        "OK cache_hit=1" => true,
        "OK cache_hit=0" => false,
        _ => return Err(result),
    };
    let record = timed("store", "store.record_from_json", || record_from_json(body))
        .map_err(|e| format!("decode: {e}"))?;
    Ok((record, cache_hit, connect_us))
}

/// What a timed serve run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub cold_p50_ms: f64,
    pub cold_p99_ms: f64,
    pub warm_p50_ms: f64,
    pub warm_p99_ms: f64,
    pub connect_us: f64,
    pub stats: ServerStats,
    pub queue_wait_p99_ms: f64,
    pub fds_open_after: f64,
    pub threads_after: f64,
}

/// The timed phase on `prepared`: a second server on the same store,
/// `seconds` long, whole rounds only. The caller has the `tp_obs` plane on,
/// so `STATS` carries the queue-wait histogram.
///
/// # Errors
///
/// Set-up failures of the timed server (opening the store, binding);
/// request failures are counted, not returned.
pub fn measure(
    mix: &Mix,
    prepared: &Prepared,
    seed: u64,
    seconds: f64,
) -> Result<Measured, String> {
    let store = Store::open_default(&prepared.dir).map_err(|e| format!("open store: {e}"))?;
    let fds_before = sys::open_fds();
    let threads_before = sys::threads();
    let server = bind(store)?;
    let addr = server.local_addr();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let round_len = mix.round_len();

    struct Claims {
        next: usize,
        stop_at: Option<usize>,
        rounds: Vec<Vec<Request>>,
    }
    let claims = Mutex::new(Claims {
        next: 0,
        stop_at: None,
        rounds: Vec::new(),
    });
    let claim = || -> Option<Request> {
        let mut c = claims.lock().expect("claims poisoned");
        let i = c.next;
        let now = Instant::now();
        if c.stop_at.is_none()
            && ((i.is_multiple_of(round_len) && now >= deadline) || now >= deadline + GRACE)
        {
            c.stop_at = Some(i);
        }
        if c.stop_at.is_some_and(|stop| i >= stop) {
            return None;
        }
        let r = i / round_len;
        if r == c.rounds.len() {
            c.rounds.push(mix.round(seed, r));
        }
        c.next += 1;
        Some(c.rounds[r][i % round_len].clone())
    };

    let (done, fds_after, threads_after, queue_wait_p99_ms, stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run());
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(req) = claim() {
                        let t0 = Instant::now();
                        let result = {
                            let _span = span("serve", "serve.request");
                            request(addr, &req.key.submit_payload())
                        };
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let (ok, connect_us) = match result {
                            Ok((record, cache_hit, connect_us)) => {
                                (check(prepared, &req, &record, cache_hit), connect_us)
                            }
                            Err(_) => (false, 0.0),
                        };
                        done.push(Done {
                            ms,
                            connect_us,
                            cold: req.warm.is_none(),
                            ok,
                        });
                    }
                    done
                })
            })
            .collect();
        let done: Vec<Done> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect();
        let threads_after = settled_threads();
        let fds_after = sys::open_fds();
        let queue_wait_p99_ms = queue_wait_p99_ms(addr);
        shutdown(addr);
        let stats = serving.join().expect("server thread panicked");
        (done, fds_after, threads_after, queue_wait_p99_ms, stats)
    });

    let ms = |pick: &dyn Fn(&Done) -> bool| -> Vec<f64> {
        done.iter().filter(|d| pick(d)).map(|d| d.ms).collect()
    };
    let cold = ms(&|d| d.cold);
    let warm = ms(&|d| !d.cold);
    let connects: Vec<f64> = done.iter().filter(|d| d.ok).map(|d| d.connect_us).collect();
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let p99 = |v: &[f64]| stats::tail(v, 0.99).map_or(0.0, |t| t.value);
    Ok(Measured {
        attempted: done.len() as u64,
        failed: done.iter().filter(|d| !d.ok).count() as u64,
        cold_p50_ms: p50(&cold),
        cold_p99_ms: p99(&cold),
        warm_p50_ms: p50(&warm),
        warm_p99_ms: p99(&warm),
        connect_us: p50(&connects),
        stats,
        queue_wait_p99_ms,
        fds_open_after: fds_after as f64 - fds_before as f64,
        threads_after: threads_after as f64 - threads_before as f64,
    })
}

/// The output checks: a warm `RESULT` is served without a search and
/// equals the record set-up produced for its key; a cold one ran a search
/// and answers the threshold that was asked.
fn check(prepared: &Prepared, req: &Request, record: &TuningRecord, cache_hit: bool) -> bool {
    match req.warm {
        Some(w) => cache_hit && *record == prepared.expected[w],
        None => {
            !cache_hit
                && record.outcome.threshold == req.key.threshold
                && !record.outcome.vars.is_empty()
        }
    }
}

/// The process's thread count once connection handlers have exited (they
/// end when their client closes, which may lag the client's return).
fn settled_threads() -> u64 {
    let mut last = sys::threads();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        let now = sys::threads();
        if now == last {
            return now;
        }
        last = now;
    }
    last
}

/// p99 of the server's `serve.queue_ns` histogram, read through `STATS`.
fn queue_wait_p99_ms(addr: SocketAddr) -> f64 {
    let Ok(text) = Client::connect(addr).and_then(|mut c| c.stats()) else {
        return 0.0;
    };
    tp_store::json::Value::parse(&text)
        .ok()
        .and_then(|v| {
            v.get("metrics")?
                .get("hists")?
                .get("serve.queue_ns")?
                .get("p99")?
                .as_num()
        })
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

/// `write_frame` + `read_frame` + `parse_request` per payload of the
/// mix's first round, in µs, on an in-memory buffer.
#[must_use]
pub fn frame_us(mix: &Mix, seed: u64) -> f64 {
    let payloads: Vec<String> = mix
        .round(seed, 0)
        .iter()
        .flat_map(|r| {
            [
                r.key.submit_payload(),
                "RESULT 0123456789abcdef wait".to_owned(),
            ]
        })
        .collect();
    const REPEATS: usize = 20;
    let started = Instant::now();
    for _ in 0..REPEATS {
        for payload in &payloads {
            let _span = span("serve", "serve.frame");
            let mut buf = Vec::with_capacity(payload.len() + 8);
            write_frame(&mut buf, payload).expect("in-memory write");
            let read = read_frame(&mut Cursor::new(buf))
                .expect("in-memory read")
                .expect("one frame");
            std::hint::black_box(parse_request(&read).expect("valid request"));
        }
    }
    stats::per_unit(
        started.elapsed().as_secs_f64() * 1e6,
        (REPEATS * payloads.len()) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            warm: ["JACOBI", "KNN"]
                .iter()
                .map(|app| Key {
                    app: (*app).to_owned(),
                    threshold: 1e-2,
                })
                .collect(),
            warm_repeats: 3,
            cold: vec!["CONV"; 2],
        }
    }

    fn apps(round: &[Request]) -> Vec<String> {
        let mut apps: Vec<String> = round.iter().map(|r| r.key.app.clone()).collect();
        apps.sort();
        apps
    }

    #[test]
    fn rounds_repeat_per_seed_and_hold_the_same_mix() {
        let mix = mix();
        let a = mix.round(7, 3);
        assert_eq!(a.len(), mix.round_len());
        let keys = |round: &[Request]| -> Vec<(String, u64)> {
            round
                .iter()
                .map(|r| (r.key.app.clone(), r.key.threshold.to_bits()))
                .collect()
        };
        assert_eq!(keys(&a), keys(&mix.round(7, 3)));
        assert_ne!(keys(&a), keys(&mix.round(8, 3)));
        assert_eq!(apps(&a), apps(&mix.round(8, 4)));
        assert_eq!(a.iter().filter(|r| r.warm.is_none()).count(), 2);
    }

    #[test]
    fn cold_thresholds_are_fresh() {
        let mix = mix();
        let mut seen: Vec<u64> = (0..50)
            .flat_map(|r| mix.round(1, r))
            .filter(|r| r.warm.is_none())
            .map(|r| r.key.threshold.to_bits())
            .collect();
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
        assert!(seen.iter().all(|&t| {
            let t = f64::from_bits(t);
            t > COLD_THRESHOLD && t < COLD_THRESHOLD * 1.001
        }));
    }
}
