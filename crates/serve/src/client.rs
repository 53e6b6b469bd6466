//! A small synchronous client for the tuning service, used by the
//! `tp_client` binary, the test suites and CI's service-smoke job.

use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;

use tp_store::{record_from_json, TuningRecord};

use crate::proto::{read_frame, write_frame};

/// One connection to a tuning server. Requests are strictly
/// request/response, so a client is single-threaded by construction, and
/// it reads and writes through one descriptor.
pub struct Client {
    reader: BufReader<TcpStream>,
}

/// A settled job result as returned by `RESULT`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The decoded record.
    pub record: TuningRecord,
    /// Whether the *server* served it from its persistent store.
    pub cache_hit: bool,
}

impl Client {
    /// Connects to `addr` (any `ToSocketAddrs` spelling).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(TcpStream::connect(addr)?),
        })
    }

    /// Sends one raw request payload and returns the raw response.
    ///
    /// # Errors
    ///
    /// I/O failures, or an unexpected server hang-up.
    pub fn call(&mut self, payload: &str) -> io::Result<String> {
        write_frame(&mut BufWriter::new(self.reader.get_ref()), payload)?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// `SUBMIT`s a job; returns `(key-hex, state)`.
    ///
    /// # Errors
    ///
    /// I/O failures, or the server's `ERR <reason>` as [`io::Error`] with
    /// kind `Other`.
    pub fn submit(&mut self, spec: &str) -> io::Result<(String, String)> {
        let response = self.call(spec)?;
        let mut parts = response.split_whitespace();
        match parts.next() {
            Some("OK") => {
                let key = parts.next().unwrap_or_default().to_owned();
                let state = parts.next().unwrap_or_default().to_owned();
                Ok((key, state))
            }
            _ => Err(io::Error::other(response)),
        }
    }

    /// `RESULT <key> wait`: blocks until the job settles and decodes the
    /// record.
    ///
    /// # Errors
    ///
    /// I/O failures, server-side job failures (`ERR …`), or a payload
    /// that does not decode as a record.
    pub fn result_wait(&mut self, key: &str) -> io::Result<JobResult> {
        let response = self.call(&format!("RESULT {key} wait"))?;
        let (head, body) = response.split_once('\n').unwrap_or((response.as_str(), ""));
        let cache_hit = match head {
            "OK cache_hit=1" => true,
            "OK cache_hit=0" => false,
            _ => return Err(io::Error::other(response.clone())),
        };
        let record = record_from_json(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(JobResult { record, cache_hit })
    }

    /// `STATUS <key>`: the job's current state name.
    ///
    /// # Errors
    ///
    /// I/O failures or `ERR` responses.
    pub fn status(&mut self, key: &str) -> io::Result<String> {
        let response = self.call(&format!("STATUS {key}"))?;
        response
            .strip_prefix("OK ")
            .map(str::to_owned)
            .ok_or_else(|| io::Error::other(response.clone()))
    }

    /// `LIST`: the raw multi-line listing (header stats + one job line
    /// per submission).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list(&mut self) -> io::Result<String> {
        self.call("LIST")
    }

    /// `STATS`: the server's observability snapshot as raw JSON text
    /// (parse with [`tp_store::json::Value::parse`]).
    ///
    /// # Errors
    ///
    /// I/O failures or `ERR` responses.
    pub fn stats(&mut self) -> io::Result<String> {
        let response = self.call("STATS")?;
        response
            .strip_prefix("OK ")
            .map(str::to_owned)
            .ok_or_else(|| io::Error::other(response.clone()))
    }

    /// `TRACE <key>`: the job's span tree as raw JSON text (parse with
    /// [`tp_store::json::Value::parse`]; shape documented on
    /// [`tp_store::spans_json`]).
    ///
    /// # Errors
    ///
    /// I/O failures, or `ERR unknown-key` / `ERR no-trace` responses.
    pub fn trace(&mut self, key: &str) -> io::Result<String> {
        let response = self.call(&format!("TRACE {key}"))?;
        response
            .strip_prefix("OK ")
            .map(str::to_owned)
            .ok_or_else(|| io::Error::other(response.clone()))
    }

    /// `SHUTDOWN`: graceful drain; returns the server's `BYE` stats line.
    ///
    /// # Errors
    ///
    /// I/O failures or a non-`BYE` response.
    pub fn shutdown(&mut self) -> io::Result<String> {
        let response = self.call("SHUTDOWN")?;
        if response.starts_with("BYE") {
            Ok(response)
        } else {
            Err(io::Error::other(response))
        }
    }
}

/// Renders a record's chosen formats as stable, diffable lines — the
/// shape CI compares between a served result and a direct library call
/// (`tp_client direct`). One line per variable:
///
/// ```text
/// var <name> p=<precision> wide=<0|1> eval=e<e>m<m> storage=e<e>m<m>
/// ```
#[must_use]
pub fn format_summary(record: &TuningRecord) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for v in &record.outcome.vars {
        let eval = v.eval_format(record.outcome.type_system);
        let storage = record.storage.format_of(v.spec.name);
        let _ = writeln!(
            out,
            "var {} p={} wide={} eval=e{}m{} storage=e{}m{}",
            v.spec.name,
            v.precision_bits,
            u8::from(v.needs_wide_range),
            eval.exp_bits(),
            eval.man_bits(),
            storage.exp_bits(),
            storage.man_bits(),
        );
    }
    out
}
