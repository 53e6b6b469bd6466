//! Process resources read from `/proc/self` (peak memory, open file
//! descriptors, threads), and the one socket option std does not expose.

use std::fs;
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

/// Peak resident set size (`VmHWM`) in MB (2^20 bytes).
///
/// # Panics
///
/// When `/proc/self/status` is missing or has no `VmHWM` line: the
/// benchmark runs on Linux only.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// File descriptors this process has open.
#[must_use]
pub fn open_fds() -> u64 {
    count_entries("/proc/self/fd")
}

/// Threads of this process.
#[must_use]
pub fn threads() -> u64 {
    count_entries("/proc/self/task")
}

fn count_entries(dir: &str) -> u64 {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir} is readable: {e}"))
        .count() as u64
}

/// Makes closing `stream` send a reset instead of a FIN (`SO_LINGER` with
/// a zero timeout), so the closed socket leaves no `TIME_WAIT` entry
/// behind. A run opens one connection per request; without this, each run
/// leaves thousands of entries for a minute and slows the connects of the
/// next run on the same machine.
///
/// # Errors
///
/// The `setsockopt` failure.
pub fn reset_on_close(stream: &TcpStream) -> io::Result<()> {
    /// `struct linger` from `<sys/socket.h>`.
    #[repr(C)]
    struct Linger {
        l_onoff: c_int,
        l_linger: c_int,
    }
    extern "C" {
        fn setsockopt(
            socket: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    // Linux values (the benchmark reads `/proc`, so it runs on Linux only).
    const SOL_SOCKET: c_int = 1;
    const SO_LINGER: c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which outlives the call;
    // `value` points to a live, properly laid out `struct linger`, and
    // `len` is its size, so the kernel reads only that struct.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&raw const linger).cast::<c_void>(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
