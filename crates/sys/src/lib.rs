//! # pmc-sys
//!
//! The one operating-system call the serving tiers need that `std`
//! does not expose: `poll(2)`, so a core loop can block until a socket
//! is ready, a wakeup arrives or its earliest deadline passes instead
//! of napping on a timer. libc is already linked into every Rust
//! binary on Linux, so the shim adds no dependency. This crate holds
//! the workspace's only `unsafe` outside the benchmark; every other
//! crate keeps `#![forbid(unsafe_code)]`.

use std::time::Duration;

/// Readable (or a pending connection on a listener).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;

/// One entry of the poll set, laid out as the C `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor; a negative value makes the kernel skip the entry.
    pub fd: i32,
    /// Requested events (`POLLIN`/`POLLOUT`).
    pub events: i16,
    /// Returned events; the kernel adds `POLLHUP`/`POLLERR` unasked.
    pub revents: i16,
}

impl PollFd {
    /// An entry asking for `events` on `fd`. An entry with no events is
    /// left out (`fd = -1`): the kernel reports hang-ups and errors
    /// whether they were asked for or not, so a socket nobody wants to
    /// touch would otherwise wake the loop for ever.
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }
}

/// `timeout` in the whole milliseconds `poll(2)` takes, rounded **up**
/// so a sub-millisecond remainder waits one millisecond instead of
/// turning into a zero-timeout spin; `None` blocks indefinitely (-1).
pub fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

/// Blocks until an entry of `fds` is ready or `timeout` passes; returns
/// how many entries have a nonzero `revents`. A signal interruption
/// reads as a timeout (zero ready) — the caller re-checks its state
/// either way.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    }
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd entries for the whole call and `nfds` is its exact length,
    // so the kernel reads and writes only memory the slice owns.
    let n = unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            timeout_ms(timeout),
        )
    };
    if n >= 0 {
        return Ok(n as usize);
    }
    let e = std::io::Error::last_os_error();
    if e.kind() == std::io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(999))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(5))), 5);
        assert_eq!(timeout_ms(Some(Duration::from_micros(5_001))), 6);
        assert_eq!(timeout_ms(Some(Duration::from_secs(u64::MAX))), i32::MAX);
    }

    #[test]
    fn poll_reports_readiness_and_times_out() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut set = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let t = Instant::now();
        assert_eq!(poll(&mut set, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t.elapsed() >= Duration::from_millis(20));
        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut set, None).unwrap(), 1);
        assert_ne!(set[0].revents & POLLIN, 0);
    }

    #[test]
    fn entries_without_interest_are_skipped() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(a); // b now reports POLLHUP unasked
        let mut set = [PollFd::new(b.as_raw_fd(), 0)];
        assert_eq!(set[0].fd, -1);
        assert_eq!(poll(&mut set, Some(Duration::from_millis(5))).unwrap(), 0);
        let mut asked = [PollFd::new(b.as_raw_fd(), POLLOUT)];
        assert_eq!(poll(&mut asked, Some(Duration::ZERO)).unwrap(), 1);
    }
}
