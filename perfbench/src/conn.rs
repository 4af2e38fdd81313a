//! A load-generator connection: raw length-prefixed frames over TCP,
//! with reads bounded by a timeout so one thread can both pace its
//! sends and collect responses.

use pmc_json::Json;
use pmc_serve::protocol::parse_frame;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Waits until `fd` is readable (or hung up) or `timeout` passes.
///
/// `ppoll` sleeps on a high-resolution timer; a socket receive timeout
/// would round up to the next scheduler tick and wake the open-loop
/// generator milliseconds after a request was due.
fn wait_readable(fd: RawFd, timeout: Duration) -> std::io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x001;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` outlive the call, `nfds` matches the one
    // descriptor passed, and a null sigmask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// Asks the kernel to fire this thread's timed waits within 1 µs of
/// their deadline instead of the default 50 µs slack — the open-loop
/// generator's lateness is part of every latency it reports.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}

/// Largest response the generator buffers.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

pub struct Conn {
    stream: TcpStream,
    /// Receive buffer: bytes `pos..end` are unconsumed.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The generator must not add Nagle delays of its own to the
        // latencies it times.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: vec![0; 256 * 1024],
            pos: 0,
            end: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Waits up to `timeout` for bytes and appends them to the buffer.
    /// `Ok(false)` means the timeout expired with nothing read.
    pub fn fill(&mut self, timeout: Duration) -> Result<bool, String> {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end == self.buf.len() {
            // Full of one incomplete frame: grow, up to the cap.
            if self.buf.len() >= MAX_RESPONSE_BYTES {
                return Err("response frame larger than 16 MiB".into());
            }
            let grown = self.buf.len() * 2;
            self.buf.resize(grown, 0);
        }
        if !wait_readable(self.stream.as_raw_fd(), timeout).map_err(|e| format!("poll: {e}"))? {
            return Ok(false);
        }
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err("connection closed by peer".into()),
            Ok(n) => {
                self.end += n;
                Ok(true)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Pops one complete frame (length prefix included) if buffered.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        let rest = &self.buf[self.pos..self.end];
        if rest.len() < 4 {
            return None;
        }
        let total = 4 + u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if rest.len() < total {
            return None;
        }
        let start = self.pos;
        self.pos += total;
        Some(&self.buf[start..start + total])
    }

    /// Sends one request and waits (up to `timeout`) for its response.
    pub fn call(&mut self, frame: &[u8], timeout: Duration) -> Result<Json, String> {
        self.send(frame)?;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(raw) = self.next_frame() {
                return decode(raw);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("timed out waiting for a response".into());
            }
            self.fill(left)?;
        }
    }
}

/// Decodes one raw response frame (JSON or `PMCB1`).
pub fn decode(raw: &[u8]) -> Result<Json, String> {
    match parse_frame(raw, u32::MAX) {
        Ok(Some((v, _))) => Ok(v),
        Ok(None) => Err("incomplete frame".into()),
        Err(_) => Err("undecodable response frame".into()),
    }
}

/// The `result` of an ok response; a typed refusal (`overloaded`,
/// `deadline_exceeded`, `draining`, …) or error frame is an `Err`.
pub fn ok_result(v: &Json) -> Result<&Json, String> {
    match v.str_field("status") {
        Ok("ok") => v.field("result").map_err(|e| e.to_string()),
        Ok(status) => Err(format!(
            "{status} response: {}",
            v.get("error").map(|e| e.to_string()).unwrap_or_default()
        )),
        Err(_) => Err("response without a status".into()),
    }
}
