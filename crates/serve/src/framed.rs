//! The readiness layer both serving tiers share: one framed,
//! non-blocking connection type, the accept path, and the wakeup
//! doorbell a core loop blocks on beside its sockets.
//!
//! A core loop (the `pmc-serve` server's and the `pmc-router` proxy's)
//! owns many [`FramedConn`]s. Each pass it reads the sockets the last
//! wait reported ready ([`FramedConn::fill`]), takes complete frames
//! off the read buffer ([`FramedConn::take_frame`]), queues responses
//! ([`FramedConn::queue`]), drains them ([`FramedConn::flush`]) and
//! enforces the slow-loris, write-stall and idle limits
//! ([`FramedConn::expire`]). Then it blocks in `poll(2)` on exactly
//! the interest those phases leave ([`FramedConn::interest`]), a
//! [`Doorbell`], and the earliest armed [`FramedConn::next_deadline`]
//! — the same predicates decide what the phases do and what the loop
//! waits for, so a pass never leaves work that nothing will wake.

use crate::error::ServeError;
use crate::protocol::{
    encode_frame, encode_frame_as, error_response, is_hello_frame, parse_frame, Encoding,
    FrameError,
};
use pmc_json::Json;
use pmc_sys::{POLLIN, POLLOUT};

pub use pmc_sys::PollFd;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A connected byte stream, TCP or Unix-domain.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain socket connection.
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    /// Shuts both directions down; the peer sees EOF.
    pub fn close(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }

    fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// An accept source feeding a core loop.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    Unix(UnixListener),
}

impl Listener {
    /// The poll entry that wakes the loop on a pending connection.
    pub fn interest(&self) -> PollFd {
        let fd = match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        };
        PollFd::new(fd, POLLIN)
    }

    /// Non-blocking accept of one pending connection; the stream comes
    /// back non-blocking, and a TCP stream with `TCP_NODELAY` set — a
    /// small response must not wait on Nagle and the peer's delayed
    /// ACK. `WouldBlock` means nothing is pending.
    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Stream::Tcp(s)
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Stream::Unix(s)
            }
        })
    }
}

/// Accepts every pending connection on `listener`. The first `room`
/// go to `admit`; for each of the rest `refuse` runs (before the peer
/// can see anything, so a counter it bumps is current once the peer
/// reads), then the connection gets a typed `overloaded` frame
/// carrying `retry_after_ms` (JSON, best effort — a fresh socket
/// buffer always takes a tiny frame) and is closed.
pub fn accept_under_budget(
    listener: &Listener,
    mut room: usize,
    retry_after_ms: u64,
    mut admit: impl FnMut(Stream),
    mut refuse: impl FnMut(),
) {
    loop {
        match listener.accept() {
            Ok(mut stream) if room == 0 => {
                refuse();
                let refusal = error_response(&ServeError::Overloaded { retry_after_ms });
                if let Ok(bytes) = encode_frame(&refusal) {
                    let _ = stream.write(&bytes);
                }
                stream.close();
            }
            Ok(stream) => {
                room -= 1;
                admit(stream);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // WouldBlock (drained), or a connection that died before
            // it could be set up: either way nothing more to take now.
            Err(_) => return,
        }
    }
}

/// The limits a client connection is held to; `None` = never.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timeouts {
    /// Maximum age of a partial frame (slow-loris defense).
    pub read: Option<Duration>,
    /// Maximum stall of an unflushed response.
    pub write: Option<Duration>,
    /// Maximum silence between frames.
    pub idle: Option<Duration>,
}

/// Which limit [`FramedConn::expire`] enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry {
    /// A partial frame outlived the read limit, or the connection sat
    /// silent past the idle limit: a deadline frame is queued and the
    /// connection is closing.
    Reaped,
    /// The peer stopped draining its socket: close now.
    Stalled,
}

/// What [`FramedConn::take_frame`] took off the read buffer.
#[derive(Debug)]
pub enum Inbound {
    /// One complete, decoded frame with its exact wire bytes.
    Frame(Json, Vec<u8>),
    /// A malformed frame, already answered with a typed error (and the
    /// connection set closing when the stream lost frame sync).
    Malformed,
}

/// One framed, non-blocking connection: buffers, the clocks its limits
/// run on, and the negotiated payload encoding.
#[derive(Debug)]
pub struct FramedConn {
    /// The socket.
    pub stream: Stream,
    /// Bytes received but not yet taken as frames.
    read_buf: Vec<u8>,
    /// Encoded bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` the socket has taken.
    write_pos: usize,
    /// Last time any byte arrived (the idle clock).
    last_activity: Instant,
    /// When the current *incomplete* frame was first seen (the
    /// slow-loris clock); `None` while the buffer is empty or holds
    /// complete frames only.
    partial_since: Option<Instant>,
    /// When the unflushed tail of `write_buf` last made progress.
    write_since: Option<Instant>,
    /// Close once the write buffer flushes; stop reading now.
    pub closing: bool,
    /// The peer half-closed (or errored) its sending side.
    pub eof: bool,
    /// Response payload encoding, negotiated by a leading `hello`
    /// (JSON until then).
    pub encoding: Encoding,
    /// A non-`hello` frame has arrived — negotiation is closed.
    saw_data: bool,
    /// The limits [`Self::expire`] enforces.
    limits: Timeouts,
    /// The last wait reported the socket (or none ran yet). Poll is
    /// level-triggered, so bytes left unread are reported again.
    readable: bool,
}

impl FramedConn {
    /// A fresh connection on `stream` (already non-blocking), held to
    /// `limits`.
    pub fn new(stream: Stream, limits: Timeouts, now: Instant) -> Self {
        FramedConn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            last_activity: now,
            partial_since: None,
            write_since: None,
            closing: false,
            eof: false,
            encoding: Encoding::Json,
            saw_data: false,
            limits,
            readable: true,
        }
    }

    /// Every queued byte has been accepted by the socket.
    fn flushed(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }

    /// Whether the read phase reads: not closing, not at EOF, and
    /// under `cap` buffered bytes (TCP backpressure does the rest).
    fn wants_read(&self, cap: usize) -> bool {
        !self.closing && !self.eof && self.read_buf.len() < cap
    }

    /// Reads whatever the socket has, up to `cap` buffered bytes, if the
    /// last wait reported it ready. A zero read or an error (peer reset)
    /// sets `eof`.
    pub fn fill(&mut self, cap: usize, now: Instant) {
        if !std::mem::take(&mut self.readable) {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        while self.wants_read(cap) {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.eof = true,
            }
        }
    }

    /// Writes as much of the queued bytes as the socket takes. An
    /// error means the stream is dead and must be closed.
    pub fn flush(&mut self, now: Instant) -> std::io::Result<()> {
        let mut wrote = false;
        while !self.flushed() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.flushed() {
            self.write_buf.clear();
            self.write_pos = 0;
            self.write_since = None;
        } else if wrote || self.write_since.is_none() {
            self.write_since = Some(now);
        }
        Ok(())
    }

    /// Appends already-encoded frame bytes (a relayed or worker-encoded
    /// response) to the write buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    /// Appends one frame in the negotiated encoding; an unencodable
    /// (oversized) payload marks the connection closing — there is no
    /// way to answer it in-protocol.
    pub fn queue(&mut self, payload: &Json) {
        match encode_frame_as(payload, self.encoding) {
            Ok(bytes) => self.write_buf.extend_from_slice(&bytes),
            Err(_) => self.closing = true,
        }
    }

    /// Takes the next complete frame off the read buffer, or `None`
    /// when only a partial frame (or nothing) is buffered — which arms
    /// or clears the slow-loris clock. A malformed payload is answered
    /// with its typed error and skipped; a hostile length prefix is
    /// answered and the connection set closing. Any non-`hello` frame
    /// closes the encoding negotiation window.
    pub fn take_frame(&mut self, max_frame: u32, now: Instant) -> Option<Inbound> {
        match parse_frame(&self.read_buf, max_frame) {
            Ok(None) => {
                if self.read_buf.is_empty() {
                    self.partial_since = None;
                } else if self.partial_since.is_none() {
                    self.partial_since = Some(now);
                }
                None
            }
            Ok(Some((frame, consumed))) => {
                let raw = self.read_buf.drain(..consumed).collect();
                self.partial_since = None;
                if !is_hello_frame(&frame) {
                    self.saw_data = true;
                }
                Some(Inbound::Frame(frame, raw))
            }
            Err(FrameError::Fatal(e)) => {
                self.queue(&error_response(&e));
                self.closing = true;
                Some(Inbound::Malformed)
            }
            Err(FrameError::Payload { consumed, error }) => {
                self.read_buf.drain(..consumed);
                self.partial_since = None;
                self.queue(&error_response(&error));
                Some(Inbound::Malformed)
            }
        }
    }

    /// Takes the next complete frame's exact bytes off the read buffer
    /// without answering anything — the relay side of a proxy, where a
    /// malformed frame means the peer lost frame sync.
    pub fn take_raw(&mut self, max_frame: u32) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(parse_frame(&self.read_buf, max_frame)?
            .map(|(_, consumed)| self.read_buf.drain(..consumed).collect()))
    }

    /// Answers a `hello` asking for `requested`: the agreed encoding's
    /// result payload (unknown names fall back to JSON with a typed
    /// notice — a newer client degrades loudly instead of desyncing),
    /// or a protocol error once a data frame has been seen. The answer
    /// travels in the newly agreed encoding.
    pub fn negotiate(&mut self, requested: &str) -> Result<Json, ServeError> {
        if self.saw_data {
            return Err(ServeError::Protocol {
                reason: "hello must precede all data frames".into(),
            });
        }
        let (agreed, notice) = match Encoding::from_name(requested) {
            Some(e) => (e, None),
            None => (
                Encoding::Json,
                Some(format!("unknown encoding {requested:?}, using json")),
            ),
        };
        self.encoding = agreed;
        let mut fields = vec![("encoding", Json::from(agreed.as_str()))];
        if let Some(n) = notice {
            fields.push(("notice", Json::from(n.as_str())));
        }
        Ok(Json::obj(fields))
    }

    fn loris_at(&self) -> Option<Instant> {
        if self.closing {
            return None;
        }
        Some(self.partial_since? + self.limits.read?)
    }

    fn stall_at(&self) -> Option<Instant> {
        Some(self.write_since? + self.limits.write?)
    }

    /// `busy`: a request from this connection is in flight, which
    /// suspends the idle clock.
    fn idle_at(&self, busy: bool) -> Option<Instant> {
        let quiet = !busy && !self.closing && self.read_buf.is_empty() && self.flushed();
        quiet.then_some(self.last_activity + self.limits.idle?)
    }

    /// The earliest instant [`Self::expire`] would act on, if any.
    pub fn next_deadline(&self, busy: bool) -> Option<Instant> {
        earliest(
            earliest(self.loris_at(), self.stall_at()),
            self.idle_at(busy),
        )
    }

    /// Enforces the write-stall, slow-loris and idle limits at `now`.
    pub fn expire(&mut self, busy: bool, now: Instant) -> Option<Expiry> {
        let due = |at: Option<Instant>| at.is_some_and(|at| now >= at);
        if due(self.stall_at()) {
            return Some(Expiry::Stalled);
        }
        let mid_frame = due(self.loris_at());
        if !mid_frame && !due(self.idle_at(busy)) {
            return None;
        }
        self.queue(&error_response(&ServeError::Deadline { mid_frame }));
        self.closing = true;
        Some(Expiry::Reaped)
    }

    /// Done: a closing connection once its final frames are flushed;
    /// one at EOF once nothing is in flight (`busy`) and nothing is
    /// left to send (a buffered tail is an unusable partial frame).
    pub fn finished(&self, busy: bool) -> bool {
        self.flushed() && (self.closing || (self.eof && !busy))
    }

    /// The poll entry for this connection: readable while the read
    /// phase would read, writable while bytes are queued. With neither
    /// the entry is left out of the set.
    pub fn interest(&self, cap: usize) -> PollFd {
        let mut events = 0;
        if self.wants_read(cap) {
            events |= POLLIN;
        }
        if !self.flushed() {
            events |= POLLOUT;
        }
        PollFd::new(self.stream.fd(), events)
    }

    /// Takes the result of a wait for the entry [`Self::interest`] made.
    pub fn ready(&mut self, entry: &PollFd) {
        self.readable = entry.revents != 0;
    }
}

/// The earlier of two optional instants.
pub fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    a.into_iter().chain(b).min()
}

/// Blocks in `poll(2)` on `set` until an entry is ready or `deadline`
/// passes (`None`: no deadline). The timeout is rounded up to whole
/// milliseconds, so a deadline under a millisecond away never becomes
/// a zero-timeout spin.
pub fn wait(set: &mut [PollFd], deadline: Option<Instant>) {
    let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if pmc_sys::poll(set, timeout).is_err() {
        // Never seen (EINVAL/ENOMEM): report every entry ready, so the
        // caller's pass tries every socket rather than none.
        for entry in set.iter_mut() {
            entry.revents = entry.events;
        }
    }
}

/// The wakeup a core loop polls beside its sockets: a Unix socket
/// pair whose read end becomes readable when any [`Ringer`] rings.
#[derive(Debug)]
pub struct Doorbell {
    rx: UnixStream,
    /// Held for the doorbell's life: with every writer gone the read
    /// end would read EOF, which `poll(2)` reports as readable for ever.
    tx: Ringer,
}

/// The ringing end of a [`Doorbell`]; cheap to clone into threads.
#[derive(Debug, Clone)]
pub struct Ringer(Arc<UnixStream>);

impl Doorbell {
    /// A fresh, non-blocking doorbell.
    pub fn new() -> std::io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Doorbell {
            rx,
            tx: Ringer(Arc::new(tx)),
        })
    }

    /// A handle that rings this doorbell.
    pub fn ringer(&self) -> Ringer {
        self.tx.clone()
    }

    /// The poll entry that wakes the loop on a ring.
    pub fn interest(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Consumes every pending ring. Drain **before** checking what the
    /// rings announced: a ring landing after the drain stays pending
    /// and wakes the next wait, so none is lost.
    pub fn drain(&self) {
        let mut sink = [0u8; 256];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

impl Ringer {
    /// Wakes the loop. A full socket (`WouldBlock`) means a wake is
    /// already pending, which is all a ring has to guarantee.
    pub fn ring(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, unwrap_response};

    fn conn_pair() -> (FramedConn, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (s, _) = l.accept().unwrap();
        s.set_nonblocking(true).unwrap();
        let limits = Timeouts {
            read: Some(Duration::from_millis(10)),
            write: None,
            idle: Some(Duration::from_millis(50)),
        };
        (
            FramedConn::new(Stream::Tcp(s), limits, Instant::now()),
            peer,
        )
    }

    #[test]
    fn accepted_tcp_streams_have_nodelay_and_refusals_are_typed() {
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        tcp.set_nonblocking(true).unwrap();
        let addr = tcp.local_addr().unwrap();
        let listener = Listener::Tcp(tcp);
        let _a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        let mut admitted = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut refused = 0;
        while admitted.len() + refused < 2 && Instant::now() < deadline {
            let room = 1 - admitted.len();
            accept_under_budget(&listener, room, 7, |s| admitted.push(s), || refused += 1);
        }
        assert_eq!((admitted.len(), refused), (1, 1));
        match &admitted[0] {
            Stream::Tcp(s) => assert!(s.nodelay().unwrap(), "TCP_NODELAY not set"),
            Stream::Unix(_) => unreachable!(),
        }
        // The refused connection (whichever it was) reads the typed
        // overload frame; probe the one we still hold a handle to.
        b.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        if let Ok(Some(frame)) = read_frame(&mut b) {
            match unwrap_response(frame).unwrap_err() {
                ServeError::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 7),
                other => panic!("expected typed overload, got {other}"),
            }
        }
    }

    #[test]
    fn next_deadline_is_when_expire_acts() {
        let (mut c, _peer) = conn_pair();
        let t0 = c.last_activity;
        assert_eq!(c.next_deadline(false), Some(t0 + Duration::from_millis(50)));
        assert_eq!(c.next_deadline(true), None, "in flight: no idle clock");
        // A partial frame arms the loris clock, which is earlier.
        c.read_buf.extend_from_slice(&[0, 0]);
        assert!(c.take_frame(1024, t0).is_none());
        assert_eq!(c.next_deadline(false), Some(t0 + Duration::from_millis(10)));
        assert_eq!(c.expire(false, t0 + Duration::from_millis(9)), None);
        assert_eq!(
            c.expire(false, t0 + Duration::from_millis(10)),
            Some(Expiry::Reaped)
        );
        assert!(c.closing && !c.flushed());
        // Closing: nothing left to time; only the parting frame to send.
        assert_eq!(c.next_deadline(false), None);
        assert_eq!(c.interest(1024).events, POLLOUT);
    }

    #[test]
    fn eof_with_nothing_to_send_drops_out_of_the_poll_set() {
        let (mut c, peer) = conn_pair();
        peer.shutdown(Shutdown::Write).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !c.eof && Instant::now() < deadline {
            let mut set = [c.interest(1024)];
            wait(&mut set, Some(deadline));
            c.ready(&set[0]);
            c.fill(1024, Instant::now());
        }
        assert!(c.eof);
        assert_eq!(c.interest(1024).fd, -1);
        assert!(!c.finished(true), "in flight: wait for the answer");
        assert!(c.finished(false));
    }

    #[test]
    fn doorbell_wakes_a_wait_and_drains() {
        let bell = Doorbell::new().unwrap();
        let ringer = bell.ringer();
        std::thread::spawn(move || ringer.ring());
        let mut set = [bell.interest()];
        wait(&mut set, Some(Instant::now() + Duration::from_secs(5)));
        assert_ne!(set[0].revents & POLLIN, 0);
        bell.drain();
        let mut set = [bell.interest()];
        let t = Instant::now();
        wait(&mut set, Some(t + Duration::from_millis(5)));
        assert_eq!(set[0].revents, 0);
        assert!(t.elapsed() >= Duration::from_millis(5));
    }
}
