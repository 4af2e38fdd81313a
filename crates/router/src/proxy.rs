//! The router core: a readiness-based proxy in the same
//! single-thread non-blocking style as the `pmc-serve` server.
//!
//! One **core thread** owns the listener and every client connection;
//! each connection holds at most one **upstream** connection to the
//! backend that owns its traffic. Frames are parsed only to find
//! their boundaries and classify the op — the bytes themselves are
//! relayed **verbatim** in both directions, so the router can never
//! perturb a backend's response (float formatting included: bitwise
//! estimate identity survives proxying by construction).
//!
//! ## Routing
//!
//! A `resume TOKEN` frame pins its connection to the backend owning
//! the token: first by the routing table (which live migration keeps
//! current), else by the consistent-hash ring over
//! [`pmc_serve::tokenhash::resume_key`]. Connections that never
//! resume are placed once by hashing their connection id — stable for
//! the connection's life, ephemeral like their server-side window.
//! When a routed backend is down and its tokens have not finished
//! migrating, the router answers a typed `overloaded` frame (with the
//! configured `retry_after_ms` hint) instead of silently cold-routing
//! — a retrying client lands on the new owner with its window intact.
//!
//! ## Health and eviction
//!
//! A **prober thread** polls every backend's `readyz` on a jittered
//! interval. [`RouterConfig::evict_after`] consecutive failures evict
//! the backend: it leaves the ring, its tokens are remapped, and their
//! windows are migrated from its checkpoint file (crash) or drained
//! live over `migrate_export` (still answering but not ready). A
//! recovered backend rejoins the ring and the token share it regains
//! is migrated back the same way. `healthz`/`readyz`/`metrics` are
//! answered inline by the router core — they work with zero usable
//! backends, which is exactly when you need them.
//!
//! ## Gray-failure defense
//!
//! Probes only catch backends that *admit* to being sick. A browned-
//! out backend — slow on the data path but answering `readyz` in
//! time — passes every probe while wrecking tail latency. Three
//! mechanisms close that gap:
//!
//! * **Deadline propagation.** A client-stamped `deadline_ms` budget
//!   is decremented by the router's hop cost before relaying; frames
//!   whose budget cannot survive the hop are refused inline with a
//!   typed `deadline_exceeded`, so retries never exceed the caller's
//!   original patience and doomed work never reaches a backend.
//! * **Outlier ejection.** The relay path feeds per-backend latency
//!   and error EWMAs; each prober round compares every scored backend
//!   against the fleet median and **soft-ejects** outliers
//!   ([`RouterConfig::outlier_factor`]). Soft ejection is a distinct
//!   ring state from the prober's hard eviction: the backend keeps
//!   its ring share and its writes (no migration churn), but estimate
//!   reads on tokens whose standby replica is fully synced are served
//!   from the standby instead. Sustained recovery re-admits it.
//! * **Hedged reads with a retry budget.** An estimate on a synced
//!   token that has waited past the hedge delay (fixed, or dynamic
//!   from the primary's latency EWMA) fires a second copy to the ring
//!   standby; the first answer wins and is relayed, and when both
//!   land they are compared bitwise (a mismatch bumps a counter — the
//!   primary stays authoritative). Hedges spend from a per-connection
//!   token bucket refilled by completed requests
//!   ([`RouterConfig::retry_budget_ratio`]), so a brownout can never
//!   amplify load by more than the configured fraction.

use crate::backend::{Backend, BackendSpec};
use crate::error::RouterError;
use crate::migrate;
use crate::ring::HashRing;
use crate::stats::RouterStats;
use crate::sync::{self, Repl};
use pmc_json::Json;
use pmc_serve::framed::{
    accept_under_budget, earliest, wait, Doorbell, Expiry, FramedConn, Inbound, Listener, PollFd,
    Ringer, Stream, Timeouts,
};
use pmc_serve::protocol::{
    encode_frame, encode_frame_as, error_response, frame_deadline_ms, ok_response,
    raw_frame_encoding, read_frame, unwrap_response, with_deadline_ms, write_frame, Encoding,
    FrameError, Request, MAX_FRAME_BYTES,
};
use pmc_serve::tokenhash::{fnv1a, resume_key};
use pmc_serve::ServeError;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The backend fleet. May be empty (the router starts, reports
    /// `no_backends`, and refuses traffic until a prober restore).
    pub backends: Vec<BackendSpec>,
    /// How often the prober polls each backend's `readyz`.
    pub probe_interval: Duration,
    /// Connect/read/write deadline of one probe (and of migration
    /// control connections).
    pub probe_timeout: Duration,
    /// Consecutive failed probes before a backend is evicted.
    pub evict_after: u32,
    /// Largest accepted frame payload, bytes (both directions).
    pub max_frame_bytes: u32,
    /// Client-connection admission budget.
    pub max_connections: usize,
    /// Backoff hint carried by typed overload refusals, milliseconds.
    pub retry_after_ms: u64,
    /// Maximum age of a partial client frame (slow-loris defense).
    pub read_timeout: Option<Duration>,
    /// Maximum stall of an unflushed client response.
    pub write_timeout: Option<Duration>,
    /// Client connections silent for this long are reaped.
    pub idle_timeout: Option<Duration>,
    /// Cadence of the anti-entropy loop replicating dirty windows
    /// from each primary to its ring standby. Zero disables the
    /// background loop (replication then only happens through
    /// [`PowerRouter::sync_now`]).
    pub sync_interval: Duration,
    /// Whether estimate reads on fully-synced tokens may hedge to the
    /// ring standby.
    pub hedge_reads: bool,
    /// Fixed delay before an estimate read hedges to the standby.
    /// `None` derives the delay dynamically from the primary's
    /// latency EWMA (≈ p95: three times the mean, clamped to
    /// [2 ms, 250 ms]).
    pub hedge_after: Option<Duration>,
    /// A scored backend whose latency EWMA exceeds the fleet median
    /// by this factor (or whose error-rate EWMA crosses one half) is
    /// soft-ejected.
    pub outlier_factor: f64,
    /// Latency samples a backend must accumulate before the outlier
    /// detector will judge it — no ejections on thin evidence.
    pub outlier_min_samples: u64,
    /// Consecutive healthy outlier passes before a soft-ejected
    /// backend is re-admitted.
    pub readmit_after: u32,
    /// Retry-budget earn rate: fraction of a hedge earned back per
    /// completed request on the connection (0.1 caps sustained hedge
    /// amplification at 10%).
    pub retry_budget_ratio: f64,
    /// Retry-budget burst: whole hedges a fresh connection may fire
    /// before the earn rate becomes the binding constraint.
    pub retry_budget_burst: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
            evict_after: 3,
            max_frame_bytes: MAX_FRAME_BYTES,
            max_connections: 256,
            retry_after_ms: 50,
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(10)),
            idle_timeout: Some(Duration::from_secs(60)),
            sync_interval: Duration::from_millis(200),
            hedge_reads: true,
            hedge_after: None,
            outlier_factor: 3.0,
            outlier_min_samples: 16,
            readmit_after: 3,
            retry_budget_ratio: 0.1,
            retry_budget_burst: 3,
        }
    }
}

/// Milliseconds the router charges a relayed frame's deadline budget
/// for its own hop: a conservative floor (dispatch itself runs in
/// microseconds) so a budget the hop would consume is refused at the
/// router instead of wasting a backend round trip on a reply the
/// client has already given up on.
const ROUTER_HOP_COST_MS: u64 = 1;

/// Most answered-but-unresolved hedge races a connection may carry
/// (late loser copies still draining). The cap bounds router memory
/// against a primary that answers arbitrarily slower than the
/// standby; past it, the next request waits for the primary.
const MAX_PENDING_RACES: usize = 8;

/// State shared between the core thread, the prober and metrics.
pub(crate) struct Shared {
    pub(crate) config: RouterConfig,
    pub(crate) backends: Vec<Backend>,
    /// The current ring over usable (up) backends.
    pub(crate) ring: Mutex<HashRing>,
    /// Token → owning backend index. Live migration is the only thing
    /// that moves an existing entry; routing always believes it.
    pub(crate) table: Mutex<HashMap<String, usize>>,
    /// Token → replication state (what the anti-entropy loop last
    /// drained, and where it put the copy).
    pub(crate) repl: Mutex<HashMap<String, Repl>>,
    /// Token → machine-readable degradation reason, set when failover
    /// could not recover the token's window (cold start) and cleared
    /// once the window is replicated again.
    pub(crate) degraded: Mutex<HashMap<String, String>>,
    pub(crate) stats: Arc<RouterStats>,
    /// Unix milliseconds at router start — the floor for replication
    /// lag on backends that have never completed a sync round.
    pub(crate) started_ms: u64,
}

impl Shared {
    /// Rebuilds the ring from the backends' current up/down state.
    pub(crate) fn rebuild_ring(&self) {
        let ring = HashRing::build(
            self.backends
                .iter()
                .map(|b| (b.spec.name.as_str(), b.spec.weight)),
            |idx| self.backends[idx].is_up(),
        );
        *self.ring.lock().expect("ring lock") = ring;
    }

    /// Tokens currently routed to each backend index.
    fn tokens_owned(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.backends.len()];
        for &owner in self.table.lock().expect("table lock").values() {
            if owner < counts.len() {
                counts[owner] += 1;
            }
        }
        counts
    }

    fn healthz_json(&self) -> Json {
        Json::obj(vec![
            ("alive", Json::Bool(true)),
            ("router", Json::Bool(true)),
        ])
    }

    /// Per-backend `(replication_lag_ms, has_standby)`, and refreshes
    /// the aggregate lag / standby-coverage gauges as a side effect so
    /// every scrape and readyz reads current values.
    ///
    /// A backend "has a standby" when it is up and at least one other
    /// backend is up — every weight is ≥ 1, so a second up backend
    /// always contributes distinct ring coverage. Lag is the time
    /// since the backend's last *complete* anti-entropy round (router
    /// start for never-synced backends); down backends report zero —
    /// their windows are the failover path's problem, not the sync
    /// loop's. With the sync loop disabled (zero interval and no
    /// manual rounds yet) lag is also reported as zero rather than as
    /// an ever-growing alarm for a feature that is switched off.
    pub(crate) fn replication_health(&self) -> Vec<(u64, bool)> {
        let up_count = self.backends.iter().filter(|b| b.is_up()).count();
        let sync_enabled = !self.config.sync_interval.is_zero()
            || self
                .backends
                .iter()
                .any(|b| b.replicated_at_ms.load(Ordering::Relaxed) != 0);
        let now = sync::unix_ms();
        let rows: Vec<(u64, bool)> = self
            .backends
            .iter()
            .map(|b| {
                let has_standby = b.is_up() && up_count >= 2;
                let lag = if !b.is_up() || !sync_enabled {
                    0
                } else {
                    let synced_at = b
                        .replicated_at_ms
                        .load(Ordering::Relaxed)
                        .max(self.started_ms);
                    now.saturating_sub(synced_at)
                };
                (lag, has_standby)
            })
            .collect();
        let max_lag = rows.iter().map(|&(lag, _)| lag).max().unwrap_or(0);
        let uncovered = self
            .backends
            .iter()
            .zip(&rows)
            .filter(|(b, &(_, has))| b.is_up() && !has)
            .count() as u64;
        self.stats
            .replication_lag_ms
            .store(max_lag, Ordering::Relaxed);
        self.stats
            .backends_without_standby
            .store(uncovered, Ordering::Relaxed);
        rows
    }

    /// Router readiness: whether any usable backend exists and every
    /// up backend has a live standby, with typed reasons
    /// (`no_backends`, `no_standby:<name>`) when not.
    pub(crate) fn readyz_json(&self) -> Json {
        let mut reasons: Vec<String> = Vec::new();
        let usable = self.backends.iter().filter(|b| b.is_up()).count();
        if usable == 0 {
            reasons.push("no_backends".to_string());
        }
        let repl = self.replication_health();
        for (b, &(_, has_standby)) in self.backends.iter().zip(&repl) {
            if b.is_up() && !has_standby {
                // A single live copy of every window this backend
                // owns: losing it means cold starts. Not ready until
                // the fleet regains redundancy.
                reasons.push(format!("no_standby:{}", b.spec.name));
            }
            if b.is_up() && b.is_ejected() {
                // Gray failure in progress: the backend passes probes
                // but the outlier detector has its reads on the
                // standby. Traffic still flows — degraded, not down.
                reasons.push(format!("gray_degraded:{}", b.spec.name));
            }
        }
        let owned = self.tokens_owned();
        let backends: Vec<Json> = self
            .backends
            .iter()
            .zip(&owned)
            .zip(&repl)
            .map(|((b, &tokens), &(lag, has_standby))| {
                Json::obj(vec![
                    ("name", Json::from(b.spec.name.as_str())),
                    ("addr", Json::from(b.spec.addr.as_str())),
                    ("up", Json::Bool(b.is_up())),
                    ("inflight", Json::from(b.inflight.load(Ordering::Relaxed))),
                    ("tokens_owned", Json::from(tokens)),
                    ("replication_lag_ms", Json::from(lag)),
                    ("has_standby", Json::Bool(has_standby)),
                    ("gray_degraded", Json::Bool(b.is_ejected())),
                ])
            })
            .collect();
        let degraded: Vec<Json> = {
            let mut marks: Vec<(String, String)> = self
                .degraded
                .lock()
                .expect("degraded lock")
                .iter()
                .map(|(t, r)| (t.clone(), r.clone()))
                .collect();
            marks.sort();
            marks
                .into_iter()
                .map(|(token, reason)| {
                    Json::obj(vec![
                        ("token", Json::from(token.as_str())),
                        ("reason", Json::from(reason.as_str())),
                    ])
                })
                .collect()
        };
        Json::obj(vec![
            ("ready", Json::Bool(reasons.is_empty())),
            (
                "reasons",
                Json::Arr(
                    reasons
                        .into_iter()
                        .map(|r| Json::from(r.as_str()))
                        .collect(),
                ),
            ),
            ("backends", Json::Arr(backends)),
            (
                "tokens",
                Json::from(self.table.lock().expect("table lock").len()),
            ),
            (
                "migrations_failed",
                Json::from(self.stats.migrations_failed.load(Ordering::Relaxed)),
            ),
            (
                "replication_lag_ms",
                Json::from(self.stats.replication_lag_ms.load(Ordering::Relaxed)),
            ),
            ("degraded_tokens", Json::Arr(degraded)),
        ])
    }

    fn metrics_json(&self) -> Json {
        let owned = self.tokens_owned();
        let repl = self.replication_health();
        let rows: Vec<crate::stats::BackendRow> = self
            .backends
            .iter()
            .zip(&owned)
            .zip(&repl)
            .map(|((b, &tokens), &(lag, has_standby))| {
                (
                    b.spec.name.clone(),
                    b.is_up(),
                    b.inflight.load(Ordering::Relaxed),
                    b.evictions.load(Ordering::Relaxed),
                    b.upstream_failures.load(Ordering::Relaxed),
                    tokens,
                    lag,
                    has_standby,
                    b.latency_ewma_us().round() as u64,
                    b.is_ejected(),
                )
            })
            .collect();
        Json::obj(vec![
            ("content_type", Json::from("text/plain; version=0.0.4")),
            ("body", Json::from(self.stats.prometheus(&rows).as_str())),
        ])
    }
}

/// One relay connection to a backend, owned by a client connection
/// (the primary) or by a fired hedge (a one-shot copy to the standby).
struct Upstream {
    io: FramedConn,
    backend: usize,
    /// Responses to discard before relaying to the client — one per
    /// router-injected frame (`hello` replay, re-binding `resume`).
    swallow: u32,
}

impl Upstream {
    /// Connects to `backend` and queues what must precede any client
    /// frame, replies swallowed: a `hello` replay for a non-JSON client
    /// (responses are relayed verbatim, so a reconnect must not switch
    /// the wire encoding; it goes first because the resume counts as
    /// data), then a `resume` binding `resume_token`'s durable window,
    /// or the backend would file samples under a cold ephemeral one.
    fn open(
        shared: &Shared,
        backend: usize,
        encoding: Encoding,
        resume_token: Option<&str>,
    ) -> Result<Upstream, ServeError> {
        let stream = TcpStream::connect(&shared.backends[backend].spec.addr)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let mut up = Upstream {
            io: FramedConn::new(Stream::Tcp(stream), Timeouts::default(), Instant::now()),
            backend,
            swallow: 0,
        };
        if encoding != Encoding::Json {
            up.inject(&Request::Hello {
                encoding: encoding.as_str().to_string(),
            })?;
        }
        if let Some(token) = resume_token {
            up.inject(&Request::Resume {
                token: token.to_string(),
            })?;
        }
        Ok(up)
    }

    fn inject(&mut self, req: &Request) -> Result<(), ServeError> {
        self.io.push(&encode_frame(&req.to_json_value())?);
        self.swallow += 1;
        Ok(())
    }

    /// Flushes relayed bytes and reads what the backend sent. True
    /// once the upstream is unusable (hung up or errored); frames
    /// already read can still be taken.
    fn pump(&mut self, cap: usize, now: Instant) -> bool {
        if self.io.flush(now).is_err() {
            return true;
        }
        self.io.fill(cap, now);
        self.io.eof
    }

    /// The next response frame owed to the client, verbatim, skipping
    /// replies to injected frames. `Err` when the backend speaks
    /// garbage — as broken as one that hung up.
    fn next_answer(&mut self, max_frame: u32) -> Result<Option<Vec<u8>>, FrameError> {
        while let Some(bytes) = self.io.take_raw(max_frame)? {
            if self.swallow == 0 {
                return Ok(Some(bytes));
            }
            self.swallow -= 1;
        }
        Ok(None)
    }
}

/// One relayed request's lifecycle, kept until every copy of its
/// response has landed — the late loser of a hedge race included, so
/// the two answers can be compared bitwise.
struct Pending {
    /// Backend index the primary relay went to.
    primary: usize,
    /// Relay start: the latency-EWMA sample and the hedge timer.
    started: Instant,
    /// The exact bytes relayed to the primary, retained only while a
    /// hedge may re-send them verbatim to the standby.
    raw: Vec<u8>,
    /// Standby eligible for a hedged copy (estimate on a synced
    /// token), decided at dispatch time.
    hedge_to: Option<usize>,
    /// The hedge decision has been made — fired, budget-denied, or
    /// never eligible. Either way, stop re-arming the timer.
    hedge_decided: bool,
    /// When the hedged copy was actually sent: the standby's latency
    /// sample starts here, not at `started` — the hedge delay is the
    /// primary's slowness, and must never be scored against the
    /// standby that bailed the request out.
    hedge_fired: Option<Instant>,
    /// The fired hedge's one-shot upstream to the standby.
    hedge_up: Option<Upstream>,
    /// First complete answer, already relayed to the client; retained
    /// to cross-check the late copy bitwise.
    answered: Option<Vec<u8>>,
    /// The primary upstream still owes this request a response frame.
    primary_owes: bool,
}

impl Pending {
    /// Every copy landed (or was abandoned): safe to forget.
    fn resolved(&self) -> bool {
        self.answered.is_some() && !self.primary_owes && self.hedge_up.is_none()
    }

    /// Unanswered with no upstream left to answer it: the client's
    /// request is unrecoverable on this connection.
    fn doomed(&self) -> bool {
        self.answered.is_none() && !self.primary_owes && self.hedge_up.is_none()
    }
}

/// Per-client-connection state owned by the core thread: the shared
/// framed connection plus the relay state this tier adds.
struct Conn {
    /// The client socket. The router answers `hello` itself and replays
    /// the agreed encoding to every upstream it opens.
    io: FramedConn,
    id: u64,
    /// The durable identity this connection bound with `resume`.
    token: Option<String>,
    upstream: Option<Upstream>,
    /// Relayed requests not yet fully resolved, FIFO. At most the
    /// last one is unanswered; the rest are hedge races draining
    /// their late copies.
    pendings: VecDeque<Pending>,
    /// Retry-budget token bucket, millitokens: hedges spend 1000,
    /// completed requests earn `retry_budget_ratio * 1000`.
    budget_mtokens: u64,
    /// A relayed request is awaiting its answer.
    inflight: bool,
}

impl Conn {
    /// Earns the per-request retry-budget refill, capped at the burst.
    fn earn_budget(&mut self, cfg: &RouterConfig) {
        let earn = (cfg.retry_budget_ratio.clamp(0.0, 1.0) * 1000.0) as u64;
        let cap = u64::from(cfg.retry_budget_burst) * 1000;
        self.budget_mtokens = (self.budget_mtokens + earn).min(cap.max(earn));
    }

    /// Drops every pending's gauges and sockets — connection teardown.
    fn release_pendings(&mut self, shared: &Shared) {
        for p in self.pendings.drain(..) {
            if p.primary_owes {
                RouterStats::dec(&shared.backends[p.primary].inflight);
            }
            if let Some(h) = p.hedge_up {
                h.io.stream.close();
                RouterStats::dec(&shared.backends[h.backend].inflight);
            }
        }
    }

    /// Every socket this connection owns in one fixed order (client,
    /// primary upstream, fired hedges), so the entries
    /// [`Self::interest`] pushes line up with [`Self::ready`]'s.
    fn ios(&mut self) -> impl Iterator<Item = &mut FramedConn> {
        let hedges = self.pendings.iter_mut().filter_map(|p| p.hedge_up.as_mut());
        std::iter::once(&mut self.io)
            .chain(self.upstream.iter_mut().map(|up| &mut up.io))
            .chain(hedges.map(|h| &mut h.io))
    }

    /// Adds this connection's sockets to the poll set and returns its
    /// earliest deadline: a client-side limit or the hedge fire time.
    fn interest(&mut self, shared: &Shared, set: &mut Vec<PollFd>) -> Option<Instant> {
        let cap = 4 + shared.config.max_frame_bytes as usize;
        set.extend(self.ios().map(|io| io.interest(cap)));
        earliest(
            self.io.next_deadline(self.inflight),
            hedge_due(self, shared),
        )
    }

    /// Takes the wait's results for the entries [`Self::interest`] pushed.
    fn ready<'a>(&mut self, entries: &mut impl Iterator<Item = &'a PollFd>) {
        for (io, entry) in self.ios().zip(entries) {
            io.ready(entry);
        }
    }
}

/// Handle to a running router; dropping it shuts the router down.
pub struct PowerRouter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Wakes the core out of its poll (shutdown).
    bell: Ringer,
    core: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    syncer: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl PowerRouter {
    /// Binds the listener and starts the core and prober threads.
    pub fn start(config: RouterConfig) -> Result<Self, RouterError> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let backends: Vec<Backend> = config.backends.iter().cloned().map(Backend::new).collect();
        let shared = Arc::new(Shared {
            config,
            backends,
            ring: Mutex::new(HashRing::default()),
            table: Mutex::new(HashMap::new()),
            repl: Mutex::new(HashMap::new()),
            degraded: Mutex::new(HashMap::new()),
            stats: Arc::new(RouterStats::default()),
            started_ms: sync::unix_ms(),
        });
        shared.rebuild_ring();
        let stop = Arc::new(AtomicBool::new(false));
        let doorbell = Doorbell::new()?;
        let bell = doorbell.ringer();

        let core = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let listener = Listener::Tcp(listener);
            std::thread::Builder::new()
                .name("pmc-router-core".into())
                .spawn(move || core_loop(listener, doorbell, &shared, &stop))?
        };
        let prober = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || prober_loop(&shared, &stop))
        };
        let syncer = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || sync::sync_loop(&shared, &stop))
        };
        Ok(PowerRouter {
            addr,
            stop,
            bell,
            core: Some(core),
            prober: Some(prober),
            syncer: Some(syncer),
            shared,
        })
    }

    /// The bound TCP address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live router counters.
    pub fn stats(&self) -> Arc<RouterStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The backend index currently owning `token`, if it has been
    /// routed (test/ops introspection).
    pub fn owner_of(&self, token: &str) -> Option<usize> {
        self.shared
            .table
            .lock()
            .expect("table lock")
            .get(token)
            .copied()
    }

    /// Runs one anti-entropy round right now, on the caller's thread.
    /// Returns true when the round left every routed token's window
    /// replicated to its standby (tests and ops use this to reach a
    /// known-replicated state without waiting out the interval).
    pub fn sync_now(&self) -> bool {
        sync::sync_round(&self.shared)
    }

    /// `(replicated_seq, primary_seq)` for `token`, if the
    /// anti-entropy loop has seen it (test/ops introspection).
    pub fn replication_of(&self, token: &str) -> Option<(u64, u64)> {
        self.shared
            .repl
            .lock()
            .expect("repl lock")
            .get(token)
            .map(|r| (r.replicated_seq, r.primary_seq))
    }

    /// Tokens whose windows failover could not fully recover, with
    /// their machine-readable degradation reason. Cleared per token
    /// once its (fresh) window is replicated again.
    pub fn degraded_tokens(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .shared
            .degraded
            .lock()
            .expect("degraded lock")
            .iter()
            .map(|(t, r)| (t.clone(), r.clone()))
            .collect();
        out.sort();
        out
    }

    /// Stops accepting, notifies clients with a `draining` frame,
    /// closes every connection and joins both threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.bell.ring();
        if let Some(core) = self.core.take() {
            let _ = core.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        if let Some(syncer) = self.syncer.take() {
            let _ = syncer.join();
        }
    }
}

impl Drop for PowerRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The core readiness loop: accept, sweep every connection, then block
/// in `poll(2)` until a socket event, the shutdown doorbell, or the
/// earliest deadline (client limits and armed hedge fire times).
fn core_loop(listener: Listener, bell: Doorbell, shared: &Shared, stop: &AtomicBool) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id = 1u64;
    let mut set = Vec::new();
    let cfg = &shared.config;
    let limits = Timeouts {
        read: cfg.read_timeout,
        write: cfg.write_timeout,
        idle: cfg.idle_timeout,
    };
    loop {
        bell.drain();
        if stop.load(Ordering::SeqCst) {
            drop(listener);
            let now = Instant::now();
            for (_, mut conn) in conns.drain() {
                // Best-effort parting notice; the socket close is the
                // real signal.
                conn.io.queue(&error_response(&ServeError::Draining));
                let _ = conn.io.flush(now);
                conn.io.stream.close();
                conn.release_pendings(shared);
                RouterStats::dec(&shared.stats.connections_open);
            }
            return;
        }

        let now = Instant::now();
        let room = cfg.max_connections.saturating_sub(conns.len());
        let admit = |stream| {
            let id = next_id;
            next_id += 1;
            conns.insert(
                id,
                Conn {
                    io: FramedConn::new(stream, limits, now),
                    id,
                    token: None,
                    upstream: None,
                    pendings: VecDeque::new(),
                    budget_mtokens: u64::from(cfg.retry_budget_burst) * 1000,
                    inflight: false,
                },
            );
            RouterStats::bump(&shared.stats.connections_accepted);
            RouterStats::bump(&shared.stats.connections_open);
        };
        accept_under_budget(&listener, room, cfg.retry_after_ms, admit, || {});

        conns.retain(|_, conn| {
            if !sweep_conn(conn, shared, now) {
                return true;
            }
            conn.io.stream.close();
            conn.release_pendings(shared);
            RouterStats::dec(&shared.stats.connections_open);
            false
        });

        set.clear();
        set.push(bell.interest());
        set.push(listener.interest());
        let mut deadline = None;
        for conn in conns.values_mut() {
            deadline = earliest(deadline, conn.interest(shared, &mut set));
        }
        wait(&mut set, deadline);
        // Same iteration order as the pushes: the map is unchanged.
        let mut entries = set[2..].iter();
        for conn in conns.values_mut() {
            conn.ready(&mut entries);
        }
    }
}

/// How a parsed client frame was dispatched.
enum Dispatch {
    /// Answered by the router; keep parsing.
    Inline,
    /// Relayed upstream; one request is now in flight.
    Relayed,
}

/// One pass over a client connection and its upstreams: relay answers,
/// fire a due hedge, dispatch client frames, flush, enforce deadlines.
/// Answers go first so one that frees the connection lets its next
/// pipelined frame out in the same pass. Returns whether to close.
fn sweep_conn(conn: &mut Conn, shared: &Shared, now: Instant) -> bool {
    let cfg = &shared.config;
    conn.io.fill(4 + cfg.max_frame_bytes as usize, now);
    // Completed requests refill the token-bucket retry budget.
    for _ in 0..relay_primary(conn, shared, now) + sweep_hedges(conn, shared, now) {
        conn.earn_budget(cfg);
    }
    // Hedge trigger: the newest pending is the only possibly-
    // unanswered one; past its delay, race a copy to the standby.
    fire_hedge_if_due(conn, shared, now);

    // A request with no upstream left to answer it is unrecoverable
    // mid-stream: drop the client connection so its retry layer
    // reconnects and resumes — by then routing points at the new
    // owner. Injected-resume replies still owed by a broken upstream
    // are covered by `primary_owes` on the pending that forced the
    // injection.
    if conn.pendings.iter().any(Pending::doomed) {
        RouterStats::bump(&shared.stats.upstream_drops);
        return true;
    }
    conn.pendings.retain(|p| !p.resolved());

    // Parse/dispatch phase: at most one relayed request unanswered,
    // and a bounded backlog of answered hedge races still draining
    // their late copies.
    while !conn.io.closing && !conn.inflight && conn.pendings.len() < MAX_PENDING_RACES {
        match conn.io.take_frame(cfg.max_frame_bytes, now) {
            None => break,
            Some(Inbound::Malformed) => {}
            Some(Inbound::Frame(frame, raw)) => {
                if let Dispatch::Relayed = dispatch(conn, raw, &frame, shared) {
                    break;
                }
            }
        }
    }
    // Send what was just relayed; a failure surfaces on the next pass.
    if let Some(up) = conn.upstream.as_mut() {
        let _ = up.io.flush(now);
    }

    if conn.io.flush(now).is_err() {
        return true;
    }
    if conn.io.expire(conn.inflight, now) == Some(Expiry::Stalled) {
        return true;
    }
    conn.io.finished(conn.inflight)
}

/// Flushes the primary upstream, reads its responses and relays them
/// back verbatim (minus swallowed router-injected replies). Frames
/// match, in order, the pendings the primary still owes (FIFO —
/// backends answer in request order).
fn relay_primary(conn: &mut Conn, shared: &Shared, now: Instant) -> u32 {
    let cfg = &shared.config;
    let Some(up) = conn.upstream.as_mut() else {
        return 0;
    };
    let mut broke = up.pump(4 + cfg.max_frame_bytes as usize, now);
    let mut earned = 0u32;
    loop {
        let bytes = match up.next_answer(cfg.max_frame_bytes) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => break,
            Err(_) => {
                broke = true;
                break;
            }
        };
        let Some(p) = conn.pendings.iter_mut().find(|p| p.primary_owes) else {
            // An unsolicited frame: the backend lost frame sync — as
            // broken as one that hung up.
            broke = true;
            break;
        };
        p.primary_owes = false;
        RouterStats::dec(&shared.backends[p.primary].inflight);
        // Score the primary's latency whether or not it won the race —
        // a hedge-won brownout must still feed the outlier detector
        // the slow samples.
        let us = now.duration_since(p.started).as_secs_f64() * 1e6;
        shared.backends[p.primary].record_latency_us(us);
        if land(p, bytes, &mut conn.io, shared) {
            conn.inflight = false;
            earned += 1;
        }
    }
    if broke {
        if let Some(up) = conn.upstream.take() {
            up.io.stream.close();
            RouterStats::bump(&shared.backends[up.backend].upstream_failures);
            shared.backends[up.backend].record_relay_error();
        }
        // Everything the primary still owed is gone. Answered races
        // just forfeit their bitwise check; the unanswered request may
        // still be saved by an in-flight hedge (`doomed()` decides
        // once no copy remains).
        for p in conn.pendings.iter_mut().filter(|p| p.primary_owes) {
            p.primary_owes = false;
            RouterStats::dec(&shared.backends[p.primary].inflight);
        }
    }
    earned
}

/// Lands one copy of `p`'s answer. The first copy is relayed to the
/// client verbatim, and kept while another copy may still land; a
/// late copy is only compared bitwise against it (the client already
/// has its answer, so a disagreement is counted, not served). Returns
/// whether this copy answered the request.
fn land(p: &mut Pending, bytes: Vec<u8>, client: &mut FramedConn, shared: &Shared) -> bool {
    if let Some(first) = &p.answered {
        if *first != bytes {
            RouterStats::bump(&shared.stats.hedge_mismatches);
        }
        return false;
    }
    client.push(&bytes);
    let copy_due = p.primary_owes || p.hedge_up.is_some();
    p.answered = Some(if copy_due { bytes } else { Vec::new() });
    true
}

/// Sweeps every fired hedge with the same calls the primary upstream
/// uses: flush its one-shot upstream, read it, and land its answer.
/// Returns how many requests a hedge answered.
fn sweep_hedges(conn: &mut Conn, shared: &Shared, now: Instant) -> u32 {
    let cfg = &shared.config;
    let mut earned = 0u32;
    for p in conn.pendings.iter_mut() {
        let Some(mut up) = p.hedge_up.take() else {
            continue;
        };
        let mut broke = up.pump(4 + cfg.max_frame_bytes as usize, now);
        // The injected replies first (swallowed), then the one response
        // this upstream exists for.
        let answer = up.next_answer(cfg.max_frame_bytes).unwrap_or_else(|_| {
            broke = true;
            None
        });
        let standby = up.backend;
        if let Some(bytes) = answer {
            up.io.stream.close();
            RouterStats::dec(&shared.backends[standby].inflight);
            let from = p.hedge_fired.unwrap_or(p.started);
            let us = now.duration_since(from).as_secs_f64() * 1e6;
            shared.backends[standby].record_latency_us(us);
            if land(p, bytes, &mut conn.io, shared) {
                RouterStats::bump(&shared.stats.hedges_won);
                conn.inflight = false;
                earned += 1;
            }
        } else if broke {
            up.io.stream.close();
            RouterStats::dec(&shared.backends[standby].inflight);
            shared.backends[standby].record_relay_error();
            // If the primary is gone too, the caller's `doomed()`
            // check drops the connection; otherwise the race simply
            // falls back to the primary.
        } else {
            p.hedge_up = Some(up);
        }
    }
    earned
}

/// The delay after which an eligible estimate read hedges: fixed from
/// config when set, else derived from the primary's latency EWMA
/// (three times the mean ≈ a p95 stand-in under exponential-ish
/// service times, clamped to [2 ms, 250 ms]). `None` — no hedging —
/// until the primary has enough samples to make the derivation mean
/// anything.
fn hedge_delay(cfg: &RouterConfig, primary: &Backend) -> Option<Duration> {
    if let Some(d) = cfg.hedge_after {
        return Some(d);
    }
    if primary.latency_samples.load(Ordering::Relaxed) < 4 {
        return None;
    }
    let us = (3.0 * primary.latency_ewma_us()).clamp(2_000.0, 250_000.0);
    Some(Duration::from_micros(us as u64))
}

/// When the newest pending's hedge fires: armed for an unanswered,
/// undecided, hedge-eligible request on a connection that is not
/// closing, once the primary's delay is known. The loop waits for it.
fn hedge_due(conn: &Conn, shared: &Shared) -> Option<Instant> {
    let p = conn.pendings.back()?;
    if conn.io.closing || p.answered.is_some() || p.hedge_decided {
        return None;
    }
    p.hedge_to?;
    Some(p.started + hedge_delay(&shared.config, &shared.backends[p.primary])?)
}

/// Fires a hedged copy of the newest pending to its standby once the
/// hedge delay has passed unanswered — if the connection's retry
/// budget can pay for it. The decision is made at most once per
/// request.
fn fire_hedge_if_due(conn: &mut Conn, shared: &Shared, now: Instant) {
    if !hedge_due(conn, shared).is_some_and(|due| now >= due) {
        return;
    }
    let Some(p) = conn.pendings.back_mut() else {
        return;
    };
    p.hedge_decided = true;
    let Some(standby) = p.hedge_to else {
        return;
    };
    if !shared.backends[standby].is_up() || shared.backends[standby].is_ejected() {
        return;
    }
    let Some(token) = conn.token.as_deref() else {
        return; // hedges only exist for bound tokens
    };
    if conn.budget_mtokens < 1000 {
        RouterStats::bump(&shared.stats.retry_budget_exhausted);
        return;
    }
    // The hedge copy must read the same durable window the primary
    // would, in the same encoding (or the bitwise comparison would
    // flag every race): bind the one-shot upstream to the token.
    let mut up = match Upstream::open(shared, standby, conn.io.encoding, Some(token)) {
        Ok(up) => up,
        Err(_) => {
            RouterStats::bump(&shared.backends[standby].upstream_failures);
            return;
        }
    };
    up.io.push(&p.raw);
    conn.budget_mtokens -= 1000;
    RouterStats::bump(&shared.stats.hedges_fired);
    RouterStats::bump(&shared.backends[standby].inflight);
    p.hedge_fired = Some(now);
    p.hedge_up = Some(up);
}

/// Classifies one client frame and either answers it inline or relays
/// it (verbatim) to the owning backend.
fn dispatch(conn: &mut Conn, raw: Vec<u8>, frame: &Json, shared: &Shared) -> Dispatch {
    let op = frame.str_field("op").unwrap_or("");
    // Deadline propagation: charge the frame's budget the router's
    // hop cost before it goes anywhere. A budget the hop would
    // consume is refused here, typed — the backend round trip would
    // only produce an answer the client has already abandoned.
    let mut raw = raw;
    if let Some(ms) = frame_deadline_ms(frame) {
        if ms <= ROUTER_HOP_COST_MS {
            RouterStats::bump(&shared.stats.deadline_rejects);
            RouterStats::bump(&shared.stats.frames_inline);
            conn.io
                .queue(&error_response(&ServeError::DeadlineExceeded {
                    remaining_ms: 0,
                }));
            return Dispatch::Inline;
        }
        // The restamped copy must keep the frame's own wire encoding:
        // a binary request hedged later is re-sent verbatim, and the
        // standby must see the same encoding the primary did.
        let restamped = with_deadline_ms(frame, ms - ROUTER_HOP_COST_MS);
        match encode_frame_as(&restamped, raw_frame_encoding(&raw)) {
            Ok(bytes) => raw = bytes,
            Err(_) => {
                conn.io.closing = true;
                return Dispatch::Inline;
            }
        }
    }
    match op {
        // Encoding negotiation is a connection property, and the
        // router owns the client connection: answer inline with the
        // exact verdict (and bytes) the backend core would produce,
        // then bring each upstream into agreement by injecting a
        // hello when it is (re)connected.
        "hello" => {
            RouterStats::bump(&shared.stats.frames_inline);
            let name = frame.str_field("encoding").unwrap_or("json");
            let resp = match conn.io.negotiate(name) {
                Ok(agreed) => {
                    if conn.io.encoding == Encoding::Binary {
                        RouterStats::bump(&shared.stats.binary_conns);
                    }
                    ok_response(agreed)
                }
                Err(e) => error_response(&e),
            };
            conn.io.queue(&resp);
            Dispatch::Inline
        }
        // The router's own health surface: answered even with every
        // backend down.
        "healthz" => {
            RouterStats::bump(&shared.stats.frames_inline);
            conn.io.queue(&ok_response(shared.healthz_json()));
            Dispatch::Inline
        }
        "readyz" => {
            RouterStats::bump(&shared.stats.frames_inline);
            conn.io.queue(&ok_response(shared.readyz_json()));
            Dispatch::Inline
        }
        "metrics" => {
            RouterStats::bump(&shared.stats.frames_inline);
            conn.io.queue(&ok_response(shared.metrics_json()));
            Dispatch::Inline
        }
        "resume" => {
            let token = match frame.str_field("token") {
                Ok(t) if !t.is_empty() => t.to_string(),
                // Malformed resume: relay it so the backend answers
                // the protocol error with its own words.
                _ => return forward(conn, raw, shared),
            };
            let owner = {
                let mut table = shared.table.lock().expect("table lock");
                match table.get(&token) {
                    Some(&idx) => Some(idx),
                    None => {
                        let owner = shared
                            .ring
                            .lock()
                            .expect("ring lock")
                            .owner(resume_key(&token));
                        if let Some(idx) = owner {
                            table.insert(token.clone(), idx);
                        }
                        owner
                    }
                }
            };
            conn.token = Some(token);
            match owner {
                Some(idx) if shared.backends[idx].is_up() => {
                    forward_to(conn, raw, shared, idx, true, None)
                }
                _ => refuse(conn, shared),
            }
        }
        "ingest" => {
            // Conservative staleness guard: this write will advance
            // the primary's window past the standby's copy. Mark the
            // replica stale *now*, before the relay, so no hedge or
            // standby read can race the write and serve pre-write
            // state as if it were synced. The next anti-entropy round
            // restores synced-ness with the true sequence numbers.
            if let Some(token) = &conn.token {
                if let Some(r) = shared.repl.lock().expect("repl lock").get_mut(token) {
                    r.primary_seq = r.primary_seq.saturating_add(1);
                }
            }
            forward(conn, raw, shared)
        }
        "estimate" => forward_estimate(conn, raw, shared),
        // Labeled training samples go to the token's primary (or the
        // ephemeral placement) like any write, but touch only the
        // shard's shared model state — no client window advances, so
        // no replica-staleness bump.
        "train" => forward(conn, raw, shared),
        _ => forward(conn, raw, shared),
    }
}

/// Routes an estimate read. On a bound token whose standby replica is
/// fully synced, the read may leave the primary's queue: a
/// soft-ejected primary has it served from the standby outright
/// (routing, not a retry — no budget draw), and a healthy primary
/// gets it relayed normally but armed to hedge to the standby past
/// the hedge delay.
fn forward_estimate(conn: &mut Conn, raw: Vec<u8>, shared: &Shared) -> Dispatch {
    let Some(token) = conn.token.clone() else {
        // Ephemeral windows have no replica; nothing to hedge to.
        return forward(conn, raw, shared);
    };
    let Some(idx) = token_owner(shared, &token).filter(|&idx| shared.backends[idx].is_up()) else {
        return refuse(conn, shared);
    };
    let standby = synced_standby(shared, &token).filter(|&s| s != idx);
    if shared.backends[idx].is_ejected() {
        if let Some(s) = standby {
            return forward_to(conn, raw, shared, s, false, None);
        }
    }
    let hedge_to = if shared.config.hedge_reads {
        standby
    } else {
        None
    };
    forward_to(conn, raw, shared, idx, false, hedge_to)
}

/// The ring standby holding a fully-synced copy of `token`'s window —
/// `None` unless a copy exists, it is as new as everything the
/// primary has observed, and the backend holding it is up and not
/// itself soft-ejected. Only such a standby may answer reads: bitwise
/// identity with the primary's answer is the contract.
fn synced_standby(shared: &Shared, token: &str) -> Option<usize> {
    let repl = shared.repl.lock().expect("repl lock");
    let r = repl.get(token)?;
    if r.replicated_seq == 0 || r.replicated_seq != r.primary_seq {
        return None;
    }
    let s = r.standby;
    (s < shared.backends.len() && shared.backends[s].is_up() && !shared.backends[s].is_ejected())
        .then_some(s)
}

/// The backend owning `token`: its routing-table entry (which live
/// migration keeps current), else its ring owner.
fn token_owner(shared: &Shared, token: &str) -> Option<usize> {
    let table = shared.table.lock().expect("table lock");
    table.get(token).copied().or_else(|| {
        shared
            .ring
            .lock()
            .expect("ring lock")
            .owner(resume_key(token))
    })
}

/// Relays a frame to the backend owning this connection's traffic.
fn forward(conn: &mut Conn, raw: Vec<u8>, shared: &Shared) -> Dispatch {
    let owner = match &conn.token {
        Some(token) => token_owner(shared, token),
        None => {
            // Ephemeral placement: stable for this connection's life,
            // re-resolved only if the placed backend went down.
            match conn.upstream.as_ref() {
                Some(up) if shared.backends[up.backend].is_up() => Some(up.backend),
                _ => shared
                    .ring
                    .lock()
                    .expect("ring lock")
                    .owner(fnv1a(&conn.id.to_le_bytes())),
            }
        }
    };
    match owner {
        Some(idx) if shared.backends[idx].is_up() => {
            forward_to(conn, raw, shared, idx, false, None)
        }
        _ => refuse(conn, shared),
    }
}

/// Ensures an upstream to backend `idx` and relays the raw frame.
/// `hedge_to` arms the request to race a copy to that standby once
/// the hedge delay passes unanswered.
fn forward_to(
    conn: &mut Conn,
    raw: Vec<u8>,
    shared: &Shared,
    idx: usize,
    is_resume: bool,
    hedge_to: Option<usize>,
) -> Dispatch {
    if !matches!(&conn.upstream, Some(up) if up.backend == idx) {
        if let Some(up) = conn.upstream.take() {
            up.io.stream.close();
        }
        // Late loser copies still owed by the old upstream will never
        // arrive now; they forfeit their bitwise check. (The parse
        // gate guarantees no *unanswered* pending exists here.)
        for p in conn.pendings.iter_mut().filter(|p| p.primary_owes) {
            p.primary_owes = false;
            RouterStats::dec(&shared.backends[p.primary].inflight);
        }
        let token = conn.token.as_deref().filter(|_| !is_resume);
        match Upstream::open(shared, idx, conn.io.encoding, token) {
            Ok(up) => conn.upstream = Some(up),
            Err(_) => {
                RouterStats::bump(&shared.backends[idx].upstream_failures);
                return refuse(conn, shared);
            }
        }
    }
    let up = conn.upstream.as_mut().expect("upstream just ensured");
    up.io.push(&raw);
    conn.inflight = true;
    conn.pendings.push_back(Pending {
        primary: idx,
        started: Instant::now(),
        // The raw bytes are only retained while a hedge may re-send
        // them verbatim; unhedgeable requests keep nothing.
        raw: if hedge_to.is_some() { raw } else { Vec::new() },
        hedge_decided: hedge_to.is_none(),
        hedge_fired: None,
        hedge_to,
        hedge_up: None,
        answered: None,
        primary_owes: true,
    });
    RouterStats::bump(&shared.stats.frames_routed);
    RouterStats::bump(&shared.backends[idx].inflight);
    Dispatch::Relayed
}

/// Answers a typed overload refusal: no usable backend can take this
/// frame right now (none configured, all evicted, or the owner is
/// down pending migration). A retrying client comes back after the
/// hint — usually to a freshly migrated owner.
fn refuse(conn: &mut Conn, shared: &Shared) -> Dispatch {
    RouterStats::bump(&shared.stats.no_backend_rejects);
    RouterStats::bump(&shared.stats.frames_inline);
    conn.io.queue(&error_response(&ServeError::Overloaded {
        retry_after_ms: shared.config.retry_after_ms,
    }));
    Dispatch::Inline
}

/// One readyz probe against a backend address.
fn probe_once(addr: &str, timeout: Duration) -> Result<bool, RouterError> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| RouterError::Config {
            reason: format!("backend address {addr:?} resolves to nothing"),
        })?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_frame(&mut stream, &Request::Readyz.to_json_value())?;
    let frame = read_frame(&mut stream)?.ok_or(ServeError::Protocol {
        reason: "backend closed during probe".into(),
    })?;
    let r = unwrap_response(frame)?;
    Ok(r.field("ready")
        .ok()
        .and_then(|v| v.as_bool().ok())
        .unwrap_or(false))
}

/// The health prober: polls every backend's readyz, evicts after
/// consecutive failures, restores on recovery, and triggers the
/// migration rebalance on every membership change. Each round also
/// runs the gray-failure outlier pass over the relay-path EWMAs —
/// catching exactly the backends these probes cannot.
fn prober_loop(shared: &Shared, stop: &AtomicBool) {
    let cfg = &shared.config;
    let mut consecutive = vec![0u32; shared.backends.len()];
    let mut healthy_streak = vec![0u32; shared.backends.len()];
    let mut jitter = jitter_seed();
    while !stop.load(Ordering::SeqCst) {
        for (idx, backend) in shared.backends.iter().enumerate() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let healthy = matches!(probe_once(&backend.spec.addr, cfg.probe_timeout), Ok(true));
            if healthy {
                consecutive[idx] = 0;
                if !backend.is_up() {
                    backend.up.store(true, Ordering::Relaxed);
                    RouterStats::bump(&shared.stats.restores);
                    shared.rebuild_ring();
                    migrate::rebalance(shared);
                }
            } else {
                consecutive[idx] = consecutive[idx].saturating_add(1);
                if backend.is_up() && consecutive[idx] >= cfg.evict_after.max(1) {
                    backend.up.store(false, Ordering::Relaxed);
                    RouterStats::bump(&backend.evictions);
                    RouterStats::bump(&shared.stats.evictions);
                    // A hard-evicted backend sheds its gray score: if
                    // it comes back it must earn a fresh one, not
                    // inherit the EWMA that predated the outage.
                    backend.reset_gray_score();
                    healthy_streak[idx] = 0;
                    shared.rebuild_ring();
                    migrate::rebalance(shared);
                }
            }
        }
        outlier_pass(shared, &mut healthy_streak);
        // Interruptible, jittered nap: ±20% keeps a fleet of probers
        // (and this router's own loops) from phase-locking into
        // synchronized probe bursts; short steps keep shutdown snappy.
        let nap = jittered_interval(cfg.probe_interval, &mut jitter);
        let mut slept = Duration::ZERO;
        while slept < nap && !stop.load(Ordering::SeqCst) {
            let step = Duration::from_millis(10).min(nap - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// No backend is ever called a latency outlier below this EWMA. On a
/// fast fleet the median sits in the hundreds of microseconds, where
/// `factor * median` is so tight that one scheduler hiccup folded
/// into an EWMA would flap a healthy backend in and out of ejection.
/// Gray failures worth redirecting reads for are tens of milliseconds
/// — an absolute floor costs no detection and buys stability.
const OUTLIER_MIN_EWMA_US: f64 = 5_000.0;

/// One outlier-detection pass. Every up backend with at least
/// [`RouterConfig::outlier_min_samples`] relay samples is scored; a
/// scored backend whose latency EWMA exceeds both the fleet median by
/// [`RouterConfig::outlier_factor`] and the absolute
/// [`OUTLIER_MIN_EWMA_US`] floor (or whose error-rate EWMA crosses
/// one half) is soft-ejected. An ejected backend that scores healthy
/// for [`RouterConfig::readmit_after`] consecutive passes is
/// re-admitted. With fewer than two scored backends there is no fleet
/// to compare against and the pass does nothing.
fn outlier_pass(shared: &Shared, healthy_streak: &mut [u32]) {
    let cfg = &shared.config;
    let scored: Vec<(usize, f64, f64)> = shared
        .backends
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            b.is_up() && b.latency_samples.load(Ordering::Relaxed) >= cfg.outlier_min_samples
        })
        .map(|(i, b)| (i, b.latency_ewma_us(), b.error_ewma()))
        .collect();
    if scored.len() < 2 {
        return;
    }
    let mut ewmas: Vec<f64> = scored.iter().map(|&(_, e, _)| e).collect();
    ewmas.sort_by(f64::total_cmp);
    let median = ewmas[ewmas.len() / 2];
    for &(idx, ewma, err) in &scored {
        let gray = (ewma > cfg.outlier_factor.max(1.0) * median && ewma > OUTLIER_MIN_EWMA_US)
            || err >= 0.5;
        let b = &shared.backends[idx];
        if gray {
            healthy_streak[idx] = 0;
            if !b.is_ejected() {
                b.ejected.store(true, Ordering::Relaxed);
                RouterStats::bump(&shared.stats.outlier_ejections);
            }
        } else if b.is_ejected() {
            healthy_streak[idx] = healthy_streak[idx].saturating_add(1);
            if healthy_streak[idx] >= cfg.readmit_after.max(1) {
                b.ejected.store(false, Ordering::Relaxed);
                healthy_streak[idx] = 0;
                RouterStats::bump(&shared.stats.outlier_readmissions);
            }
        }
    }
}

/// One step of the splitmix64 sequence — cheap, seedable, and plenty
/// for interval jitter.
pub(crate) fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `base` scaled by a uniform factor in [0.8, 1.2): ±20% jitter on
/// the periodic loops (probe, anti-entropy) so co-started routers —
/// or a fleet of them — spread their rounds instead of stampeding the
/// backends in phase.
pub(crate) fn jittered_interval(base: Duration, state: &mut u64) -> Duration {
    let unit = (splitmix_next(state) >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(0.8 + 0.4 * unit)
}

/// Seeds loop jitter per process (pid ⊕ wall clock), so routers
/// started together still diverge.
pub(crate) fn jitter_seed() -> u64 {
    u64::from(std::process::id()) ^ sync::unix_ms() ^ 0x9E37_79B9_7F4A_7C15
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_within_twenty_percent_and_varies() {
        let base = Duration::from_millis(100);
        let mut state = 7u64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let d = jittered_interval(base, &mut state);
            assert!(d >= Duration::from_millis(80), "{d:?}");
            assert!(d < Duration::from_millis(120), "{d:?}");
            seen.insert(d);
        }
        assert!(seen.len() > 100, "jitter should spread, got {}", seen.len());
    }

    #[test]
    fn hedge_delay_needs_samples_then_tracks_ewma() {
        let cfg = RouterConfig::default();
        let b = Backend::new(BackendSpec::parse("127.0.0.1:1").unwrap());
        assert_eq!(hedge_delay(&cfg, &b), None, "no samples, no hedging");
        for _ in 0..8 {
            b.record_latency_us(10_000.0);
        }
        assert_eq!(
            hedge_delay(&cfg, &b),
            Some(Duration::from_micros(30_000)),
            "three times the EWMA"
        );
        let fixed = RouterConfig {
            hedge_after: Some(Duration::from_millis(5)),
            ..RouterConfig::default()
        };
        assert_eq!(hedge_delay(&fixed, &b), Some(Duration::from_millis(5)));
        let fast = Backend::new(BackendSpec::parse("127.0.0.1:1").unwrap());
        for _ in 0..8 {
            fast.record_latency_us(100.0);
        }
        assert_eq!(
            hedge_delay(&cfg, &fast),
            Some(Duration::from_millis(2)),
            "clamped at the 2 ms floor"
        );
    }
}
