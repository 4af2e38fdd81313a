//! The readiness-based wire-protocol server.
//!
//! One **core thread** owns every listener (TCP, and optionally a Unix
//! domain socket) and every connection as a non-blocking stream. Bytes
//! arrive in arbitrary fragments and accumulate in per-connection read
//! buffers; complete frames are dispatched to a fixed **worker pool**
//! through a bounded queue; responses come back over a completion
//! channel and drain through per-connection write buffers. A slow or
//! hostile peer therefore never pins a thread — it pins only its own
//! buffers, and those are bounded and deadline-guarded.
//!
//! ## Overload machinery
//!
//! - **Admission control.** At most [`ServerConfig::max_connections`]
//!   connections are admitted; past the budget the server writes a
//!   typed `overloaded` frame (with a `retry_after_ms` hint) and
//!   closes. At most [`ServerConfig::max_inflight`] requests run or
//!   queue at once; past that budget a request is answered with the
//!   same typed overload frame instead of silently queuing.
//! - **Deadline-aware shedding.** A queued request that outlives
//!   [`ServerConfig::queue_deadline`] before a worker picks it up is
//!   shed without executing (counted in `requests_shed`) — executing
//!   it would burn a worker on an answer the client has already given
//!   up on.
//! - **Per-connection ordering.** One request per connection is in
//!   flight at a time; further complete frames wait in the read
//!   buffer, so responses stay sequenced without locks and a single
//!   chatty client cannot monopolize the pool.
//!
//! ## Deadlines
//!
//! [`ServerConfig::read_timeout`] bounds the **age of a partial
//! frame**: a peer that trickles one byte at a time (slow loris) is
//! reaped once its unfinished frame is older than the deadline.
//! [`ServerConfig::idle_timeout`] reaps connections silent *between*
//! frames (with an explicit deadline frame, so clients can tell a reap
//! from a crash). [`ServerConfig::write_timeout`] bounds how long an
//! unflushed response may stall on a peer that stopped draining its
//! socket.
//!
//! ## Graceful drain
//!
//! Shutdown raises the stop flag; the core drops its listeners (no new
//! connections), refuses new requests with a typed `draining` frame,
//! lets in-flight requests finish within
//! [`ServerConfig::drain_deadline`], sends every client a `draining`
//! notice before closing, writes a final checkpoint, flushes the
//! registry, and records the drain wall time in `drain_duration_ms`.
//!
//! ## Crash containment and durability
//!
//! - **Supervised workers.** Every worker executes its assembled jobs
//!   under `catch_unwind`; a panic answers each unanswered in-flight
//!   request with a typed `internal_error` frame (the connection
//!   survives), bumps `worker_panics`, and retires the worker. A
//!   supervisor thread respawns it with exponential backoff, gives up
//!   after [`ServerConfig::flap_cap`] consecutive fast deaths (readyz
//!   then reports not-ready), and runs a watchdog that flags workers
//!   stuck on one job past [`ServerConfig::stuck_job_bound`].
//! - **Checkpoint/replay.** With [`ServerConfig::checkpoint_path`]
//!   set, durable (token-keyed, see the `resume` op) client windows
//!   and the active-model pin are snapshotted periodically and on
//!   drain to an atomic CRC-checked file; on startup a valid
//!   checkpoint restores them so estimates resume warm, while a torn
//!   one is quarantined and the server cold-starts — it never refuses
//!   to boot over a bad checkpoint.
//! - **Inline health surface.** `healthz`/`readyz`/`metrics`/`resume`
//!   are answered by the core thread itself, never queued — liveness
//!   probes keep working even when the whole pool is wedged.

use crate::artifact::ModelArtifact;
use crate::batch::{assemble, BatchPolicy, ChannelSource, Job};
use crate::checkpoint::{load_checkpoint, write_checkpoint, CheckpointData, CheckpointOutcome};
use crate::engine::{CounterSample, EngineConfig, EstimatorEngine};
use crate::error::ServeError;
use crate::framed::{
    accept_under_budget, earliest, wait, Doorbell, Expiry, FramedConn, Inbound, Listener, Ringer,
    Timeouts,
};
use crate::protocol::{
    encode_frame_as, error_response, frame_deadline_ms, is_core_inline_frame, ok_response,
    Encoding, Request, MAX_FRAME_BYTES,
};
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;
use crate::tokenhash::{resume_key, RESUME_KEY_BIT};
use crate::trainer::{Trainer, TrainerConfig};
use pmc_json::Json;
use pmc_model::model::PowerModel;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, SendError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Cap on the worker hold time a `ping` request may ask for.
const MAX_PING_DELAY_MS: u64 = 5_000;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Optional Unix-domain-socket path to listen on beside TCP
    /// (same frame protocol; unix-like platforms only). A stale
    /// socket file at the path is removed on bind.
    pub uds_path: Option<String>,
    /// Fixed worker-thread count executing requests.
    pub workers: usize,
    /// Bounded request-queue depth between the core and the workers.
    pub queue_depth: usize,
    /// Maximum age of a partial frame: a peer that has not completed
    /// a started frame within this long is reaped (slow-loris
    /// defense). `None` = never.
    pub read_timeout: Option<Duration>,
    /// Maximum stall of an unflushed response: a peer that stops
    /// draining its socket for this long is dropped. `None` = never.
    pub write_timeout: Option<Duration>,
    /// A connection silent for this long between frames is reaped
    /// with an explicit deadline frame. `None` = never.
    pub idle_timeout: Option<Duration>,
    /// Largest accepted request-frame payload, bytes.
    pub max_frame_bytes: u32,
    /// Connection admission budget; past it new connections get a
    /// typed overload frame and are closed.
    pub max_connections: usize,
    /// Request admission budget: running + queued requests across all
    /// connections; past it requests get a typed overload response.
    pub max_inflight: usize,
    /// A request older than this when a worker dequeues it is shed
    /// without executing. `None` = execute no matter how stale.
    pub queue_deadline: Option<Duration>,
    /// How long a graceful drain may take: in-flight work past this
    /// deadline is abandoned and connections force-closed.
    pub drain_deadline: Duration,
    /// Backoff hint carried by overload responses, milliseconds.
    pub retry_after_ms: u64,
    /// Most ingest requests one coalesced batch may carry. `1`
    /// disables coalescing (every request is its own model call).
    pub batch_max: usize,
    /// How long the oldest queued ingest may wait for more requests to
    /// coalesce before its batch dispatches anyway. Zero (the default)
    /// means opportunistic batching: take what is queued, never wait —
    /// a solo request pays no added latency.
    pub batch_linger: Duration,
    /// Estimator-engine tuning.
    pub engine: EngineConfig,
    /// Where to persist engine checkpoints (durable client windows and
    /// the active-model pin). `None` disables checkpointing entirely.
    pub checkpoint_path: Option<PathBuf>,
    /// How often the supervisor writes a periodic checkpoint. Zero
    /// means only on graceful drain / explicit `checkpoint` requests.
    pub checkpoint_interval: Duration,
    /// Base delay before respawning a panicked worker; doubles per
    /// consecutive fast death (capped at one second).
    pub respawn_backoff: Duration,
    /// Consecutive fast deaths after which a worker slot is retired
    /// and the supervisor reports flapping (readyz goes not-ready).
    pub flap_cap: u32,
    /// A worker busy on a single assembly for longer than this is
    /// counted in the `workers_stuck` gauge by the watchdog.
    pub stuck_job_bound: Duration,
    /// Deterministic fault hooks (injected worker panics, stalls, torn
    /// checkpoint writes); `None` in production.
    pub faults: Option<Arc<pmc_faults::ServeFaults>>,
    /// Online-learning thresholds (shadow evaluation, activation
    /// margin, rollback guard, quarantine envelope).
    pub trainer: TrainerConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            uds_path: None,
            workers: 4,
            queue_depth: 16,
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(10)),
            idle_timeout: Some(Duration::from_secs(60)),
            max_frame_bytes: MAX_FRAME_BYTES,
            max_connections: 256,
            max_inflight: 64,
            queue_deadline: Some(Duration::from_secs(1)),
            drain_deadline: Duration::from_secs(5),
            retry_after_ms: 50,
            batch_max: 16,
            batch_linger: Duration::ZERO,
            engine: EngineConfig::default(),
            checkpoint_path: None,
            checkpoint_interval: Duration::from_secs(5),
            respawn_backoff: Duration::from_millis(10),
            flap_cap: 5,
            stuck_job_bound: Duration::from_secs(30),
            faults: None,
            trainer: TrainerConfig::default(),
        }
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Health bookkeeping shared between the core, workers and supervisor.
#[derive(Debug, Default)]
struct HealthState {
    /// Unix ms of the last successful checkpoint write (seeded from
    /// the restored file's mtime on startup); 0 = none yet.
    last_checkpoint_ms: AtomicU64,
}

impl HealthState {
    fn mark_checkpoint(&self) {
        self.last_checkpoint_ms.store(unix_ms(), Ordering::Relaxed);
    }

    fn checkpoint_age_ms(&self) -> Option<u64> {
        match self.last_checkpoint_ms.load(Ordering::Relaxed) {
            0 => None,
            then => Some(unix_ms().saturating_sub(then)),
        }
    }
}

/// Per-connection state owned by the core thread: the shared framed
/// connection plus what this tier adds.
struct Conn {
    io: FramedConn,
    /// Engine key this connection's samples accumulate under. Defaults
    /// to the connection id (ephemeral — forgotten on close); a
    /// `resume` op rebinds it to a durable token-derived key (bit 63
    /// set) that survives disconnects and checkpointed restarts.
    client: u64,
    /// A request from this connection is running or queued.
    inflight: bool,
}

/// The request handler shared by all workers: registry + engine + stats.
struct Service {
    registry: Arc<ModelRegistry>,
    engine: EstimatorEngine,
    stats: Arc<ServerStats>,
    health: Arc<HealthState>,
    trainer: Arc<Trainer>,
    config: ServerConfig,
}

impl Service {
    fn handle(&self, client: u64, req: Request) -> Json {
        match self.try_handle(client, req) {
            Ok(result) => ok_response(result),
            Err(e) => {
                ServerStats::bump(&self.stats.frames_errored);
                error_response(&e)
            }
        }
    }

    fn try_handle(&self, client: u64, req: Request) -> Result<Json, ServeError> {
        match req {
            Request::Ingest(sample) => {
                // One atomic registry snapshot: active and fallback
                // must come from the same serving state (a concurrent
                // activate/rollback between two lookups could pair the
                // new active with the old previous).
                let (active, previous) = self.registry.serving_pair();
                let artifact = active.ok_or_else(|| ServeError::Registry {
                    reason: "no active model — load_model/activate first".into(),
                })?;
                let est = match self.engine.ingest(client, &sample, &artifact) {
                    Ok(est) => est,
                    // The active model cannot read this sample (its
                    // width changed under the client, e.g. a bad
                    // activation). Fall back to the last good model if
                    // it still matches, flagging the estimate.
                    Err(ServeError::WidthMismatch { expected, got }) => {
                        let fallback =
                            previous.filter(|p| p.model.events.len() == sample.deltas.len());
                        match fallback {
                            Some(prev) => {
                                let mut est = self.engine.ingest(client, &sample, &prev)?;
                                est.degraded = true;
                                est.degraded_reasons
                                    .push(format!("stale_model:{}@v{}", prev.name, prev.version));
                                ServerStats::bump(&self.stats.stale_model_fallbacks);
                                est
                            }
                            None => return Err(ServeError::WidthMismatch { expected, got }),
                        }
                    }
                    Err(e) => return Err(e),
                };
                if est.degraded {
                    ServerStats::bump(&self.stats.degraded_estimates);
                }
                ServerStats::bump(&self.stats.samples_ingested);
                ServerStats::bump(&self.stats.estimates_served);
                Ok(est.to_json_value())
            }
            Request::Estimate { now_ns } => match self.engine.estimate(client, now_ns) {
                Some(est) => {
                    ServerStats::bump(&self.stats.estimates_served);
                    Ok(est.to_json_value())
                }
                // No samples yet on this connection: ok with null, so
                // pollers can distinguish "not yet" from a failure.
                None => Ok(Json::Null),
            },
            Request::LoadModel {
                name,
                model,
                activate,
            } => {
                let model = PowerModel::from_json_value(&model)?;
                let artifact = ModelArtifact::new(name, model);
                let (name, version) = if activate {
                    self.registry.load_and_activate(artifact)?
                } else {
                    self.registry.load(artifact)?
                };
                ServerStats::bump(&self.stats.models_loaded);
                Ok(id_json(&name, version))
            }
            Request::Activate { name, version } => {
                let (name, version) = self.registry.activate(&name, version)?;
                Ok(id_json(&name, version))
            }
            Request::Rollback => {
                let (name, version) = self.registry.rollback()?;
                Ok(id_json(&name, version))
            }
            Request::Stats => Ok(Json::obj(vec![
                ("server", self.stats.snapshot()),
                ("models", self.registry.list()),
                (
                    "active",
                    match self.registry.active() {
                        Some(a) => a.describe(),
                        None => Json::Null,
                    },
                ),
                ("clients", Json::from(self.engine.client_count())),
            ])),
            Request::Ping { delay_ms } => {
                let slept = delay_ms.min(MAX_PING_DELAY_MS);
                if slept > 0 {
                    std::thread::sleep(Duration::from_millis(slept));
                }
                Ok(Json::obj(vec![
                    ("pong", Json::Bool(true)),
                    ("slept_ms", Json::from(slept)),
                ]))
            }
            // Health/metrics ops are normally intercepted inline by the
            // core (so they work with a wedged pool); these arms answer
            // them if one is ever routed through a worker anyway.
            Request::Healthz => Ok(self.healthz_json(false)),
            Request::Readyz => Ok(self.readyz_json(false)),
            Request::Metrics => Ok(self.metrics_json()),
            Request::Resume { .. } => Err(ServeError::Protocol {
                reason: "resume is bound to the connection and handled inline by the core".into(),
            }),
            Request::Hello { .. } => Err(ServeError::Protocol {
                reason: "hello is bound to the connection and handled inline by the core".into(),
            }),
            Request::Checkpoint => {
                let (clients, path) = self.write_checkpoint_now()?;
                Ok(Json::obj(vec![
                    ("written", Json::Bool(true)),
                    ("clients", Json::from(clients)),
                    ("path", Json::from(path.display().to_string().as_str())),
                ]))
            }
            Request::MigrateExport { token, keep } => {
                let key = resume_key(&token);
                let record = self
                    .engine
                    .export_clients(|c| c == key)
                    .pop()
                    .map(|snap| crate::checkpoint::encode_client_record(&snap));
                let found = record.is_some();
                if found {
                    if !keep {
                        // Drain semantics: the exported window leaves
                        // this server — a later resume here cold-starts
                        // unless the record is imported back.
                        self.engine.forget(key);
                    }
                    ServerStats::bump(&self.stats.windows_migrated_out);
                }
                Ok(Json::obj(vec![
                    ("found", Json::Bool(found)),
                    ("key", Json::from(format!("{key:016x}").as_str())),
                    ("record", record.unwrap_or(Json::Null)),
                ]))
            }
            Request::MigrateImport { record } => {
                let snap = crate::checkpoint::decode_client_record(&record)?;
                if snap.client & RESUME_KEY_BIT == 0 {
                    return Err(ServeError::Protocol {
                        reason: "only durable (resume-token) windows can be imported".into(),
                    });
                }
                let key = snap.client;
                self.engine.restore_clients(vec![snap]);
                ServerStats::bump(&self.stats.windows_migrated_in);
                Ok(Json::obj(vec![
                    ("imported", Json::Bool(true)),
                    ("key", Json::from(format!("{key:016x}").as_str())),
                ]))
            }
            Request::Train { sample, power_w } => self.trainer.train(
                &self.registry,
                &self.stats,
                self.engine.config().total_cores,
                &sample,
                power_w,
            ),
            Request::WindowSeqs => {
                let windows = self
                    .engine
                    .client_seqs(|c| c & RESUME_KEY_BIT != 0)
                    .into_iter()
                    .map(|(key, seq)| {
                        Json::Arr(vec![
                            Json::from(format!("{key:016x}").as_str()),
                            Json::from(format!("{seq:016x}").as_str()),
                        ])
                    })
                    .collect();
                Ok(Json::obj(vec![("windows", Json::Arr(windows))]))
            }
        }
    }

    /// Liveness: answering at all is the signal.
    fn healthz_json(&self, draining: bool) -> Json {
        Json::obj(vec![
            ("alive", Json::Bool(true)),
            ("draining", Json::Bool(draining)),
        ])
    }

    /// Readiness: whether this process should receive traffic, with
    /// every failing condition spelled out.
    fn readyz_json(&self, draining: bool) -> Json {
        let mut reasons: Vec<&str> = Vec::new();
        if draining {
            reasons.push("draining");
        }
        let active = self.registry.active();
        if active.is_none() {
            reasons.push("no active model");
        }
        let flapping = self.stats.supervisor_flapping.load(Ordering::Relaxed) != 0;
        if flapping {
            reasons.push("supervisor flapping: worker slot retired after repeated panics");
        }
        let stuck = self.stats.workers_stuck.load(Ordering::Relaxed);
        if stuck > 0 {
            reasons.push("worker stuck past the wall-clock bound");
        }
        if self.stats.shadow_regressed.load(Ordering::Relaxed) != 0 {
            // The latest model activation regressed past the guard and
            // was auto-rolled back; an operator should look before
            // trusting further refreshes.
            reasons.push("shadow_regressed");
        }
        Json::obj(vec![
            ("ready", Json::Bool(reasons.is_empty())),
            (
                "reasons",
                Json::Arr(reasons.into_iter().map(Json::from).collect()),
            ),
            ("draining", Json::Bool(draining)),
            (
                "active_model",
                match active {
                    Some(a) => id_json(&a.name, a.version),
                    None => Json::Null,
                },
            ),
            ("flapping", Json::Bool(flapping)),
            ("stuck_workers", Json::from(stuck)),
            (
                "checkpoint_age_ms",
                match self.health.checkpoint_age_ms() {
                    Some(age) => Json::from(age),
                    None => Json::Null,
                },
            ),
            ("clients", Json::from(self.engine.client_count())),
        ])
    }

    /// The Prometheus text exposition wrapped for the JSON framing.
    fn metrics_json(&self) -> Json {
        Json::obj(vec![
            ("content_type", Json::from("text/plain; version=0.0.4")),
            ("body", Json::from(self.stats.prometheus().as_str())),
        ])
    }

    /// Snapshots durable (token-keyed) client windows plus the active
    /// model pin and writes them to the configured checkpoint path.
    /// Returns the client count and path on success.
    fn write_checkpoint_now(&self) -> Result<(usize, PathBuf), ServeError> {
        let path = self
            .config
            .checkpoint_path
            .clone()
            .ok_or_else(|| ServeError::Registry {
                reason: "checkpoint not configured — start with --checkpoint PATH".into(),
            })?;
        let data = CheckpointData {
            active: self.registry.active().map(|a| (a.name.clone(), a.version)),
            clients: self.engine.export_clients(|c| c & RESUME_KEY_BIT != 0),
            training: self.trainer.snapshot(),
        };
        let clients = data.clients.len();
        match write_checkpoint(&path, &data, self.config.faults.as_deref()) {
            Ok(()) => {
                ServerStats::bump(&self.stats.checkpoints_written);
                self.health.mark_checkpoint();
                Ok((clients, path))
            }
            Err(e) => {
                ServerStats::bump(&self.stats.checkpoint_write_failures);
                Err(e)
            }
        }
    }

    /// Executes one coalesced run of ingest requests, returning one
    /// response per request in request order. Each batch entry is
    /// `(conn, client, sample)`: `conn` routes the response, `client`
    /// keys the engine window (they differ after a `resume`). The
    /// registry's serving pair is resolved exactly **once** for the
    /// whole batch — a concurrent activate/rollback cannot split a
    /// batch across model versions or pair the new active with the old
    /// fallback.
    fn handle_ingest_batch(&self, batch: Vec<(u64, u64, CounterSample)>) -> Vec<(u64, Json)> {
        let (active, previous) = self.registry.serving_pair();
        self.run_pinned(batch, active, previous)
    }

    /// The execution half of [`Self::handle_ingest_batch`], taking the
    /// already-pinned serving pair (split out so tests can interpose
    /// registry churn between resolution and execution).
    fn run_pinned(
        &self,
        batch: Vec<(u64, u64, CounterSample)>,
        active: Option<Arc<ModelArtifact>>,
        previous: Option<Arc<ModelArtifact>>,
    ) -> Vec<(u64, Json)> {
        if batch.is_empty() {
            return Vec::new();
        }
        ServerStats::bump(&self.stats.batches_dispatched);
        self.stats
            .batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.stats.record_batch_fill(batch.len());

        let Some(active) = active else {
            return batch
                .into_iter()
                .map(|(conn, _, _)| {
                    ServerStats::bump(&self.stats.frames_errored);
                    let err = ServeError::Registry {
                        reason: "no active model — load_model/activate first".into(),
                    };
                    (conn, error_response(&err))
                })
                .collect();
        };
        let active_width = active.model.events.len();

        // Partition by serving model, preserving request order within
        // each group (and overall, via the index map): samples the
        // active model can read, samples only the pinned fallback can
        // read (the stale-model path), and hopeless widths.
        let n = batch.len();
        let mut conns = Vec::with_capacity(n);
        let mut responses: Vec<Option<Json>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut active_rows: Vec<(u64, CounterSample)> = Vec::with_capacity(n);
        let mut active_slots = Vec::with_capacity(n);
        let mut fallback_rows: Vec<(u64, CounterSample)> = Vec::new();
        let mut fallback_slots = Vec::new();
        for (slot, (conn, client, sample)) in batch.into_iter().enumerate() {
            conns.push(conn);
            let width = sample.deltas.len();
            if width == active_width {
                active_rows.push((client, sample));
                active_slots.push(slot);
            } else if previous
                .as_ref()
                .is_some_and(|p| p.model.events.len() == width)
            {
                fallback_rows.push((client, sample));
                fallback_slots.push(slot);
            } else {
                ServerStats::bump(&self.stats.frames_errored);
                let err = ServeError::WidthMismatch {
                    expected: active_width,
                    got: width,
                };
                responses[slot] = Some(error_response(&err));
            }
        }

        for (slot, result) in active_slots
            .into_iter()
            .zip(self.engine.estimate_batch(&active_rows, &active))
        {
            responses[slot] = Some(self.ingest_response(result, None));
        }
        if let Some(prev) = previous.filter(|_| !fallback_rows.is_empty()) {
            for (slot, result) in fallback_slots
                .into_iter()
                .zip(self.engine.estimate_batch(&fallback_rows, &prev))
            {
                responses[slot] = Some(self.ingest_response(result, Some(&prev)));
            }
        }
        conns
            .into_iter()
            .zip(responses)
            .map(|(conn, resp)| (conn, resp.expect("every batch slot answered")))
            .collect()
    }

    /// Folds one batched-ingest engine outcome into a wire response,
    /// with the same flagging and stat bumps as the unbatched path.
    /// `stale_from` marks an estimate served by the pinned fallback
    /// model rather than the active one.
    fn ingest_response(
        &self,
        result: Result<crate::engine::Estimate, ServeError>,
        stale_from: Option<&Arc<ModelArtifact>>,
    ) -> Json {
        match result {
            Ok(mut est) => {
                if let Some(prev) = stale_from {
                    est.degraded = true;
                    est.degraded_reasons
                        .push(format!("stale_model:{}@v{}", prev.name, prev.version));
                    ServerStats::bump(&self.stats.stale_model_fallbacks);
                }
                if est.degraded {
                    ServerStats::bump(&self.stats.degraded_estimates);
                }
                ServerStats::bump(&self.stats.samples_ingested);
                ServerStats::bump(&self.stats.estimates_served);
                ok_response(est.to_json_value())
            }
            Err(e) => {
                ServerStats::bump(&self.stats.frames_errored);
                error_response(&e)
            }
        }
    }
}

fn id_json(name: &str, version: u32) -> Json {
    Json::obj(vec![
        ("name", Json::from(name)),
        ("version", Json::from(version)),
    ])
}

/// What happened to the configured checkpoint file at startup.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointRestore {
    /// A valid checkpoint restored this many client windows (and this
    /// active-model pin, if the registry still holds the artifact).
    Restored {
        /// Durable client windows warmed from the checkpoint.
        clients: usize,
        /// The checkpointed active model id, if any.
        active: Option<(String, u32)>,
    },
    /// The checkpoint failed validation (torn write, CRC mismatch,
    /// garbage); it was moved aside and the server cold-started.
    Quarantined {
        /// Why the file was rejected.
        reason: String,
        /// Where the bad file went (`None` if the rename failed and it
        /// was left in place to be overwritten).
        quarantined_to: Option<PathBuf>,
    },
}

/// Handle to a running server; dropping it shuts the server down.
pub struct PowerServer {
    addr: SocketAddr,
    uds_path: Option<String>,
    stop: Arc<AtomicBool>,
    /// Wakes the core out of its poll (shutdown).
    bell: Ringer,
    core: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    stats: Arc<ServerStats>,
    registry: Arc<ModelRegistry>,
    restore: Option<CheckpointRestore>,
}

impl PowerServer {
    /// Binds the listeners and starts the core and worker threads.
    pub fn start(config: ServerConfig, registry: Arc<ModelRegistry>) -> Result<Self, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::Registry {
                reason: "server needs at least one worker".into(),
            });
        }
        let tcp = TcpListener::bind(&config.addr)?;
        tcp.set_nonblocking(true)?;
        let addr = tcp.local_addr()?;
        let mut listeners = vec![Listener::Tcp(tcp)];
        let uds_path = config.uds_path.clone();
        if let Some(path) = &config.uds_path {
            let _ = std::fs::remove_file(path);
            let l = std::os::unix::net::UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            listeners.push(Listener::Unix(l));
        }

        let stats = Arc::new(ServerStats::default());
        let health = Arc::new(HealthState::default());
        let engine = EstimatorEngine::new(config.engine);
        let trainer = Arc::new(Trainer::new(config.trainer.clone()));

        // Checkpoint restore happens before any thread can touch the
        // engine. A bad checkpoint is quarantined and reported — it
        // must never keep the server from booting.
        let restore = match &config.checkpoint_path {
            Some(path) => match load_checkpoint(path) {
                CheckpointOutcome::NotFound => None,
                CheckpointOutcome::Restored(data) => {
                    let clients = engine.restore_clients(data.clients);
                    stats
                        .checkpoint_clients_restored
                        .fetch_add(clients as u64, Ordering::Relaxed);
                    if let Some((name, version)) = &data.active {
                        // Re-pin only if nothing is active yet (a
                        // persisted registry's own pin wins) and the
                        // artifact actually survived the restart.
                        if registry.active().is_none() {
                            let _ = registry.activate(name, *version);
                        }
                    }
                    // Online-learning state resumes bitwise (after the
                    // re-pin so the shadow candidate can rebuild
                    // against the active envelope). A malformed
                    // section costs warm training, never the boot.
                    if let Some(t) = &data.training {
                        let active = registry.active();
                        let _ = trainer.restore(t, active.as_ref().map(|a| &a.model));
                    }
                    // Age the restored checkpoint from the file itself,
                    // not from "now" — a probe should see how stale it is.
                    if let Some(ms) = std::fs::metadata(path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                        .map(|d| d.as_millis() as u64)
                    {
                        health.last_checkpoint_ms.store(ms, Ordering::Relaxed);
                    }
                    Some(CheckpointRestore::Restored {
                        clients,
                        active: data.active,
                    })
                }
                CheckpointOutcome::Quarantined {
                    reason,
                    quarantined_to,
                } => {
                    ServerStats::bump(&stats.checkpoints_quarantined);
                    Some(CheckpointRestore::Quarantined {
                        reason,
                        quarantined_to,
                    })
                }
            },
            None => None,
        };

        let service = Arc::new(Service {
            registry: Arc::clone(&registry),
            engine,
            stats: Arc::clone(&stats),
            health,
            trainer,
            config: config.clone(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let bell = Doorbell::new()?;
        let (job_tx, job_rx) = sync_channel::<Job>(config.queue_depth.max(1));
        let (done_tx, done_rx) = channel::<Vec<Completion>>();
        let (exit_tx, exit_rx) = channel::<usize>();

        let spawner = WorkerSpawner {
            job_rx: Arc::new(Mutex::new(job_rx)),
            done: Done {
                tx: done_tx,
                bell: bell.ringer(),
            },
            service: Arc::clone(&service),
            busy: Arc::new((0..config.workers).map(|_| AtomicU64::new(0)).collect()),
            started_at: Instant::now(),
            exit_tx,
        };
        let handles: Vec<Option<JoinHandle<()>>> = (0..config.workers)
            .map(|slot| Some(spawner.spawn(slot)))
            .collect();

        let supervisor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || supervise(spawner, handles, exit_rx, &stop))
        };

        let ringer = bell.ringer();
        let core = {
            let stop = Arc::clone(&stop);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("pmc-serve-core".into())
                .spawn(move || {
                    Core {
                        listeners,
                        conns: HashMap::new(),
                        next_id: 1,
                        inflight: 0,
                        job_tx: Some(job_tx),
                        done_rx,
                        bell,
                        service,
                        stop,
                    }
                    .run();
                })?
        };

        Ok(PowerServer {
            addr,
            uds_path,
            stop,
            bell: ringer,
            core: Some(core),
            supervisor: Some(supervisor),
            stats,
            registry,
            restore,
        })
    }

    /// What happened to the configured checkpoint at startup: `None`
    /// when checkpointing is off or no file existed yet.
    pub fn checkpoint_restore(&self) -> Option<&CheckpointRestore> {
        self.restore.as_ref()
    }

    /// The bound TCP address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The Unix-socket path the server listens on, if any.
    pub fn uds_path(&self) -> Option<&str> {
        self.uds_path.as_deref()
    }

    /// Live operational counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The registry the server serves from.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// Graceful drain: stops accepting, finishes in-flight requests
    /// within the drain deadline, notifies clients, flushes the
    /// registry, joins every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.bell.ring();
        if let Some(core) = self.core.take() {
            let _ = core.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for PowerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One finished request: the response frame already encoded off the
/// core thread, or `None` when encoding failed (oversized response)
/// and the connection must be closed.
type Completion = (u64, Option<Vec<u8>>);

/// Encodes a response on the worker side — serialization (float
/// formatting in particular) is the most expensive per-response step,
/// and doing it here keeps the core thread free for socket sweeps.
/// The connection's negotiated encoding rides along in the job so the
/// worker encodes exactly what the core would.
fn encoded(conn: u64, encoding: Encoding, resp: &Json) -> Completion {
    (conn, encode_frame_as(resp, encoding).ok())
}

/// The workers' end of the completion channel: every send rings the
/// core's doorbell after it lands, so a core blocked in `poll(2)`
/// wakes for it (the core drains the doorbell before `try_recv`, so no
/// completion is missed).
#[derive(Clone)]
struct Done {
    tx: Sender<Vec<Completion>>,
    bell: Ringer,
}

impl Done {
    fn send(&self, items: Vec<Completion>) -> Result<(), SendError<Vec<Completion>>> {
        self.tx.send(items)?;
        self.bell.ring();
        Ok(())
    }
}

/// Everything needed to (re)spawn a worker into a given pool slot.
/// Owned by the supervisor after startup — respawning a panicked
/// worker reuses the exact channels and shared state of the original.
struct WorkerSpawner {
    job_rx: Arc<Mutex<Receiver<Job>>>,
    done: Done,
    service: Arc<Service>,
    /// Per-slot busy markers: nanoseconds since `started_at` when the
    /// slot began its current assembly, 0 while idle. The watchdog
    /// reads these to find stuck workers.
    busy: Arc<Vec<AtomicU64>>,
    started_at: Instant,
    exit_tx: Sender<usize>,
}

impl WorkerSpawner {
    fn spawn(&self, slot: usize) -> JoinHandle<()> {
        let job_rx = Arc::clone(&self.job_rx);
        let done = self.done.clone();
        let service = Arc::clone(&self.service);
        let busy = Arc::clone(&self.busy);
        let started_at = self.started_at;
        let exit_tx = self.exit_tx.clone();
        std::thread::spawn(move || {
            let _notice = ExitNotice { slot, tx: exit_tx };
            worker_loop(&job_rx, &done, &service, &busy[slot], started_at);
        })
    }
}

/// Drop guard telling the supervisor which pool slot just emptied —
/// fires on clean retirement and on any exit path after a panic alike.
struct ExitNotice {
    slot: usize,
    tx: Sender<usize>,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        let _ = self.tx.send(self.slot);
    }
}

/// The supervisor: joins dead workers, respawns them with exponential
/// backoff, retires a slot that flaps (too many consecutive fast
/// deaths), runs the stuck-worker watchdog, and writes periodic
/// checkpoints. Exits once the stop flag is up and every worker has
/// been joined.
fn supervise(
    spawner: WorkerSpawner,
    mut handles: Vec<Option<JoinHandle<()>>>,
    exit_rx: Receiver<usize>,
    stop: &AtomicBool,
) {
    /// A worker alive longer than this before dying is not flapping —
    /// its consecutive-death counter resets.
    const FLAP_RESET: Duration = Duration::from_secs(30);
    /// Upper bound on the exponential respawn backoff.
    const MAX_BACKOFF: Duration = Duration::from_secs(1);

    let service = Arc::clone(&spawner.service);
    let cfg = &service.config;
    let n = handles.len();
    let mut consecutive = vec![0u32; n];
    let mut spawned_at = vec![spawner.started_at; n];
    let mut last_checkpoint = Instant::now();
    // Per-process jitter seed: a fleet of processes started together
    // must not snapshot in lockstep (and stall together), so each
    // process draws its own checkpoint cadence.
    let mut ckpt_rng = std::process::id() as u64 ^ unix_ms() ^ 0x9E37_79B9_7F4A_7C15;
    let mut ckpt_due = jittered_interval(cfg.checkpoint_interval, &mut ckpt_rng);
    let tick = Duration::from_millis(25);
    loop {
        match exit_rx.recv_timeout(tick) {
            Ok(slot) => {
                if let Some(handle) = handles[slot].take() {
                    let _ = handle.join();
                }
                if !stop.load(Ordering::SeqCst) {
                    if spawned_at[slot].elapsed() >= FLAP_RESET {
                        consecutive[slot] = 0;
                    }
                    consecutive[slot] += 1;
                    if consecutive[slot] >= cfg.flap_cap.max(1) {
                        // Flapping: stop feeding this slot — something
                        // is deterministically killing it.
                        service
                            .stats
                            .supervisor_flapping
                            .store(1, Ordering::Relaxed);
                    } else {
                        let shift = (consecutive[slot] - 1).min(16);
                        let backoff = cfg
                            .respawn_backoff
                            .checked_mul(1u32 << shift)
                            .unwrap_or(MAX_BACKOFF)
                            .min(MAX_BACKOFF);
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        handles[slot] = Some(spawner.spawn(slot));
                        spawned_at[slot] = Instant::now();
                        ServerStats::bump(&service.stats.worker_respawns);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Unreachable while `spawner` holds an exit_tx, but harmless.
            Err(RecvTimeoutError::Disconnected) => {}
        }

        // Watchdog: count workers busy on one assembly past the bound.
        let bound_ns = cfg.stuck_job_bound.as_nanos() as u64;
        let now_ns = spawner.started_at.elapsed().as_nanos() as u64;
        let stuck = spawner
            .busy
            .iter()
            .filter(|b| {
                let v = b.load(Ordering::Relaxed);
                v != 0 && now_ns.saturating_sub(v) > bound_ns
            })
            .count() as u64;
        service.stats.workers_stuck.store(stuck, Ordering::Relaxed);

        // Periodic checkpoint (the drain-time one is the core's job).
        // Each wait is the configured interval ±20%, redrawn per
        // write, so co-started fleet members drift apart.
        if cfg.checkpoint_path.is_some()
            && !cfg.checkpoint_interval.is_zero()
            && last_checkpoint.elapsed() >= ckpt_due
        {
            let _ = service.write_checkpoint_now();
            last_checkpoint = Instant::now();
            ckpt_due = jittered_interval(cfg.checkpoint_interval, &mut ckpt_rng);
        }

        if stop.load(Ordering::SeqCst) {
            // The core drops the job channel early in its drain, so
            // blocked workers wake and retire; join whatever is left.
            for handle in handles.iter_mut() {
                if let Some(handle) = handle.take() {
                    let _ = handle.join();
                }
            }
            return;
        }
    }
}

/// `base` scaled by a uniform factor in `[0.8, 1.2)` — the ±20%
/// checkpoint-cadence jitter. Zero (periodic checkpointing disabled)
/// passes through unchanged.
fn jittered_interval(base: Duration, rng: &mut u64) -> Duration {
    if base.is_zero() {
        return base;
    }
    let unit = crate::client::splitmix_next(rng) as f64 / u64::MAX as f64;
    base.mul_f64(0.8 + 0.4 * unit)
}

/// Executes assembled runs of queued requests. Each worker drains the
/// shared queue into one [`crate::batch::Assembly`] at a time: jobs
/// that outlived the queue deadline are answered with typed overload
/// frames *before* any execution, consecutive `ingest` frames are
/// dispatched as one batched model evaluation, and any other op acts
/// as a barrier — it executes only after the pending ingest run
/// flushes, so state-changing ops (activate, rollback) interleave with
/// ingests exactly as they would on an unbatched server.
///
/// The execution of every assembly runs under `catch_unwind`: a panic
/// answers each not-yet-answered job in the assembly with a typed
/// `internal_error` frame (their connections stay open) and retires
/// this worker — the supervisor respawns the slot.
fn worker_loop(
    job_rx: &Mutex<Receiver<Job>>,
    done: &Done,
    service: &Service,
    busy: &AtomicU64,
    started_at: Instant,
) {
    let policy = BatchPolicy {
        max: service.config.batch_max,
        linger: service.config.batch_linger,
        queue_deadline: service.config.queue_deadline,
    };
    let mut source = ChannelSource::new(job_rx);
    while let Some(asm) = assemble(&mut source, &policy) {
        // Hand the queue to sibling workers before executing anything.
        source.release();
        if asm.lingered {
            ServerStats::bump(&service.stats.batch_linger_timeouts);
        }
        if !asm.shed.is_empty() {
            let sheds = asm
                .shed
                .into_iter()
                .map(|job| {
                    ServerStats::bump(&service.stats.requests_shed);
                    let err = ServeError::Overloaded {
                        retry_after_ms: service.config.retry_after_ms,
                    };
                    encoded(job.conn, job.encoding, &error_response(&err))
                })
                .collect();
            if done.send(sheds).is_err() {
                return; // core gone
            }
        }
        if !asm.expired.is_empty() {
            // The propagated budget ran out while the job sat queued:
            // a typed deadline_exceeded, not an overload — the client
            // must not burn a retry on patience it no longer has.
            let expired = asm
                .expired
                .into_iter()
                .map(|job| {
                    ServerStats::bump(&service.stats.requests_deadline_exceeded);
                    let err = ServeError::DeadlineExceeded { remaining_ms: 0 };
                    encoded(job.conn, job.encoding, &error_response(&err))
                })
                .collect();
            if done.send(expired).is_err() {
                return; // core gone
            }
        }

        let conns: Vec<(u64, Encoding)> = asm
            .jobs
            .iter()
            .map(|job| (job.conn, job.encoding))
            .collect();
        let answered = std::cell::RefCell::new(Vec::<u64>::new());
        busy.store(
            (started_at.elapsed().as_nanos() as u64).max(1),
            Ordering::Relaxed,
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_assembly(asm.jobs, done, service, &answered)
        }));
        busy.store(0, Ordering::Relaxed);
        match outcome {
            Ok(true) => {}
            Ok(false) => return, // core gone
            Err(_) => {
                // Crash containment: the panic stays inside this
                // worker. Every job that never got its response is
                // answered in-protocol, then this thread retires and
                // the supervisor takes over.
                ServerStats::bump(&service.stats.worker_panics);
                let answered = answered.into_inner();
                let err = ServeError::Internal {
                    reason: "worker panicked while executing the request".into(),
                };
                let unanswered: Vec<Completion> = conns
                    .iter()
                    .filter(|(conn, _)| !answered.contains(conn))
                    .map(|&(conn, enc)| encoded(conn, enc, &error_response(&err)))
                    .collect();
                if !unanswered.is_empty() {
                    let _ = done.send(unanswered);
                }
                return;
            }
        }
    }
}

/// Runs one assembly's jobs, recording each connection in `answered`
/// the moment its response is handed to the core (the panic-recovery
/// path in [`worker_loop`] answers the rest). Returns false once the
/// core is gone.
fn run_assembly(
    jobs: Vec<Job>,
    done: &Done,
    service: &Service,
    answered: &std::cell::RefCell<Vec<u64>>,
) -> bool {
    let mut pending: Vec<(u64, u64, CounterSample)> = Vec::new();
    // Response encodings of the pending ingest run, aligned with
    // `pending` (one request per connection in flight, so each conn
    // appears at most once per run).
    let mut pending_encs: Vec<Encoding> = Vec::new();
    for job in jobs {
        if let Some(faults) = &service.config.faults {
            if faults.should_panic() {
                panic!("injected worker panic (pmc-faults)");
            }
            if let Some(hold) = faults.stall_duration() {
                std::thread::sleep(hold);
            }
        }
        match Request::from_json_value(&job.frame) {
            Ok(Request::Ingest(sample)) => {
                pending.push((job.conn, job.client, sample));
                pending_encs.push(job.encoding);
            }
            Ok(req) => {
                // Barrier: the queued ingests precede this op, so
                // they must see the registry as it was before it.
                if !flush_ingests(&mut pending, &mut pending_encs, done, service, answered) {
                    return false;
                }
                let resp = service.handle(job.client, req);
                answered.borrow_mut().push(job.conn);
                if done
                    .send(vec![encoded(job.conn, job.encoding, &resp)])
                    .is_err()
                {
                    return false;
                }
            }
            Err(e) => {
                // A malformed frame has no state effect — answer
                // it inline without breaking the ingest run. (Its
                // connection cannot have an ingest pending: one
                // request per connection is in flight at a time.)
                ServerStats::bump(&service.stats.frames_errored);
                answered.borrow_mut().push(job.conn);
                if done
                    .send(vec![encoded(job.conn, job.encoding, &error_response(&e))])
                    .is_err()
                {
                    return false;
                }
            }
        }
    }
    flush_ingests(&mut pending, &mut pending_encs, done, service, answered)
}

/// Dispatches the accumulated ingest run as one batched evaluation and
/// sends every response in a single completion message. Returns false
/// once the core is gone.
fn flush_ingests(
    pending: &mut Vec<(u64, u64, CounterSample)>,
    pending_encs: &mut Vec<Encoding>,
    done: &Done,
    service: &Service,
    answered: &std::cell::RefCell<Vec<u64>>,
) -> bool {
    if pending.is_empty() {
        return true;
    }
    let encs = std::mem::take(pending_encs);
    let responses = service.handle_ingest_batch(std::mem::take(pending));
    answered
        .borrow_mut()
        .extend(responses.iter().map(|(conn, _)| *conn));
    done.send(
        // `handle_ingest_batch` answers every batch slot in request
        // order, so the encodings zip back positionally.
        responses
            .iter()
            .zip(encs)
            .map(|((conn, resp), enc)| encoded(*conn, enc, resp))
            .collect(),
    )
    .is_ok()
}

/// The readiness core: owns listeners and connections. Each pass
/// handles whatever is ready, then blocks in `poll(2)` until a socket
/// event, a doorbell ring (a worker completion or shutdown) or the
/// earliest deadline.
struct Core {
    listeners: Vec<Listener>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    /// Requests running or queued across all connections.
    inflight: usize,
    /// `None` once drain begins (dropping it retires idle workers).
    job_tx: Option<SyncSender<Job>>,
    /// Finished work arrives in groups: one message per shed set,
    /// per batched ingest run, or per individual op.
    done_rx: Receiver<Vec<Completion>>,
    /// Rung after every completion send and by shutdown.
    bell: Doorbell,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
}

impl Core {
    fn run(mut self) {
        let cfg = self.service.config.clone();
        let cap = 4 + cfg.max_frame_bytes as usize;
        let mut drain_start: Option<Instant> = None;
        let mut set = Vec::new();
        loop {
            // Drain the doorbell before looking at what it announced: a
            // ring landing after this stays pending for the next wait.
            self.bell.drain();
            if drain_start.is_none() && self.stop.load(Ordering::SeqCst) {
                drain_start = Some(Instant::now());
                self.listeners.clear(); // stop accepting
                self.job_tx = None; // workers exit once the queue drains
            }
            let draining = drain_start.is_some();
            while let Ok(items) = self.done_rx.try_recv() {
                for (id, resp) in items {
                    self.complete(id, resp);
                }
            }
            self.accept(&cfg);

            let now = Instant::now();
            let mut to_close = Vec::new();
            for (&id, conn) in self.conns.iter_mut() {
                if draining && !conn.inflight && !conn.io.closing {
                    // In-flight work already finished (or never
                    // existed): notify and close.
                    conn.io.queue(&error_response(&ServeError::Draining));
                    conn.io.closing = true;
                }
                let close = sweep_conn(
                    id,
                    conn,
                    &self.service,
                    draining,
                    &mut self.inflight,
                    self.job_tx.as_ref(),
                    now,
                );
                if close {
                    to_close.push(id);
                }
            }
            for id in to_close {
                self.close_conn(id);
            }

            let drain_deadline = drain_start.map(|start| start + cfg.drain_deadline);
            if let (Some(start), Some(deadline)) = (drain_start, drain_deadline) {
                let done = self.conns.is_empty() && self.inflight == 0;
                if done || Instant::now() >= deadline {
                    let ids: Vec<u64> = self.conns.keys().copied().collect();
                    for id in ids {
                        self.close_conn(id);
                    }
                    self.service
                        .stats
                        .drain_duration_ms
                        .store(start.elapsed().as_millis() as u64, Ordering::Relaxed);
                    // Final checkpoint: a graceful drain must leave
                    // durable windows warm for the next process.
                    if self.service.config.checkpoint_path.is_some() {
                        let _ = self.service.write_checkpoint_now();
                    }
                    let _ = self.service.registry.flush();
                    return;
                }
            }

            set.clear();
            set.push(self.bell.interest());
            set.extend(self.listeners.iter().map(Listener::interest));
            let mut deadline = drain_deadline;
            for conn in self.conns.values() {
                set.push(conn.io.interest(cap));
                deadline = earliest(deadline, conn.io.next_deadline(conn.inflight));
            }
            wait(&mut set, deadline);
            // Same iteration order as the pushes: the map is unchanged.
            let entries = &set[1 + self.listeners.len()..];
            for (conn, entry) in self.conns.values_mut().zip(entries) {
                conn.io.ready(entry);
            }
        }
    }

    /// Accepts pending connections up to the admission budget; past
    /// it, sheds with a typed overload frame.
    fn accept(&mut self, cfg: &ServerConfig) {
        let now = Instant::now();
        let limits = Timeouts {
            read: cfg.read_timeout,
            write: cfg.write_timeout,
            idle: cfg.idle_timeout,
        };
        for listener in &self.listeners {
            let room = cfg.max_connections.saturating_sub(self.conns.len());
            let stats = &self.service.stats;
            let admit = |stream| {
                let id = self.next_id;
                self.next_id += 1;
                self.conns.insert(
                    id,
                    Conn {
                        io: FramedConn::new(stream, limits, now),
                        client: id,
                        inflight: false,
                    },
                );
                ServerStats::bump(&stats.connections_accepted);
                ServerStats::bump(&stats.connections_open);
            };
            let shed = || ServerStats::bump(&stats.connections_shed);
            accept_under_budget(listener, room, cfg.retry_after_ms, admit, shed);
        }
    }

    fn complete(&mut self, id: u64, frame: Option<Vec<u8>>) {
        self.inflight = self.inflight.saturating_sub(1);
        // The connection may be gone (reaped while its request ran);
        // the response is then discarded, but the budget slot frees.
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight = false;
            match frame {
                Some(bytes) => conn.io.push(&bytes),
                // Unencodable (oversized) response: there is no way
                // to answer in-protocol — close the connection.
                None => conn.io.closing = true,
            }
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            conn.io.stream.close();
            // Ephemeral engine state dies with the connection; a
            // resumed (token-keyed) window outlives it by design.
            if conn.client == id {
                self.service.engine.forget(id);
            }
            ServerStats::dec(&self.service.stats.connections_open);
        }
    }
}

/// Answers a core-inline op (`healthz`/`readyz`/`metrics`/`resume`/
/// `hello`) without touching the worker pool. `resume` rebinds the
/// connection's engine key to the durable token-derived one, dropping
/// any ephemeral state accumulated under the connection id first.
/// `hello` negotiates the connection's payload encoding — it must
/// precede all data frames, and its response (like everything after
/// it) travels in the newly agreed encoding.
fn core_inline_response(
    id: u64,
    conn: &mut Conn,
    frame: &Json,
    service: &Service,
    draining: bool,
) -> Json {
    match Request::from_json_value(frame) {
        Ok(Request::Healthz) => ok_response(service.healthz_json(draining)),
        Ok(Request::Readyz) => ok_response(service.readyz_json(draining)),
        Ok(Request::Metrics) => ok_response(service.metrics_json()),
        Ok(Request::Hello { encoding }) => match conn.io.negotiate(&encoding) {
            Ok(agreed) => {
                if conn.io.encoding == Encoding::Binary {
                    ServerStats::bump(&service.stats.binary_conns);
                }
                ok_response(agreed)
            }
            Err(e) => {
                ServerStats::bump(&service.stats.frames_errored);
                error_response(&e)
            }
        },
        Ok(Request::Resume { token }) => {
            let key = resume_key(&token);
            if conn.client == id {
                service.engine.forget(id);
            }
            conn.client = key;
            ServerStats::bump(&service.stats.resumed_clients);
            ok_response(Json::obj(vec![
                ("client", Json::from(format!("{key:016x}").as_str())),
                // Whether a checkpointed/earlier window already exists
                // under this token — i.e. whether history is warm.
                ("restored", Json::Bool(service.engine.has_client(key))),
            ]))
        }
        // A panic here would kill the core thread, so even the
        // can't-happen arm answers in-protocol.
        Ok(_) => error_response(&ServeError::Internal {
            reason: "inline dispatch disagreed with frame classification".into(),
        }),
        Err(e) => {
            ServerStats::bump(&service.stats.frames_errored);
            error_response(&e)
        }
    }
}

/// One pass over a single connection: read what the socket has, parse
/// and dispatch at most one request, flush pending writes, enforce
/// deadlines. Returns whether to close it now.
fn sweep_conn(
    id: u64,
    conn: &mut Conn,
    service: &Service,
    draining: bool,
    inflight: &mut usize,
    job_tx: Option<&SyncSender<Job>>,
    now: Instant,
) -> bool {
    let cfg = &service.config;
    conn.io.fill(4 + cfg.max_frame_bytes as usize, now);

    // Parse/dispatch phase: at most one request goes in flight;
    // payload-level garbage is answered inline and parsing continues.
    while !conn.io.closing && !conn.inflight {
        let frame = match conn.io.take_frame(cfg.max_frame_bytes, now) {
            None => break,
            Some(Inbound::Frame(frame, _)) => frame,
            Some(Inbound::Malformed) => {
                ServerStats::bump(&service.stats.frames_errored);
                continue;
            }
        };
        ServerStats::bump(&service.stats.frames_received);
        // Health, metrics, resume and hello are answered by the core
        // itself — never queued, never counted against the in-flight
        // budget. Liveness probes must keep working when every worker
        // is wedged or the queue is full (and hello mutates
        // per-connection encoding state only the core owns).
        if is_core_inline_frame(&frame) {
            let resp = core_inline_response(id, conn, &frame, service, draining);
            conn.io.queue(&resp);
            continue;
        }
        if draining {
            conn.io.queue(&error_response(&ServeError::Draining));
            conn.io.closing = true;
            break;
        }
        let overloaded = ServeError::Overloaded {
            retry_after_ms: cfg.retry_after_ms,
        };
        if *inflight >= cfg.max_inflight {
            ServerStats::bump(&service.stats.requests_rejected_overload);
            conn.io.queue(&error_response(&overloaded));
            continue;
        }
        // Propagated deadline: resolve the frame's relative budget
        // against the local clock now, at ingress. A zero budget is
        // already spent — answer the typed status immediately instead
        // of queueing doomed work.
        let deadline = match frame_deadline_ms(&frame) {
            Some(0) => {
                ServerStats::bump(&service.stats.requests_deadline_exceeded);
                conn.io
                    .queue(&error_response(&ServeError::DeadlineExceeded {
                        remaining_ms: 0,
                    }));
                continue;
            }
            Some(ms) => Some(now + Duration::from_millis(ms)),
            None => None,
        };
        let job = Job {
            conn: id,
            client: conn.client,
            frame,
            enqueued: now,
            deadline,
            encoding: conn.io.encoding,
        };
        match job_tx.map(|tx| tx.try_send(job)) {
            Some(Ok(())) => {
                conn.inflight = true;
                *inflight += 1;
            }
            Some(Err(TrySendError::Full(_))) => {
                ServerStats::bump(&service.stats.requests_rejected_overload);
                conn.io.queue(&error_response(&overloaded));
            }
            Some(Err(TrySendError::Disconnected(_))) | None => {
                conn.io.queue(&error_response(&ServeError::Draining));
                conn.io.closing = true;
            }
        }
    }

    if conn.io.flush(now).is_err() {
        return true;
    }
    if let Some(expiry) = conn.io.expire(conn.inflight, now) {
        ServerStats::bump(&service.stats.connections_reaped);
        if expiry == Expiry::Stalled {
            return true;
        }
    }
    conn.io.finished(conn.inflight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, unwrap_response, write_frame};
    use crate::test_fixtures::tiny_model;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn request<S: Read + Write>(stream: &mut S, req: &Request) -> Result<Json, ServeError> {
        write_frame(stream, &req.to_json_value())?;
        let frame = read_frame(stream)?.ok_or(ServeError::Protocol {
            reason: "server closed connection".into(),
        })?;
        unwrap_response(frame)
    }

    fn started(workers: usize, queue_depth: usize) -> PowerServer {
        let cfg = ServerConfig {
            workers,
            queue_depth,
            ..ServerConfig::default()
        };
        PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap()
    }

    #[test]
    fn checkpoint_jitter_stays_within_twenty_percent() {
        let base = Duration::from_millis(1000);
        let mut rng = 42u64;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let d = jittered_interval(base, &mut rng);
            assert!(d >= Duration::from_millis(800), "{d:?} below -20%");
            assert!(d < Duration::from_millis(1200), "{d:?} above +20%");
            distinct.insert(d.as_nanos());
        }
        assert!(distinct.len() > 900, "jitter not actually varying");
        // Disabled periodic checkpointing stays disabled.
        assert!(jittered_interval(Duration::ZERO, &mut rng).is_zero());
    }

    #[test]
    fn window_seqs_reports_durable_windows() {
        let mut server = started(2, 8);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let m = tiny_model();
        request(
            &mut c,
            &Request::LoadModel {
                name: "hsw".into(),
                model: m.to_json_value(),
                activate: true,
            },
        )
        .unwrap();
        // No durable windows yet.
        let r = request(&mut c, &Request::WindowSeqs).unwrap();
        assert!(r.arr_field("windows").unwrap().is_empty());
        // Bind a durable identity and ingest twice.
        request(
            &mut c,
            &Request::Resume {
                token: "seq-probe".into(),
            },
        )
        .unwrap();
        let sample = |t: u64| crate::engine::CounterSample {
            time_ns: t,
            duration_s: 0.25,
            freq_mhz: 2000,
            voltage: 0.9,
            deltas: vec![1.0e9; m.events.len()],
            missing: vec![],
        };
        request(&mut c, &Request::Ingest(sample(1))).unwrap();
        request(&mut c, &Request::Ingest(sample(2))).unwrap();
        let r = request(&mut c, &Request::WindowSeqs).unwrap();
        let windows = r.arr_field("windows").unwrap();
        assert_eq!(windows.len(), 1);
        let pair = windows[0].as_arr().unwrap();
        let key = u64::from_str_radix(pair[0].as_str().unwrap(), 16).unwrap();
        let seq = u64::from_str_radix(pair[1].as_str().unwrap(), 16).unwrap();
        assert_eq!(key, crate::tokenhash::resume_key("seq-probe"));
        assert_eq!(seq, 2);
        server.shutdown();
    }

    #[test]
    fn load_activate_and_stats_over_the_wire() {
        let mut server = started(2, 4);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let m = tiny_model();
        let r = request(
            &mut c,
            &Request::LoadModel {
                name: "hsw".into(),
                model: m.to_json_value(),
                activate: true,
            },
        )
        .unwrap();
        assert_eq!(r.u32_field("version").unwrap(), 1);
        let stats = request(&mut c, &Request::Stats).unwrap();
        assert_eq!(
            stats.field("active").unwrap().str_field("name").unwrap(),
            "hsw"
        );
        assert_eq!(
            stats
                .field("server")
                .unwrap()
                .u64_field("models_loaded")
                .unwrap(),
            1
        );
        assert_eq!(
            stats
                .field("server")
                .unwrap()
                .u64_field("connections_open")
                .unwrap(),
            1
        );
        server.shutdown();
    }

    #[test]
    fn ingest_without_model_is_an_error_response() {
        let mut server = started(1, 4);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let err = request(
            &mut c,
            &Request::Ingest(crate::engine::CounterSample {
                time_ns: 0,
                duration_s: 1.0,
                freq_mhz: 2400,
                voltage: 1.0,
                deltas: vec![0.0],
                missing: vec![],
            }),
        );
        assert!(err.unwrap_err().to_string().contains("no active model"));
        // Connection still usable afterwards.
        assert!(request(&mut c, &Request::Stats).is_ok());
        server.shutdown();
    }

    #[test]
    fn malformed_json_frame_does_not_kill_the_connection() {
        let mut server = started(1, 4);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let garbage = b"{not json";
        c.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
        c.write_all(garbage).unwrap();
        let resp = read_frame(&mut c).unwrap().unwrap();
        assert!(unwrap_response(resp).is_err());
        // Same connection keeps working.
        assert!(request(&mut c, &Request::Stats).is_ok());
        server.shutdown();
    }

    #[test]
    fn connections_past_budget_get_typed_overload() {
        let cfg = ServerConfig {
            workers: 1,
            max_connections: 1,
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        // Fill the only admission slot (the request proves admission).
        let mut keep = TcpStream::connect(server.addr()).unwrap();
        request(&mut keep, &Request::Stats).unwrap();
        // The next connection is shed with a machine-readable hint.
        let mut shed = TcpStream::connect(server.addr()).unwrap();
        let frame = read_frame(&mut shed).unwrap().unwrap();
        match unwrap_response(frame).unwrap_err() {
            ServeError::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected typed overload, got {other}"),
        }
        assert_eq!(server.stats().connections_shed.load(Ordering::Relaxed), 1);
        // The admitted client is unaffected.
        assert!(request(&mut keep, &Request::Stats).is_ok());
        server.shutdown();
    }

    #[test]
    fn inflight_budget_rejects_requests_with_retry_hint() {
        let cfg = ServerConfig {
            workers: 2,
            max_inflight: 1,
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        // Occupy the single in-flight slot with a slow ping…
        let mut busy = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut busy, &Request::Ping { delay_ms: 300 }.to_json_value()).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        // …so the second client's request is refused, not queued.
        let mut second = TcpStream::connect(server.addr()).unwrap();
        let err = request(&mut second, &Request::Ping { delay_ms: 0 }).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { retry_after_ms } if retry_after_ms > 0));
        assert_eq!(
            server
                .stats()
                .requests_rejected_overload
                .load(Ordering::Relaxed),
            1
        );
        // The slow ping still completes normally.
        let pong = unwrap_response(read_frame(&mut busy).unwrap().unwrap()).unwrap();
        assert!(pong.field("pong").unwrap().as_bool().unwrap());
        server.shutdown();
    }

    #[test]
    fn stale_queued_requests_are_shed_before_execution() {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 4,
            max_inflight: 8,
            queue_deadline: Some(Duration::from_millis(30)),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        // The only worker is held for 150 ms…
        let mut busy = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut busy, &Request::Ping { delay_ms: 150 }.to_json_value()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // …so this request waits ~100 ms in the queue — past its 30 ms
        // deadline — and must be shed, not executed.
        let mut waiter = TcpStream::connect(server.addr()).unwrap();
        let err = request(&mut waiter, &Request::Ping { delay_ms: 0 }).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
        assert_eq!(server.stats().requests_shed.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn zero_budget_at_ingress_is_deadline_exceeded() {
        use crate::protocol::with_deadline_ms;
        let mut server = started(1, 4);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // A frame whose budget is already spent when it arrives must
        // be refused at ingress with the typed status — never queued.
        let stamped = with_deadline_ms(&Request::Ping { delay_ms: 0 }.to_json_value(), 0);
        write_frame(&mut c, &stamped).unwrap();
        let err = unwrap_response(read_frame(&mut c).unwrap().unwrap()).unwrap_err();
        assert!(
            matches!(err, ServeError::DeadlineExceeded { remaining_ms: 0 }),
            "{err}"
        );
        assert_eq!(
            server
                .stats()
                .requests_deadline_exceeded
                .load(Ordering::Relaxed),
            1
        );
        // The connection stays in sync and usable.
        assert!(request(&mut c, &Request::Stats).is_ok());
        // A generous budget passes through untouched.
        let stamped = with_deadline_ms(&Request::Ping { delay_ms: 0 }.to_json_value(), 5_000);
        write_frame(&mut c, &stamped).unwrap();
        assert!(unwrap_response(read_frame(&mut c).unwrap().unwrap()).is_ok());
        server.shutdown();
    }

    #[test]
    fn queued_requests_past_their_budget_get_deadline_exceeded() {
        use crate::protocol::with_deadline_ms;
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 4,
            max_inflight: 8,
            // Queue deadline far looser than the propagated budget, so
            // the typed answer proves which check fired.
            queue_deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        // The only worker is held for 150 ms…
        let mut busy = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut busy, &Request::Ping { delay_ms: 150 }.to_json_value()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // …so this 40 ms budget is spent by the time a worker drains
        // the queue: deadline_exceeded, not overloaded.
        let mut waiter = TcpStream::connect(server.addr()).unwrap();
        let stamped = with_deadline_ms(&Request::Ping { delay_ms: 0 }.to_json_value(), 40);
        write_frame(&mut waiter, &stamped).unwrap();
        let err = unwrap_response(read_frame(&mut waiter).unwrap().unwrap()).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
        assert_eq!(
            server
                .stats()
                .requests_deadline_exceeded
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(server.stats().requests_shed.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_with_a_deadline_frame() {
        let cfg = ServerConfig {
            workers: 1,
            read_timeout: Some(Duration::from_millis(10)),
            idle_timeout: Some(Duration::from_millis(30)),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // Say nothing. The reaper must answer with a deadline error
        // frame and close the connection.
        let frame = read_frame(&mut c).unwrap().unwrap();
        let err = unwrap_response(frame).unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
        assert!(matches!(read_frame(&mut c), Ok(None) | Err(_)));
        assert_eq!(server.stats().connections_reaped.load(Ordering::Relaxed), 1);
        // The server is free again for the next client.
        let mut c2 = TcpStream::connect(server.addr()).unwrap();
        assert!(request(&mut c2, &Request::Stats).is_ok());
        server.shutdown();
    }

    #[test]
    fn partial_frames_from_slow_peers_are_reaped() {
        let cfg = ServerConfig {
            workers: 1,
            read_timeout: Some(Duration::from_millis(40)),
            idle_timeout: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // Two bytes of a frame header, then silence: a slow loris.
        c.write_all(&[0, 0]).unwrap();
        let frame = read_frame(&mut c).unwrap().unwrap();
        let err = unwrap_response(frame).unwrap_err();
        assert!(err.to_string().contains("desynchronized"), "{err}");
        assert!(matches!(read_frame(&mut c), Ok(None) | Err(_)));
        assert_eq!(server.stats().connections_reaped.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn configurable_frame_cap_is_enforced_on_the_read_path() {
        let cfg = ServerConfig {
            workers: 1,
            max_frame_bytes: 64,
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // A stats request fits in 64 bytes…
        assert!(request(&mut c, &Request::Stats).is_ok());
        // …but a frame above the cap is rejected and the connection
        // dropped (the stream cannot be resynchronized).
        let big = vec![b' '; 65];
        c.write_all(&(big.len() as u32).to_be_bytes()).unwrap();
        c.write_all(&big).unwrap();
        let frame = read_frame(&mut c).unwrap().unwrap();
        assert!(unwrap_response(frame)
            .unwrap_err()
            .to_string()
            .contains("cap"));
        server.shutdown();
    }

    #[test]
    fn width_mismatch_falls_back_to_previous_model() {
        use crate::test_fixtures::{narrow_model, tiny_dataset};
        let mut server = started(1, 4);
        let mut c = TcpStream::connect(server.addr()).unwrap();

        // v1: the regular tiny model. v2: a model with fewer events.
        let m1 = tiny_model();
        let narrow = narrow_model();
        request(
            &mut c,
            &Request::LoadModel {
                name: "hsw".into(),
                model: m1.to_json_value(),
                activate: true,
            },
        )
        .unwrap();
        request(
            &mut c,
            &Request::LoadModel {
                name: "hsw".into(),
                model: narrow.to_json_value(),
                activate: true,
            },
        )
        .unwrap();

        // A client still streaming v1-width samples gets served by the
        // previous model, flagged as degraded with a stale_model token.
        let data = tiny_dataset(1);
        let row = &data.rows()[0];
        let avail = 24.0 * row.freq_mhz as f64 * 1e6 * row.duration_s;
        let sample = crate::engine::CounterSample {
            time_ns: 1,
            duration_s: row.duration_s,
            freq_mhz: row.freq_mhz,
            voltage: row.voltage,
            deltas: m1.events.iter().map(|e| row.rate(*e) * avail).collect(),
            missing: vec![],
        };
        let r = request(&mut c, &Request::Ingest(sample)).unwrap();
        let est = crate::engine::Estimate::from_json_value(&r).unwrap();
        assert!(est.degraded);
        assert!(est
            .degraded_reasons
            .iter()
            .any(|t| t.starts_with("stale_model:hsw@v1")));
        assert_eq!(est.version, 1);
        assert_eq!(
            server.stats().stale_model_fallbacks.load(Ordering::Relaxed),
            1
        );
        server.shutdown();
    }

    #[test]
    fn batch_pins_model_version_across_activate_and_rollback() {
        use crate::test_fixtures::{tiny_dataset, tiny_model};
        let registry = Arc::new(ModelRegistry::default());
        registry
            .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        let config = ServerConfig::default();
        let service = Service {
            registry: Arc::clone(&registry),
            engine: EstimatorEngine::new(config.engine),
            stats: Arc::new(ServerStats::default()),
            health: Arc::new(HealthState::default()),
            trainer: Arc::new(Trainer::new(config.trainer.clone())),
            config,
        };

        // Resolve the serving pair at assembly time, then churn the
        // registry the way a concurrent activate + rollback would
        // while the batch is in flight, leaving v2 active.
        let (active, previous) = registry.serving_pair();
        registry
            .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        registry.rollback().unwrap();
        registry.activate("hsw", 2).unwrap();

        let m = tiny_model();
        let data = tiny_dataset(4);
        let batch: Vec<(u64, u64, CounterSample)> = data
            .rows()
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, row)| {
                let avail = 24.0 * row.freq_mhz as f64 * 1e6 * row.duration_s;
                let sample = CounterSample {
                    time_ns: (i as u64 + 1) * 1_000_000,
                    duration_s: row.duration_s,
                    freq_mhz: row.freq_mhz,
                    voltage: row.voltage,
                    deltas: m.events.iter().map(|e| row.rate(*e) * avail).collect(),
                    missing: vec![],
                };
                (i as u64 + 1, i as u64 + 1, sample)
            })
            .collect();

        // The in-flight batch is served entirely by the pinned v1
        // pair, untouched by the churn…
        let responses = service.run_pinned(batch.clone(), active, previous);
        assert_eq!(responses.len(), 4);
        for (_, resp) in responses {
            let est =
                crate::engine::Estimate::from_json_value(&unwrap_response(resp).unwrap()).unwrap();
            assert_eq!(est.version, 1, "pinned batch must not see the churn");
            assert!(!est.degraded, "pinned pair is coherent — no fallback");
        }
        // …while the next batch resolves freshly and sees v2.
        let (_, resp) = service
            .handle_ingest_batch(vec![batch.into_iter().next().unwrap()])
            .pop()
            .unwrap();
        let est =
            crate::engine::Estimate::from_json_value(&unwrap_response(resp).unwrap()).unwrap();
        assert_eq!(est.version, 2);
    }

    #[test]
    fn drain_finishes_inflight_work_and_notifies_clients() {
        let cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // Put a request in flight, then drain while it runs.
        write_frame(&mut c, &Request::Ping { delay_ms: 100 }.to_json_value()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown(); // blocks through the drain
                           // The in-flight response arrives first…
        let pong = unwrap_response(read_frame(&mut c).unwrap().unwrap()).unwrap();
        assert!(pong.field("pong").unwrap().as_bool().unwrap());
        // …then the draining notice, then EOF.
        let notice = unwrap_response(read_frame(&mut c).unwrap().unwrap()).unwrap_err();
        assert!(matches!(notice, ServeError::Draining), "{notice}");
        assert!(matches!(read_frame(&mut c), Ok(None) | Err(_)));
        assert!(
            server.stats().drain_duration_ms.load(Ordering::Relaxed) >= 20,
            "drain should have waited for the in-flight ping"
        );
    }

    #[cfg(unix)]
    #[test]
    fn uds_listener_serves_the_same_protocol() {
        let path = std::env::temp_dir().join(format!("pmc-serve-test-{}.sock", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let cfg = ServerConfig {
            uds_path: Some(path_str.clone()),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        assert_eq!(server.uds_path(), Some(path_str.as_str()));
        let mut c = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let stats = request(&mut c, &Request::Stats).unwrap();
        assert!(stats.field("server").is_ok());
        server.shutdown();
        // The socket file is cleaned up on shutdown.
        assert!(!path.exists());
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let mut server = started(2, 4);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        request(&mut c, &Request::Stats).unwrap();
        let addr = server.addr();
        server.shutdown();
        server.shutdown(); // idempotent
                           // Listener is gone: new connections fail or see immediate EOF.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => assert!(matches!(read_frame(&mut s), Ok(None) | Err(_))),
        }
    }
}
