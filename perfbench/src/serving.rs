//! The serving workloads: load from this process (at most `nproc`
//! threads, one connection each) against `pmc-serve` / `pmc-router`
//! child processes, with every answer checked.
//!
//! - `paced_ingest`: open loop, Poisson ingests at a fixed mean rate
//!   over JSON connections each resumed to a durable token; latency is
//!   timed from each request's due time.
//! - `pipelined_ingest`: closed loop, a fixed window of `PMCB1` ingests
//!   outstanding per connection against one server.
//! - `routed_mixed`: closed loop, one request in flight per JSON
//!   connection through `pmc-router` fronting two checkpointing,
//!   replicating backends, carrying a seeded ingest/estimate/train mix.

use crate::conn::{decode, ok_result, Conn};
use crate::fleet::Child;
use crate::inputs::{derive, Digest, Inputs, Op};
use crate::layers;
use crate::pipeline::{self, Pipeline};
use crate::procfs::{self, nproc};
use crate::report::{median, metric, percentile, ratio, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::Args;
use pmc_json::Json;
use pmc_model::model::PowerModel;
use pmc_serve::protocol::{encode_frame_as, Request};
use pmc_serve::{CounterSample, Encoding, Estimate, ModelArtifact};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paced,
    Pipelined,
    Routed,
}

/// Mean offered load of `paced_ingest`, requests per second (all
/// connections together).
const PACED_RATE_HZ: f64 = 1000.0;
/// Ingests each `pipelined_ingest` connection keeps outstanding.
const WINDOW: usize = 32;
/// Op shares (ingest, estimate, train) of each workload's seeded draw.
/// `routed_mixed` draws the three ops in equal thirds: no measured
/// production mix exists to copy, and equal shares let a change to any
/// one op move the fleet's rate alike (README: "The routed mix").
const INGEST_ONLY: [f64; 3] = [1.0, 0.0, 0.0];
const ROUTED_MIX: [f64; 3] = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0];
/// Timed set-ups after the warm-up, before the load; the last one's
/// deployment takes the load. Each fits the served model and deploys
/// it; `setup_s` and `pipeline_s` are the medians of all of them.
const SETUP_REPS: usize = 8;
/// How long a response may take before it counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);
/// Responses kept per connection for the in-process layer replay.
const CAPTURE: usize = 512;

impl Kind {
    pub fn encoding(self) -> Encoding {
        match self {
            Kind::Pipelined => Encoding::Binary,
            Kind::Paced | Kind::Routed => Encoding::Json,
        }
    }
}

/// The processes of one deployment.
struct Fleet {
    serves: Vec<Child>,
    router: Option<Child>,
}

impl Fleet {
    fn entry(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.serves[0].addr,
        }
    }

    fn pids(&self) -> Vec<u32> {
        self.serves
            .iter()
            .chain(self.router.iter())
            .map(Child::pid)
            .collect()
    }

    fn serve_pids(&self) -> Vec<u32> {
        self.serves.iter().map(Child::pid).collect()
    }

    fn stop(self) {
        if let Some(r) = self.router {
            r.stop();
        }
        for s in self.serves {
            s.stop();
        }
    }

    fn logs(&self) -> String {
        self.serves
            .iter()
            .chain(self.router.iter())
            .map(Child::log_tail)
            .collect::<Vec<_>>()
            .join(" || ")
    }
}

fn start_fleet(
    kind: Kind,
    bin_dir: &Path,
    artifact: &Path,
    work: &Path,
    rep: usize,
    total_cores: u32,
) -> Result<Fleet, String> {
    let backends = if kind == Kind::Routed { 2 } else { 1 };
    let mut serves = Vec::new();
    let mut specs = Vec::new();
    for b in 1..=backends {
        let name = format!("shard-{b}");
        let ckpt = work.join(format!("ckpt-{rep}-{b}"));
        let mut args: Vec<String> = vec![
            "serve".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            nproc().to_string(),
            "--cores".into(),
            total_cores.to_string(),
            "--model".into(),
            artifact.display().to_string(),
        ];
        if kind == Kind::Routed {
            args.extend([
                "--checkpoint".into(),
                ckpt.display().to_string(),
                "--checkpoint-interval-ms".into(),
                "1000".into(),
            ]);
        }
        let log = work.join(format!("{name}-{rep}.log"));
        let child = Child::spawn(&name, &bin_dir.join("pmc-serve"), &args, log)?;
        specs.push(format!(
            "{},name={name},ckpt={}",
            child.addr,
            ckpt.display()
        ));
        serves.push(child);
    }
    let router = if kind == Kind::Routed {
        let mut args: Vec<String> = vec!["route".into(), "--addr".into(), "127.0.0.1:0".into()];
        for spec in specs {
            args.extend(["--backend".into(), spec]);
        }
        args.extend(["--sync-interval-ms".into(), "200".into()]);
        let log = work.join(format!("router-{rep}.log"));
        Some(Child::spawn(
            "router",
            &bin_dir.join("pmc-router"),
            &args,
            log,
        )?)
    } else {
        None
    };
    Ok(Fleet { serves, router })
}

/// What the benchmark knows about the deployed models: the served
/// artifact, plus every auto-activated refit by the version it got.
/// Each backend numbers its own activations, and the router moves a
/// token to the other backend when its owner turns not-ready, so one
/// version number can name a refit on each backend.
struct Models {
    served: PowerModel,
    served_version: u32,
    activated: HashMap<u32, Vec<PowerModel>>,
}

impl Models {
    fn named(&self, version: u32) -> Vec<&PowerModel> {
        if version == self.served_version {
            vec![&self.served]
        } else {
            self.activated
                .get(&version)
                .map_or(Vec::new(), |ms| ms.iter().collect())
        }
    }
}

/// Checks an ingest answer: it must be undegraded and its `power_w`
/// must equal, bit for bit, `predict_raw` of the model it names on the
/// deltas the request carried.
fn check_ingest(
    est: &Estimate,
    sample: &CounterSample,
    model: &PowerModel,
    total_cores: u32,
) -> Result<(), String> {
    let avail = total_cores as f64 * sample.freq_mhz as f64 * 1e6 * sample.duration_s;
    let rates: Vec<f64> = sample.deltas.iter().map(|d| d / avail).collect();
    let want = model
        .predict_raw(&rates, sample.voltage, sample.freq_mhz)
        .map_err(|e| e.to_string())?;
    if est.degraded {
        return Err(format!(
            "clean sample answered degraded: {:?}",
            est.degraded_reasons
        ));
    }
    if est.power_w.to_bits() != want.to_bits() {
        return Err(format!("power_w {} != predict_raw {want}", est.power_w));
    }
    if est.time_ns != sample.time_ns {
        return Err("estimate for the wrong sample".into());
    }
    Ok(())
}

fn estimate_of(resp: &Json) -> Result<Estimate, String> {
    Estimate::from_json_value(ok_result(resp)?).map_err(|e| e.to_string())
}

/// One connection of the load generator and its running state.
struct Lane {
    /// Which connection this is (0 runs on the main thread).
    no: usize,
    conn: Conn,
    /// Spans of this lane's requests (recording only in a traced phase).
    tracer: Tracer,
    inputs: Inputs,
    /// Index of the next request this lane generates.
    next: usize,
    sent: Digest,
    last_ingest: Option<Estimate>,
}

/// An ingest answer kept for checking after the run, once every
/// activation reported on any connection is known.
struct IngestRecord {
    lane: usize,
    index: usize,
    estimate: Estimate,
}

/// A phase's time base. Sending stops at `end`; the phase is cut into
/// `WINDOWS` equal windows by response time, and each reported figure
/// is the median of its per-window values, so a short disturbance on a
/// shared box moves one window, not the result.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    end: Instant,
}

const WINDOWS: usize = 30;

impl Clock {
    fn window(&self, t: Instant) -> usize {
        let f = t.saturating_duration_since(self.start).as_secs_f64()
            / (self.end - self.start).as_secs_f64();
        ((f * WINDOWS as f64) as usize).min(WINDOWS - 1)
    }

    fn boundary(&self, k: usize) -> Instant {
        self.start + (self.end - self.start) * k as u32 / WINDOWS as u32
    }
}

#[derive(Default)]
struct LaneOut {
    /// Latencies of the responses received in each window.
    latencies_us: Vec<Vec<f64>>,
    /// Fleet CPU seconds at each inner window boundary (lane 0 only).
    cpu_marks: Vec<f64>,
    late_us: Vec<f64>,
    attempted: u64,
    completed: u64,
    failures: Vec<String>,
    failed: u64,
    last_recv: Option<Instant>,
    ingests: Vec<IngestRecord>,
    activations: Vec<(u32, Vec<f64>)>,
    /// (request index, op, decoded response) for the layer replay.
    captured: Vec<(usize, Op, Json)>,
}

impl LaneOut {
    fn new() -> LaneOut {
        LaneOut {
            latencies_us: vec![Vec::new(); WINDOWS],
            ..LaneOut::default()
        }
    }

    fn record(&mut self, clock: &Clock, recv: Instant, latency: Duration) {
        self.latencies_us[clock.window(recv)].push(latency.as_secs_f64() * 1e6);
        self.last_recv = Some(recv);
    }

    /// Lane 0 reads the fleet's CPU time as each window boundary passes.
    fn mark(&mut self, ctx: &Ctx, lane_no: usize, clock: &Clock, now: Instant) {
        while lane_no == 0
            && self.cpu_marks.len() < WINDOWS - 1
            && now >= clock.boundary(self.cpu_marks.len() + 1)
        {
            self.cpu_marks.push(fleet_cpu(&ctx.pids));
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

struct Ctx<'a> {
    kind: Kind,
    models: &'a Models,
    total_cores: u32,
    capture: bool,
    /// Every fleet process, for CPU readings.
    pids: Vec<u32>,
}

fn fleet_cpu(pids: &[u32]) -> f64 {
    pids.iter().map(|&p| procfs::thread_cpu_seconds(p)).sum()
}

/// Opens request `index`'s root span.
fn request_span(tracer: &mut Tracer, index: usize) -> SpanId {
    tracer.begin("request", index as u64, SpanId::NONE)
}

/// Handles one response of `op` for request `index` on `lane`.
fn on_response(
    ctx: &Ctx,
    lane: &mut Lane,
    out: &mut LaneOut,
    parent: SpanId,
    op: Op,
    index: usize,
    raw: &[u8],
) {
    let s = lane.tracer.child("loadgen.check", parent);
    let resp = match decode(raw) {
        Ok(v) => v,
        Err(e) => {
            out.fail(e);
            lane.tracer.end(s);
            return;
        }
    };
    let verdict = match op {
        Op::Ingest => estimate_of(&resp).and_then(|est| {
            if ctx.kind == Kind::Routed {
                lane.last_ingest = Some(est.clone());
                out.ingests.push(IngestRecord {
                    lane: lane.no,
                    index,
                    estimate: est,
                });
                Ok(())
            } else if est.version != ctx.models.served_version {
                Err(format!(
                    "answer names unknown model version {}",
                    est.version
                ))
            } else {
                let sample = lane.inputs.sample(index);
                check_ingest(&est, &sample, &ctx.models.served, ctx.total_cores)
            }
        }),
        Op::Estimate => ok_result(&resp).and_then(|r| {
            let est = Estimate::from_json_value(r).map_err(|e| e.to_string())?;
            match &lane.last_ingest {
                Some(last)
                    if est.power_w.to_bits() == last.power_w.to_bits()
                        && est.window_power_w.to_bits() == last.window_power_w.to_bits()
                        && est.time_ns == last.time_ns =>
                {
                    Ok(())
                }
                _ => Err("estimate differs from the token's last ingest answer".into()),
            }
        }),
        Op::Train => ok_result(&resp).and_then(|r| {
            if let Some(id) = r.get("activated").filter(|a| !matches!(a, Json::Null)) {
                let version = id.u32_field("version").map_err(|e| e.to_string())?;
                let coefs = r
                    .arr_field("coef_bits")
                    .map_err(|e| e.to_string())?
                    .iter()
                    .map(|h| {
                        h.as_str()
                            .ok()
                            .and_then(|h| u64::from_str_radix(h, 16).ok())
                            .map(f64::from_bits)
                            .ok_or_else(|| "malformed coef_bits".to_string())
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                out.activations.push((version, coefs));
            }
            Ok(())
        }),
    };
    match verdict {
        Ok(()) => {
            out.completed += 1;
            if ctx.capture && out.captured.len() < CAPTURE {
                out.captured.push((index, op, resp));
            }
        }
        Err(e) => out.fail(format!("request {index} ({op:?}): {e}")),
    }
    lane.tracer.end(s);
}

/// Fails every outstanding request once the oldest has waited
/// `RESPONSE_TIMEOUT`: responses arrive in order, so the connection
/// cannot be matched up again and its lane stops.
fn fail_outstanding(out: &mut LaneOut, outstanding: &mut VecDeque<(Instant, usize, SpanId)>) {
    for (_, i, _) in outstanding.drain(..) {
        out.fail(format!(
            "request {i}: no response within {RESPONSE_TIMEOUT:?}"
        ));
    }
}

/// Open loop: sends each ingest at its Poisson due time whether or not
/// earlier ones were answered; latency runs from the due time.
fn paced_lane(ctx: &Ctx, lane: &mut Lane, clock: Clock) -> LaneOut {
    crate::conn::tighten_timer_slack();
    let end = clock.end;
    let mut out = LaneOut::new();
    let mut outstanding: VecDeque<(Instant, usize, SpanId)> = VecDeque::new();
    let mut due = clock.start + Duration::from_secs_f64(lane.inputs.gap(lane.next));
    loop {
        let now = Instant::now();
        out.mark(ctx, lane.no, &clock, now);
        while due <= now && due < end {
            let i = lane.next;
            let span = request_span(&mut lane.tracer, i);
            let s = lane.tracer.child("loadgen.encode", span);
            let frame = lane.inputs.frame(Op::Ingest, i, Encoding::Json);
            lane.tracer.end(s);
            let sent_at = Instant::now();
            if let Err(e) = lane.conn.send(&frame) {
                out.fail(e);
                return out;
            }
            lane.sent.update(&frame);
            out.attempted += 1;
            out.late_us.push((sent_at - due).as_secs_f64() * 1e6);
            outstanding.push_back((due, i, span));
            lane.next += 1;
            due += Duration::from_secs_f64(lane.inputs.gap(lane.next));
        }
        if due >= end && outstanding.is_empty() {
            break;
        }
        // The oldest request's deadline, timed from its due time.
        let deadline = outstanding.front().map(|o| o.0 + RESPONSE_TIMEOUT);
        if deadline.is_some_and(|d| now >= d) {
            fail_outstanding(&mut out, &mut outstanding);
            return out;
        }
        // Wait for the next send or the deadline, whichever comes first.
        let next_send = (due < end).then_some(due);
        let wait_until = next_send.into_iter().chain(deadline).min().unwrap_or(end);
        if let Err(e) = lane.conn.fill(wait_until.saturating_duration_since(now)) {
            out.fail(e);
            return out;
        }
        let recv = Instant::now();
        while let Some(raw) = lane.conn.next_frame() {
            let raw = raw.to_vec();
            let Some((due_at, i, span)) = outstanding.pop_front() else {
                out.fail("unsolicited response".into());
                continue;
            };
            out.record(&clock, recv, recv - due_at);
            on_response(ctx, lane, &mut out, span, Op::Ingest, i, &raw);
            lane.tracer.end(span);
        }
    }
    out
}

/// Closed loop with `WINDOW` ingests outstanding: every response read
/// is replaced by a new request in one write. `late_us` is the
/// generator's turnaround from reading responses to sending more.
fn pipelined_lane(ctx: &Ctx, lane: &mut Lane, clock: Clock) -> LaneOut {
    let end = clock.end;
    let mut out = LaneOut::new();
    let mut outstanding: VecDeque<(Instant, usize, SpanId)> = VecDeque::new();
    let mut batch = Vec::new();
    let mut refill = WINDOW;
    let mut recv = Instant::now();
    loop {
        let now = Instant::now();
        out.mark(ctx, lane.no, &clock, now);
        if now < end && refill > 0 {
            batch.clear();
            let mut pending = Vec::with_capacity(refill);
            for _ in 0..refill {
                let i = lane.next;
                let span = request_span(&mut lane.tracer, i);
                let s = lane.tracer.child("loadgen.encode", span);
                let frame = lane.inputs.frame(Op::Ingest, i, Encoding::Binary);
                lane.tracer.end(s);
                lane.sent.update(&frame);
                batch.extend_from_slice(&frame);
                pending.push((i, span));
                lane.next += 1;
            }
            let sent_at = Instant::now();
            if let Err(e) = lane.conn.send(&batch) {
                out.fail(e);
                return out;
            }
            if out.attempted > 0 {
                out.late_us.push((sent_at - recv).as_secs_f64() * 1e6);
            }
            out.attempted += refill as u64;
            outstanding.extend(pending.into_iter().map(|(i, span)| (sent_at, i, span)));
        }
        refill = 0;
        if outstanding.is_empty() {
            break;
        }
        // The oldest request's deadline, timed from its send time.
        let deadline = outstanding[0].0 + RESPONSE_TIMEOUT;
        if now >= deadline {
            fail_outstanding(&mut out, &mut outstanding);
            return out;
        }
        match lane.conn.fill(deadline - now) {
            Ok(_) => {}
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
        recv = Instant::now();
        while let Some(raw) = lane.conn.next_frame() {
            let raw = raw.to_vec();
            let Some((sent_at, i, span)) = outstanding.pop_front() else {
                out.fail("unsolicited response".into());
                continue;
            };
            out.record(&clock, recv, recv - sent_at);
            on_response(ctx, lane, &mut out, span, Op::Ingest, i, &raw);
            lane.tracer.end(span);
            refill += 1;
        }
    }
    out
}

/// Closed loop, one request in flight: the seeded ingest/estimate/train
/// mix.
fn routed_lane(ctx: &Ctx, lane: &mut Lane, clock: Clock) -> LaneOut {
    let mut out = LaneOut::new();
    let mut recv: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if now >= clock.end {
            break;
        }
        out.mark(ctx, lane.no, &clock, now);
        let i = lane.next;
        lane.next += 1;
        let op = lane.inputs.op(i);
        let span = request_span(&mut lane.tracer, i);
        let s = lane.tracer.child("loadgen.encode", span);
        let frame = lane.inputs.frame(op, i, Encoding::Json);
        lane.tracer.end(s);
        let sent_at = Instant::now();
        if let Some(r) = recv {
            out.late_us.push((sent_at - r).as_secs_f64() * 1e6);
        }
        if let Err(e) = lane.conn.send(&frame) {
            out.fail(e);
            return out;
        }
        lane.sent.update(&frame);
        out.attempted += 1;
        let raw = loop {
            if let Some(raw) = lane.conn.next_frame() {
                break Ok(raw.to_vec());
            }
            match lane.conn.fill(RESPONSE_TIMEOUT) {
                Ok(true) => {}
                Ok(false) => {
                    break Err(format!(
                        "request {i}: no response within {RESPONSE_TIMEOUT:?}"
                    ))
                }
                Err(e) => break Err(e),
            }
        };
        let now = Instant::now();
        recv = Some(now);
        match raw {
            Ok(raw) => {
                out.record(&clock, now, now - sent_at);
                on_response(ctx, lane, &mut out, span, op, i, &raw);
                lane.tracer.end(span);
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    out
}

/// One window of a phase.
struct Window {
    responses: usize,
    p50_us: f64,
    p99_us: f64,
    cpu_s: f64,
}

/// One measured stretch of load over every lane.
struct Phase {
    windows: Vec<Window>,
    window_s: f64,
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
    attempted: u64,
    completed: u64,
    elapsed: Duration,
    outs: Vec<LaneOut>,
}

impl Phase {
    /// The median over windows of one per-window figure.
    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<f64>>())
    }
}

fn run_phase(ctx: &Ctx, lanes: &mut [Lane], seconds: f64) -> Phase {
    let cpu0 = fleet_cpu(&ctx.pids);
    let start = Instant::now();
    let clock = Clock {
        start,
        end: start + Duration::from_secs_f64(seconds),
    };
    let run = |lane: &mut Lane| match ctx.kind {
        Kind::Paced => paced_lane(ctx, lane, clock),
        Kind::Pipelined => pipelined_lane(ctx, lane, clock),
        Kind::Routed => routed_lane(ctx, lane, clock),
    };
    // Lane 0 runs on this thread, so the generator uses exactly one
    // thread per connection.
    let outs: Vec<LaneOut> = std::thread::scope(|s| {
        let (first, rest) = lanes.split_first_mut().expect("at least one lane");
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|lane| s.spawn(move || run(lane)))
            .collect();
        let mut outs = vec![run(first)];
        outs.extend(handles.into_iter().map(|h| h.join().expect("lane thread")));
        outs
    });
    let cpu_end = fleet_cpu(&ctx.pids);
    let mut marks = vec![cpu0];
    marks.extend(outs[0].cpu_marks.iter().copied());
    marks.resize(WINDOWS, cpu_end);
    marks.push(cpu_end);
    let windows = (0..WINDOWS)
        .map(|w| {
            let lat: Vec<f64> = outs
                .iter()
                .flat_map(|o| o.latencies_us[w].iter().copied())
                .collect();
            Window {
                responses: lat.len(),
                p50_us: percentile(&lat, 0.5),
                p99_us: percentile(&lat, 0.99),
                cpu_s: marks[w + 1] - marks[w],
            }
        })
        .collect();
    let last = outs
        .iter()
        .filter_map(|o| o.last_recv)
        .max()
        .unwrap_or(clock.end);
    Phase {
        windows,
        window_s: seconds / WINDOWS as f64,
        latencies_us: outs
            .iter()
            .flat_map(|o| o.latencies_us.iter().flatten().copied())
            .collect(),
        late_us: outs
            .iter()
            .flat_map(|o| o.late_us.iter().copied())
            .collect(),
        attempted: outs.iter().map(|o| o.attempted).sum(),
        completed: outs.iter().map(|o| o.completed).sum(),
        elapsed: last
            .saturating_duration_since(start)
            .max(Duration::from_millis(1)),
        outs,
    }
}

/// Opens lane `no`: negotiates the encoding or binds the durable token,
/// then sends request 0 (an ingest) and checks its answer. Retries
/// refusals while a fleet is still coming up.
fn open_lane(served: &Served, fleet: &Fleet, no: usize, inputs: Inputs) -> Result<Lane, String> {
    let Served {
        kind, args, models, ..
    } = served;
    let (kind, seed, total_cores) = (*kind, args.seed, served.pipeline.total_cores);
    let token = token_for(kind, seed, no);
    let hello = match kind {
        Kind::Pipelined => Request::Hello {
            encoding: "binary".into(),
        },
        Kind::Paced | Kind::Routed => Request::Resume {
            token: token.clone(),
        },
    };
    let hello = encode_frame_as(&hello.to_json_value(), Encoding::Json).expect("frame");
    let first = inputs.frame(Op::Ingest, 0, kind.encoding());
    let attempt = || -> Result<(Conn, Estimate), String> {
        let mut conn = Conn::connect(fleet.entry())?;
        ok_result(&conn.call(&hello, RESPONSE_TIMEOUT)?)?;
        let est = estimate_of(&conn.call(&first, RESPONSE_TIMEOUT)?)?;
        if est.version != models.served_version {
            return Err(format!("first answer names version {}", est.version));
        }
        check_ingest(&est, &inputs.sample(0), &models.served, total_cores)?;
        Ok((conn, est))
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let (conn, est) = loop {
        match attempt() {
            Ok(ok) => break ok,
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("lane {no} never got a correct answer: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    Ok(Lane {
        no,
        conn,
        tracer: Tracer::new(served.trace_base, false),
        inputs,
        next: 1,
        sent: Digest::default(),
        last_ingest: Some(est),
    })
}

/// Lane `no`'s durable token. On `routed_mixed` lane `no` gets the first
/// candidate token that backend `no % 2` owns, so every seed spreads the
/// two clients over both shards (a seed that put both on one backend
/// would measure a different fleet).
fn token_for(kind: Kind, seed: u64, no: usize) -> String {
    let base = format!("{kind:?}-{seed}-{no}").to_lowercase();
    if kind != Kind::Routed {
        return base;
    }
    (0..)
        .map(|k| format!("{base}-{k}"))
        .find(|t| owner_of(t) == no % 2)
        .expect("the ring owns tokens on both shards")
}

/// The backend index owning a token on the router's two-shard ring.
fn owner_of(token: &str) -> usize {
    let ring = pmc_router::HashRing::build([("shard-1", 1), ("shard-2", 1)].into_iter(), |_| true);
    ring.owner(pmc_serve::tokenhash::resume_key(token))
        .unwrap_or(0)
}

fn call_ok(addr: &str, req: Request) -> Result<Json, String> {
    let mut c = Conn::connect(addr)?;
    let frame = encode_frame_as(&req.to_json_value(), Encoding::Json).expect("frame");
    let v = c.call(&frame, RESPONSE_TIMEOUT)?;
    ok_result(&v).cloned()
}

/// `stats` counters summed over the backends, plus the router's
/// `metrics` counters under a `router.` prefix.
fn counters(fleet: &Fleet) -> Result<HashMap<String, f64>, String> {
    let mut sum = HashMap::new();
    for s in &fleet.serves {
        let stats = call_ok(&s.addr, Request::Stats)?;
        if let Ok(fields) = stats.field("server").and_then(Json::as_obj) {
            for (k, v) in fields {
                if let Ok(x) = v.as_f64() {
                    *sum.entry(k.clone()).or_insert(0.0) += x;
                }
            }
        }
    }
    if let Some(r) = &fleet.router {
        let metrics = call_ok(&r.addr, Request::Metrics)?;
        let body = metrics.str_field("body").map_err(|e| e.to_string())?;
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.split_once(' ') else {
                continue;
            };
            if let (Some(name), Ok(x)) = (key.strip_prefix("pmc_router_"), value.trim().parse()) {
                if !name.contains('{') {
                    sum.insert(format!("router.{name}"), x);
                }
            }
        }
    }
    Ok(sum)
}

fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// CPU and scheduling readings of the fleet and of this process.
struct ProcSnapshot {
    cpu_router: f64,
    ctx_serve: u64,
    self_cpu: f64,
}

fn snapshot(fleet: &Fleet) -> ProcSnapshot {
    ProcSnapshot {
        cpu_router: fleet
            .router
            .as_ref()
            .map_or(0.0, |r| procfs::thread_cpu_seconds(r.pid())),
        ctx_serve: fleet
            .serve_pids()
            .into_iter()
            .map(procfs::ctx_switches)
            .sum(),
        self_cpu: procfs::self_cpu_seconds(),
    }
}

/// Fits the served model: one checked offline pipeline run, its wall
/// time a `pipeline_s` sample, and the servable Eq.-1 model as
/// artifact JSON.
fn fit(
    args: &Args,
    tracer: &mut Tracer,
    out: &mut Outcome,
    id: u64,
    pipeline_s: &mut Vec<f64>,
) -> Result<(Pipeline, String), String> {
    let p = pipeline::run(derive(args.seed, 50 + id), tracer, id)?;
    out.attempted += 1;
    if let Err(e) = pipeline::check(&p) {
        out.fail(format!("pipeline: {e}"));
    }
    pipeline_s.push(p.wall.as_secs_f64());
    let text = ModelArtifact::new("paper", pipeline::servable_model(&p))
        .to_json()
        .map_err(|e| e.to_string())?;
    Ok((p, text))
}

/// What every deployment serves, and the requests its lanes send.
struct Served<'a> {
    kind: Kind,
    args: &'a Args,
    bin_dir: &'a Path,
    work: &'a Path,
    artifact: PathBuf,
    artifact_text: String,
    models: Models,
    pipeline: Pipeline,
    /// Each lane's generated request stream.
    streams: Vec<Inputs>,
    /// The run tracer's clock, shared by every lane's tracer.
    trace_base: Instant,
}

/// The set-up samples of a run.
#[derive(Default)]
struct SetupSamples {
    setup_s: Vec<f64>,
    pipeline_s: Vec<f64>,
}

/// One timed set-up, as a fleet is deployed from nothing: fit the
/// served model (its artifact must come out byte for byte the same as
/// the one the checks use), write it, start the processes and open
/// every lane up to its first checked answer.
fn deploy(
    served: &Served,
    rep: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
    samples: &mut SetupSamples,
) -> Result<(Fleet, Vec<Lane>), String> {
    let streams = served.streams.clone();
    let t0 = Instant::now();
    let (_, text) = fit(
        served.args,
        tracer,
        out,
        1 + rep as u64,
        &mut samples.pipeline_s,
    )?;
    if text != served.artifact_text {
        out.fail("a refit of the served model differs from the first fit");
    }
    std::fs::write(&served.artifact, &text).map_err(|e| e.to_string())?;
    let fleet = start_fleet(
        served.kind,
        served.bin_dir,
        &served.artifact,
        served.work,
        rep,
        served.pipeline.total_cores,
    )?;
    let mut lanes = Vec::new();
    for (no, s) in streams.into_iter().enumerate() {
        let lane = open_lane(served, &fleet, no, s);
        lanes.push(lane.map_err(|e| format!("{e}; logs: {}", fleet.logs()))?);
    }
    samples.setup_s.push(t0.elapsed().as_secs_f64());
    Ok((fleet, lanes))
}

/// Routed ingests are checked once every activation any connection
/// reported is known, each against the models its version names; then
/// every lane's failures are counted.
fn verify(
    phases: &[Phase],
    models: &mut Models,
    streams: &[Inputs],
    total_cores: u32,
    out: &mut Outcome,
) {
    let outs: Vec<&LaneOut> = phases.iter().flat_map(|p| p.outs.iter()).collect();
    let width = models.served.events.len();
    for (version, coefs) in outs.iter().flat_map(|o| o.activations.iter()) {
        if coefs.len() != width + 3 {
            out.fail("activation reported coefficients of the wrong width");
            continue;
        }
        let mut m = models.served.clone();
        m.alpha = coefs[..width].to_vec();
        m.beta = coefs[width];
        m.gamma = coefs[width + 1];
        m.delta = coefs[width + 2];
        models.activated.entry(*version).or_default().push(m);
    }
    for r in outs.iter().flat_map(|o| o.ingests.iter()) {
        let sample = streams[r.lane].sample(r.index);
        let named = models.named(r.estimate.version);
        let verdict = named
            .iter()
            .map(|m| check_ingest(&r.estimate, &sample, m, total_cores))
            .find(Result::is_ok)
            .unwrap_or_else(|| {
                Err(format!(
                    "power_w matches no model named version {} ({} known)",
                    r.estimate.version,
                    named.len()
                ))
            });
        if let Err(e) = verdict {
            out.fail(format!("routed ingest {}: {e}", r.index));
        }
    }
    for o in &outs {
        out.failed += o.failed;
        out.failures.extend(o.failures.iter().cloned());
    }
}

/// Runs one serving workload into `out`.
pub fn run(
    kind: Kind,
    args: &Args,
    bin_dir: &Path,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let mut samples = SetupSamples::default();
    // The first fit gives the model the checks use; it runs before the
    // warm-up, so its time is not a sample.
    let (p, text) = fit(args, &mut tracer, out, 0, &mut Vec::new())?;
    let models = Models {
        // The checks use the model exactly as the server parses it.
        served: ModelArtifact::from_json(&text)
            .map_err(|e| e.to_string())?
            .model,
        served_version: 1,
        activated: HashMap::new(),
    };
    let total_cores = p.total_cores;
    // Requests carry the rows of a campaign on a simulated machine of
    // its own, seeded from the workload seed: the same kind of machine
    // the model was fit on, with its own measurement noise.
    let machine_seed = derive(args.seed, 0x2000);
    let mut quiet = Tracer::new(tracer.base(), false);
    let (trace, _) = pipeline::acquire(machine_seed, &mut quiet, 0, SpanId::NONE);
    let lanes_n = nproc().min(2);
    let mix = if kind == Kind::Routed {
        ROUTED_MIX
    } else {
        INGEST_ONLY
    };
    let streams = (0..lanes_n)
        .map(|c| {
            Inputs::generate(
                args.seed,
                c,
                trace.rows(),
                &models.served.events,
                total_cores,
                mix,
                PACED_RATE_HZ / lanes_n as f64,
            )
        })
        .collect();
    let served = Served {
        kind,
        args,
        bin_dir,
        work,
        artifact: work.join("model.json"),
        artifact_text: text,
        models,
        pipeline: p,
        streams,
        trace_base: tracer.base(),
    };
    pipeline::warm_up()?;
    let mut deployed = None;
    for rep in 0..SETUP_REPS {
        // Dropping the previous deployment kills and reaps it first.
        drop(deployed.take());
        deployed = Some(deploy(&served, rep, &mut tracer, out, &mut samples)?);
    }
    let (fleet, mut lanes) = deployed.expect("SETUP_REPS > 0");
    for (no, lane) in lanes.iter().enumerate() {
        println!(
            "perfbench: inputs lane {no}: schedule fnv {:016x} over {} generated requests",
            lane.inputs.schedule_digest().hash,
            crate::inputs::CYCLE
        );
    }

    let before = counters(&fleet)?;
    let proc0 = snapshot(&fleet);
    let mut ctx = Ctx {
        kind,
        models: &served.models,
        total_cores,
        capture: false,
        pids: fleet.pids(),
    };
    // A traced run splits its time: an untraced half for reference,
    // then a traced half; the latency difference is the tracing
    // overhead.
    let mut phases = Vec::new();
    if args.trace {
        phases.push(run_phase(&ctx, &mut lanes, args.seconds / 2.0));
        for lane in &mut lanes {
            lane.tracer.enabled = true;
        }
        ctx.capture = true;
        phases.push(run_phase(&ctx, &mut lanes, args.seconds / 2.0));
    } else {
        phases.push(run_phase(&ctx, &mut lanes, args.seconds));
    }
    let proc1 = snapshot(&fleet);
    let after = counters(&fleet)?;
    let rss_mb: f64 = fleet
        .pids()
        .into_iter()
        .map(|p| procfs::peak_rss_mb(Some(p)))
        .sum();
    // Closing the connections first lets the servers drain at once.
    let streams: Vec<Inputs> = lanes
        .into_iter()
        .map(|lane| {
            println!(
                "perfbench: inputs lane {}: sent {} requests, fnv {:016x}",
                lane.no, lane.sent.count, lane.sent.hash
            );
            tracer.absorb(lane.tracer);
            lane.inputs
        })
        .collect();
    let logs = fleet.logs();
    fleet.stop();

    println!(
        "perfbench: set-up: pipeline_s {:.4?}, setup_s {:.4?}",
        samples.pipeline_s, samples.setup_s
    );
    let Served {
        mut models,
        pipeline: fitted,
        ..
    } = served;

    verify(&phases, &mut models, &streams, total_cores, out);
    if kind == Kind::Routed && delta(&before, &after, "router.hedge_mismatches") != 0.0 {
        out.fail("router reported hedge mismatches");
    }
    if out.failed > 0 {
        eprintln!("perfbench: child logs: {logs}");
        let mut moved: Vec<String> = after
            .keys()
            .filter(|k| delta(&before, &after, k) != 0.0)
            .map(|k| format!("{k}={}", delta(&before, &after, k)))
            .collect();
        moved.sort();
        eprintln!("perfbench: counter deltas: {}", moved.join(" "));
    }
    let completed: u64 = phases.iter().map(|p| p.completed).sum();
    out.attempted += phases.iter().map(|p| p.attempted).sum::<u64>();
    let per_req = |x: f64| ratio(x, completed as f64);
    let reference = &phases[0];
    let p50 = reference.median_of(|w| w.p50_us);
    println!(
        "perfbench: {} requests completed in {:.3} s; latency p50 {:.1} us, p99 {:.1} us over {} samples; generator late p50 {:.1} us, p99 {:.1} us",
        reference.completed,
        reference.elapsed.as_secs_f64(),
        percentile(&reference.latencies_us, 0.5),
        percentile(&reference.latencies_us, 0.99),
        reference.latencies_us.len(),
        percentile(&reference.late_us, 0.5),
        percentile(&reference.late_us, 0.99),
    );

    for (k, w) in reference.windows.iter().enumerate() {
        println!(
            "perfbench: window {k}: {} responses, p50 {:.1} us, p99 {:.1} us, {:.1} us CPU per request",
            w.responses,
            w.p50_us,
            w.p99_us,
            ratio(w.cpu_s, w.responses as f64) * 1e6
        );
    }
    if !args.trace {
        out.metrics = vec![
            metric("setup_s", median(&samples.setup_s), "s"),
            metric(
                "throughput_rps",
                reference.median_of(|w| w.responses as f64 / reference.window_s),
                "1/s",
            ),
            metric("latency_p50_us", p50, "us"),
            metric("latency_p99_us", reference.median_of(|w| w.p99_us), "us"),
            metric(
                "cpu_us_per_req",
                reference.median_of(|w| ratio(w.cpu_s, w.responses as f64) * 1e6),
                "us",
            ),
            metric("rss_mb", rss_mb, "MiB"),
            metric("pipeline_s", median(&samples.pipeline_s), "s"),
        ];
        return Ok(());
    }

    let traced = &phases[1];
    let overhead_pct = 100.0 * (traced.median_of(|w| w.p50_us) - p50) / p50;
    let fill = ratio(
        delta(&before, &after, "batched_requests"),
        delta(&before, &after, "batches_dispatched"),
    );
    let ingests = traced.outs[0].captured.iter().filter(|c| c.1 == Op::Ingest);
    let (indices, responses): (Vec<usize>, Vec<Json>) =
        ingests.map(|(i, _, resp)| (*i, resp.clone())).unzip();
    let inproc = layers::serve_layers(
        &streams[0],
        &indices,
        &responses,
        &models.served,
        total_cores,
        fill,
        &mut tracer,
    );
    let server_us = layers::server_path_us(&inproc, kind.encoding());
    layers::print_attribution(kind, &inproc, p50, overhead_pct);
    let accepted = delta(&before, &after, "train_samples_accepted");
    let quarantined = delta(&before, &after, "train_samples_quarantined");
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.late_us.iter().copied())
        .collect();
    let load_secs: f64 = phases.iter().map(|p| p.elapsed.as_secs_f64()).sum();
    let mut m = vec![
        metric("loadgen.late_p99_us", percentile(&late, 0.99), "us"),
        metric(
            "loadgen.cpu_pct",
            100.0 * (proc1.self_cpu - proc0.self_cpu) / load_secs,
            "%",
        ),
        metric(
            "server.ctx_switches_per_req",
            per_req((proc1.ctx_serve - proc0.ctx_serve) as f64),
            "count",
        ),
        metric("server.unattributed_us", p50 - server_us, "us"),
        metric("batch.fill_mean", fill, "count"),
        metric(
            "batch.shed",
            delta(&before, &after, "requests_shed")
                + delta(&before, &after, "requests_rejected_overload"),
            "count",
        ),
        metric(
            "trainer.accept_ratio",
            ratio(accepted, accepted + quarantined),
            "ratio",
        ),
        metric(
            "trainer.activations",
            delta(&before, &after, "auto_activations"),
            "count",
        ),
        metric(
            "router.cpu_us_per_req",
            per_req(proc1.cpu_router - proc0.cpu_router) * 1e6,
            "us",
        ),
        metric(
            "router.hedge_win_ratio",
            ratio(
                delta(&before, &after, "router.hedges_won"),
                delta(&before, &after, "router.hedges_fired"),
            ),
            "ratio",
        ),
        metric(
            "router.replication_rounds",
            delta(&before, &after, "router.replication_rounds"),
            "count",
        ),
        metric(
            "router.windows_replicated",
            delta(&before, &after, "router.windows_replicated"),
            "count",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    m.extend(inproc);
    m.extend(layers::pipeline_layers(&mut tracer, &fitted));
    out.metrics = m;
    crate::write_trace(&tracer, args, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_tokens_put_one_client_on_each_shard() {
        for seed in 0..50 {
            assert_eq!(owner_of(&token_for(Kind::Routed, seed, 0)), 0);
            assert_eq!(owner_of(&token_for(Kind::Routed, seed, 1)), 1);
        }
    }

    #[test]
    fn windows_cover_the_phase() {
        let start = Instant::now();
        let width = Duration::from_millis(1000);
        let clock = Clock {
            start,
            end: start + width * WINDOWS as u32,
        };
        assert_eq!(clock.window(start), 0);
        assert_eq!(clock.window(start + width - Duration::from_millis(1)), 0);
        assert_eq!(clock.window(start + width), 1);
        // Responses drained after sending stopped land in the last window.
        assert_eq!(clock.window(clock.end + width * 3), WINDOWS - 1);
        assert_eq!(clock.boundary(WINDOWS), clock.end);
    }
}
