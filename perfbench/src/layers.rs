//! In-process per-layer timings: the benchmark calls each layer's
//! public functions on the same generated inputs (and the responses
//! captured from the traced load), one span per timed loop, and turns
//! the spans into per-call costs. The attribution row subtracts the
//! server-side layers from the measured median latency.

use crate::inputs::Inputs;
use crate::report::{metric, Metric};
use crate::serving::Kind;
use crate::trace::{SpanId, Tracer};
use pmc_json::Json;
use pmc_model::model::PowerModel;
use pmc_router::HashRing;
use pmc_serve::protocol::{encode_frame_as, parse_frame, Request};
use pmc_serve::registry::ModelRegistry;
use pmc_serve::stats::ServerStats;
use pmc_serve::tokenhash::resume_key;
use pmc_serve::trainer::{Trainer, TrainerConfig};
use pmc_serve::{CounterSample, Encoding, EngineConfig, EstimatorEngine, ModelArtifact};
use pmc_stats::{CovarianceKind, OlsFit, OlsOptions, OnlineOls};
use std::hint::black_box;
use std::sync::Arc;

/// Timed loops per layer; the metric is their median.
const REPS: usize = 9;

/// Runs `REPS` loops of `calls` calls, each on fresh state from
/// `setup` (outside the span), and returns the median ns per call.
fn probe<S>(
    tracer: &mut Tracer,
    name: &'static str,
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut call: impl FnMut(&mut S, usize),
) -> f64 {
    let was = tracer.enabled;
    tracer.enabled = true;
    for rep in 0..REPS {
        let mut state = setup();
        let s = tracer.begin(name, rep as u64, SpanId::NONE);
        for i in 0..calls {
            call(&mut state, i);
        }
        tracer.end_calls(s, calls as u32);
    }
    tracer.enabled = was;
    tracer.per_call_ns(name).unwrap_or(f64::NAN)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Serving-layer costs on request `indices` of `inputs` and the
/// captured ingest `responses`, with batches at the observed `fill`.
pub fn serve_layers(
    inputs: &Inputs,
    indices: &[usize],
    responses: &[Json],
    model: &PowerModel,
    total_cores: u32,
    fill: f64,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let samples: Vec<CounterSample> = indices.iter().map(|&i| inputs.sample(i)).collect();
    let labels: Vec<f64> = indices.iter().map(|&i| inputs.label(i)).collect();
    let n = samples.len();
    let requests: Vec<Json> = samples
        .iter()
        .map(|s| Request::Ingest(s.clone()).to_json_value())
        .collect();
    let texts: Vec<String> = requests.iter().map(Json::to_string).collect();
    let binary: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_frame_as(r, Encoding::Binary).expect("frame"))
        .collect();
    let mut artifact = ModelArtifact::new("paper", model.clone());
    artifact.version = 1;
    let artifact = Arc::new(artifact);
    let engine_config = EngineConfig {
        total_cores,
        ..EngineConfig::default()
    };

    let mut m = vec![
        metric(
            "json.parse_ns",
            probe(
                tracer,
                "json.parse",
                n,
                || (),
                |_, i| {
                    black_box(Json::parse(&texts[i]).ok());
                },
            ),
            "ns",
        ),
        metric(
            "json.write_ns",
            probe(
                tracer,
                "json.write",
                responses.len(),
                || (),
                |_, i| {
                    black_box(responses[i].to_string());
                },
            ),
            "ns",
        ),
        metric(
            "protocol.decode_binary_ns",
            probe(
                tracer,
                "protocol.decode_binary",
                n,
                || (),
                |_, i| {
                    black_box(parse_frame(&binary[i], u32::MAX).ok());
                },
            ),
            "ns",
        ),
        metric(
            "protocol.encode_binary_ns",
            probe(
                tracer,
                "protocol.encode_binary",
                responses.len(),
                || (),
                |_, i| {
                    black_box(encode_frame_as(&responses[i], Encoding::Binary).ok());
                },
            ),
            "ns",
        ),
        metric(
            "protocol.request_ns",
            probe(
                tracer,
                "protocol.request",
                n,
                || (),
                |_, i| {
                    black_box(Request::from_json_value(&requests[i]).ok());
                },
            ),
            "ns",
        ),
        metric(
            "engine.ingest_ns",
            probe(
                tracer,
                "engine.ingest",
                n,
                || EstimatorEngine::new(engine_config),
                |engine, i| {
                    black_box(engine.ingest(1, &samples[i], &artifact).ok());
                },
            ),
            "ns",
        ),
    ];

    // Coalesced dispatches at the fill the server actually reached.
    let batch = (fill.round() as usize).max(1);
    let chunks: Vec<Vec<(u64, CounterSample)>> = samples
        .chunks(batch)
        .map(|c| c.iter().map(|s| (1, s.clone())).collect())
        .collect();
    let per_batch = probe(
        tracer,
        "engine.batch",
        chunks.len(),
        || EstimatorEngine::new(engine_config),
        |engine, i| {
            black_box(engine.estimate_batch(&chunks[i], &artifact));
        },
    );
    m.push(metric(
        "engine.batch_ns_per_row",
        per_batch / batch as f64,
        "ns",
    ));

    // The Eq.-1 kernels on the same rows, pre-normalized.
    let width = model.events.len();
    let mut rates = Vec::with_capacity(n * width);
    let mut points = Vec::with_capacity(n);
    for s in &samples {
        let avail = total_cores as f64 * s.freq_mhz as f64 * 1e6 * s.duration_s;
        rates.extend(s.deltas.iter().map(|d| d / avail));
        points.push((s.voltage, s.freq_mhz));
    }
    let mut columns = vec![0.0; n * width];
    for i in 0..n {
        for j in 0..width {
            columns[j * n + i] = rates[i * width + j];
        }
    }
    m.push(metric(
        "model.raw_ns",
        probe(
            tracer,
            "model.raw",
            n,
            || (),
            |_, i| {
                let (v, f) = points[i];
                black_box(
                    model
                        .predict_raw(&rates[i * width..(i + 1) * width], v, f)
                        .ok(),
                );
            },
        ),
        "ns",
    ));
    let mut out = Vec::new();
    let rows = probe(
        tracer,
        "model.rows",
        1,
        || (),
        |_, _| {
            black_box(model.predict_raw_batch_into(&rates, &points, &mut out).ok());
        },
    );
    m.push(metric("model.rows_ns_per_row", rows / n as f64, "ns"));
    let mut v2f = Vec::new();
    let cols = probe(
        tracer,
        "model.columns",
        1,
        || (),
        |_, _| {
            black_box(
                model
                    .predict_raw_columns_into(&columns, &points, &mut v2f, &mut out)
                    .ok(),
            );
        },
    );
    m.push(metric("model.columns_ns_per_row", cols / n as f64, "ns"));

    // The online-learning path on the same samples, labelled with the
    // simulator's measured power.
    m.push(metric(
        "trainer.train_ns",
        probe(
            tracer,
            "trainer.train",
            n,
            || {
                let registry = ModelRegistry::default();
                registry
                    .load_and_activate((*artifact).clone())
                    .expect("the served model loads");
                (
                    Trainer::new(TrainerConfig::default()),
                    registry,
                    ServerStats::default(),
                )
            },
            |(trainer, registry, stats), i| {
                black_box(
                    trainer
                        .train(registry, stats, total_cores, &samples[i], labels[i])
                        .ok(),
                );
            },
        ),
        "ns",
    ));
    let design: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let (v, f) = points[i];
            let v2f = v * v * (f as f64 / 1000.0);
            let mut row: Vec<f64> = rates[i * width..(i + 1) * width]
                .iter()
                .map(|r| r * v2f)
                .collect();
            row.extend([v2f, v, 1.0]);
            row
        })
        .collect();
    m.push(metric(
        "online.push_ns",
        probe(
            tracer,
            "online.push",
            n,
            || OnlineOls::new(width + 3, TrainerConfig::default().resync_every),
            |fit, i| {
                black_box(fit.push(&design[i], labels[i]).ok());
            },
        ),
        "ns",
    ));

    let ring = HashRing::build([("shard-1", 1), ("shard-2", 1)].into_iter(), |_| true);
    let keys: Vec<u64> = (0..n).map(|i| resume_key(&format!("token-{i}"))).collect();
    m.push(metric(
        "router.ring_owner_ns",
        probe(
            tracer,
            "router.ring_owner",
            n,
            || (),
            |_, i| {
                black_box(ring.owner(keys[i]));
            },
        ),
        "ns",
    ));
    m
}

/// The server-side layers one request passes, in the connection's
/// encoding: frame decode, request decode, engine, response encode.
fn server_parts(encoding: Encoding) -> [&'static str; 4] {
    match encoding {
        Encoding::Json => [
            "json.parse_ns",
            "protocol.request_ns",
            "engine.ingest_ns",
            "json.write_ns",
        ],
        Encoding::Binary => [
            "protocol.decode_binary_ns",
            "protocol.request_ns",
            "engine.batch_ns_per_row",
            "protocol.encode_binary_ns",
        ],
    }
}

/// The in-process cost of one request's server-side layers, µs.
pub fn server_path_us(metrics: &[Metric], encoding: Encoding) -> f64 {
    server_parts(encoding)
        .iter()
        .map(|p| value(metrics, p))
        .sum::<f64>()
        / 1000.0
}

/// Prints the attribution row: the in-process layer times, their sum,
/// and what the measured median latency leaves unattributed.
pub fn print_attribution(kind: Kind, metrics: &[Metric], p50_us: f64, overhead_pct: f64) {
    let parts: Vec<String> = server_parts(kind.encoding())
        .iter()
        .map(|n| {
            format!(
                "{}={:.3}us",
                n.trim_end_matches("_ns"),
                value(metrics, n) / 1000.0
            )
        })
        .collect();
    let sum = server_path_us(metrics, kind.encoding());
    let unattributed = p50_us - sum;
    println!(
        "perfbench: attribution {kind:?}: {} sum={sum:.3}us latency_p50={p50_us:.1}us \
         unattributed={unattributed:.1}us ({:.2}% of p50) tracing_overhead={overhead_pct:+.2}% of p50",
        parts.join(" "),
        100.0 * unattributed / p50_us
    );
}

/// Offline-stage costs: the pipeline's own stage spans, plus the bare
/// OLS/HC3 solve on the fitted design.
pub fn pipeline_layers(tracer: &mut Tracer, p: &crate::pipeline::Pipeline) -> Vec<Metric> {
    let x = PowerModel::design_matrix(&p.data, &p.events);
    let y = p.data.power();
    let ols = probe(
        tracer,
        "ols.fit",
        1,
        || (),
        |_, _| {
            black_box(
                OlsFit::fit_with(
                    &x,
                    &y,
                    OlsOptions {
                        covariance: CovarianceKind::HC3,
                        centered_tss: true,
                    },
                )
                .ok(),
            );
        },
    );
    let ms = |name: &str| tracer.per_call_ns(name).unwrap_or(f64::NAN) / 1e6;
    vec![
        metric("acquisition.campaign_ms", ms("acquisition.campaign"), "ms"),
        metric("dataset.assemble_ms", ms("dataset.assemble"), "ms"),
        metric("selection.select_ms", ms("selection.select"), "ms"),
        metric("ols.fit_us", ols / 1000.0, "us"),
        metric("model.fit_ms", ms("model.fit"), "ms"),
        metric("validation.cv_ms", ms("validation.cv"), "ms"),
    ]
}
