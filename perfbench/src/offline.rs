//! `offline_pipeline`: the researcher's path, in-process. Each pipeline
//! run reacquires the paper dataset on the simulated machine, selects
//! counters, fits Eq. 1 and cross-validates it with a fold shuffle
//! seeded per run from the workload seed; every run is checked.

use crate::inputs::derive;
use crate::layers;
use crate::pipeline::{self, Pipeline};
use crate::procfs;
use crate::report::{median, metric, percentile, Outcome};
use crate::trace::Tracer;
use crate::Args;
use std::path::Path;
use std::time::Instant;

/// Cold starts per run; `setup_s` is their median, and `pipeline_s` the
/// median of their pipeline wall times, as on the serving workloads,
/// whose set-up fits the served model. An untraced run makes one before
/// each of `SETUP_REPS` equal stretches of the measured runs: a shared
/// box's speed drifts over seconds, so set-ups made back to back read
/// one moment's speed, and set-ups spread over the run read its median
/// (README, Steadiness).
const SETUP_REPS: u64 = 8;
/// Windows per phase: `latency_p99_us` is the median of the windows'
/// p99s, so one disturbed stretch of a shared box moves one window.
const WINDOWS: usize = 10;

/// One checked pipeline run of a phase.
struct Run {
    /// Seconds from the phase start to the run's end.
    ended_s: f64,
    wall_us: f64,
    cpu_s: f64,
}

/// Pipelines run back to back for `seconds`; returns them and the
/// last pipeline.
fn phase(
    args: &Args,
    seconds: f64,
    next: &mut u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(Vec<Run>, Pipeline), String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        let cpu0 = procfs::self_cpu_seconds();
        let p = pipeline::run(derive(args.seed, 1000 + *next), tracer, *next)?;
        runs.push(Run {
            ended_s: start.elapsed().as_secs_f64(),
            wall_us: p.wall.as_secs_f64() * 1e6,
            cpu_s: procfs::self_cpu_seconds() - cpu0,
        });
        *next += 1;
        out.attempted += 1;
        if let Err(e) = pipeline::check(&p) {
            out.fail(format!("pipeline {}: {e}", *next - 1));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok((runs, p));
        }
    }
}

fn walls(runs: &[Run]) -> Vec<f64> {
    runs.iter().map(|r| r.wall_us).collect()
}

/// The median over the phase's windows of each window's p99 wall time.
fn windowed_p99(runs: &[Run], seconds: f64) -> f64 {
    let per = seconds / WINDOWS as f64;
    let p99s: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let inside: Vec<f64> = runs
                .iter()
                .filter(|r| ((r.ended_s / per) as usize).min(WINDOWS - 1) == w)
                .map(|r| r.wall_us)
                .collect();
            percentile(&inside, 0.99)
        })
        .filter(|p| p.is_finite())
        .collect();
    median(&p99s)
}

/// Set-up `rep`: from a cold start to the first checked answer. Pushes
/// the set-up time and the pipeline's own wall time.
fn cold_start(
    args: &Args,
    rep: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    setups: &mut Vec<f64>,
    pipelines: &mut Vec<f64>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let p = pipeline::run(derive(args.seed, 50 + rep), tracer, rep)?;
    out.attempted += 1;
    if let Err(e) = pipeline::check(&p) {
        out.fail(format!("set-up pipeline: {e}"));
    }
    setups.push(t0.elapsed().as_secs_f64());
    pipelines.push(p.wall.as_secs_f64());
    Ok(())
}

pub fn run(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let (mut setups, mut pipelines) = (Vec::new(), Vec::new());
    pipeline::warm_up()?;

    let mut next = 0;
    if !args.trace {
        // Set-ups interleaved with the measured stretches; `elapsed`
        // counts the stretches only.
        let mut runs = Vec::new();
        let mut elapsed = 0.0;
        for rep in 0..SETUP_REPS {
            cold_start(args, rep, &mut tracer, out, &mut setups, &mut pipelines)?;
            let stretch = args.seconds / SETUP_REPS as f64;
            let (part, _) = phase(args, stretch, &mut next, &mut tracer, out)?;
            let took = part.last().map_or(0.0, |r| r.ended_s);
            runs.extend(part.into_iter().map(|r| Run {
                ended_s: elapsed + r.ended_s,
                ..r
            }));
            elapsed += took;
        }
        let walls = walls(&runs);
        println!("perfbench: set-up: pipeline_s {pipelines:.4?}, setup_s {setups:.4?}");
        println!(
            "perfbench: {} pipelines in {elapsed:.3} s; wall p50 {:.0} us, p99 {:.0} us",
            runs.len(),
            percentile(&walls, 0.5),
            percentile(&walls, 0.99)
        );
        let cpu: Vec<f64> = runs.iter().map(|r| r.cpu_s * 1e6).collect();
        out.metrics = vec![
            metric("setup_s", median(&setups), "s"),
            metric("throughput_rps", runs.len() as f64 / elapsed, "1/s"),
            metric("latency_p50_us", median(&walls), "us"),
            metric("latency_p99_us", windowed_p99(&runs, elapsed), "us"),
            metric("cpu_us_per_req", median(&cpu), "us"),
            metric("rss_mb", procfs::peak_rss_mb(None), "MiB"),
            metric("pipeline_s", median(&pipelines), "s"),
        ];
        return Ok(());
    }

    for rep in 0..SETUP_REPS {
        cold_start(args, rep, &mut tracer, out, &mut setups, &mut pipelines)?;
    }
    // Traced run: an untraced half, then a traced half.
    let cpu0 = procfs::self_cpu_seconds();
    let t0 = Instant::now();
    tracer.enabled = false;
    let (plain, _) = phase(args, args.seconds / 2.0, &mut next, &mut tracer, out)?;
    tracer.enabled = true;
    let (traced, last) = phase(args, args.seconds / 2.0, &mut next, &mut tracer, out)?;
    let cpu_pct = 100.0 * (procfs::self_cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
    let p50 = median(&walls(&plain));
    let overhead_pct = 100.0 * (median(&walls(&traced)) - p50) / p50;
    println!("perfbench: tracing overhead {overhead_pct:+.2}% of the pipeline p50 ({p50:.0} us)");
    let mut m = vec![
        metric("loadgen.cpu_pct", cpu_pct, "%"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    m.extend(layers::pipeline_layers(&mut tracer, &last));
    // The serving layers are not on this workload's path: they read 0.
    let measured: Vec<&str> = m.iter().map(|x| x.name).collect();
    let absent: Vec<_> = crate::PER_LAYER
        .iter()
        .filter(|(name, _)| !measured.contains(name))
        .map(|&(name, unit)| metric(name, 0.0, unit))
        .collect();
    m.extend(absent);
    out.metrics = m;
    crate::write_trace(&tracer, args, work)
}
