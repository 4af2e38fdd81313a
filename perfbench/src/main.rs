//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `paced_ingest`, `pipelined_ingest` and `routed_mixed` load the
//! release `pmc-serve` / `pmc-router` binaries (found beside this
//! executable) as child processes; `offline_pipeline` runs the paper
//! pipeline in-process. Every answer is checked. Informational lines go
//! to stdout prefixed `perfbench:`; the last stdout line is the result
//! object. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics (see `perfbench/README.md`).

mod conn;
mod fleet;
mod inputs;
mod layers;
mod offline;
mod pipeline;
mod procfs;
mod report;
mod serving;
mod trace;

use report::Outcome;
use serving::Kind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "paced_ingest",
    "pipelined_ingest",
    "routed_mixed",
    "offline_pipeline",
];

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "throughput_rps",
    "latency_p50_us",
    "latency_p99_us",
    "cpu_us_per_req",
    "rss_mb",
    "pipeline_s",
];

/// The per-layer metrics every traced run reports, with units. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("loadgen.late_p99_us", "us"),
    ("loadgen.cpu_pct", "%"),
    ("server.ctx_switches_per_req", "count"),
    ("server.unattributed_us", "us"),
    ("json.parse_ns", "ns"),
    ("json.write_ns", "ns"),
    ("protocol.decode_binary_ns", "ns"),
    ("protocol.encode_binary_ns", "ns"),
    ("protocol.request_ns", "ns"),
    ("batch.fill_mean", "count"),
    ("batch.shed", "count"),
    ("engine.ingest_ns", "ns"),
    ("engine.batch_ns_per_row", "ns"),
    ("model.raw_ns", "ns"),
    ("model.rows_ns_per_row", "ns"),
    ("model.columns_ns_per_row", "ns"),
    ("trainer.train_ns", "ns"),
    ("trainer.accept_ratio", "ratio"),
    ("trainer.activations", "count"),
    ("online.push_ns", "ns"),
    ("router.cpu_us_per_req", "us"),
    ("router.ring_owner_ns", "ns"),
    ("router.hedge_win_ratio", "ratio"),
    ("router.replication_rounds", "count"),
    ("router.windows_replicated", "count"),
    ("acquisition.campaign_ms", "ms"),
    ("dataset.assemble_ms", "ms"),
    ("selection.select_ms", "ms"),
    ("ols.fit_us", "us"),
    ("model.fit_ms", "ms"),
    ("validation.cv_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: flag("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds,
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// Writes the run's spans beside the work directories.
pub fn write_trace(tracer: &trace::Tracer, args: &Args, work: &Path) -> Result<(), String> {
    let path = work
        .parent()
        .unwrap_or(work)
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
    println!(
        "perfbench: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    Ok(())
}

fn run(args: &Args, bin_dir: &Path, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let kind = match args.workload.as_str() {
        "paced_ingest" => Kind::Paced,
        "pipelined_ingest" => Kind::Pipelined,
        "routed_mixed" => Kind::Routed,
        _ => return offline::run(args, work, out),
    };
    for bin in ["pmc-serve", "pmc-router"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!(
                "{bin} not found in {} (build with perfbench/run.sh)",
                bin_dir.display()
            ));
        }
    }
    serving::run(kind, args, bin_dir, work, out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload ({}) --seed N --seconds S --trace 0|1",
                WORKLOADS.join(" | ")
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    if !root.join("crates").join("serve").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/serve here)");
        return ExitCode::from(2);
    }
    let exe = std::env::current_exe().expect("own executable path");
    let bin_dir = exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf();
    let target = bin_dir.parent().unwrap_or(&bin_dir).to_path_buf();
    let work: PathBuf =
        target
            .join("perfbench-work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    println!("perfbench: box {}", procfs::fingerprint(&root));

    let mut out = Outcome::default();
    let result = run(&args, &bin_dir, &work, &mut out);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let mut want: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    names.sort_unstable();
    want.sort_unstable();
    if names != want {
        eprintln!("perfbench: metric set mismatch: reported {names:?}, expected {want:?}");
        return ExitCode::FAILURE;
    }
    for f in &out.failures {
        eprintln!("perfbench: failed: {f}");
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
