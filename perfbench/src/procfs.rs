//! Readings from `/proc` (CPU time, context switches, peak memory) and
//! the box fingerprint printed with every result, so numbers from
//! different machines or builds are never compared silently.

use std::path::Path;
use std::process::Command;

/// User + system CPU seconds this process has used, its ended threads
/// included, at microsecond resolution (`/proc/self/stat` counts
/// 10 ms ticks, too coarse for one pipeline run).
pub fn self_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        ru_rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (two
    // timevals and fourteen longs on 64-bit Linux) for the call.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// On-CPU seconds summed over the process's live threads, from the
/// nanosecond scheduler statistics — precise enough for short windows
/// (the tick counts in `stat` are 10 ms grains), but blind to threads
/// that have exited.
pub fn thread_cpu_seconds(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Voluntary + involuntary context switches summed over the
/// process's live threads.
pub fn ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// Peak resident set size (VmHWM), MiB, of a child process or (`None`)
/// of this one.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace's source files (path and contents), so a
/// result names the code it measured even outside a git checkout.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut d = crate::inputs::Digest::default();
    for f in files {
        d.update(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        d.update(&std::fs::read(&f).unwrap_or_default());
    }
    d.hash
}

/// One JSON object describing the box, the toolchain and the code.
pub fn fingerprint(root: &Path) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let model = field("model name");
    let flags = format!("{} {}", field("flags"), field("Features"));
    let simd: Vec<&str> = [
        "sse2", "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "asimd", "sve",
    ]
    .into_iter()
    .filter(|f| flags.split_whitespace().any(|x| x == *f))
    .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"simd\": \"{}\", \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"source_fnv\": \"{:016x}\"}}",
        nproc(),
        model.replace('"', "'"),
        simd.join(" "),
        profile,
        command_line("rustc", &["-V"], root),
        if root.join(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"], root)
        } else {
            "none (not a git checkout)".to_string()
        },
        source_digest(root),
    )
}
