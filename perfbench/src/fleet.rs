//! The programs under test as child processes: `pmc-serve` and
//! `pmc-router` from the release build, each bound to an ephemeral
//! port and stopped (then waited for) before the benchmark exits.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Child {
    name: String,
    proc: std::process::Child,
    /// Kept open so the child's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    log: PathBuf,
    pub addr: String,
}

impl Child {
    /// Starts `bin args…` with stdin held open (both programs run until
    /// stdin closes) and waits for its `listening on ADDR` line.
    pub fn spawn(name: &str, bin: &Path, args: &[String], log: PathBuf) -> Result<Child, String> {
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{name} log: {e}"))?;
        let mut proc = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(proc.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = proc.kill();
                    let _ = proc.wait();
                    let tail = std::fs::read_to_string(&log).unwrap_or_default();
                    return Err(format!("{name} exited before listening: {}", tail.trim()));
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("listening on ") {
                        break a.to_string();
                    }
                }
            }
        };
        Ok(Child {
            name: name.to_string(),
            proc,
            _stdout: stdout,
            log,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.proc.id()
    }

    /// Graceful stop: closes stdin, waits up to five seconds for the
    /// drain, then kills. Always reaps the process.
    pub fn stop(mut self) {
        drop(self.proc.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.proc.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        eprintln!("perfbench: {} did not drain in 5 s; killing", self.name);
        // Drop kills and reaps.
    }

    /// The child's stderr so far, for failure reports.
    pub fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
        }
        let _ = self.proc.wait();
    }
}
