//! The core thread sleeps in `poll(2)` until there is something to do.
//! Linux-only: the core thread is found by name in `/proc/self/task`
//! and its own context switches and on-CPU time are read from there.
//! The two tests share one lock so only one `pmc-serve-core` thread
//! exists in this process at a time.

#![cfg(target_os = "linux")]

use pmc_faults::ServeFaults;
use pmc_serve::protocol::{read_frame, unwrap_response, write_frame, Request};
use pmc_serve::{ModelRegistry, PowerServer, ServerConfig};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static ONE_SERVER: Mutex<()> = Mutex::new(());

/// The `/proc/self/task` directory of the live thread named `name`.
fn task_dir(name: &str) -> std::path::PathBuf {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .map(|t| t.path())
        .find(|p| std::fs::read_to_string(p.join("comm")).is_ok_and(|comm| comm.trim_end() == name))
        .unwrap_or_else(|| panic!("no thread named {name}"))
}

fn voluntary_switches(task: &std::path::Path) -> u64 {
    let status = std::fs::read_to_string(task.join("status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

fn on_cpu(task: &std::path::Path) -> Duration {
    let schedstat = std::fs::read_to_string(task.join("schedstat")).unwrap();
    let ns = schedstat
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    Duration::from_nanos(ns)
}

#[test]
fn idle_connections_leave_the_core_asleep() {
    let _one = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
    let mut conns: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    for c in &mut conns {
        // One answered request proves the connection was admitted.
        write_frame(c, &Request::Stats.to_json_value()).unwrap();
        unwrap_response(read_frame(c).unwrap().unwrap()).unwrap();
    }
    let core = task_dir("pmc-serve-core");
    std::thread::sleep(Duration::from_millis(200));
    let before = voluntary_switches(&core);
    std::thread::sleep(Duration::from_secs(1));
    let woke = voluntary_switches(&core) - before;
    assert!(
        woke <= 5,
        "core woke {woke} times in 1 s with 4 idle connections"
    );
    server.shutdown();
}

#[test]
fn eof_with_a_request_in_flight_is_answered_without_spinning() {
    let _one = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let stall = Duration::from_millis(300);
    let cfg = ServerConfig {
        workers: 1,
        faults: Some(Arc::new(ServeFaults::new().stall_on_job(1, stall))),
        ..ServerConfig::default()
    };
    let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
    let mut c = TcpStream::connect(server.addr()).unwrap();
    let sent = Instant::now();
    write_frame(&mut c, &Request::Stats.to_json_value()).unwrap();
    c.shutdown(Shutdown::Write).unwrap();
    // Let the core read the request and the EOF behind it.
    std::thread::sleep(Duration::from_millis(50));
    let core = task_dir("pmc-serve-core");
    let cpu_before = on_cpu(&core);
    let frame = read_frame(&mut c).unwrap().expect("answer after EOF");
    let spent = on_cpu(&core) - cpu_before;
    assert!(sent.elapsed() >= stall, "the stall did not hold the job");
    unwrap_response(frame).unwrap();
    assert!(
        spent < Duration::from_millis(30),
        "core used {spent:?} of CPU waiting out a {stall:?} job"
    );
    // The half-closed connection is closed once answered.
    assert!(read_frame(&mut c).unwrap().is_none());
    server.shutdown();
}
