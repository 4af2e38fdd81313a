//! The router core sleeps in `poll(2)` while a relayed request waits
//! on its backend, instead of spinning the CPU the backend needs to
//! produce the answer. Linux-only: the core thread is found by name in
//! `/proc/self/task` and its on-CPU time read from `schedstat`.

#![cfg(target_os = "linux")]

use pmc_router::{BackendSpec, PowerRouter, RouterConfig};
use pmc_serve::protocol::{write_frame, Request};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// On-CPU time of the live thread named `name`.
fn thread_cpu(name: &str) -> Duration {
    let task = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .map(|t| t.path())
        .find(|p| std::fs::read_to_string(p.join("comm")).is_ok_and(|comm| comm.trim_end() == name))
        .unwrap_or_else(|| panic!("no thread named {name}"));
    let schedstat = std::fs::read_to_string(task.join("schedstat")).unwrap();
    Duration::from_nanos(
        schedstat
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap(),
    )
}

#[test]
fn waiting_on_a_silent_backend_leaves_the_core_asleep() {
    // Bound but never accepted from: the kernel completes the
    // handshake, the relayed frame lands in its buffer, and no answer
    // ever comes back.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut router = PowerRouter::start(RouterConfig {
        backends: vec![BackendSpec::parse(&silent.local_addr().unwrap().to_string()).unwrap()],
        sync_interval: Duration::ZERO,
        ..RouterConfig::default()
    })
    .unwrap();
    let mut c = TcpStream::connect(router.addr()).unwrap();
    write_frame(
        &mut c,
        &Request::Resume {
            token: "silent".into(),
        }
        .to_json_value(),
    )
    .unwrap();
    let stats = router.stats();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.frames_routed.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "resume was never relayed");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    let before = thread_cpu("pmc-router-core");
    std::thread::sleep(Duration::from_secs(1));
    let spent = thread_cpu("pmc-router-core") - before;
    assert!(
        spent < Duration::from_millis(100),
        "router core used {spent:?} of CPU in 1 s awaiting one answer"
    );
    router.shutdown();
}
