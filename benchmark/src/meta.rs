//! Where and how a result was measured: the `measured_on` record every
//! result file carries.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use espread_exec::Json;

use crate::stats::median;

/// The host and build facts a number depends on.
pub fn measured_on(seed: u64, seconds: u64, quick: bool) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .map(|s| s.trim().to_string());
    let telemetry = {
        let snap = espread_telemetry::global().snapshot();
        !(snap.counters.is_empty() && snap.histograms.is_empty())
    };
    let mut doc = Json::object();
    doc.push("seed", seed)
        .push("seconds", seconds)
        .push("quick", quick)
        .push("git_rev", git_rev().unwrap_or_else(|| "unknown".into()))
        .push(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .push("kernel", kernel.map_or(Json::Null, Json::Str))
        .push(
            "rcvtimeo_1ms_wait_ms",
            rcvtimeo_wait_ms().map_or(Json::Null, Json::Float),
        )
        .push(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .push("telemetry", telemetry);
    doc
}

/// How long a receive with a 1 ms `SO_RCVTIMEO` really waits on an idle
/// socket (median of five). The kernel rounds the timeout up to whole
/// ticks of 1000 / `CONFIG_HZ` ms, so this stands in for `CONFIG_HZ`, and
/// it sets the pace of every proxy poll on `udp_lossy`.
fn rcvtimeo_wait_ms() -> Option<f64> {
    let socket = UdpSocket::bind("127.0.0.1:0").ok()?;
    socket
        .set_read_timeout(Some(Duration::from_millis(1)))
        .ok()?;
    let mut buf = [0u8; 16];
    let waits: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let _ = socket.recv(&mut buf);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&waits)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD")?;
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    read(&format!(".git/{reference}")).or_else(|| {
        std::fs::read_to_string(".git/packed-refs")
            .ok()?
            .lines()
            .find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
    })
}
