//! End-to-end loopback streaming: real sockets, real threads, a seeded
//! fault-injecting proxy — and deterministic results.
//!
//! The determinism rests on two facts. The proxy's Gilbert–Elliott chain
//! steps **only on data datagrams, in arrival order**, and UDP over
//! loopback from a single sender preserves order; and with recovery off,
//! every ordering sends the *same* fragments per window, so spread and
//! in-order sessions see the identical per-slot loss realisation — the
//! paper's same-channel methodology (§5.1) carried onto real sockets.

use std::net::UdpSocket;
use std::time::Duration;

use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig,
};
use espread_protocol::{FecPolicy, FecScope, Ordering, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{Movie, MpegTrace};

mod common;
use common::{paper_offer, quick_retry, server_config};

/// One full session through a seeded Gilbert proxy; returns the
/// per-window CLF values and the mean.
fn run_once(ordering: Ordering, seed: u64, windows: usize) -> (Vec<usize>, f64) {
    let mut server = NetServer::bind("127.0.0.1:0", server_config(windows, 2)).unwrap();
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, seed),
        FaultPolicy::transparent(),
    )
    .unwrap();
    let config = NetClientConfig {
        ordering,
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(proxy.client_addr(), config).unwrap();
    let report = client.stream().unwrap();
    proxy.shutdown();
    server.shutdown();
    assert_eq!(report.windows_completed, windows, "{ordering}");
    assert!(report.saw_bye, "{ordering}: stream should close gracefully");
    let clfs: Vec<usize> = report.series.clf_values().collect();
    (clfs, report.series.summary().mean_clf)
}

/// The tentpole acceptance test: ≥10 windows of Jurassic Park through a
/// seeded lossy proxy, twice per ordering on the same seed. Same seed ⇒
/// identical CLF sequence; and on the identical loss realisation, the
/// spread ordering yields a strictly lower mean CLF than in-order.
#[test]
fn spread_beats_in_order_on_the_same_loss_realisation_deterministically() {
    const WINDOWS: usize = 12;
    const SEED: u64 = 42;
    let (spread_1, spread_mean_1) = run_once(Ordering::spread(), SEED, WINDOWS);
    let (spread_2, spread_mean_2) = run_once(Ordering::spread(), SEED, WINDOWS);
    let (inorder_1, inorder_mean_1) = run_once(Ordering::InOrder, SEED, WINDOWS);
    let (inorder_2, inorder_mean_2) = run_once(Ordering::InOrder, SEED, WINDOWS);

    assert_eq!(spread_1, spread_2, "spread runs must be identical");
    assert_eq!(inorder_1, inorder_2, "in-order runs must be identical");
    assert_eq!(spread_mean_1, spread_mean_2);
    assert_eq!(inorder_mean_1, inorder_mean_2);

    assert!(
        spread_mean_1 < inorder_mean_1,
        "spread mean CLF {spread_mean_1} must beat in-order {inorder_mean_1}"
    );
}

/// Control-datagram loss: the proxy eats the first few handshake/ACK
/// datagrams in both directions and the retry/backoff machinery still
/// converges to a complete, lossless stream.
#[test]
fn retries_recover_from_dropped_control_datagrams() {
    const WINDOWS: usize = 3;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent().drop_first_control(2),
        FaultPolicy::transparent().drop_first_control(2),
    )
    .unwrap();
    let config = NetClientConfig {
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(proxy.client_addr(), config).unwrap();
    let report = client.stream().unwrap();
    let stats = proxy.stats();
    proxy.shutdown();
    server.shutdown();

    assert_eq!(report.windows_completed, WINDOWS);
    assert!(
        report.hello_retries >= 2,
        "the dropped Hellos must have been retried (got {})",
        report.hello_retries
    );
    assert_eq!(stats.dropped_control, 4, "both directions' budgets spent");
    assert_eq!(stats.dropped_data, 0);
    // Nothing was actually lost on the data path.
    assert_eq!(report.series.summary().mean_clf, 0.0);
}

/// Duplicated and reordered datagrams are absorbed: reassembly is
/// idempotent and slot bookkeeping is order-independent.
#[test]
fn duplicates_and_reordering_do_not_corrupt_the_stream() {
    const WINDOWS: usize = 3;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent()
            .duplicate_every(5)
            .reorder_every(7),
        FaultPolicy::transparent(),
    )
    .unwrap();
    let config = NetClientConfig {
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(proxy.client_addr(), config).unwrap();
    let report = client.stream().unwrap();
    let stats = proxy.stats();
    proxy.shutdown();
    server.shutdown();

    assert_eq!(report.windows_completed, WINDOWS);
    assert!(stats.duplicated > 0);
    assert!(stats.reordered > 0);
    assert_eq!(report.series.summary().mean_clf, 0.0, "nothing truly lost");
}

/// Two concurrent clients demuxed by connection id on one server socket,
/// each with its own ordering, both served to completion.
#[test]
fn server_demuxes_concurrent_sessions() {
    const WINDOWS: usize = 2;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
    let addr = server.local_addr();
    let spawn = |ordering: Ordering| {
        std::thread::spawn(move || {
            let config = NetClientConfig {
                ordering,
                retry: quick_retry(),
                ..NetClientConfig::default()
            };
            let client = NetClient::connect(addr, config).unwrap();
            client.stream().unwrap()
        })
    };
    let a = spawn(Ordering::spread());
    let b = spawn(Ordering::InOrder);
    let report_a = a.join().unwrap();
    let report_b = b.join().unwrap();
    server.shutdown();

    for report in [&report_a, &report_b] {
        assert_eq!(report.windows_completed, WINDOWS);
        assert_eq!(report.series.summary().mean_clf, 0.0);
        assert!(report.saw_bye);
    }
}

/// Critical recovery over the wire: with bursty loss and `recovery`
/// on, the client NACKs missing critical frames and keeps NACKing on
/// each resent `WindowEnd` (retransmissions ride the lossy channel too),
/// so within the retry budget no critical frame stays lost.
#[test]
fn critical_nack_round_recovers_anchor_frames() {
    const WINDOWS: usize = 6;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, 7),
        FaultPolicy::transparent(),
    )
    .unwrap();
    let config = NetClientConfig {
        recovery: true,
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(proxy.client_addr(), config).unwrap();
    let session = client.session().clone();
    let report = client.stream().unwrap();
    proxy.shutdown();
    server.shutdown();

    assert_eq!(report.windows_completed, WINDOWS);
    assert!(report.nacks_sent > 0, "bursty loss should trigger NACKs");
    // Every critical (anchor) frame made it in every window.
    let critical: Vec<usize> = session
        .critical_frames
        .iter()
        .map(|&f| usize::from(f))
        .collect();
    for (w, pattern) in report.patterns.iter().enumerate() {
        for &frame in &critical {
            assert!(
                pattern.is_received(frame),
                "window {w}: critical frame {frame} still missing after recovery"
            );
        }
    }
}

/// One session with critical-layer FEC negotiated, through a seeded
/// bursty channel; returns what the client repaired and what it NACKed.
fn run_with_fec(fec: FecPolicy, seed: u64, windows: usize) -> espread_net::NetClientReport {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let offer = SessionOffer {
        fec,
        ..paper_offer(2)
    };
    let config = NetServerConfig::new(
        ProtocolConfig::paper(0.6, 1),
        offer,
        StreamSource::mpeg(&trace, 2, windows, false),
    );
    let mut server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(0.92, 0.5, seed),
        FaultPolicy::transparent(),
    )
    .unwrap();
    let client_config = NetClientConfig {
        recovery: true,
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(proxy.client_addr(), client_config).unwrap();
    let report = client.stream().unwrap();
    proxy.shutdown();
    server.shutdown();
    assert_eq!(report.windows_completed, windows);
    report
}

/// The FEC acceptance test on the real UDP stack: the proxy's seeded
/// channel produces bursts the `(4, 2)` Cauchy code covers, the client
/// repairs every critical loss from parity *before* the NACK branch
/// runs — so recovery costs **zero** CriticalNack rounds — and the same
/// seed with FEC off proves the repairs were load-bearing: without
/// parity the client has to fall back to retransmission rounds.
#[test]
fn parity_repairs_coverable_bursts_with_zero_nack_rounds() {
    const WINDOWS: usize = 6;
    const SEED: u64 = 1;
    let fec = run_with_fec(FecPolicy::rs(FecScope::Critical, 4, 2), SEED, WINDOWS);
    assert!(
        fec.fec_recovered > 0,
        "the channel must have produced at least one coverable erasure"
    );
    assert_eq!(
        fec.fec_unrecoverable, 0,
        "every burst on this seed fits the parity budget"
    );
    assert_eq!(
        fec.nacks_sent, 0,
        "parity recovery must preempt every CriticalNack round"
    );

    let off = run_with_fec(FecPolicy::off(), SEED, WINDOWS);
    assert_eq!(off.fec_recovered, 0);
    assert!(
        off.nacks_sent > 0,
        "without parity the same channel seed forces retransmission rounds"
    );
}

/// Telemetry end to end: a scoped registry captures socket, retry, and
/// RTT-histogram metrics, and its Prometheus rendering parses.
#[test]
fn telemetry_counts_the_session_and_exports_prometheus() {
    use espread_telemetry::sink::to_prometheus_text;
    use espread_telemetry::{with_current, Registry};

    const WINDOWS: usize = 2;
    let registry = Registry::new();
    let snapshot = with_current(&registry, || {
        let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
        let mut proxy = FaultProxy::spawn(
            server.local_addr(),
            FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, 5),
            FaultPolicy::transparent(),
        )
        .unwrap();
        let config = NetClientConfig {
            retry: quick_retry(),
            ..NetClientConfig::default()
        };
        let client = NetClient::connect(proxy.client_addr(), config).unwrap();
        let report = client.stream().unwrap();
        assert_eq!(report.windows_completed, WINDOWS);
        proxy.shutdown();
        server.shutdown();
        registry.snapshot()
    });

    assert!(snapshot.counter("net.server.sessions") == Some(1));
    assert!(snapshot.counter("net.server.datagrams_tx").unwrap_or(0) > 0);
    assert!(snapshot.counter("net.client.datagrams_rx").unwrap_or(0) > 0);
    assert!(snapshot.counter("net.proxy.dropped").unwrap_or(0) > 0);
    let rtt = snapshot
        .histogram("net.server.rtt_us")
        .expect("RTT histogram populated");
    assert!(
        rtt.count >= WINDOWS as u64,
        "one RTT sample per acked window"
    );

    let text = to_prometheus_text(&snapshot);
    assert!(text.contains("net_server_datagrams_tx"));
    assert!(text.contains("net_server_rtt_us"));
    // Well-formed exposition: every non-comment line is `name value`
    // with a parseable float.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(!name.is_empty());
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
    }
}

/// Regression (finished-session leak): the old thread-per-session server
/// kept every completed session's worker handle and routing entry until
/// shutdown. Churn a sequence of sessions through one server and assert
/// the connection table returns to empty after each cohort — the new
/// core must reap on session end, not at shutdown.
#[test]
fn finished_sessions_are_reaped_from_the_connection_table() {
    const WINDOWS: usize = 2;
    const CHURN: usize = 8;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
    let addr = server.local_addr();
    for round in 0..CHURN {
        let config = NetClientConfig {
            retry: quick_retry(),
            ..NetClientConfig::default()
        };
        let client = NetClient::connect(addr, config).unwrap();
        let report = client.stream().unwrap();
        assert_eq!(report.windows_completed, WINDOWS, "round {round}");
        assert!(report.saw_bye, "round {round}");
        // The ByeAck has been sent, so the session is finished; give the
        // shard a few poll ticks to reap it.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.live_sessions() != 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            server.live_sessions(),
            0,
            "round {round}: completed session still in the connection table"
        );
    }
    server.shutdown();
}

/// Regression (handshake-cache flood): the old demux cached every Hello
/// nonce's reply forever. Flood the server with distinct never-completing
/// handshakes (hostile capabilities, so no session spawns) and assert the
/// TTL/LRU cache evicts — then prove the server still serves a real
/// client afterwards.
#[test]
fn handshake_nonce_flood_is_bounded_by_the_cache_cap() {
    use espread_net::wire::{self, Hello};
    use espread_telemetry::{with_current, Registry};

    const WINDOWS: usize = 2;
    const FLOOD: u64 = 100;
    const CAP: usize = 8;
    let registry = Registry::new();
    let snapshot = with_current(&registry, || {
        let mut config = server_config(WINDOWS, 2);
        config.handshake_cap = CAP;
        let mut server = NetServer::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        let flooder = UdpSocket::bind("127.0.0.1:0").unwrap();
        for nonce in 1..=FLOOD {
            // A buffer of 1 byte fails negotiation: the server answers
            // with a cached Reject and spawns nothing.
            let hello = wire::try_encode(
                wire::CONN_NONE,
                &espread_net::Msg::Hello(Hello {
                    nonce,
                    buffer_bytes: 1,
                    max_startup_delay_ms: 1,
                    ordering: Ordering::spread(),
                }),
            )
            .unwrap();
            flooder.send_to(&hello, addr).unwrap();
        }
        // Let the demux chew through the flood, then stream for real.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while registry
            .snapshot()
            .counter("net.server.handshake_evictions")
            .unwrap_or(0)
            < FLOOD - CAP as u64
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let client_config = NetClientConfig {
            retry: quick_retry(),
            ..NetClientConfig::default()
        };
        let client = NetClient::connect(addr, client_config).unwrap();
        let report = client.stream().unwrap();
        assert_eq!(report.windows_completed, WINDOWS);
        server.shutdown();
        registry.snapshot()
    });
    let evictions = snapshot
        .counter("net.server.handshake_evictions")
        .unwrap_or(0);
    assert!(
        evictions >= FLOOD - CAP as u64,
        "a {FLOOD}-nonce flood against a {CAP}-slot cache must evict \
         (saw {evictions} evictions) — unbounded handshake cache is back"
    );
    assert_eq!(
        snapshot.counter("net.server.sessions"),
        Some(1),
        "the hostile flood must not have spawned sessions"
    );
}

/// Regression (`set_read_timeout` churn): the old client issued one
/// timeout syscall per receive. The whole session — handshake plus a
/// lossy stream full of receives — must issue exactly one, at connect.
#[test]
fn steady_state_receives_issue_zero_timeout_updates() {
    const WINDOWS: usize = 4;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
    let mut proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPolicy::transparent().gilbert_data_loss(0.92, 0.6, 3),
        FaultPolicy::transparent(),
    )
    .unwrap();
    let config = NetClientConfig {
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(proxy.client_addr(), config).unwrap();
    let report = client.stream().unwrap();
    proxy.shutdown();
    server.shutdown();
    assert_eq!(report.windows_completed, WINDOWS);
    assert!(
        report.datagrams_rx > 50,
        "the stream exercised many receives (got {})",
        report.datagrams_rx
    );
    assert_eq!(
        report.timeout_updates, 1,
        "every receive after connect must reuse the one poll timeout"
    );
}

/// A stray datagram blizzard (wrong magic, truncated, hostile lengths)
/// aimed at a live server does not disturb a concurrent session.
#[test]
fn hostile_datagrams_do_not_disrupt_a_live_session() {
    const WINDOWS: usize = 2;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
    let addr = server.local_addr();
    let attacker = std::thread::spawn(move || {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        for i in 0..200u32 {
            let junk = match i % 4 {
                0 => vec![0u8; (i % 9) as usize],        // short header
                1 => b"GET / HTTP/1.1\r\n\r\n".to_vec(), // alien
                2 => {
                    let mut m = espread_net::try_encode(1, &espread_net::Msg::Begin).unwrap();
                    m[4] = 99; // bad version
                    m
                }
                _ => {
                    let mut m =
                        espread_net::try_encode(u32::MAX, &espread_net::Msg::ByeAck).unwrap();
                    m.truncate(m.len().saturating_sub(1));
                    m
                }
            };
            let _ = sock.send_to(&junk, addr);
        }
    });
    let config = NetClientConfig {
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(addr, config).unwrap();
    let report = client.stream().unwrap();
    attacker.join().unwrap();
    server.shutdown();
    assert_eq!(report.windows_completed, WINDOWS);
    assert_eq!(report.series.summary().mean_clf, 0.0);
}

/// A `Bye` stamped with another connection's id — what a server retrying
/// a finished session's `Bye` at a reused port delivers — reaches a live
/// client mid-stream. The client drops and counts it, and the stream
/// still completes every window.
#[test]
fn foreign_connection_bye_does_not_end_a_live_session() {
    use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
    use std::sync::{Arc, Mutex};

    use espread_net::wire::{ByeReason, HEADER_BYTES};

    const WINDOWS: usize = 4;
    /// Data datagrams relayed to the client before the stray `Bye`.
    const INJECT_AFTER: usize = 30;
    let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();

    // A transparent relay: `front` faces the client, `back` the server.
    let front = UdpSocket::bind("127.0.0.1:0").unwrap();
    let back = UdpSocket::bind("127.0.0.1:0").unwrap();
    back.connect(server.local_addr()).unwrap();
    for sock in [&front, &back] {
        sock.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
    }
    let relay_addr = front.local_addr().unwrap();
    let client_addr = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));
    let upstream = {
        let (front, back) = (front.try_clone().unwrap(), back.try_clone().unwrap());
        let (client_addr, stop) = (Arc::clone(&client_addr), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut buf = [0u8; 65_536];
            while !stop.load(AtomicOrdering::Relaxed) {
                if let Ok((len, from)) = front.recv_from(&mut buf) {
                    *client_addr.lock().unwrap() = Some(from);
                    let _ = back.send(&buf[..len]);
                }
            }
        })
    };
    let downstream = {
        let (client_addr, stop) = (Arc::clone(&client_addr), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut buf = [0u8; 65_536];
            let mut data = 0usize;
            while !stop.load(AtomicOrdering::Relaxed) {
                let Ok(len) = back.recv(&mut buf) else {
                    continue;
                };
                let Some(to) = *client_addr.lock().unwrap() else {
                    continue;
                };
                let _ = front.send_to(&buf[..len], to);
                let is_data = len >= HEADER_BYTES && buf[5] == 4;
                data += usize::from(is_data);
                if is_data && data == INJECT_AFTER {
                    let conn = u32::from_be_bytes(buf[6..10].try_into().unwrap());
                    let stray = espread_net::try_encode(
                        conn.wrapping_add(1),
                        &espread_net::Msg::Bye(ByeReason::Complete),
                    )
                    .unwrap();
                    let _ = front.send_to(&stray, to);
                }
            }
        })
    };

    let config = NetClientConfig {
        retry: quick_retry(),
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(relay_addr, config).unwrap();
    let report = client.stream().unwrap();
    stop.store(true, AtomicOrdering::Relaxed);
    upstream.join().unwrap();
    downstream.join().unwrap();
    server.shutdown();
    assert_eq!(report.windows_completed, WINDOWS);
    assert!(report.saw_bye, "the session's own Bye still closes it");
    assert_eq!(
        report.foreign_conn, 1,
        "the stray Bye is dropped and counted"
    );
}

/// Regression (shard busy-poll): the shard used to keep cancelled retry
/// deadlines in a timer wheel and woke for them, and for a 5 ms poll,
/// long after their sessions were reaped. Twenty one-window sessions
/// (the shape of the benchmark's `udp_churn`) run through one shard;
/// once the table drains, an idle shard must stay parked.
#[test]
fn idle_shard_does_not_wake_after_its_sessions_end() {
    use espread_telemetry::{with_current, Registry};

    const SESSIONS: usize = 20;
    let registry = Registry::new();
    let wakeups = || {
        registry
            .snapshot()
            .counter("net.server.shard_wakeups")
            .unwrap_or(0)
    };
    with_current(&registry, || {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        let mut config = NetServerConfig::new(
            ProtocolConfig::paper(0.6, 1),
            paper_offer(1),
            StreamSource::mpeg(&trace, 1, 1, false),
        );
        config.workers = 1;
        config.pace = Duration::ZERO;
        let mut server = NetServer::bind("127.0.0.1:0", config).unwrap();
        for i in 0..SESSIONS {
            let client = NetClient::connect(server.local_addr(), NetClientConfig::default())
                .unwrap_or_else(|e| panic!("session {i}: {e}"));
            let report = client.stream().unwrap();
            assert_eq!(report.windows_completed, 1, "session {i}");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.live_sessions() != 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.live_sessions(), 0, "every session reaped");
        let idle_from = wakeups();
        assert!(idle_from > 0, "the shard counts its wake-ups");
        std::thread::sleep(Duration::from_millis(300));
        let idle_to = wakeups();
        assert_eq!(
            idle_to,
            idle_from,
            "an idle shard woke {} times in 300 ms",
            idle_to - idle_from
        );
        server.shutdown();
    });
}

/// A datagram that carries a live session's id but comes from another
/// address is dropped at the demux and counted: a third party can
/// neither steer the session's burst estimates with a forged
/// `WindowAck` nor keep it alive, and the real stream completes.
#[test]
fn a_live_conn_id_from_a_foreign_source_is_dropped_and_counted() {
    use espread_net::wire::WindowAckMsg;
    use espread_telemetry::{with_current, Registry};

    const WINDOWS: usize = 3;
    let registry = Registry::new();
    let snapshot = with_current(&registry, || {
        let mut server = NetServer::bind("127.0.0.1:0", server_config(WINDOWS, 2)).unwrap();
        let config = NetClientConfig {
            retry: quick_retry(),
            ..NetClientConfig::default()
        };
        let client = NetClient::connect(server.local_addr(), config).unwrap();
        // A fresh server's first session gets conn id 1.
        let forged = espread_net::try_encode(
            1,
            &espread_net::Msg::WindowAck(WindowAckMsg {
                ack_seq: u64::MAX,
                window: 0,
                echo_us: 1,
                per_layer_burst: vec![9; client.session().layer_sizes.len()],
            }),
        )
        .unwrap();
        let spoofer = UdpSocket::bind("127.0.0.1:0").unwrap();
        spoofer.send_to(&forged, server.local_addr()).unwrap();
        let report = client.stream().unwrap();
        server.shutdown();
        assert_eq!(report.windows_completed, WINDOWS);
        assert!(report.saw_bye);
        registry.snapshot()
    });
    assert_eq!(snapshot.counter("net.server.sessions"), Some(1));
    assert_eq!(snapshot.counter("net.server.foreign_source"), Some(1));
}
