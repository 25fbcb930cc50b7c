//! Overload protection end to end: a wave above the admission cap gets
//! typed `Busy` refusals while live sessions never exceed the cap, the
//! watchdog reclaims wedged slots, and an unsustainable pace sheds
//! enhancement frames without ever touching a critical one.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use espread_net::wire::{self, Hello};
use espread_net::{
    decode, try_encode, Msg, NetClient, NetClientConfig, NetError, NetServer, RetryPolicy,
};
use espread_protocol::{ClientCapabilities, Ordering};

mod common;
use common::server_config;

/// Occupies one admission slot and then wedges: completes the handshake,
/// sends `Begin`, and holds the socket open without ever reading, so
/// only the watchdog can reclaim the slot.
fn wedge_slot(addr: SocketAddr, nonce: u64, hold: Duration) {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind wedge");
    sock.connect(addr).expect("connect wedge");
    sock.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let caps = ClientCapabilities::desktop();
    let hello = try_encode(
        wire::CONN_NONE,
        &Msg::Hello(Hello {
            nonce,
            buffer_bytes: caps.buffer_bytes,
            max_startup_delay_ms: caps.max_startup_delay_ms,
            ordering: Ordering::spread(),
        }),
    )
    .unwrap();
    sock.send(&hello).expect("send hello");
    let mut buf = [0u8; 2048];
    let len = sock.recv(&mut buf).expect("accept reply");
    let (conn, msg) = decode(&buf[..len]).expect("decode accept");
    assert!(matches!(msg, Msg::Accept(_)), "wedge must be admitted");
    sock.send(&try_encode(conn, &Msg::Begin).unwrap())
        .expect("send begin");
    std::thread::sleep(hold);
}

fn wait_for_live(server: &NetServer, want: usize, deadline: Duration) {
    let until = Instant::now() + deadline;
    while server.live_sessions() != want && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.live_sessions(), want, "live-session target not hit");
}

/// The admission-control acceptance path: wedge every slot, then throw a
/// 2x-cap wave of real clients with a too-small retry budget at the
/// server. Every one must surface a *typed* `ServerBusy` carrying the
/// configured retry-after, live sessions must never exceed the cap, the
/// watchdog must reclaim the wedged slots, and a patient client must
/// then stream to completion — with the connection table drained to zero
/// at the end.
#[test]
fn overload_wave_gets_typed_busy_and_the_server_recovers() {
    const CAP: usize = 2;
    const WAVE: usize = 2 * CAP;
    const RETRY_AFTER: Duration = Duration::from_millis(40);
    const WINDOWS: usize = 2;

    let mut config = server_config(WINDOWS, 2);
    config.max_sessions = CAP;
    config.busy_retry_after = RETRY_AFTER;
    config.watchdog = Duration::from_millis(400);
    // The wedges are reclaimed when the server's WindowEnd retries
    // exhaust (its own sends count as watchdog progress). This schedule
    // waits 30+60+120+240 = 450 ms: long enough that the whole Busy wave
    // runs against a full table, short enough that the patient client
    // below gets a slot within its budget.
    config.retry = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(30),
        max: Duration::from_millis(240),
    };
    let mut server = NetServer::bind("127.0.0.1:0", config).expect("bind server");
    let addr = server.local_addr();

    let peak_live = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..CAP {
            let nonce = 0x57ED_0000 + i as u64;
            scope.spawn(move || wedge_slot(addr, nonce, Duration::from_millis(700)));
        }
        wait_for_live(&server, CAP, Duration::from_secs(2));

        // The wave: a budget of two attempts never outlasts the wedges'
        // 400 ms watchdog, so every client must exit through the typed
        // Busy path rather than being admitted.
        let mut joins = Vec::with_capacity(WAVE);
        for _ in 0..WAVE {
            joins.push(scope.spawn(move || {
                let config = NetClientConfig {
                    retry: RetryPolicy {
                        max_attempts: 2,
                        base: Duration::from_millis(30),
                        max: Duration::from_millis(100),
                    },
                    ..NetClientConfig::default()
                };
                NetClient::connect(addr, config).map(|_| ())
            }));
        }
        while joins.iter().any(|j| !j.is_finished()) {
            let live = server.live_sessions();
            peak_live.fetch_max(live, AtomicOrdering::Relaxed);
            std::thread::sleep(Duration::from_millis(2));
        }
        for join in joins {
            let err = join
                .join()
                .expect("no client panics")
                .expect_err("the wave must be refused while the cap is full");
            assert!(
                matches!(err, NetError::ServerBusy { retry_after_ms: 40 }),
                "expected typed ServerBusy with the configured retry-after, got {err:?}"
            );
        }
    });
    assert!(
        peak_live.load(AtomicOrdering::Relaxed) <= CAP,
        "live sessions exceeded the admission cap"
    );

    // The wedges make no progress, so the watchdog reclaims their slots;
    // a patient client must then be admitted and stream to completion.
    let config = NetClientConfig {
        retry: RetryPolicy {
            max_attempts: 20,
            base: Duration::from_millis(50),
            max: Duration::from_millis(500),
        },
        ..NetClientConfig::default()
    };
    let client = NetClient::connect(addr, config).expect("admitted after the wedges are reaped");
    let report = client.stream().expect("stream to completion");
    assert_eq!(report.windows_completed, WINDOWS);
    assert!(report.saw_bye);

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_sessions() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_sessions(), 0, "all sessions must be reaped");
    server.shutdown();
}

/// Perception-ordered shedding end to end: a swarm of paced sessions on
/// a single shard creates genuine contention (aggregate demand at a
/// 2 us/datagram pace is far past what one send loop can push), the
/// shedder engages — and every client's own per-slot loss pattern proves
/// the sheds landed only on enhancement frames: with recovery disabled,
/// the critical set still arrives intact on every window of every
/// session.
#[test]
fn unsustainable_pace_sheds_enhancement_frames_but_never_critical() {
    use espread_telemetry::{with_current, Registry};

    const WINDOWS: usize = 3;
    const SWARM: usize = 24;
    let registry = Registry::new();
    let sessions = with_current(&registry, || {
        // Four GOPs per window makes each window span several 64-datagram
        // pump batches, so a session's pacing debt keeps growing across a
        // window instead of resetting before the lag is ever reached.
        let mut config = server_config(WINDOWS, 4);
        config.workers = 1;
        config.pace = Duration::from_micros(2);
        config.shed_lag = Duration::from_micros(500);
        let mut server = NetServer::bind("127.0.0.1:0", config).expect("bind server");
        let addr = server.local_addr();
        let sessions: Vec<_> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..SWARM)
                .map(|_| {
                    scope.spawn(move || {
                        let client_config = NetClientConfig {
                            retry: RetryPolicy {
                                max_attempts: 6,
                                base: Duration::from_millis(20),
                                max: Duration::from_millis(200),
                            },
                            ..NetClientConfig::default()
                        };
                        let client = NetClient::connect(addr, client_config).expect("connect");
                        let critical: Vec<usize> = client
                            .session()
                            .critical_frames
                            .iter()
                            .map(|&f| usize::from(f))
                            .collect();
                        (client.stream().expect("stream"), critical)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("no client panics"))
                .collect()
        });
        server.shutdown();
        sessions
    });

    let snapshot = registry.snapshot();
    let shed = snapshot.counter("net.server.shed_enhancement").unwrap_or(0);
    assert!(
        shed > 0,
        "an unsustainable pace must shed enhancement frames"
    );
    // The channel is clean loopback, so the only server-side losses are
    // sheds — and none of them may land on a critical frame.
    for (i, (report, critical)) in sessions.iter().enumerate() {
        assert_eq!(report.windows_completed, WINDOWS, "session {i}");
        for (w, pattern) in report.patterns.iter().enumerate() {
            for &frame in critical {
                assert!(
                    pattern.is_received(frame),
                    "session {i} window {w}: critical frame {frame} missing — \
                     a critical frame was shed"
                );
            }
        }
    }
}
