//! Property tests of the handshake: negotiation totality (arbitrary
//! client capabilities against arbitrary offer shapes either agree or
//! fail typed, never panic) and admission-refusal idempotency (a
//! duplicated Hello at capacity always gets back the identical cached
//! `Busy` datagram).

use std::net::UdpSocket;
use std::time::Duration;

use espread_net::wire::{self, Hello};
use espread_net::{
    try_encode, Msg, NetClient, NetClientConfig, NetServer, NetServerConfig, RetryPolicy,
};
use espread_protocol::{
    negotiate, ClientCapabilities, FecPolicy, FecScope, Ordering, ProtocolConfig, SessionOffer,
    StreamSource,
};
use espread_trace::{GopPattern, Movie, MpegTrace};
use proptest::prelude::*;

fn pattern_from(code: u8) -> GopPattern {
    match code % 3 {
        0 => GopPattern::gop12(),
        1 => GopPattern::gop15(),
        _ => GopPattern::h261(6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `negotiate` is total: any capability pair against any offer shape
    /// either produces an agreed session consistent with the offer or a
    /// typed [`espread_protocol::NegotiationError`] — never a panic, and
    /// never an agreement the client's stated resources cannot hold.
    #[test]
    fn negotiation_never_panics_and_agreements_are_consistent(
        buffer_bytes in any::<u64>(),
        max_startup_delay_ms in any::<u64>(),
        pattern_code in any::<u8>(),
        gops_per_window in 0usize..6,
        open_gop in any::<bool>(),
        fps in 0u32..121,
        packet_bytes in 0u32..100_000,
        max_frame_bytes in 0u32..1_000_000,
        fec_code in any::<u8>(),
        k in 0u8..12,
        m in 0u8..12,
    ) {
        let offer = SessionOffer {
            gop_pattern: pattern_from(pattern_code),
            gops_per_window,
            open_gop,
            fps,
            packet_bytes,
            max_frame_bytes,
            fec: match fec_code % 3 {
                0 => FecPolicy::off(),
                1 => FecPolicy::rs(FecScope::Critical, k, m),
                _ => FecPolicy::rs(FecScope::All, k, m),
            },
        };
        let caps = ClientCapabilities { buffer_bytes, max_startup_delay_ms };
        if let Ok(agreed) = negotiate(offer.clone(), caps) {
            let frames = offer.frames_per_window();
            prop_assert!(frames > 0, "an agreed window cannot be empty");
            prop_assert!(
                offer.buffer_bytes() <= caps.buffer_bytes,
                "agreement exceeds the client's stated buffer"
            );
            for &frame in &agreed.critical_frames {
                prop_assert!(
                    frame < frames,
                    "critical frame {} out of the {}-frame window",
                    frame,
                    frames
                );
            }
            prop_assert_eq!(
                agreed.layer_sizes.iter().sum::<usize>(),
                frames,
                "layer sizes must partition the window"
            );
        }
    }
}

proptest! {
    // Each case binds a real server, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Busy refusals are idempotent: with the one admission slot held,
    /// every duplicate of a Hello — any nonce, any duplication count —
    /// gets back the byte-identical cached `Busy` datagram, and none of
    /// the duplicates spawns a session.
    #[test]
    fn busy_replies_are_idempotent_under_duplicated_hellos(
        nonce_draws in proptest::collection::vec(1u64..u64::MAX, 1..5),
        dups in 2usize..5,
    ) {
        let nonces: std::collections::BTreeSet<u64> = nonce_draws.into_iter().collect();
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        let offer = SessionOffer {
            gop_pattern: GopPattern::gop12(),
            gops_per_window: 1,
            open_gop: false,
            fps: 24,
            packet_bytes: 2048,
            max_frame_bytes: 62_776 / 8,
            fec: FecPolicy::off(),
        };
        let mut config = NetServerConfig::new(
            ProtocolConfig::paper(0.6, 1),
            offer,
            StreamSource::mpeg(&trace, 1, 2, false),
        );
        config.max_sessions = 1;
        config.busy_retry_after = Duration::from_millis(77);
        let mut server = NetServer::bind("127.0.0.1:0", config).expect("bind server");
        let addr = server.local_addr();

        // Occupy the only slot with a real handshake; holding the client
        // (without streaming) keeps the session live.
        let occupant = NetClient::connect(
            addr,
            NetClientConfig {
                retry: RetryPolicy {
                    max_attempts: 4,
                    base: Duration::from_millis(25),
                    max: Duration::from_millis(200),
                },
                ..NetClientConfig::default()
            },
        )
        .expect("occupy the admission slot");

        let caps = ClientCapabilities::desktop();
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind prober");
        sock.connect(addr).expect("connect prober");
        sock.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let mut buf = [0u8; 2048];
        for &nonce in &nonces {
            let hello = try_encode(
                wire::CONN_NONE,
                &Msg::Hello(Hello {
                    nonce,
                    buffer_bytes: caps.buffer_bytes,
                    max_startup_delay_ms: caps.max_startup_delay_ms,
                    ordering: Ordering::spread(),
                }),
            ).unwrap();
            let mut first: Option<Vec<u8>> = None;
            for dup in 0..dups {
                sock.send(&hello).expect("send hello");
                let len = sock.recv(&mut buf).expect("busy reply");
                let reply = buf[..len].to_vec();
                let (_, msg) = espread_net::decode(&reply).expect("decodable reply");
                prop_assert!(
                    matches!(msg, Msg::Busy { retry_after_ms: 77 }),
                    "nonce {nonce} dup {dup}: expected the configured Busy, got {msg:?}"
                );
                match &first {
                    None => first = Some(reply),
                    Some(cached) => prop_assert_eq!(
                        cached,
                        &reply,
                        "nonce {} dup {}: cached Busy bytes changed",
                        nonce,
                        dup
                    ),
                }
            }
        }
        prop_assert_eq!(
            server.live_sessions(),
            1,
            "a refused Hello must never spawn a session"
        );
        drop(occupant);
        server.shutdown();
    }
}
