//! Per-seed codec, window, estimator, and negotiation guards.
//!
//! These checks run inside every chaos cell, before any socket is
//! opened. They enforce the **counterfactual encode rule**:
//!
//! > if `try_encode` accepts a message, decoding the bytes must yield
//! > *exactly* that message; if the message is genuinely oversize, the
//! > only acceptable outcome is a typed [`WireError::Oversize`].
//!
//! An encoder that silently truncates a list or narrows an index (the
//! bug class this subsystem exists to pin down) cannot satisfy both arms:
//! either the decoded message differs from the original, or an oversize
//! message encodes "successfully". Both register as violations on *every*
//! seed — reverting a wire-limit fix fails the whole soak, not one lucky
//! cell.

use espread_core::BurstEstimator;
use espread_net::wire::{
    Accept, ByeReason, CriticalNackMsg, DataMsg, Hello, ParityMember, ParityMsg, Reject,
    WindowAckMsg, WindowEnd, MAX_BURST_ENTRIES, MAX_CRITICAL_FRAMES, MAX_FRAME_INDEX, MAX_LAYERS,
    MAX_NACK_ENTRIES, MAX_PARITY_MEMBERS, MAX_REASON_BYTES,
};
use espread_net::{decode, try_encode, Msg, NetWindow, WireError};
use espread_netsim::rng::DetRng;
use espread_protocol::{
    negotiate, ClientCapabilities, FecPolicy, Fragment, Ldu, NegotiationError, Ordering,
    ProtocolConfig, Server, SessionOffer, WindowFeedback,
};
use espread_trace::GopPattern;

/// Stream separator so the codec guards never share deviates with the
/// e2e stage derived from the same seed.
const CODEC_SALT: u64 = 0x436F_6465_6347_6421;

/// Runs every codec-level guard for one seed; returns the violations
/// found (empty = all invariants held). Deterministic per seed.
pub fn check(seed: u64) -> Vec<String> {
    let mut rng = DetRng::seed_from(seed ^ CODEC_SALT);
    let mut v = Vec::new();
    boundary_guard(&mut v);
    random_roundtrip_guard(&mut rng, &mut v);
    random_oversize_guard(&mut rng, &mut v);
    mutation_guard(&mut rng, &mut v);
    hostile_window_guard(&mut rng, &mut v);
    estimator_guard(&mut rng, &mut v);
    negotiation_guard(&mut rng, &mut v);
    v
}

/// In-limit messages must round-trip bit-exactly.
fn expect_roundtrip(v: &mut Vec<String>, what: &str, msg: &Msg) {
    match try_encode(7, msg) {
        Ok(bytes) => match decode(&bytes) {
            Ok((conn, decoded)) => {
                if conn != 7 || &decoded != msg {
                    v.push(format!(
                        "{what}: decode disagrees with what was encoded (silent truncation?)"
                    ));
                }
            }
            Err(e) => v.push(format!("{what}: encoded bytes failed to decode: {e}")),
        },
        Err(e) => v.push(format!("{what}: in-limit message refused: {e}")),
    }
}

/// Oversize messages must be refused with a typed error naming the field.
fn expect_oversize(v: &mut Vec<String>, what: &str, msg: &Msg, field: &str) {
    match try_encode(7, msg) {
        Err(WireError::Oversize { field: f, .. }) if f == field => {}
        Err(e) => v.push(format!("{what}: wrong refusal class: {e}")),
        Ok(bytes) => v.push(format!(
            "{what}: oversize message encoded to {} bytes instead of a typed refusal",
            bytes.len()
        )),
    }
}

fn data_with_frame(frame: usize) -> Msg {
    Msg::Data(DataMsg {
        fragment: Fragment {
            window: 1,
            frame,
            frag: 0,
            frags_total: 1,
            layer: 0,
            layer_slot: 0,
            retransmit: false,
        },
        ldu: Ldu::new(64),
        payload_len: 0,
    })
}

fn parity_with(members: usize) -> Msg {
    Msg::Parity(ParityMsg {
        window: 1,
        group: 2,
        m: 2,
        parity_index: 0,
        shard_bytes: 64,
        members: (0..members)
            .map(|i| ParityMember {
                frame: i as u16,
                frag: 0,
                frags_total: 1,
            })
            .collect(),
    })
}

fn accept_with(layers: usize, critical: usize) -> Msg {
    Msg::Accept(Accept {
        nonce: 9,
        frames_per_window: u16::MAX,
        windows_total: 1,
        packet_bytes: 2048,
        fps: 24,
        layer_sizes: vec![1; layers],
        critical_frames: (0..critical).map(|i| i as u16).collect(),
    })
}

/// Every wire limit, checked on both sides of the boundary, every seed.
fn boundary_guard(v: &mut Vec<String>) {
    expect_roundtrip(v, "data.frame at limit", &data_with_frame(MAX_FRAME_INDEX));
    expect_oversize(
        v,
        "data.frame past limit",
        &data_with_frame(MAX_FRAME_INDEX + 1),
        "data.frame",
    );

    expect_roundtrip(v, "accept at 255 layers", &accept_with(MAX_LAYERS, 1));
    expect_oversize(
        v,
        "accept at 256 layers",
        &accept_with(MAX_LAYERS + 1, 1),
        "accept.layer_sizes",
    );

    expect_roundtrip(
        v,
        "accept with maximal critical list",
        &accept_with(1, MAX_CRITICAL_FRAMES),
    );
    expect_oversize(
        v,
        "accept critical list past limit",
        &accept_with(1, MAX_CRITICAL_FRAMES + 1),
        "accept.critical_frames",
    );

    let ack = |n: usize| {
        Msg::WindowAck(WindowAckMsg {
            ack_seq: 1,
            window: 0,
            echo_us: 7,
            per_layer_burst: vec![3; n],
        })
    };
    expect_roundtrip(v, "window_ack at 255 bursts", &ack(MAX_BURST_ENTRIES));
    expect_oversize(
        v,
        "window_ack at 256 bursts",
        &ack(MAX_BURST_ENTRIES + 1),
        "window_ack.per_layer_burst",
    );

    let nack = |n: usize| {
        Msg::CriticalNack(CriticalNackMsg {
            window: 2,
            missing: (0..n).map(|i| i as u16).collect(),
        })
    };
    expect_roundtrip(
        v,
        "critical_nack with maximal list",
        &nack(MAX_NACK_ENTRIES),
    );
    expect_oversize(
        v,
        "critical_nack past limit",
        &nack(MAX_NACK_ENTRIES + 1),
        "critical_nack.missing",
    );

    expect_roundtrip(v, "parity at 255 members", &parity_with(MAX_PARITY_MEMBERS));
    expect_oversize(
        v,
        "parity at 256 members",
        &parity_with(MAX_PARITY_MEMBERS + 1),
        "parity.members",
    );

    let reject = |n: usize| {
        Msg::Reject(Reject {
            nonce: 3,
            reason: "x".repeat(n),
        })
    };
    expect_roundtrip(v, "reject reason at limit", &reject(MAX_REASON_BYTES));
    expect_oversize(
        v,
        "reject reason past limit",
        &reject(MAX_REASON_BYTES + 1),
        "reject.reason",
    );
}

fn random_ordering(rng: &mut DetRng) -> Ordering {
    match rng.below(4) {
        0 => Ordering::InOrder,
        1 => Ordering::Spread { adaptive: true },
        2 => Ordering::Spread { adaptive: false },
        _ => Ordering::Ibo,
    }
}

/// A random message with every field inside its wire limit.
fn random_msg(rng: &mut DetRng) -> Msg {
    match rng.below(12) {
        0 => Msg::Hello(Hello {
            nonce: rng.next_u64(),
            buffer_bytes: rng.next_u64(),
            max_startup_delay_ms: rng.below(1 << 32),
            ordering: random_ordering(rng),
        }),
        1 => Msg::Accept(Accept {
            nonce: rng.next_u64(),
            frames_per_window: rng.next_u64() as u16,
            windows_total: rng.next_u64() as u32,
            packet_bytes: rng.next_u64() as u32,
            fps: rng.next_u64() as u32,
            layer_sizes: (0..rng.below(8)).map(|_| rng.next_u64() as u16).collect(),
            critical_frames: (0..rng.below(12)).map(|_| rng.next_u64() as u16).collect(),
        }),
        2 => Msg::Reject(Reject {
            nonce: rng.next_u64(),
            reason: "n".repeat(rng.below(80) as usize),
        }),
        3 => Msg::Begin,
        4 => {
            let frags_total = 1 + rng.below(5) as u16;
            Msg::Data(DataMsg {
                fragment: Fragment {
                    window: rng.next_u64(),
                    frame: rng.below(MAX_FRAME_INDEX as u64 + 1) as usize,
                    frag: rng.below(u64::from(frags_total)) as u16,
                    frags_total,
                    layer: rng.next_u64() as u8,
                    layer_slot: rng.next_u64() as u16,
                    retransmit: rng.chance(0.5),
                },
                ldu: Ldu::new(1 + rng.next_u64() as u32 % 10_000),
                payload_len: rng.below(256) as u16,
            })
        }
        5 => Msg::WindowEnd(WindowEnd {
            window: rng.next_u64(),
            sent_at_us: rng.next_u64(),
            last: rng.chance(0.5),
        }),
        6 => Msg::WindowAck(WindowAckMsg {
            ack_seq: rng.next_u64(),
            window: rng.next_u64(),
            echo_us: rng.next_u64(),
            per_layer_burst: (0..rng.below(8)).map(|_| rng.next_u64() as u16).collect(),
        }),
        7 => Msg::CriticalNack(CriticalNackMsg {
            window: rng.next_u64(),
            missing: (0..rng.below(20)).map(|_| rng.next_u64() as u16).collect(),
        }),
        8 => Msg::Bye(if rng.chance(0.5) {
            ByeReason::Complete
        } else {
            ByeReason::Aborted
        }),
        9 => {
            let m = 1 + rng.below(4) as u8;
            Msg::Parity(ParityMsg {
                window: rng.next_u64(),
                group: rng.next_u64() as u32,
                m,
                parity_index: rng.below(u64::from(m)) as u8,
                shard_bytes: rng.below(2048) as u16,
                members: (0..1 + rng.below(8))
                    .map(|_| {
                        let frags_total = 1 + rng.below(4) as u16;
                        ParityMember {
                            frame: rng.next_u64() as u16,
                            frag: rng.below(u64::from(frags_total)) as u16,
                            frags_total,
                        }
                    })
                    .collect(),
            })
        }
        10 => Msg::Busy {
            retry_after_ms: rng.next_u64() as u32,
        },
        _ => Msg::ByeAck,
    }
}

fn random_roundtrip_guard(rng: &mut DetRng, v: &mut Vec<String>) {
    for i in 0..24 {
        let msg = random_msg(rng);
        expect_roundtrip(
            v,
            &format!("random message {i} (type {})", msg.type_byte()),
            &msg,
        );
    }
}

/// A random message with exactly one field pushed past its limit.
fn random_oversize_guard(rng: &mut DetRng, v: &mut Vec<String>) {
    for _ in 0..4 {
        let over = 1 + rng.below(64) as usize;
        let (msg, field) = match rng.below(7) {
            0 => (data_with_frame(MAX_FRAME_INDEX + over), "data.frame"),
            1 => (accept_with(MAX_LAYERS + over, 1), "accept.layer_sizes"),
            2 => (
                accept_with(1, MAX_CRITICAL_FRAMES + over),
                "accept.critical_frames",
            ),
            3 => (
                Msg::WindowAck(WindowAckMsg {
                    ack_seq: 1,
                    window: 0,
                    echo_us: 0,
                    per_layer_burst: vec![1; MAX_BURST_ENTRIES + over],
                }),
                "window_ack.per_layer_burst",
            ),
            4 => (
                Msg::CriticalNack(CriticalNackMsg {
                    window: 0,
                    missing: vec![0; MAX_NACK_ENTRIES + over],
                }),
                "critical_nack.missing",
            ),
            5 => (parity_with(MAX_PARITY_MEMBERS + over), "parity.members"),
            _ => (
                Msg::Reject(Reject {
                    nonce: 0,
                    reason: "r".repeat(MAX_REASON_BYTES + over),
                }),
                "reject.reason",
            ),
        };
        expect_oversize(v, &format!("random oversize {field}+{over}"), &msg, field);
    }
}

/// Mangled datagrams must decode to a typed error (or, for don't-care
/// mutations such as payload bytes, any `Result`) — never panic. A panic
/// here surfaces as a cell failure through the soak's watchdog.
fn mutation_guard(rng: &mut DetRng, v: &mut Vec<String>) {
    for _ in 0..16 {
        let msg = random_msg(rng);
        let bytes = match try_encode(1, &msg) {
            Ok(b) => b,
            Err(e) => {
                v.push(format!("mutation source refused: {e}"));
                continue;
            }
        };
        // Every proper prefix of a well-formed datagram must be refused:
        // all fields are mandatory and counted.
        let cut = rng.below(bytes.len() as u64) as usize;
        if decode(&bytes[..cut]).is_ok() {
            v.push(format!(
                "type {} truncated to {cut}/{} bytes decoded successfully",
                msg.type_byte(),
                bytes.len()
            ));
        }
        // Bit flips and alien junk: any typed Result is fine, panics are
        // not (they would escape to the watchdog).
        let mut flipped = bytes.clone();
        let at = rng.below(flipped.len() as u64) as usize;
        flipped[at] ^= 1 << rng.below(8);
        let _ = decode(&flipped);
        let junk: Vec<u8> = (0..rng.below(128)).map(|_| rng.next_u64() as u8).collect();
        let _ = decode(&junk);
    }
}

/// A hostile `Accept` can name critical frames far outside the window
/// and label data with arbitrary indices: reassembly must shrug, never
/// index out of bounds.
fn hostile_window_guard(rng: &mut DetRng, v: &mut Vec<String>) {
    let frames = 1 + rng.below(40) as usize;
    let layer_sizes: Vec<u16> = (0..1 + rng.below(4))
        .map(|_| rng.below(20) as u16)
        .collect();
    let critical: Vec<u16> = (0..rng.below(6)).map(|_| rng.next_u64() as u16).collect();
    let mut w = NetWindow::new(0, frames, &layer_sizes, &critical);
    for _ in 0..64 {
        let frags_total = rng.next_u64() as u16;
        let hostile = DataMsg {
            fragment: Fragment {
                window: rng.below(3),
                frame: rng.below(100_000) as usize,
                frag: rng.next_u64() as u16,
                frags_total,
                layer: rng.next_u64() as u8,
                layer_slot: rng.next_u64() as u16,
                retransmit: rng.chance(0.5),
            },
            ldu: Ldu::new(1 + rng.next_u64() as u32 % 1000),
            payload_len: rng.next_u64() as u16,
        };
        let _ = w.accept(&hostile);
    }
    let missing = w.missing_critical();
    for &c in &critical {
        if usize::from(c) >= frames && !missing.contains(&c) {
            v.push(format!(
                "critical frame {c} outside the {frames}-frame window not reported missing"
            ));
        }
    }
    let _ = w.close();
}

/// Burst observations derived from the network must never panic the
/// estimator, and hostile feedback through the planner must clamp.
fn estimator_guard(rng: &mut DetRng, v: &mut Vec<String>) {
    let mut est = BurstEstimator::paper_default(8.0);
    let before = est.value();
    for bad in [
        -1.0 - rng.next_f64() * 1e12,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        if est.try_observe(bad).is_ok() {
            v.push(format!("estimator accepted invalid observation {bad}"));
        }
    }
    if est.value() != before {
        v.push("rejected observations moved the estimate".into());
    }
    for _ in 0..8 {
        let x = rng.next_f64() * 100.0;
        if est.try_observe(x).is_err() {
            v.push(format!("estimator refused valid observation {x}"));
        }
    }

    // Hostile-but-decodable ACK through the real planner: wire-maximal
    // burst values must fold in (clamped), never panic.
    let config = ProtocolConfig::paper(0.6, 1);
    let poset = GopPattern::gop12().dependency_poset(2, false);
    let mut server = Server::new(&config, &poset);
    server.offer_ack(
        1,
        WindowFeedback {
            window: 0,
            per_layer_burst: vec![usize::from(u16::MAX); 5],
        },
    );
    let _ = server.plan_window(&poset);
    let layer_sizes = [2usize, 2, 2, 2, 16];
    for (i, (est, len)) in server.estimates().iter().zip(layer_sizes).enumerate() {
        if *est > len {
            v.push(format!(
                "layer {i} estimate {est} exceeds layer length {len} after hostile feedback"
            ));
        }
    }
}

/// Session-config fuzzing at boundary sizes: malformed and resource-
/// exceeding offers must come back as typed negotiation errors.
fn negotiation_guard(rng: &mut DetRng, v: &mut Vec<String>) {
    let valid = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: 1 + rng.below(2) as usize,
        open_gop: false,
        fps: 24,
        packet_bytes: 2048,
        max_frame_bytes: 62_776 / 8,
        fec: FecPolicy::off(),
    };
    match negotiate(valid.clone(), ClientCapabilities::desktop()) {
        Ok(agreed) => {
            let total: usize = agreed.layer_sizes.iter().sum();
            if total != valid.frames_per_window() {
                v.push(format!(
                    "agreed layers cover {total} frames, offer has {}",
                    valid.frames_per_window()
                ));
            }
        }
        Err(e) => v.push(format!("valid offer rejected: {e}")),
    }

    let zeroed = [
        SessionOffer {
            gops_per_window: 0,
            ..valid.clone()
        },
        SessionOffer {
            fps: 0,
            ..valid.clone()
        },
        SessionOffer {
            packet_bytes: 0,
            ..valid.clone()
        },
        SessionOffer {
            max_frame_bytes: 0,
            ..valid.clone()
        },
    ];
    for offer in zeroed {
        if !matches!(
            negotiate(offer, ClientCapabilities::desktop()),
            Err(NegotiationError::Invalid(_))
        ) {
            v.push("zeroed offer field not refused as invalid".into());
        }
    }

    // Resource ceilings: a buffer-busting frame bound and an enormous
    // window must fail typed, before any per-frame state is allocated.
    let huge_frames = SessionOffer {
        max_frame_bytes: u32::MAX,
        ..valid.clone()
    };
    if !matches!(
        negotiate(huge_frames, ClientCapabilities::desktop()),
        Err(NegotiationError::BufferTooSmall { .. })
    ) {
        v.push("u32::MAX frame bound not refused for buffer".into());
    }
    let huge_window = SessionOffer {
        gops_per_window: 1_000_000 + rng.below(1_000_000) as usize,
        ..valid
    };
    if negotiate(huge_window, ClientCapabilities::desktop()).is_ok() {
        v.push("million-GOP window accepted".into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_are_clean_on_the_current_codec() {
        for seed in 0..8 {
            let violations = check(seed);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn checks_are_deterministic_per_seed() {
        assert_eq!(check(42), check(42));
    }

    #[test]
    fn a_truncating_encoder_would_be_caught() {
        // Simulate the pre-fix bug: encode an Accept whose critical list
        // was silently capped, then decode — the counterfactual rule's
        // first arm (decode == original) must flag the mismatch.
        let mut v = Vec::new();
        let original = accept_with(1, 300);
        let Msg::Accept(a) = &original else {
            unreachable!()
        };
        let capped = Msg::Accept(Accept {
            critical_frames: a.critical_frames.iter().copied().take(255).collect(),
            ..a.clone()
        });
        let bytes = try_encode(7, &capped).unwrap();
        let (_, decoded) = decode(&bytes).unwrap();
        if decoded != original {
            v.push("decode disagrees".to_string());
        }
        assert_eq!(v.len(), 1, "truncation must be observable");
    }
}
