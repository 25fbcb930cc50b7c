//! Property-based tests of the wire codec: every well-formed message
//! round-trips exactly, and no byte sequence — random, truncated, or
//! mutated — can make `decode` panic.

use espread_net::wire::{
    self, Accept, ByeReason, CriticalNackMsg, DataMsg, Hello, Msg, ParityMember, ParityMsg, Reject,
    WindowAckMsg, WindowEnd, HEADER_BYTES,
};
use espread_protocol::{Fragment, Ldu, Ordering};
use proptest::prelude::*;

fn ordering_from(code: u8) -> Ordering {
    match code % 4 {
        0 => Ordering::InOrder,
        1 => Ordering::Spread { adaptive: true },
        2 => Ordering::Spread { adaptive: false },
        _ => Ordering::Ibo,
    }
}

/// A deterministic exemplar of each message type, varied by the seeds.
fn exemplars(a: u64, b: u16, text: String, list: Vec<u16>) -> Vec<Msg> {
    let frags_total = (b % 7) + 1;
    vec![
        Msg::Hello(Hello {
            nonce: a,
            buffer_bytes: a ^ 0xABCD,
            max_startup_delay_ms: u64::from(b),
            ordering: ordering_from(a as u8),
        }),
        Msg::Accept(Accept {
            nonce: a,
            frames_per_window: b,
            windows_total: a as u32,
            packet_bytes: u32::from(b) + 1,
            fps: 24,
            layer_sizes: list.clone(),
            critical_frames: list.clone(),
        }),
        Msg::Reject(Reject {
            nonce: a,
            reason: text,
        }),
        Msg::Begin,
        Msg::Data(DataMsg {
            fragment: Fragment {
                window: a,
                frame: usize::from(b),
                frag: b % frags_total,
                frags_total,
                layer: a as u8,
                layer_slot: b,
                retransmit: a.is_multiple_of(2),
            },
            ldu: Ldu::new((a as u32).max(1)),
            payload_len: b % 2048,
        }),
        Msg::WindowEnd(WindowEnd {
            window: a,
            sent_at_us: a.wrapping_mul(3),
            last: b.is_multiple_of(2),
        }),
        Msg::WindowAck(WindowAckMsg {
            ack_seq: a,
            window: a ^ 1,
            echo_us: u64::from(b),
            per_layer_burst: list.clone(),
        }),
        Msg::CriticalNack(CriticalNackMsg {
            window: a,
            missing: list,
        }),
        Msg::Bye(if a.is_multiple_of(2) {
            ByeReason::Complete
        } else {
            ByeReason::Aborted
        }),
        Msg::ByeAck,
        Msg::Parity(ParityMsg {
            window: a,
            group: a as u32 ^ 5,
            m: (a as u8 % 4) + 1,
            parity_index: a as u8 % ((a as u8 % 4) + 1),
            shard_bytes: b % 2048,
            members: (0..(b % 6) + 1)
                .map(|i| ParityMember {
                    frame: b.wrapping_add(i),
                    frag: i % frags_total,
                    frags_total,
                })
                .collect(),
        }),
    ]
}

proptest! {
    /// encode → decode is the identity on every message type, for
    /// arbitrary field values.
    #[test]
    fn roundtrip(
        conn in any::<u32>(),
        a in any::<u64>(),
        b in any::<u16>(),
        text in prop::collection::vec(0u8..128, 0..40),
        list in prop::collection::vec(any::<u16>(), 0..24),
    ) {
        let text = String::from_utf8(text).expect("ascii");
        for msg in exemplars(a, b, text, list) {
            let bytes = wire::try_encode(conn, &msg).unwrap();
            let (got_conn, got) = wire::decode(&bytes).expect("well-formed must decode");
            prop_assert_eq!(got_conn, conn);
            prop_assert_eq!(got, msg);
        }
    }

    /// Arbitrary byte soup never panics the decoder — it errors (or, for
    /// the vanishingly rare valid datagram, decodes).
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = wire::decode(&bytes);
    }

    /// Every truncation of a valid datagram is rejected with an error,
    /// not a panic.
    #[test]
    fn truncations_error_cleanly(
        a in any::<u64>(),
        b in any::<u16>(),
        list in prop::collection::vec(any::<u16>(), 0..16),
        cut_seed in any::<usize>(),
    ) {
        for msg in exemplars(a, b, "truncate me".into(), list) {
            let bytes = wire::try_encode(9, &msg).unwrap();
            let cut = cut_seed % bytes.len();
            let result = wire::decode(&bytes[..cut]);
            prop_assert!(result.is_err(), "cut at {cut} of {} decoded", bytes.len());
        }
    }

    /// Flipping any single byte of a valid datagram never panics; the
    /// decoder either rejects it or yields some other valid message.
    #[test]
    fn single_byte_mutations_never_panic(
        a in any::<u64>(),
        b in any::<u16>(),
        list in prop::collection::vec(any::<u16>(), 0..16),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        for msg in exemplars(a, b, "mutate me".into(), list) {
            let mut bytes = wire::try_encode(9, &msg).unwrap();
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= xor;
            let _ = wire::decode(&bytes);
        }
    }

    /// Inflating a length/count field beyond the datagram is an error
    /// (`Truncated`/`Overlength`), never an allocation blow-up or panic.
    #[test]
    fn hostile_length_fields_rejected(count in any::<u16>()) {
        // Hand-build a WindowAck header claiming `count`-many burst
        // entries with no body behind them.
        let mut bytes = wire::try_encode(
            1,
            &Msg::WindowAck(WindowAckMsg {
                ack_seq: 1,
                window: 0,
                echo_us: 0,
                per_layer_burst: vec![],
            }),
        ).unwrap();
        let len = bytes.len();
        bytes[len - 1] = count.min(255) as u8; // the u8 layer count
        if count.min(255) > 0 {
            prop_assert!(wire::decode(&bytes).is_err());
        }
        // And a CriticalNack with a u16 count field.
        let mut bytes = wire::try_encode(
            1,
            &Msg::CriticalNack(CriticalNackMsg { window: 0, missing: vec![] }),
        ).unwrap();
        let len = bytes.len();
        bytes[len - 2] = (count >> 8) as u8;
        bytes[len - 1] = count as u8;
        if count > 0 {
            prop_assert!(wire::decode(&bytes).is_err());
        }
    }

    /// The frame index either round-trips exactly or is refused with a
    /// typed `Oversize` — there is no input for which the decoded frame
    /// differs from the encoded one (the silent-truncation bug class).
    #[test]
    fn frame_index_roundtrips_or_refuses(frame in 0usize..140_000) {
        let msg = Msg::Data(DataMsg {
            fragment: Fragment {
                window: 1,
                frame,
                frag: 0,
                frags_total: 1,
                layer: 0,
                layer_slot: 0,
                retransmit: false,
            },
            ldu: Ldu::new(1),
            payload_len: 0,
        });
        match wire::try_encode(7, &msg) {
            Ok(bytes) => {
                prop_assert!(frame <= wire::MAX_FRAME_INDEX);
                let (_, decoded) = wire::decode(&bytes).expect("well-formed");
                prop_assert_eq!(decoded, msg);
            }
            Err(wire::WireError::Oversize { .. }) => {
                prop_assert!(frame > wire::MAX_FRAME_INDEX);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// u8-counted lists (Accept layers, WindowAck bursts) either carry
    /// every entry to the decoder or refuse to encode — never a shorter
    /// list on the wire.
    #[test]
    fn u8_counted_lists_roundtrip_or_refuse(layers in 0usize..300, bursts in 0usize..300) {
        let accept = Msg::Accept(Accept {
            nonce: 1,
            frames_per_window: 8,
            windows_total: 1,
            packet_bytes: 1024,
            fps: 24,
            layer_sizes: vec![3; layers],
            critical_frames: vec![0],
        });
        match wire::try_encode(7, &accept) {
            Ok(bytes) => {
                prop_assert!(layers <= wire::MAX_LAYERS);
                prop_assert_eq!(wire::decode(&bytes).expect("well-formed").1, accept);
            }
            Err(wire::WireError::Oversize { field, .. }) => {
                prop_assert!(layers > wire::MAX_LAYERS, "refused {layers} layers");
                prop_assert_eq!(field, "accept.layer_sizes");
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
        let ack = Msg::WindowAck(WindowAckMsg {
            ack_seq: 1,
            window: 0,
            echo_us: 0,
            per_layer_burst: vec![2; bursts],
        });
        match wire::try_encode(7, &ack) {
            Ok(bytes) => {
                prop_assert!(bursts <= wire::MAX_BURST_ENTRIES);
                prop_assert_eq!(wire::decode(&bytes).expect("well-formed").1, ack);
            }
            Err(wire::WireError::Oversize { field, .. }) => {
                prop_assert!(bursts > wire::MAX_BURST_ENTRIES, "refused {bursts} bursts");
                prop_assert_eq!(field, "window_ack.per_layer_burst");
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// u16-counted lists near the 65 535 ceiling: identity below, typed
    /// refusal above.
    #[test]
    fn u16_counted_lists_roundtrip_or_refuse(extra in 0usize..4) {
        let len = wire::MAX_NACK_ENTRIES - 1 + extra; // straddles the limit
        let nack = Msg::CriticalNack(CriticalNackMsg {
            window: 0,
            missing: vec![1; len],
        });
        match wire::try_encode(7, &nack) {
            Ok(bytes) => {
                prop_assert!(len <= wire::MAX_NACK_ENTRIES);
                prop_assert_eq!(wire::decode(&bytes).expect("well-formed").1, nack);
            }
            Err(wire::WireError::Oversize { .. }) => {
                prop_assert!(len > wire::MAX_NACK_ENTRIES);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// The header prefix invariants hold for every message: magic,
    /// version, and a type byte `peek_type` agrees with.
    #[test]
    fn header_layout_stable(a in any::<u64>(), b in any::<u16>()) {
        for msg in exemplars(a, b, String::new(), vec![]) {
            let bytes = wire::try_encode(3, &msg).unwrap();
            prop_assert!(bytes.len() >= HEADER_BYTES);
            prop_assert_eq!(&bytes[..4], &wire::MAGIC.to_be_bytes());
            prop_assert_eq!(bytes[4], wire::VERSION);
            prop_assert_eq!(wire::peek_type(&bytes), Some(msg.type_byte()));
        }
    }
}
