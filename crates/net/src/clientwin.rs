//! The client window's byte decoder on the UDP transport.
//!
//! The window itself is `espread-protocol`'s
//! [`ClientWindow`](espread_protocol::ClientWindow), the same tracker
//! the simulator drives. It decides which parity groups repair; on the
//! wire the byte work goes through [`RecoverScratch`], which runs
//! [`espread_fec::Codec::recover_into`] over the group's shards.

use espread_fec::{Codec, Scratch};
use espread_protocol::ShardDecoder;

/// The window under its old transport names. Nothing in this workspace
/// uses them; they stay only for `benchmark/src/replay.rs`, which moves
/// to the protocol names with the next benchmark change (ROADMAP item
/// 12), when these go too.
pub use espread_protocol::client::{ClientWindow as NetWindow, WindowOutcome as NetWindowOutcome};

/// Caller-owned staging buffers for
/// [`ClientWindow::recover_with`](espread_protocol::ClientWindow::recover_with)
/// — the codec scratch plus the zero-filled data/parity shard tables a
/// recovery pass stages into. One of these per stream keeps erasure
/// decoding allocation-free after the first pass. (It lives outside the
/// window because [`espread_fec::Scratch`] is not `Clone` while the
/// window is.)
#[derive(Debug, Default)]
pub struct RecoverScratch {
    scratch: Scratch,
    data: Vec<Vec<u8>>,
    parity: Vec<Vec<u8>>,
}

impl ShardDecoder for RecoverScratch {
    fn rebuild(&mut self, shard_bytes: usize, present: &[bool], parity_seen: &[bool]) -> bool {
        let (k, m) = (present.len(), parity_seen.len());
        let Ok(codec) = Codec::new(k, m) else {
            return false; // geometry the wire's limits let through
        };
        // The wire zero-fills payloads (traces carry sizes, not
        // content), so every received shard reads as zeros; the decode
        // must reproduce the erased members byte-identically.
        self.data.resize_with(k, Vec::new);
        for shard in self.data.iter_mut() {
            shard.clear();
            shard.resize(shard_bytes, 0);
        }
        self.parity.resize_with(m, Vec::new);
        for shard in self.parity.iter_mut() {
            shard.clear();
            shard.resize(shard_bytes, 0);
        }
        let decoded = codec.recover_into(
            shard_bytes,
            &mut self.data,
            present,
            &self.parity,
            parity_seen,
            &mut self.scratch,
        );
        debug_assert!(
            self.data.iter().all(|s| s.iter().all(|&b| b == 0)),
            "recovered shards must match the wire's zero fill"
        );
        decoded.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_protocol::client::{ClientWindow, DataMsg, ParityMember, ParityMsg};
    use espread_protocol::{Fragment, Ldu, VerdictOnly};

    fn data(frame: usize) -> DataMsg {
        DataMsg {
            fragment: Fragment {
                window: 0,
                frame,
                frag: 0,
                frags_total: 1,
                layer: u8::from(frame >= 2),
                layer_slot: (frame % 2) as u16,
                retransmit: false,
            },
            ldu: Ldu::new(100),
            payload_len: 100,
        }
    }

    fn parity(m: u8, idx: u8) -> ParityMsg {
        ParityMsg {
            window: 0,
            group: 0,
            m,
            parity_index: idx,
            shard_bytes: 64,
            members: (0..4)
                .map(|frame| ParityMember {
                    frame,
                    frag: 0,
                    frags_total: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn byte_decoder_and_verdict_agree() {
        // Every erasure pattern of a (4, 2) group against every subset of
        // surviving parities: the byte decode repairs exactly what the
        // window's rule admits (two erasures need the Cauchy pair).
        for lost in 0u8..16 {
            for seen in 1u8..4 {
                let run = |decoder: &mut dyn ShardDecoder| {
                    let mut w = ClientWindow::new(0, 4, &[2, 2], &[0, 1]);
                    for frame in (0..4).filter(|f| lost & (1 << f) == 0) {
                        w.accept(&data(frame));
                    }
                    for idx in (0..2).filter(|i| seen & (1 << i) != 0) {
                        assert!(w.accept_parity(&parity(2, idx)));
                    }
                    (w.recover_with(decoder), w.close())
                };
                let mut rs = RecoverScratch::default();
                assert_eq!(
                    run(&mut rs),
                    run(&mut VerdictOnly),
                    "lost {lost:#b} seen {seen:#b}"
                );
            }
        }
    }

    #[test]
    fn unsupported_geometry_is_left_alone() {
        // 255 members plus one parity exceeds GF(256)'s symbol budget:
        // the decoder declines and the group stays unrepaired, uncounted.
        let mut rs = RecoverScratch::default();
        let mut present = vec![true; 255];
        present[0] = false;
        assert!(!rs.rebuild(8, &present, &[true]));
    }
}
