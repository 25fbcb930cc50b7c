//! Fragmenting LDUs into wire packets and grouping them for parity.
//!
//! "Frames are broken up into packets of size packetSize = 2 Kbytes"
//! (§5.1). An LDU smaller than the packet size travels in one packet; a
//! larger one is split into `⌈size / packet_bytes⌉` fragments. An LDU is
//! **received** only when every one of its fragments arrived (a partially
//! received frame cannot be decoded); the client's
//! [`ClientWindow`](crate::client::ClientWindow) tracks that.

use std::fmt;

use crate::client::{ParityMember, ParityMsg};

/// An LDU as the protocol sees it: a playout position and a size. Frame
/// *types* never reach the transport — criticality is carried by the
/// dependency poset instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ldu {
    /// Encoded size in bytes.
    pub size_bytes: u32,
}

/// Rejection of a zero-sized LDU (an LDU must carry at least one byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLduSize;

impl fmt::Display for InvalidLduSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LDU size must be positive")
    }
}

impl std::error::Error for InvalidLduSize {}

impl Ldu {
    /// Creates an LDU description.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32) -> Self {
        match Self::try_new(size_bytes) {
            Ok(ldu) => ldu,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking constructor: rejects a zero size with an error
    /// instead of asserting. Decode paths fed by untrusted datagrams
    /// (the `espread-net` wire codec) use this so a hostile size field
    /// cannot crash the receiver.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLduSize`] when `size_bytes` is zero.
    pub fn try_new(size_bytes: u32) -> Result<Self, InvalidLduSize> {
        if size_bytes == 0 {
            Err(InvalidLduSize)
        } else {
            Ok(Ldu { size_bytes })
        }
    }

    /// Number of fragments at the given packet payload size.
    ///
    /// # Panics
    ///
    /// Panics if `packet_bytes` is zero.
    pub fn fragment_count(self, packet_bytes: u32) -> u16 {
        assert!(packet_bytes > 0, "packet size must be positive");
        self.size_bytes.div_ceil(packet_bytes) as u16
    }

    /// Payload size of fragment `frag` (the last fragment carries the
    /// remainder).
    ///
    /// # Panics
    ///
    /// Panics if `frag` is out of range or `packet_bytes` is zero.
    pub fn fragment_size(self, packet_bytes: u32, frag: u16) -> u32 {
        let total = self.fragment_count(packet_bytes);
        assert!(frag < total, "fragment {frag} out of {total}");
        if frag + 1 < total {
            packet_bytes
        } else {
            let rem = self.size_bytes % packet_bytes;
            if rem == 0 {
                packet_bytes
            } else {
                rem
            }
        }
    }
}

/// One wire fragment of an LDU within a buffer window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fragment {
    /// Buffer-window number.
    pub window: u64,
    /// Playout index of the LDU within its window (`0..n`).
    pub frame: usize,
    /// Fragment index within the LDU.
    pub frag: u16,
    /// Total fragments of the LDU.
    pub frags_total: u16,
    /// Index of the layer this frame travels in.
    pub layer: u8,
    /// Transmission slot of the frame **within its layer** (what the
    /// client uses to observe per-layer loss bursts in the transmission
    /// domain).
    pub layer_slot: u16,
    /// Whether this is a retransmission.
    pub retransmit: bool,
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "w{} f{} [{}/{}] L{}@{}{}",
            self.window,
            self.frame,
            self.frag + 1,
            self.frags_total,
            self.layer,
            self.layer_slot,
            if self.retransmit { " (rtx)" } else { "" }
        )
    }
}

/// Groups a window's in-scope first transmissions into erasure-coding
/// groups — the one grouping rule both transports share.
///
/// Members join in transmission order; a group closes at `k` members
/// with `shard_bytes` = its largest member payload, and
/// [`ParityGrouper::flush`] closes a partial tail group at window end.
/// Groups form over **transmission order** so the fragments a loss
/// burst hits are spread over many groups instead of exhausting one.
/// Retransmissions never join a group (the client already counted the
/// loss, and parity over a recovery round would shift the groups), so
/// groups never overlap.
#[derive(Debug, Clone)]
pub struct ParityGrouper {
    k: usize,
    /// The open group, as the message its parity will travel in
    /// (`parity_index` 0; the sender stamps each shard's index).
    open: ParityMsg,
}

impl ParityGrouper {
    /// A grouper closing groups at `k` members, each protected by `m`
    /// parity shards.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `m` is zero.
    pub fn new(k: usize, m: u8) -> Self {
        assert!(k > 0 && m > 0, "FEC group size must be positive");
        ParityGrouper {
            k,
            open: ParityMsg {
                window: 0,
                group: 0,
                m,
                parity_index: 0,
                shard_bytes: 0,
                members: Vec::with_capacity(k),
            },
        }
    }

    /// Starts window `window`: group ids restart at 0 and any open group
    /// is discarded.
    pub fn reset(&mut self, window: u64) {
        self.open.window = window;
        self.open.group = 0;
        self.open.shard_bytes = 0;
        self.open.members.clear();
    }

    /// Adds a first transmission of `payload_len` bytes; returns the
    /// group's parity message when the group fills to `k` members.
    pub fn push(&mut self, member: ParityMember, payload_len: u16) -> Option<ParityMsg> {
        self.open.members.push(member);
        self.open.shard_bytes = self.open.shard_bytes.max(payload_len);
        (self.open.members.len() == self.k).then(|| self.close())
    }

    /// Closes the partial tail group, if any members are pending.
    pub fn flush(&mut self) -> Option<ParityMsg> {
        (!self.open.members.is_empty()).then(|| self.close())
    }

    /// Hands back a sent group's member buffer, so a steady-state sender
    /// allocates no member list per group.
    pub fn recycle(&mut self, msg: ParityMsg) {
        if self.open.members.is_empty() {
            self.open.members = msg.members;
            self.open.members.clear();
        }
    }

    fn close(&mut self) -> ParityMsg {
        let msg = ParityMsg {
            members: std::mem::take(&mut self.open.members),
            ..self.open
        };
        self.open.group += 1;
        self.open.shard_bytes = 0;
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_counts() {
        assert_eq!(Ldu::new(1).fragment_count(2048), 1);
        assert_eq!(Ldu::new(2048).fragment_count(2048), 1);
        assert_eq!(Ldu::new(2049).fragment_count(2048), 2);
        assert_eq!(Ldu::new(6000).fragment_count(2048), 3);
    }

    #[test]
    fn fragment_sizes_partition_the_ldu() {
        for size in [1u32, 100, 2048, 2049, 4096, 6000, 10_000] {
            let ldu = Ldu::new(size);
            let total: u32 = (0..ldu.fragment_count(2048))
                .map(|i| ldu.fragment_size(2048, i))
                .sum();
            assert_eq!(total, size, "size {size}");
        }
    }

    #[test]
    #[should_panic(expected = "LDU size must be positive")]
    fn zero_ldu_rejected() {
        let _ = Ldu::new(0);
    }

    #[test]
    fn try_new_reports_zero_size_without_panicking() {
        assert_eq!(Ldu::try_new(0), Err(InvalidLduSize));
        assert!(InvalidLduSize.to_string().contains("positive"));
        assert_eq!(Ldu::try_new(7), Ok(Ldu::new(7)));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn fragment_index_checked() {
        let _ = Ldu::new(100).fragment_size(2048, 1);
    }

    fn member(frame: u16) -> ParityMember {
        ParityMember {
            frame,
            frag: 0,
            frags_total: 1,
        }
    }

    #[test]
    fn encoder_groups_and_flushes() {
        let mut groups = ParityGrouper::new(3, 1);
        groups.reset(7);
        assert!(groups.push(member(0), 100).is_none());
        assert!(groups.push(member(1), 300).is_none());
        let p = groups.push(member(2), 200).unwrap();
        assert_eq!((p.window, p.group, p.m), (7, 0, 1));
        assert_eq!(p.members, vec![member(0), member(1), member(2)]);
        assert_eq!(p.shard_bytes, 300);

        assert!(groups.push(member(3), 50).is_none());
        let tail = groups.flush().unwrap();
        assert_eq!(tail.group, 1);
        assert_eq!(tail.members, vec![member(3)]);
        assert_eq!(tail.shard_bytes, 50);
        assert!(groups.flush().is_none());

        // A new window restarts the group ids and drops a stale open group.
        assert!(groups.push(member(9), 10).is_none());
        groups.reset(8);
        assert!(groups.flush().is_none());
        assert!(groups.push(member(0), 10).is_none());
        assert_eq!(groups.flush().unwrap().group, 0);
    }

    #[test]
    fn recycled_member_buffers_are_reused() {
        let mut groups = ParityGrouper::new(2, 2);
        groups.reset(0);
        assert!(groups.push(member(0), 10).is_none());
        let p = groups.push(member(1), 10).unwrap();
        let buffer = p.members.as_ptr();
        groups.recycle(p);
        assert!(groups.push(member(2), 10).is_none());
        let p = groups.push(member(3), 10).unwrap();
        assert_eq!(p.members.as_ptr(), buffer);
        assert_eq!((p.group, p.m), (1, 2));
    }

    #[test]
    #[should_panic(expected = "group size must be positive")]
    fn zero_group_rejected() {
        let _ = ParityGrouper::new(0, 1);
    }

    #[test]
    fn fragment_display() {
        let f = Fragment {
            window: 3,
            frame: 7,
            frag: 0,
            frags_total: 2,
            layer: 1,
            layer_slot: 4,
            retransmit: true,
        };
        let s = f.to_string();
        assert!(s.contains("w3"));
        assert!(s.contains("f7"));
        assert!(s.contains("(rtx)"));
    }
}
