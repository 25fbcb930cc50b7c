//! Client-side reassembly, loss observation and erasure repair for one
//! buffer window — the one client window both transports drive.
//!
//! The client of §4.2 has three jobs: reassemble each window, measure
//! per-layer loss bursts in the **transmission-slot domain** (the
//! observation `calculatePermutation` needs) and ACK them, and repair
//! losses with the orthogonal parity of Fig. 4. [`ClientWindow`] does all
//! three from the data-path messages alone. It cannot be pre-sized from
//! the sender's LDU list — on the UDP transport the wire is all it knows
//! — so each frame's fragment count is learned from the first fragment
//! that arrives for it (`frags_total`), mismatching or out-of-range
//! labels are rejected (counted upstream as bad fragments), and a frame
//! no fragment of ever arrives for is simply lost.
//!
//! Reassembly state is flat: one fragment bitset for the whole window,
//! in which each frame takes a run of `frags_total` bits when it is first
//! sighted, and per-frame `(frags_total, received)` counts, so a
//! completeness check is one comparison and re-arming for the next window
//! is a clear.
//!
//! The window owns no socket and no clock. Repair is split in two: the
//! window decides *whether* a parity group repairs (its erased members
//! are no more than its surviving parities), and a [`ShardDecoder`] does
//! the byte work. The UDP client decodes real shards through
//! `espread-fec`; the simulator, which moves no payload bytes, passes
//! [`VerdictOnly`].

use espread_qos::LossPattern;

use crate::feedback::WindowFeedback;
use crate::packetize::{Fragment, Ldu};

/// One media fragment on the data path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataMsg {
    /// The fragment's protocol labelling (window, frame, layer, slot, …).
    pub fragment: Fragment,
    /// The whole LDU this fragment belongs to (validated non-zero via
    /// [`Ldu::try_new`] on decode).
    pub ldu: Ldu,
    /// Bytes of media payload carried after the header.
    pub payload_len: u16,
}

/// One member fragment of a parity group — enough labelling for the
/// client to identify (and, after recovery, reconstruct) the shard even
/// when the member's data datagram never arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityMember {
    /// Frame index within the window.
    pub frame: u16,
    /// Fragment index within the frame.
    pub frag: u16,
    /// The frame's total fragment count (lets the client size the
    /// frame's reassembly bitmap for wholly lost frames).
    pub frags_total: u16,
}

/// A parity shard over a transmission-order group of data fragments.
///
/// The sender emits `m` of these after every `k` in-scope fragments (see
/// [`ParityGrouper`](crate::packetize::ParityGrouper)); the member list
/// names exactly which fragments the shard protects, in transmission
/// order. Like [`DataMsg`], the parity payload is zero-filled on the UDP
/// wire and absent in the simulator — the traces carry sizes, not
/// content, so the wire stays byte-accurate (the bandwidth overhead the
/// frontier bench charts is real) without shipping bytes the simulator
/// never had.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityMsg {
    /// Window the group belongs to.
    pub window: u64,
    /// Group sequence number within the window (transmission order).
    pub group: u32,
    /// Parity shards in this group (`m` of the `(k, m)` code).
    pub m: u8,
    /// Which of the `m` shards this datagram carries (`0..m`).
    pub parity_index: u8,
    /// Shard length in bytes — every member fragment is padded to this
    /// for the GF(256) arithmetic, and the payload is exactly this long.
    pub shard_bytes: u16,
    /// The protected fragments, in transmission order (`k` entries).
    pub members: Vec<ParityMember>,
}

/// Data-path payloads of the simulated channel: media fragments and
/// parity shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataPayload {
    /// A fragment of an LDU.
    Data(DataMsg),
    /// A parity shard.
    Parity(ParityMsg),
}

/// The byte work behind a recovery verdict.
///
/// [`ClientWindow::recover_with`] calls this only for a group its
/// recoverability rule admits: `present[i]` says whether data member `i`
/// arrived, `parity_seen[j]` whether parity shard `j` did, and the
/// erased members are no more than the surviving parities. Every shard
/// is `shard_bytes` long.
pub trait ShardDecoder {
    /// Rebuilds the group's erased members. `false` means the decoder
    /// could not (a geometry it does not support): the group is left as
    /// it is, uncounted, for a later pass.
    fn rebuild(&mut self, shard_bytes: usize, present: &[bool], parity_seen: &[bool]) -> bool;
}

/// A decoder that accepts the recoverability rule's verdict without
/// touching a byte — for transports that carry no payloads. Any group of
/// an MDS code with no more erasures than surviving parities decodes, so
/// the verdicts match a byte decoder's.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerdictOnly;

impl ShardDecoder for VerdictOnly {
    fn rebuild(&mut self, _: usize, _: &[bool], _: &[bool]) -> bool {
        true
    }
}

/// Reassembly, per-layer slot observation and erasure repair for one
/// window.
///
/// A `ClientWindow` is built to be **reused**: [`ClientWindow::reset`]
/// re-arms it for the next window while keeping every interior buffer —
/// the fragment bitset, layer slot rows, parity groups — for reuse, so a
/// steady-state stream allocates only on its first window.
#[derive(Debug, Clone)]
pub struct ClientWindow {
    window: u64,
    /// Per frame: its fragment counts and where its bits start in
    /// `frag_bits`.
    frames: Vec<FrameState>,
    /// Received-fragment bits of every sighted frame, frame after frame
    /// in first-sighting order.
    frag_bits: Vec<u64>,
    /// Bits of `frag_bits` handed out to frames so far.
    bits_used: usize,
    /// layer → slot → was any fragment of that slot's frame received?
    layer_slots_seen: Vec<Vec<bool>>,
    /// Kept as the wire's `u16` indices so building a `CriticalNack`
    /// needs no narrowing cast that could silently truncate.
    critical_frames: Vec<u16>,
    /// FEC groups observed on this window, in first-sighting order (so
    /// recovery is deterministic under any arrival interleaving).
    parity_groups: Vec<ParityGroup>,
    /// Recovery staging: which members of the group under test arrived.
    present: Vec<bool>,
    /// Retired parity groups awaiting reuse.
    spare_groups: Vec<ParityGroup>,
}

/// One frame's reassembly counts. `frags_total` is 0 until a fragment of
/// the frame is sighted, which fixes it for the window.
#[derive(Debug, Clone, Copy, Default)]
struct FrameState {
    /// The frame's first bit in `ClientWindow::frag_bits`.
    offset: usize,
    frags_total: u16,
    /// Distinct fragments received (or recovered) so far.
    received: u16,
}

impl FrameState {
    fn is_complete(self) -> bool {
        self.frags_total > 0 && self.received == self.frags_total
    }
}

/// One erasure-coding group as learned from its parity messages.
#[derive(Debug, Clone, Default)]
struct ParityGroup {
    group: u32,
    m: u8,
    shard_bytes: u16,
    members: Vec<ParityMember>,
    /// parity_index → did that parity message arrive?
    parity_seen: Vec<bool>,
    /// Recovery passes repeat (each `WindowEnd` round, then the close);
    /// a group is reported unrecoverable at most once, though later
    /// retransmissions may still shrink its erasures into budget.
    counted_unrecoverable: bool,
}

/// What one recovery pass over a window's parity groups achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FecRecovery {
    /// Fragments newly marked received by erasure decoding.
    pub recovered: usize,
    /// Groups whose erasures exceeded their surviving parity.
    pub unrecoverable: usize,
}

/// What the window looked like when it closed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowOutcome {
    /// The window number.
    pub window: u64,
    /// Playout-order delivery pattern.
    pub pattern: LossPattern,
    /// Largest run of lost transmission slots per layer (the ACK body).
    pub per_layer_burst: Vec<u16>,
}

impl WindowOutcome {
    /// The §4.2 window ACK this outcome reports.
    pub fn feedback(&self) -> WindowFeedback {
        WindowFeedback {
            window: self.window,
            per_layer_burst: self
                .per_layer_burst
                .iter()
                .map(|&b| usize::from(b))
                .collect(),
        }
    }
}

impl ClientWindow {
    /// Prepares tracking for window `window` of `frames_per_window`
    /// frames, with the per-window layer sizes and critical-frame indices
    /// agreed at negotiation.
    pub fn new(
        window: u64,
        frames_per_window: usize,
        layer_sizes: &[u16],
        critical_frames: &[u16],
    ) -> Self {
        let mut w = ClientWindow {
            window,
            frames: Vec::new(),
            frag_bits: Vec::new(),
            bits_used: 0,
            layer_slots_seen: Vec::new(),
            critical_frames: Vec::new(),
            parity_groups: Vec::new(),
            present: Vec::new(),
            spare_groups: Vec::new(),
        };
        w.reset(window, frames_per_window, layer_sizes, critical_frames);
        w
    }

    /// Re-arms this tracker for a new window with the same or a new
    /// session shape, recycling every interior buffer. Equivalent to
    /// replacing `self` with [`ClientWindow::new`] — observable state is
    /// identical — but a steady-state stream allocates nothing here.
    pub fn reset(
        &mut self,
        window: u64,
        frames_per_window: usize,
        layer_sizes: &[u16],
        critical_frames: &[u16],
    ) {
        self.window = window;
        self.frames.clear();
        self.frames.resize(frames_per_window, FrameState::default());
        self.frag_bits.clear();
        self.bits_used = 0;
        self.layer_slots_seen
            .resize_with(layer_sizes.len(), Vec::new);
        for (row, &n) in self.layer_slots_seen.iter_mut().zip(layer_sizes) {
            row.clear();
            row.resize(usize::from(n), false);
        }
        self.critical_frames.clear();
        self.critical_frames.extend_from_slice(critical_frames);
        for group in self.parity_groups.drain(..) {
            self.spare_groups.push(group);
        }
    }

    /// The window this tracker observes.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Accepts one data message. Returns `false` (and changes nothing)
    /// when the labels don't fit the negotiated session — wrong window,
    /// out-of-range frame/layer/slot/fragment, or a fragment count
    /// disagreeing with what this frame's earlier fragments declared.
    #[inline]
    pub fn accept(&mut self, msg: &DataMsg) -> bool {
        let f = &msg.fragment;
        // frag < frags_total was already enforced by the wire decoder,
        // but re-check: this type is constructible without it.
        if f.window != self.window || f.frag >= f.frags_total {
            return false;
        }
        let Some(slot_row) = self.layer_slots_seen.get_mut(usize::from(f.layer)) else {
            return false;
        };
        let Some(slot_cell) = slot_row.get_mut(usize::from(f.layer_slot)) else {
            return false;
        };
        let Some(state) = self.frames.get_mut(f.frame) else {
            return false;
        };
        if !mark(
            &mut self.frag_bits,
            &mut self.bits_used,
            state,
            f.frags_total,
            f.frag,
        ) {
            return false;
        }
        *slot_cell = true;
        true
    }

    /// Whether every fragment of frame `frame` has arrived. Out-of-range
    /// indices read as incomplete — a hostile Accept can name critical
    /// frames past `frames_per_window`, and that must not panic here.
    pub fn is_complete(&self, frame: usize) -> bool {
        self.frames.get(frame).is_some_and(|s| s.is_complete())
    }

    /// Accepts one parity message. Returns `false` (and changes nothing)
    /// when its labels don't fit this window — wrong window, out-of-range
    /// frame or parity index — or contradict an earlier message of the
    /// same group (hostile or corrupted geometry).
    pub fn accept_parity(&mut self, msg: &ParityMsg) -> bool {
        if msg.window != self.window || msg.m == 0 || msg.parity_index >= msg.m {
            return false;
        }
        if msg.members.is_empty() {
            return false;
        }
        for member in &msg.members {
            if usize::from(member.frame) >= self.frames.len()
                || member.frags_total == 0
                || member.frag >= member.frags_total
            {
                return false;
            }
        }
        if let Some(g) = self.parity_groups.iter_mut().find(|g| g.group == msg.group) {
            if g.m != msg.m || g.shard_bytes != msg.shard_bytes || g.members != msg.members {
                return false;
            }
            g.parity_seen[usize::from(msg.parity_index)] = true;
            return true;
        }
        // First sighting: the group value itself is the handle — it is
        // fully built (parity bit included) before the push, so there is
        // no post-push lookup to go wrong on the datagram path.
        let mut g = self.spare_groups.pop().unwrap_or_default();
        g.group = msg.group;
        g.m = msg.m;
        g.shard_bytes = msg.shard_bytes;
        g.members.clear();
        g.members.extend_from_slice(&msg.members);
        g.parity_seen.clear();
        g.parity_seen.resize(usize::from(msg.m), false);
        g.parity_seen[usize::from(msg.parity_index)] = true;
        g.counted_unrecoverable = false;
        self.parity_groups.push(g);
        true
    }

    /// One erasure-recovery pass: every group whose erased members are
    /// no more than its surviving parities is handed to `decoder` and,
    /// once rebuilt, its missing fragments are marked received.
    /// Idempotent — a second pass finds nothing left to recover. Groups
    /// never overlap on either transport, so one pass in first-sighting
    /// order is final.
    ///
    /// Recovered fragments deliberately do **not** mark
    /// `layer_slots_seen`: the ACK's burst feedback keeps describing the
    /// raw channel, so the server's burst estimator is not blinded by
    /// its own parity.
    pub fn recover_with<D: ShardDecoder + ?Sized>(&mut self, decoder: &mut D) -> FecRecovery {
        let mut out = FecRecovery::default();
        for gi in 0..self.parity_groups.len() {
            let g = &self.parity_groups[gi];
            self.present.clear();
            let (frames, bits) = (&self.frames, &self.frag_bits);
            self.present.extend(g.members.iter().map(|mem| {
                let state = frames[usize::from(mem.frame)];
                state.frags_total == mem.frags_total
                    && bit(bits, state.offset + usize::from(mem.frag))
            }));
            let erased = self.present.iter().filter(|&&p| !p).count();
            if erased == 0 {
                continue;
            }
            let surviving = g.parity_seen.iter().filter(|&&p| p).count();
            if erased > surviving {
                let g = &mut self.parity_groups[gi];
                if !g.counted_unrecoverable {
                    g.counted_unrecoverable = true;
                    out.unrecoverable += 1;
                }
                continue;
            }
            if !decoder.rebuild(usize::from(g.shard_bytes), &self.present, &g.parity_seen) {
                continue;
            }
            for (mi, mem) in g.members.iter().enumerate() {
                if self.present[mi] {
                    continue;
                }
                let state = &mut self.frames[usize::from(mem.frame)];
                if mark(
                    &mut self.frag_bits,
                    &mut self.bits_used,
                    state,
                    mem.frags_total,
                    mem.frag,
                ) {
                    out.recovered += 1;
                }
            }
        }
        out
    }

    /// Critical frames still missing at least one fragment, as wire
    /// indices — the body of a `CriticalNack`.
    pub fn missing_critical(&self) -> Vec<u16> {
        let mut out = Vec::new();
        self.missing_critical_into(&mut out);
        out
    }

    /// [`ClientWindow::missing_critical`] into a caller-owned buffer
    /// (cleared first), for NACK construction without a per-round
    /// allocation.
    pub fn missing_critical_into(&self, out: &mut Vec<u16>) {
        out.clear();
        out.extend(
            self.critical_frames
                .iter()
                .filter(|&&f| !self.is_complete(usize::from(f)))
                .copied(),
        );
    }

    /// Closes the window: playout loss pattern plus the per-layer worst
    /// burst of lost transmission slots. The tracker is kept, for
    /// [`ClientWindow::reset`] to re-arm for the next window.
    pub fn close(&self) -> WindowOutcome {
        let mut out = WindowOutcome::default();
        self.close_into(&mut out);
        out
    }

    /// [`ClientWindow::close`] into a caller-owned outcome, reusing its
    /// pattern and burst buffers — the zero-steady-state-allocation form.
    pub fn close_into(&self, out: &mut WindowOutcome) {
        out.window = self.window;
        out.pattern
            .set_from_received(self.frames.iter().map(|s| s.is_complete()));
        out.per_layer_burst.clear();
        out.per_layer_burst
            .extend(self.layer_slots_seen.iter().map(|row| {
                let mut best = 0u16;
                let mut cur = 0u16;
                for &seen in row {
                    if seen {
                        cur = 0;
                    } else {
                        cur += 1;
                        best = best.max(cur);
                    }
                }
                best
            }));
    }
}

/// Marks fragment `frag` of a frame of `frags_total` fragments received.
/// An unsighted frame first takes the next `frags_total` bits of `bits`;
/// a sighted one must have declared the same count, else nothing changes
/// and the answer is `false`. The caller has checked `frag < frags_total`.
fn mark(
    bits: &mut Vec<u64>,
    bits_used: &mut usize,
    state: &mut FrameState,
    frags_total: u16,
    frag: u16,
) -> bool {
    if state.frags_total == 0 {
        state.frags_total = frags_total;
        state.offset = *bits_used;
        *bits_used += usize::from(frags_total);
        bits.resize(bits_used.div_ceil(64), 0);
    } else if state.frags_total != frags_total {
        return false;
    }
    let i = state.offset + usize::from(frag);
    let word = &mut bits[i / 64];
    let mask = 1u64 << (i % 64);
    if *word & mask == 0 {
        *word |= mask;
        state.received += 1;
    }
    true
}

/// Bit `i` of `bits`.
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1u64 << (i % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(
        window: u64,
        frame: usize,
        frag: u16,
        frags_total: u16,
        layer: u8,
        slot: u16,
    ) -> DataMsg {
        DataMsg {
            fragment: Fragment {
                window,
                frame,
                frag,
                frags_total,
                layer,
                layer_slot: slot,
                retransmit: false,
            },
            ldu: Ldu::new(100),
            payload_len: 100,
        }
    }

    fn window() -> ClientWindow {
        // 4 frames: 0,1 in layer 0 (critical), 2,3 in layer 1.
        ClientWindow::new(0, 4, &[2, 2], &[0, 1])
    }

    fn parity(window: u64, group: u32, m: u8, idx: u8, members: &[(u16, u16, u16)]) -> ParityMsg {
        ParityMsg {
            window,
            group,
            m,
            parity_index: idx,
            shard_bytes: 64,
            members: members
                .iter()
                .map(|&(frame, frag, frags_total)| ParityMember {
                    frame,
                    frag,
                    frags_total,
                })
                .collect(),
        }
    }

    fn recover(w: &mut ClientWindow) -> FecRecovery {
        w.recover_with(&mut VerdictOnly)
    }

    #[test]
    fn parity_recovers_missing_fragment_without_touching_bursts() {
        let mut w = window();
        w.accept(&data(0, 0, 0, 1, 0, 0));
        w.accept(&data(0, 1, 0, 1, 0, 1));
        w.accept(&data(0, 3, 0, 1, 1, 1));
        // XOR group over all four frames; frame 2 was lost on the wire.
        let members = [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1)];
        assert!(w.accept_parity(&parity(0, 0, 1, 0, &members)));
        let r = recover(&mut w);
        assert_eq!(
            r,
            FecRecovery {
                recovered: 1,
                unrecoverable: 0
            }
        );
        assert!(w.is_complete(2));
        assert_eq!(recover(&mut w), FecRecovery::default(), "idempotent");
        assert!(w.missing_critical().is_empty());
        let out = w.close();
        assert_eq!(out.pattern.lost(), 0, "recovery repairs playout");
        // The burst feedback still reflects the raw channel: frame 2's
        // transmission slot (layer 1, slot 0) was never *received*.
        assert_eq!(out.per_layer_burst, vec![0, 1]);
    }

    #[test]
    fn double_erasure_needs_two_surviving_parities() {
        let mut w = window();
        w.accept(&data(0, 0, 0, 1, 0, 0));
        w.accept(&data(0, 1, 0, 1, 0, 1));
        // Frames 2 and 3 lost; a (k=4, m=2) group with one parity in.
        let members = [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1)];
        assert!(w.accept_parity(&parity(0, 0, 2, 0, &members)));
        assert_eq!(recover(&mut w).unrecoverable, 1);
        // The second parity arrives: two erasures, two parities.
        assert!(w.accept_parity(&parity(0, 0, 2, 1, &members)));
        assert_eq!(
            recover(&mut w),
            FecRecovery {
                recovered: 2,
                unrecoverable: 0
            }
        );
        assert_eq!(w.close().pattern.lost(), 0);
    }

    #[test]
    fn beyond_budget_counts_unrecoverable_once_then_retries() {
        let mut w = window();
        w.accept(&data(0, 0, 0, 1, 0, 0));
        w.accept(&data(0, 1, 0, 1, 0, 1));
        // Both members of an XOR group lost: one parity cannot cover two.
        assert!(w.accept_parity(&parity(0, 0, 1, 0, &[(2, 0, 1), (3, 0, 1)])));
        assert_eq!(
            recover(&mut w),
            FecRecovery {
                recovered: 0,
                unrecoverable: 1
            }
        );
        assert_eq!(recover(&mut w), FecRecovery::default(), "counted once");
        // A retransmission fills frame 2: the group shrinks into budget
        // and a later pass recovers frame 3 after all.
        w.accept(&data(0, 2, 0, 1, 1, 0));
        assert_eq!(
            recover(&mut w),
            FecRecovery {
                recovered: 1,
                unrecoverable: 0
            }
        );
        assert!(w.is_complete(3));
    }

    #[test]
    fn a_declining_decoder_leaves_the_group_uncounted() {
        struct Declines;
        impl ShardDecoder for Declines {
            fn rebuild(&mut self, _: usize, _: &[bool], _: &[bool]) -> bool {
                false
            }
        }
        let mut w = window();
        w.accept(&data(0, 0, 0, 1, 0, 0));
        assert!(w.accept_parity(&parity(0, 0, 1, 0, &[(0, 0, 1), (1, 0, 1)])));
        assert_eq!(w.recover_with(&mut Declines), FecRecovery::default());
        assert!(!w.is_complete(1));
        // A later pass with a capable decoder still repairs it.
        assert_eq!(recover(&mut w).recovered, 1);
    }

    #[test]
    fn hostile_parity_rejected() {
        let mut w = window();
        w.accept(&data(0, 0, 0, 1, 0, 0));
        w.accept(&data(0, 1, 0, 1, 0, 1));
        let ok = [(0, 0, 1), (1, 0, 1)];
        assert!(!w.accept_parity(&parity(1, 0, 1, 0, &ok)), "wrong window");
        assert!(!w.accept_parity(&parity(0, 0, 1, 1, &ok)), "index >= m");
        assert!(!w.accept_parity(&parity(0, 0, 1, 0, &[])), "empty group");
        assert!(
            !w.accept_parity(&parity(0, 0, 1, 0, &[(9, 0, 1)])),
            "frame out of range"
        );
        assert!(
            !w.accept_parity(&parity(0, 0, 1, 0, &[(0, 2, 2)])),
            "frag out of range"
        );
        assert!(
            !w.accept_parity(&parity(0, 0, 1, 0, &[(0, 0, 0)])),
            "zero fragment count"
        );
        // Contradicting an established group's geometry.
        assert!(w.accept_parity(&parity(0, 5, 2, 0, &ok)));
        assert!(
            !w.accept_parity(&parity(0, 5, 2, 1, &[(0, 0, 1), (2, 0, 1)])),
            "members changed"
        );
        assert!(!w.accept_parity(&parity(0, 5, 3, 1, &ok)), "m changed");
        assert_eq!(recover(&mut w), FecRecovery::default(), "nothing to repair");
    }

    #[test]
    fn tracks_completeness_and_bursts() {
        let mut w = window();
        assert!(w.accept(&data(0, 0, 0, 1, 0, 0)));
        assert!(w.accept(&data(0, 3, 0, 1, 1, 1)));
        assert_eq!(w.missing_critical(), vec![1]);
        let out = w.close();
        assert_eq!(out.pattern.lost_indices(), vec![1, 2]);
        assert_eq!(out.per_layer_burst, vec![1, 1]);
        assert_eq!(out.feedback().per_layer_burst, vec![1, 1]);
    }

    #[test]
    fn burst_runs_counted_in_slot_domain() {
        // One 6-slot layer: slots 1, 2, 3 missing is a run of 3 (the
        // ACK's value), slot 5 missing a run of 1.
        let mut w = ClientWindow::new(0, 6, &[6], &[]);
        for (frame, slot) in [(0usize, 0u16), (4, 4)] {
            assert!(w.accept(&data(0, frame, 0, 1, 0, slot)));
        }
        let out = w.close();
        assert_eq!(out.per_layer_burst, vec![3]);
        assert_eq!(out.pattern.lost_indices(), vec![1, 2, 3, 5]);
    }

    #[test]
    fn multi_fragment_frames_need_every_fragment() {
        let mut w = ClientWindow::new(0, 1, &[1], &[0]);
        assert!(w.accept(&data(0, 0, 0, 3, 0, 0)));
        assert!(w.accept(&data(0, 0, 2, 3, 0, 0)));
        assert!(!w.is_complete(0));
        assert_eq!(w.missing_critical(), vec![0]);
        assert!(w.accept(&data(0, 0, 1, 3, 0, 0)));
        assert!(w.is_complete(0));
    }

    #[test]
    fn rejects_labels_outside_the_session() {
        let mut w = window();
        assert!(!w.accept(&data(1, 0, 0, 1, 0, 0)), "wrong window");
        assert!(!w.accept(&data(0, 9, 0, 1, 0, 0)), "frame out of range");
        assert!(!w.accept(&data(0, 0, 0, 1, 7, 0)), "layer out of range");
        assert!(!w.accept(&data(0, 0, 0, 1, 0, 9)), "slot out of range");
        // Fragment-count mismatch against what frame 0 first declared.
        assert!(w.accept(&data(0, 0, 0, 2, 0, 0)));
        assert!(!w.accept(&data(0, 0, 0, 5, 0, 0)), "frags_total changed");
        let out = w.close();
        assert_eq!(out.pattern.lost_indices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_window_is_all_lost_with_full_layer_bursts() {
        let out = window().close();
        assert_eq!(out.pattern.lost(), 4);
        assert_eq!(out.per_layer_burst, vec![2, 2]);
    }

    #[test]
    fn hostile_critical_indices_never_panic() {
        // A hostile Accept can name critical frames past the window: they
        // must read as permanently missing, not index out of bounds.
        let w = ClientWindow::new(0, 4, &[2, 2], &[0, 9000]);
        assert!(!w.is_complete(9000));
        assert_eq!(w.missing_critical(), vec![0, 9000]);
    }

    #[test]
    fn reset_reuse_matches_a_fresh_window() {
        // Lap 0 dirties every pool (frames, layer rows, parity groups);
        // lap 1 after reset must behave exactly like a fresh tracker.
        let mut reused = window();
        reused.accept(&data(0, 0, 0, 2, 0, 0));
        reused.accept(&data(0, 2, 0, 1, 1, 0));
        assert!(reused.accept_parity(&parity(0, 0, 1, 0, &[(1, 0, 1), (3, 0, 1)])));
        recover(&mut reused);
        reused.reset(1, 4, &[2, 2], &[0, 1]);

        let mut fresh = ClientWindow::new(1, 4, &[2, 2], &[0, 1]);
        for w in [&mut reused, &mut fresh] {
            assert!(w.accept(&data(1, 0, 0, 1, 0, 0)));
            assert!(w.accept(&data(1, 1, 0, 1, 0, 1)));
            assert!(w.accept_parity(&parity(1, 0, 1, 0, &[(2, 0, 1), (3, 0, 1)])));
        }
        assert_eq!(recover(&mut reused), recover(&mut fresh));
        assert_eq!(reused.missing_critical(), fresh.missing_critical());
        let mut out = WindowOutcome::default();
        reused.close_into(&mut out);
        assert_eq!(out, fresh.close());
    }

    #[test]
    fn reset_changes_session_shape_cleanly() {
        let mut w = window();
        w.accept(&data(0, 0, 0, 1, 0, 0));
        // Shrink to a different shape entirely.
        w.reset(5, 2, &[1, 1, 1], &[1]);
        assert_eq!(w.window(), 5);
        assert!(!w.is_complete(0), "no carry-over from the old window");
        assert_eq!(w.missing_critical(), vec![1]);
        assert!(w.accept(&data(5, 1, 0, 1, 2, 0)));
        let out = w.close();
        assert_eq!(out.pattern.lost_indices(), vec![0]);
        assert_eq!(out.per_layer_burst, vec![1, 1, 0]);
    }

    #[test]
    fn duplicates_idempotent() {
        let mut w = window();
        assert!(w.accept(&data(0, 2, 0, 1, 1, 0)));
        assert!(w.accept(&data(0, 2, 0, 1, 1, 0)));
        assert!(w.is_complete(2));
    }

    #[test]
    fn a_rejected_first_fragment_sights_nothing() {
        let mut w = window();
        assert!(!w.accept(&data(0, 0, 0, 0, 0, 0)), "zero fragment count");
        assert!(!w.accept(&data(0, 0, 3, 2, 0, 0)), "frag >= frags_total");
        assert!(!w.is_complete(0));
        // Frame 0's count is still open: a valid fragment fixes it.
        assert!(w.accept(&data(0, 0, 0, 1, 0, 0)));
        assert!(w.is_complete(0));
        assert_eq!(w.close().per_layer_burst, vec![1, 2]);
    }

    /// The per-frame `Vec<bool>` window the flat bitset replaced, kept as
    /// the oracle: one bitmap per sighted frame, completeness by scanning
    /// it. Labels are checked before a frame is sighted.
    mod oracle {
        use super::super::*;

        #[derive(Debug)]
        pub(super) struct Oracle {
            window: u64,
            frames: Vec<Option<Vec<bool>>>,
            layer_slots_seen: Vec<Vec<bool>>,
            critical_frames: Vec<u16>,
            groups: Vec<(ParityMsg, Vec<bool>, bool)>,
        }

        impl Oracle {
            pub(super) fn new(
                window: u64,
                frames: usize,
                layers: &[u16],
                critical: &[u16],
            ) -> Self {
                Oracle {
                    window,
                    frames: vec![None; frames],
                    layer_slots_seen: layers
                        .iter()
                        .map(|&n| vec![false; usize::from(n)])
                        .collect(),
                    critical_frames: critical.to_vec(),
                    groups: Vec::new(),
                }
            }

            pub(super) fn accept(&mut self, msg: &DataMsg) -> bool {
                let f = &msg.fragment;
                if f.window != self.window || f.frag >= f.frags_total {
                    return false;
                }
                let Some(slot) = self
                    .layer_slots_seen
                    .get_mut(usize::from(f.layer))
                    .and_then(|row| row.get_mut(usize::from(f.layer_slot)))
                else {
                    return false;
                };
                let Some(frame) = self.frames.get_mut(f.frame) else {
                    return false;
                };
                let flags = frame.get_or_insert_with(|| vec![false; usize::from(f.frags_total)]);
                if flags.len() != usize::from(f.frags_total) {
                    return false;
                }
                flags[usize::from(f.frag)] = true;
                *slot = true;
                true
            }

            pub(super) fn is_complete(&self, frame: usize) -> bool {
                self.frames
                    .get(frame)
                    .and_then(|f| f.as_ref())
                    .is_some_and(|flags| flags.iter().all(|&r| r))
            }

            pub(super) fn accept_parity(&mut self, msg: &ParityMsg) -> bool {
                if msg.window != self.window
                    || msg.m == 0
                    || msg.parity_index >= msg.m
                    || msg.members.is_empty()
                    || msg.members.iter().any(|mem| {
                        usize::from(mem.frame) >= self.frames.len()
                            || mem.frags_total == 0
                            || mem.frag >= mem.frags_total
                    })
                {
                    return false;
                }
                if let Some((g, seen, _)) =
                    self.groups.iter_mut().find(|(g, ..)| g.group == msg.group)
                {
                    if g.m != msg.m || g.shard_bytes != msg.shard_bytes || g.members != msg.members
                    {
                        return false;
                    }
                    seen[usize::from(msg.parity_index)] = true;
                    return true;
                }
                let mut seen = vec![false; usize::from(msg.m)];
                seen[usize::from(msg.parity_index)] = true;
                self.groups.push((msg.clone(), seen, false));
                true
            }

            pub(super) fn recover_with(&mut self, decoder: &mut dyn ShardDecoder) -> FecRecovery {
                let mut out = FecRecovery::default();
                for gi in 0..self.groups.len() {
                    let (g, seen, _) = &self.groups[gi];
                    let present: Vec<bool> = g
                        .members
                        .iter()
                        .map(|mem| {
                            self.frames[usize::from(mem.frame)]
                                .as_ref()
                                .is_some_and(|flags| {
                                    flags.len() == usize::from(mem.frags_total)
                                        && flags[usize::from(mem.frag)]
                                })
                        })
                        .collect();
                    let erased = present.iter().filter(|&&p| !p).count();
                    if erased == 0 {
                        continue;
                    }
                    if erased > seen.iter().filter(|&&p| p).count() {
                        let counted = &mut self.groups[gi].2;
                        if !*counted {
                            *counted = true;
                            out.unrecoverable += 1;
                        }
                        continue;
                    }
                    if !decoder.rebuild(usize::from(g.shard_bytes), &present, seen) {
                        continue;
                    }
                    let members = g.members.clone();
                    for (mem, _) in members.iter().zip(&present).filter(|(_, &p)| !p) {
                        let flags = self.frames[usize::from(mem.frame)]
                            .get_or_insert_with(|| vec![false; usize::from(mem.frags_total)]);
                        if flags.len() == usize::from(mem.frags_total) {
                            flags[usize::from(mem.frag)] = true;
                            out.recovered += 1;
                        }
                    }
                }
                out
            }

            pub(super) fn missing_critical(&self) -> Vec<u16> {
                self.critical_frames
                    .iter()
                    .copied()
                    .filter(|&f| !self.is_complete(usize::from(f)))
                    .collect()
            }

            pub(super) fn close(&self) -> WindowOutcome {
                let mut pattern = LossPattern::default();
                pattern.set_from_received((0..self.frames.len()).map(|f| self.is_complete(f)));
                let per_layer_burst = self
                    .layer_slots_seen
                    .iter()
                    .map(|row| {
                        row.split(|&seen| seen)
                            .map(|run| run.len() as u16)
                            .max()
                            .unwrap_or(0)
                    })
                    .collect();
                WindowOutcome {
                    window: self.window,
                    pattern,
                    per_layer_burst,
                }
            }
        }
    }

    mod against_the_oracle {
        use super::oracle::Oracle;
        use super::*;
        use proptest::prelude::*;

        /// A decoder that declines every group.
        struct Declines;
        impl ShardDecoder for Declines {
            fn rebuild(&mut self, _: usize, _: &[bool], _: &[bool]) -> bool {
                false
            }
        }

        /// Fragments per frame when a step keeps its labels consistent.
        fn total(frame: usize) -> u16 {
            1 + (frame % 3) as u16
        }

        type Step = ((u8, usize, u16, u16, u8, u16), Vec<(u16, u16, u16)>);

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            prop::collection::vec(
                (
                    (0u8..16, 0usize..8, 0u16..5, 0u16..5, 0u8..4, 0u16..6),
                    prop::collection::vec((0u16..8, 0u16..4, 0u16..4), 0..5),
                ),
                1..120,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Every operation answers as the per-frame bitmap window
            /// does, on consistent and hostile labels alike: changed
            /// `frags_total`, `frag >= frags_total`, out-of-range frame,
            /// layer and slot, wrong windows, duplicates and resets to a
            /// new shape.
            #[test]
            fn the_flat_window_matches_the_per_frame_oracle(steps in steps()) {
                let (mut window, shape) = (0u64, (4usize, vec![2u16, 2], vec![0u16, 1]));
                let mut flat = ClientWindow::new(window, shape.0, &shape.1, &shape.2);
                let mut oracle = Oracle::new(window, shape.0, &shape.1, &shape.2);
                let mut outcome = WindowOutcome::default();
                let mut missing = Vec::new();
                for ((kind, a, b, c, d, e), members) in steps {
                    match kind {
                        0..=6 => {
                            let consistent = kind < 4;
                            let frags_total = if consistent { total(a) } else { c };
                            let frag = if consistent { b % frags_total } else { b };
                            let w = if kind == 6 { window + 1 } else { window };
                            let msg = data(w, a, frag, frags_total, d, e);
                            prop_assert_eq!(flat.accept(&msg), oracle.accept(&msg));
                        }
                        7..=9 => {
                            let members: Vec<(u16, u16, u16)> = if kind == 7 {
                                members
                                    .iter()
                                    .map(|&(f, g, _)| {
                                        let t = total(usize::from(f));
                                        (f, g % t, t)
                                    })
                                    .collect()
                            } else {
                                members
                            };
                            let w = if kind == 9 { window + 1 } else { window };
                            let msg = parity(w, u32::from(d % 3), (b % 3) as u8, (c % 3) as u8, &members);
                            prop_assert_eq!(flat.accept_parity(&msg), oracle.accept_parity(&msg));
                        }
                        10 => prop_assert_eq!(
                            flat.recover_with(&mut VerdictOnly),
                            oracle.recover_with(&mut VerdictOnly)
                        ),
                        11 => prop_assert_eq!(
                            flat.recover_with(&mut Declines),
                            oracle.recover_with(&mut Declines)
                        ),
                        12 => {
                            window = if b == 0 { window } else { window + 1 };
                            let frames = a % 7;
                            let layers: Vec<u16> = (0..=u16::from(d)).map(|l| (e + l) % 4).collect();
                            let critical = [b, c * 3, 9000];
                            flat.reset(window, frames, &layers, &critical);
                            oracle = Oracle::new(window, frames, &layers, &critical);
                        }
                        13 => {
                            flat.close_into(&mut outcome);
                            prop_assert_eq!(&outcome, &oracle.close());
                            prop_assert_eq!(flat.close(), oracle.close());
                        }
                        _ => {
                            flat.missing_critical_into(&mut missing);
                            prop_assert_eq!(&missing, &oracle.missing_critical());
                            prop_assert_eq!(flat.missing_critical(), oracle.missing_critical());
                        }
                    }
                    for f in 0..10 {
                        prop_assert_eq!(flat.is_complete(f), oracle.is_complete(f), "frame {}", f);
                    }
                }
                flat.close_into(&mut outcome);
                prop_assert_eq!(outcome, oracle.close());
            }
        }
    }
}
