//! Client-side protocol state for one buffer window.
//!
//! The client reassembles fragments, tracks per-layer delivery in the
//! **transmission-slot domain** (the observation `calculatePermutation`
//! needs), reports missing critical frames for retransmission, and at
//! window end produces the playout-order loss pattern plus the ACK
//! feedback of §4.2.

use espread_netsim::SimTime;
use espread_qos::LossPattern;

use crate::fec::{apply_fec_recovery, FragmentKey, ParityPacket};
use crate::feedback::WindowFeedback;
use crate::packetize::{Fragment, Ldu, Reassembly};

/// Data-path payloads: media fragments and FEC parity packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataPayload {
    /// A fragment of an LDU.
    Fragment(Fragment),
    /// An XOR parity packet.
    Parity(ParityPacket),
}

/// Per-window client state.
#[derive(Debug, Clone)]
pub struct ClientWindow {
    window: u64,
    reassembly: Reassembly,
    received_keys: Vec<FragmentKey>,
    parities: Vec<ParityPacket>,
    /// layer → slot → was any fragment of that slot's frame received?
    layer_slots_seen: Vec<Vec<bool>>,
    critical_frames: Vec<usize>,
    window_len: usize,
    /// When each frame finished reassembly (None while incomplete).
    completions: Vec<Option<SimTime>>,
}

/// The client's verdict on one finished window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// Playout-order delivery pattern after all recovery.
    pub pattern: LossPattern,
    /// The feedback to ACK back to the server.
    pub feedback: WindowFeedback,
    /// Number of fragments repaired by FEC.
    pub fec_recovered: usize,
    /// Per-frame reassembly-completion times (None = never completed).
    pub completions: Vec<Option<SimTime>>,
}

impl ClientWindow {
    /// Prepares the client for window `window` of `ldus`, with the layer
    /// sizes and critical-frame set it knows from initial negotiation
    /// (GOP pattern), at the negotiated packet size.
    pub fn new(
        window: u64,
        ldus: &[Ldu],
        layer_sizes: &[usize],
        critical_frames: Vec<usize>,
        packet_bytes: u32,
    ) -> Self {
        ClientWindow {
            window,
            reassembly: Reassembly::new(ldus, packet_bytes),
            received_keys: Vec::new(),
            parities: Vec::new(),
            layer_slots_seen: layer_sizes.iter().map(|&n| vec![false; n]).collect(),
            critical_frames,
            window_len: ldus.len(),
            completions: vec![None; ldus.len()],
        }
    }

    /// Accepts one data packet that arrived at time `now`. Packets for
    /// other windows are ignored (stale retransmissions).
    pub fn accept(&mut self, now: SimTime, payload: &DataPayload) {
        match payload {
            DataPayload::Fragment(f) => {
                if f.window != self.window {
                    return;
                }
                self.reassembly.accept(f);
                self.received_keys.push(f.into());
                if self.completions[f.frame].is_none() && self.reassembly.is_complete(f.frame) {
                    self.completions[f.frame] = Some(now);
                }
                let layer = usize::from(f.layer);
                let slot = usize::from(f.layer_slot);
                if let Some(row) = self.layer_slots_seen.get_mut(layer) {
                    if let Some(cell) = row.get_mut(slot) {
                        *cell = true;
                    }
                }
            }
            DataPayload::Parity(p) => {
                if p.window == self.window {
                    self.parities.push(p.clone());
                }
            }
        }
    }

    /// Critical frames still missing at least one fragment — the NACK the
    /// client sends after the critical phase.
    pub fn missing_critical(&self) -> Vec<usize> {
        self.critical_frames
            .iter()
            .copied()
            .filter(|&f| !self.reassembly.is_complete(f))
            .collect()
    }

    /// Finishes the window at time `now`: applies FEC recovery, derives
    /// the playout loss pattern, and assembles the feedback (per-layer
    /// worst loss burst in the transmission-slot domain). Frames completed
    /// only by FEC repair are stamped with `now` (repair happens at window
    /// close).
    pub fn finalize(mut self, now: SimTime) -> WindowOutcome {
        let _span = espread_telemetry::span("protocol.client.finalize_ns");
        let fec_recovered = apply_fec_recovery(
            &mut self.reassembly,
            &mut self.received_keys,
            &self.parities,
        );

        let completeness = self.reassembly.completeness();
        for (f, &complete) in completeness.iter().enumerate() {
            if complete && self.completions[f].is_none() {
                self.completions[f] = Some(now);
            }
        }
        let pattern = LossPattern::from_received(completeness.iter().copied());
        debug_assert_eq!(pattern.len(), self.window_len);

        let per_layer_burst = self
            .layer_slots_seen
            .iter()
            .map(|row| {
                // Longest run of un-seen transmission slots in this layer.
                let mut best = 0;
                let mut cur = 0;
                for &seen in row {
                    if seen {
                        cur = 0;
                    } else {
                        cur += 1;
                        best = best.max(cur);
                    }
                }
                best
            })
            .collect();

        WindowOutcome {
            pattern,
            feedback: WindowFeedback {
                window: self.window,
                per_layer_burst,
            },
            fec_recovered,
            completions: self.completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn frag(window: u64, frame: usize, layer: u8, layer_slot: u16) -> DataPayload {
        DataPayload::Fragment(Fragment {
            window,
            frame,
            frag: 0,
            frags_total: 1,
            layer,
            layer_slot,
            retransmit: false,
        })
    }

    fn small_window() -> ClientWindow {
        // 4 frames: frames 0,1 critical (layer 0), frames 2,3 layer 1.
        ClientWindow::new(0, &[Ldu::new(100); 4], &[2, 2], vec![0, 1], 2048)
    }

    #[test]
    fn tracks_missing_critical() {
        let mut c = small_window();
        assert_eq!(c.missing_critical(), vec![0, 1]);
        c.accept(T0, &frag(0, 0, 0, 0));
        assert_eq!(c.missing_critical(), vec![1]);
        c.accept(T0, &frag(0, 1, 0, 1));
        assert!(c.missing_critical().is_empty());
    }

    #[test]
    fn stale_window_packets_ignored() {
        let mut c = small_window();
        c.accept(T0, &frag(9, 0, 0, 0));
        assert_eq!(c.missing_critical(), vec![0, 1]);
    }

    #[test]
    fn finalize_reports_pattern_and_bursts() {
        let mut c = small_window();
        // Frame 0 (layer 0 slot 0) and frame 3 (layer 1 slot 1) arrive.
        c.accept(T0, &frag(0, 0, 0, 0));
        c.accept(T0, &frag(0, 3, 1, 1));
        let out = c.finalize(T0);
        assert_eq!(out.pattern.lost_indices(), vec![1, 2]);
        // Layer 0 missing slot 1 (run 1); layer 1 missing slot 0 (run 1).
        assert_eq!(out.feedback.per_layer_burst, vec![1, 1]);
        assert_eq!(out.fec_recovered, 0);
    }

    #[test]
    fn burst_runs_counted_in_slot_domain() {
        let mut c = ClientWindow::new(0, &[Ldu::new(100); 6], &[6], vec![], 2048);
        // Slots 1,2,3 missing → burst 3; slot 5 missing → run 1.
        for (frame, slot) in [(0usize, 0u16), (4, 4)] {
            c.accept(T0, &frag(0, frame, 0, slot));
        }
        let out = c.finalize(T0);
        assert_eq!(out.feedback.per_layer_burst, vec![3]);
    }

    #[test]
    fn multi_fragment_frames_complete_only_when_all_arrive() {
        let ldus = [Ldu::new(5000)]; // 3 fragments at 2048
        let mut c = ClientWindow::new(0, &ldus, &[1], vec![0], 2048);
        for fr in 0..2u16 {
            c.accept(
                T0,
                &DataPayload::Fragment(Fragment {
                    window: 0,
                    frame: 0,
                    frag: fr,
                    frags_total: 3,
                    layer: 0,
                    layer_slot: 0,
                    retransmit: false,
                }),
            );
        }
        assert_eq!(c.missing_critical(), vec![0]);
        c.accept(
            T0,
            &DataPayload::Fragment(Fragment {
                window: 0,
                frame: 0,
                frag: 2,
                frags_total: 3,
                layer: 0,
                layer_slot: 0,
                retransmit: false,
            }),
        );
        assert!(c.missing_critical().is_empty());
        let out = c.finalize(T0);
        assert_eq!(out.pattern.lost(), 0);
    }

    #[test]
    fn fec_parity_repairs_single_loss() {
        let mut c = ClientWindow::new(0, &[Ldu::new(100); 2], &[2], vec![], 2048);
        c.accept(T0, &frag(0, 0, 0, 0));
        c.accept(
            T0,
            &DataPayload::Parity(ParityPacket {
                window: 0,
                group: 0,
                members: vec![
                    FragmentKey { frame: 0, frag: 0 },
                    FragmentKey { frame: 1, frag: 0 },
                ],
                size_bytes: 100,
            }),
        );
        let out = c.finalize(T0);
        assert_eq!(out.fec_recovered, 1);
        assert_eq!(out.pattern.lost(), 0);
    }
}
