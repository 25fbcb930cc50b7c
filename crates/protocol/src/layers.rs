//! Per-window transmission plans for the three orderings under comparison.
//!
//! Whatever the ordering, every frame of the window is labelled with a
//! **(layer, layer_slot)** pair derived from the dependency poset's depth
//! decomposition — the client uses those labels to observe per-layer loss
//! bursts in the transmission domain. The orderings differ in the global
//! send sequence:
//!
//! * [`Ordering::Spread`]: critical layers first (each under a fixed
//!   conservative permutation), then non-critical layers permuted by
//!   `calculatePermutation(len, b̂)` with the adaptive estimate — the
//!   paper's §4.2 protocol;
//! * [`Ordering::Ibo`]: same layering, anchors in playout order, B-layers
//!   in CMT's Inverse Binary Order — the §4.4 baseline;
//! * [`Ordering::InOrder`]: plain playout order (the "usual MPEG
//!   transmission model"), layer labels kept for bookkeeping.

use espread_core::{
    calculate_permutation_cached, ibo::inverse_binary_order, try_burst_clf, Permutation,
};
use espread_poset::Poset;

use crate::config::Ordering;

/// One frame in the send sequence, with its layer labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFrame {
    /// Playout index within the window.
    pub frame: usize,
    /// Layer index (0 = most critical).
    pub layer: u8,
    /// Transmission slot within the layer.
    pub layer_slot: u16,
}

/// Static description of one layer of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerInfo {
    /// The layer's frames (playout indices, ascending).
    pub frames: Vec<usize>,
    /// Whether other frames depend on this layer.
    pub critical: bool,
    /// The burst bound its permutation was sized for.
    pub burst_bound: usize,
    /// The within-layer transmission order: entry `slot` is the
    /// layer-local playout index sent at that layer slot.
    pub order: Vec<usize>,
}

impl LayerInfo {
    /// The CLF (in layer-local playout positions) a burst over this
    /// layer's transmission slots `start .. start + len` would cause under
    /// the layer's order. Out-of-window bursts are truncated (feedback can
    /// report a burst straddling the window boundary); returns `None` for
    /// a burst entirely outside the layer.
    pub fn projected_clf(&self, start: usize, len: usize) -> Option<usize> {
        let perm = Permutation::from_vec(self.order.clone()).ok()?;
        try_burst_clf(&perm, start, len)
    }
}

/// A complete send plan for one buffer window.
///
/// Besides the public schedule and layer table, a plan carries summaries
/// [`WindowPlan::build`] derives once — the sorted critical frames, the
/// layer sizes and each layer's inverse order — so a plan reused across
/// windows (see [`crate::Server::plan_window`]) answers them without
/// allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPlan {
    /// Frames in the order they are offered to the network.
    pub schedule: Vec<ScheduledFrame>,
    /// Layer metadata, most critical first.
    pub layers: Vec<LayerInfo>,
    /// Number of leading schedule entries forming the critical phase
    /// (after which a NACK/retransmission round can run). For
    /// [`Ordering::InOrder`] this is the whole schedule — the classical
    /// scheme can only react after sending everything.
    pub critical_prefix: usize,
    /// Frames of the critical layers, in playout order.
    critical: Vec<usize>,
    /// `layers[l].frames.len()` for every layer.
    sizes: Vec<usize>,
    /// Per layer, the inverse of its order: entry `p` is the layer slot
    /// that carries layer-local playout position `p`.
    slot_of: Vec<Vec<usize>>,
}

impl WindowPlan {
    /// Builds the plan for a window whose dependencies are `poset`, under
    /// `ordering`, with per-layer burst estimates `estimates` (missing
    /// entries default to half the layer length).
    pub fn build(ordering: Ordering, poset: &Poset, estimates: &[usize]) -> WindowPlan {
        let bound_for = |idx: usize, len: usize, critical: bool, adaptive: bool| -> usize {
            if len == 0 {
                return 0;
            }
            if critical || !adaptive {
                // Fixed conservative permutation for critical layers
                // (§4.2: "uses a fixed permutation for critical layers").
                (len / 2).max(1)
            } else {
                estimates
                    .get(idx)
                    .copied()
                    .unwrap_or((len / 2).max(1))
                    .clamp(1, len)
            }
        };

        let adaptive = ordering.is_adaptive();
        let decomposition = poset.depth_decomposition();
        let is_critical: Vec<bool> = decomposition
            .iter()
            .map(|layer| layer.iter().any(|&f| poset.upset_size(f) > 0))
            .collect();

        let mut layers: Vec<LayerInfo> = Vec::with_capacity(decomposition.len());
        for (idx, frames) in decomposition.iter().enumerate() {
            let len = frames.len();
            let critical = is_critical[idx];
            let (order, bound): (Vec<usize>, usize) = match ordering {
                Ordering::InOrder => ((0..len).collect(), 0),
                Ordering::Spread { .. } => {
                    let b = bound_for(idx, len, critical, adaptive);
                    (
                        calculate_permutation_cached(len, b)
                            .permutation
                            .as_slice()
                            .to_vec(),
                        b,
                    )
                }
                Ordering::Ibo => {
                    if critical {
                        ((0..len).collect(), 0)
                    } else {
                        (inverse_binary_order(len).as_slice().to_vec(), 0)
                    }
                }
            };
            layers.push(LayerInfo {
                frames: frames.clone(),
                critical,
                burst_bound: bound,
                order,
            });
        }

        // Assemble the global schedule.
        let mut schedule = Vec::with_capacity(poset.len());
        match ordering {
            Ordering::InOrder => {
                // Decode order — the "usual MPEG transmission model": each
                // frame as early as its prerequisites allow, smallest
                // playout index first. (Raw playout order would send
                // B-frames before the anchors they are predicted from.)
                // For dependency-free streams this is plain playout order.
                let mut label = vec![(0u8, 0u16); poset.len()];
                for (l, frames) in decomposition.iter().enumerate() {
                    for (slot, &f) in frames.iter().enumerate() {
                        label[f] = (l as u8, slot as u16);
                    }
                }
                for frame in poset.linear_extension() {
                    let (layer, layer_slot) = label[frame];
                    schedule.push(ScheduledFrame {
                        frame,
                        layer,
                        layer_slot,
                    });
                }
            }
            Ordering::Spread { .. } | Ordering::Ibo => {
                for (l, info) in layers.iter().enumerate() {
                    for (slot, &local) in info.order.iter().enumerate() {
                        schedule.push(ScheduledFrame {
                            frame: decomposition[l][local],
                            layer: l as u8,
                            layer_slot: slot as u16,
                        });
                    }
                }
            }
        }

        let mut critical: Vec<usize> = layers
            .iter()
            .filter(|l| l.critical)
            .flat_map(|l| l.frames.iter().copied())
            .collect();
        critical.sort_unstable();
        let critical_prefix = match ordering {
            Ordering::InOrder => schedule.len(),
            _ => critical.len(),
        };
        let sizes = layers.iter().map(|l| l.frames.len()).collect();
        let slot_of = layers
            .iter()
            .map(|l| {
                let mut inverse = vec![0; l.order.len()];
                for (slot, &local) in l.order.iter().enumerate() {
                    inverse[local] = slot;
                }
                inverse
            })
            .collect();

        WindowPlan {
            schedule,
            layers,
            critical_prefix,
            critical,
            sizes,
            slot_of,
        }
    }

    /// Number of frames in the window.
    pub fn window_len(&self) -> usize {
        self.schedule.len()
    }

    /// Frames belonging to critical layers, in playout order.
    pub fn critical_frames(&self) -> std::iter::Copied<std::slice::Iter<'_, usize>> {
        self.critical.iter().copied()
    }

    /// The sizes of all layers, in layer order (what the client needs to
    /// size its per-layer slot tables).
    pub fn layer_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The worst CLF this plan's orders admit if each layer's burst in
    /// `observed_bursts` recurred at its least favourable slot: the
    /// maximum over layers with a nonzero burst `b` of the maximum over
    /// every start of [`LayerInfo::projected_clf`]`(start, b)`, bursts
    /// truncated at the layer end. `None` when no layer has a nonzero
    /// burst and frames to lose. Reads the precomputed inverse orders,
    /// so it neither allocates nor re-validates a permutation.
    pub fn worst_projected_clf(&self, observed_bursts: &[usize]) -> Option<usize> {
        self.slot_of
            .iter()
            .zip(observed_bursts)
            .filter(|&(_, &b)| b > 0)
            .filter_map(|(slot_of, &b)| {
                let n = slot_of.len();
                (0..n)
                    .map(|start| {
                        // Playout positions whose slot the burst covers,
                        // scanned in playout order: the longest run of
                        // covered positions is the burst's CLF.
                        let lost = start..start.saturating_add(b).min(n);
                        let (mut run, mut worst) = (0, 0);
                        for slot in slot_of {
                            run = if lost.contains(slot) { run + 1 } else { 0 };
                            worst = worst.max(run);
                        }
                        worst
                    })
                    .max()
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_trace::GopPattern;

    fn poset2() -> Poset {
        GopPattern::gop12().dependency_poset(2, false)
    }

    #[test]
    fn spread_plan_covers_window_and_prefixes_critical() {
        let poset = poset2();
        let plan = WindowPlan::build(Ordering::spread(), &poset, &[2, 2, 2, 2, 3]);
        assert_eq!(plan.window_len(), 24);
        // All frames exactly once.
        let mut seen: Vec<usize> = plan.schedule.iter().map(|s| s.frame).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
        // 5 layers: I, P1, P2, P3 critical; B layer not.
        assert_eq!(plan.layers.len(), 5);
        assert_eq!(plan.critical_prefix, 8); // 2 GOPs × 4 anchors
        assert_eq!(plan.critical_frames().len(), 8);
        // The schedule is a linear extension of the dependency poset.
        let order: Vec<usize> = plan.schedule.iter().map(|s| s.frame).collect();
        assert!(poset.is_linear_extension(&order));
    }

    #[test]
    fn in_order_plan_is_decode_order() {
        let poset = poset2();
        let plan = WindowPlan::build(Ordering::InOrder, &poset, &[]);
        let order: Vec<usize> = plan.schedule.iter().map(|s| s.frame).collect();
        // MPEG decode order: each frame as early as its anchors allow.
        // GOP 12 (IBBPBBPBBPBB): I0 P3 B1 B2 P6 B4 B5 P9 B7 B8 B10 B11* …
        assert_eq!(order[..7], [0, 3, 1, 2, 6, 4, 5]);
        assert!(poset.is_linear_extension(&order));
        // Classical scheme: NACK only after everything is sent.
        assert_eq!(plan.critical_prefix, 24);
        // Layer labels still present and consistent.
        assert_eq!(plan.layer_sizes(), vec![2, 2, 2, 2, 16]);
    }

    #[test]
    fn ibo_plan_orders_b_layer_by_bit_reversal() {
        let poset = poset2();
        let plan = WindowPlan::build(Ordering::Ibo, &poset, &[]);
        // Anchors in playout order.
        let anchors: Vec<usize> = plan.schedule[..8].iter().map(|s| s.frame).collect();
        assert_eq!(anchors, vec![0, 12, 3, 15, 6, 18, 9, 21]);
        // B layer (16 frames) in IBO of its local indices.
        let b_frames: Vec<usize> = plan.schedule[8..].iter().map(|s| s.frame).collect();
        let b_layer = &plan.layers[4].frames;
        let expected: Vec<usize> = inverse_binary_order(16)
            .as_slice()
            .iter()
            .map(|&i| b_layer[i])
            .collect();
        assert_eq!(b_frames, expected);
    }

    #[test]
    fn adaptive_estimates_feed_non_critical_layers() {
        let poset = poset2();
        let a = WindowPlan::build(Ordering::spread(), &poset, &[1, 1, 1, 1, 2]);
        let b = WindowPlan::build(Ordering::spread(), &poset, &[1, 1, 1, 1, 7]);
        assert_eq!(a.layers[4].burst_bound, 2);
        assert_eq!(b.layers[4].burst_bound, 7);
        // Critical layers ignore the estimates (fixed permutation).
        assert_eq!(a.layers[0].burst_bound, 1); // len 2 / 2
        assert_eq!(b.layers[0].burst_bound, 1);
    }

    #[test]
    fn fixed_spread_ignores_estimates() {
        let poset = poset2();
        let fixed = Ordering::Spread { adaptive: false };
        let a = WindowPlan::build(fixed, &poset, &[1, 1, 1, 1, 2]);
        let b = WindowPlan::build(fixed, &poset, &[1, 1, 1, 1, 9]);
        assert_eq!(a.layers[4].burst_bound, 8); // 16 / 2
        assert_eq!(a, b);
    }

    #[test]
    fn estimates_clamped_to_layer_length() {
        let poset = poset2();
        let plan = WindowPlan::build(Ordering::spread(), &poset, &[9, 9, 9, 9, 99]);
        assert_eq!(plan.layers[4].burst_bound, 16);
    }

    /// `worst_projected_clf` against its definition — the maximum over
    /// every start of [`LayerInfo::projected_clf`] — for every layer
    /// length up to 40, every sizing bound and every burst length,
    /// including bursts longer than the layer.
    #[test]
    fn worst_projected_clf_matches_the_per_start_projection_exhaustively() {
        for n in 0..=40 {
            let poset = Poset::antichain(n);
            for bound in 1..=n.max(1) {
                let plan = WindowPlan::build(Ordering::spread(), &poset, &[bound]);
                let layer = plan.layers.first();
                assert_eq!(layer.map(|l| l.burst_bound), (n > 0).then_some(bound));
                for b in 0..=n + 3 {
                    let expected = layer
                        .filter(|_| b > 0)
                        .and_then(|l| (0..n).filter_map(|s| l.projected_clf(s, b)).max());
                    assert_eq!(
                        plan.worst_projected_clf(&[b]),
                        expected,
                        "n={n} bound={bound} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn layer_slots_are_dense_and_unique() {
        let poset = poset2();
        for ordering in [Ordering::spread(), Ordering::InOrder, Ordering::Ibo] {
            let plan = WindowPlan::build(ordering, &poset, &[2; 5]);
            for (l, info) in plan.layers.iter().enumerate() {
                let mut slots: Vec<u16> = plan
                    .schedule
                    .iter()
                    .filter(|s| usize::from(s.layer) == l)
                    .map(|s| s.layer_slot)
                    .collect();
                slots.sort_unstable();
                let expected: Vec<u16> = (0..info.frames.len() as u16).collect();
                assert_eq!(slots, expected, "{ordering} layer {l}");
            }
        }
    }
}
