//! The Layered Permutation Transmission Order for dependent streams (§3).
//!
//! For a stream whose inter-frame dependency is the poset `P` (with `x < y`
//! meaning *y depends on x*), the paper's general solution is:
//!
//! 1. decompose `P` into a **minimum antichain decomposition** — one layer
//!    per level of the dependency hierarchy (for MPEG: all I-frames, all
//!    P₁'s, P₂'s, …, finally all B-frames; Fig. 3);
//! 2. transmit the layers in order of criticality — a layer is **critical**
//!    when other frames depend on its members (anchor layers), and critical
//!    layers travel first so they can be protected by retransmission / FEC;
//! 3. **permute each layer internally** with the error-spreading order
//!    `calculatePermutation(|layer|, b_layer)`, where `b_layer` is the
//!    (adaptively estimated) bursty-loss bound for that layer's window.
//!
//! The concatenated schedule is a linear extension of `P`, so a receiver
//! never needs a frame before its prerequisites were sent.

use espread_poset::Poset;

use crate::cache::calculate_permutation_cached;
use crate::cpo::OrderFamily;
use crate::permutation::Permutation;

/// One layer of a layered transmission schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlan {
    /// The frames of this layer, as playout indices in ascending order.
    frames: Vec<usize>,
    /// The within-layer transmission order (indices into `frames`).
    order: Permutation,
    /// Whether other frames depend on this layer's members.
    critical: bool,
    /// The burst bound the within-layer order was sized for.
    burst_bound: usize,
    /// The exact worst-case CLF of the within-layer order (in layer-local
    /// playout positions).
    worst_clf: usize,
    /// Which order family the permutation came from.
    family: OrderFamily,
}

impl LayerPlan {
    /// The frames of this layer (playout indices, ascending).
    pub fn frames(&self) -> &[usize] {
        &self.frames
    }

    /// The within-layer transmission order over `0..frames().len()`.
    pub fn order(&self) -> &Permutation {
        &self.order
    }

    /// Whether this is a critical (anchor) layer.
    pub fn is_critical(&self) -> bool {
        self.critical
    }

    /// The burst bound the order was computed for.
    pub fn burst_bound(&self) -> usize {
        self.burst_bound
    }

    /// Worst-case CLF of the within-layer order against its burst bound.
    pub fn worst_clf(&self) -> usize {
        self.worst_clf
    }

    /// The family the within-layer order came from.
    pub fn family(&self) -> OrderFamily {
        self.family
    }

    /// The layer's frames in the order they are transmitted.
    pub fn transmission_order(&self) -> Vec<usize> {
        self.order
            .as_slice()
            .iter()
            .map(|&i| self.frames[i])
            .collect()
    }

    /// Number of frames in the layer.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Returns `true` for an empty layer.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// A complete Layered Permutation Transmission Order for one buffer window.
///
/// # Example
///
/// Two GOP-like diamonds (I < P < B, I < B) sharing a buffer:
///
/// ```
/// use espread_core::LayeredOrder;
/// use espread_poset::Poset;
///
/// // 0,3 = I frames; 1,4 = P frames; 2,5 = B frames.
/// let mut b = Poset::builder(6);
/// for g in [0, 3] {
///     b.add_relation(g, g + 1)?;     // P depends on I
///     b.add_relation(g, g + 2)?;     // B depends on I
///     b.add_relation(g + 1, g + 2)?; // B depends on P
/// }
/// let poset = b.build()?;
///
/// let order = LayeredOrder::from_poset(&poset, |_, len| len / 2);
/// assert_eq!(order.layer_count(), 3);
/// assert!(order.layer(0).is_critical());   // I layer
/// assert!(!order.layer(2).is_critical());  // B layer
/// assert_eq!(order.layer(0).frames(), &[0, 3]);
/// assert!(poset.is_linear_extension(&order.transmission_sequence()));
/// # Ok::<(), espread_poset::PosetBuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeredOrder {
    layers: Vec<LayerPlan>,
    window_len: usize,
}

impl LayeredOrder {
    /// Builds the layered order for a dependency poset.
    ///
    /// Layers are the poset's depth decomposition (deepest/most-critical
    /// first — for MPEG: I, P₁, P₂, …, B). `burst_bound(layer_index,
    /// layer_len)` supplies the per-layer bursty-loss bound, typically from
    /// a [`BurstEstimator`](crate::estimator::BurstEstimator) fed by client
    /// feedback; it is clamped to the layer length.
    pub fn from_poset(
        poset: &Poset,
        mut burst_bound: impl FnMut(usize, usize) -> usize,
    ) -> LayeredOrder {
        let _span = espread_telemetry::span("core.layered_order.build_ns");
        let decomposition = poset.depth_decomposition();
        let mut layers = Vec::with_capacity(decomposition.len());
        for (idx, frames) in decomposition.into_iter().enumerate() {
            let critical = frames.iter().any(|&f| poset.upset_size(f) > 0);
            let b = burst_bound(idx, frames.len()).min(frames.len());
            let choice = calculate_permutation_cached(frames.len(), b);
            layers.push(LayerPlan {
                frames,
                order: choice.permutation.clone(),
                critical,
                burst_bound: b,
                worst_clf: choice.worst_clf,
                family: choice.family,
            });
        }
        LayeredOrder {
            layers,
            window_len: poset.len(),
        }
    }

    /// Builds the layered order with one uniform burst bound for every
    /// layer.
    pub fn with_uniform_bound(poset: &Poset, b: usize) -> LayeredOrder {
        Self::from_poset(poset, |_, _| b)
    }

    /// Number of layers (= the poset height, by Mirsky's theorem).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Access one layer plan.
    ///
    /// # Panics
    ///
    /// Panics if `idx ≥ layer_count()`.
    pub fn layer(&self, idx: usize) -> &LayerPlan {
        &self.layers[idx]
    }

    /// All layers, most critical first.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// The critical (anchor) layers.
    pub fn critical_layers(&self) -> impl Iterator<Item = &LayerPlan> {
        self.layers.iter().filter(|l| l.is_critical())
    }

    /// The non-critical layers (nothing depends on their frames).
    pub fn non_critical_layers(&self) -> impl Iterator<Item = &LayerPlan> {
        self.layers.iter().filter(|l| !l.is_critical())
    }

    /// Total number of frames in the window.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// The full transmission schedule: every frame of the window, layer by
    /// layer, each layer internally permuted.
    ///
    /// The result is always a linear extension of the source poset.
    pub fn transmission_sequence(&self) -> Vec<usize> {
        let mut seq = Vec::with_capacity(self.window_len);
        for layer in &self.layers {
            seq.extend(layer.transmission_order());
        }
        seq
    }

    /// The frame at global transmission position `slot`, if in range.
    pub fn frame_at_slot(&self, slot: usize) -> Option<usize> {
        let mut remaining = slot;
        for layer in &self.layers {
            if remaining < layer.len() {
                let local = layer.order.playout_of_slot(remaining);
                return Some(layer.frames[local]);
            }
            remaining -= layer.len();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_poset::PosetBuilder;

    /// Two open-GOP MPEG-like groups: I P1 P2 with B's between anchors.
    /// Frames in playout order: I0 B1 P2 B3 P4 B5 | I6 B7 P8 B9 P10 B11.
    fn two_gops() -> Poset {
        let mut b = PosetBuilder::new(12);
        for g in [0usize, 6] {
            // anchors: I=g, P1=g+2, P2=g+4
            b.add_relation(g, g + 2).unwrap();
            b.add_relation(g + 2, g + 4).unwrap();
            // B1 between I and P1
            b.add_relation(g, g + 1).unwrap();
            b.add_relation(g + 2, g + 1).unwrap();
            // B3 between P1 and P2
            b.add_relation(g + 2, g + 3).unwrap();
            b.add_relation(g + 4, g + 3).unwrap();
        }
        // Open GOP: B5 depends on GOP0's P2 and GOP1's I.
        b.add_relation(4, 5).unwrap();
        b.add_relation(6, 5).unwrap();
        // Final B11 depends only on P2 of GOP1 (end of buffer).
        b.add_relation(10, 11).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn mpeg_layers_group_anchor_positions() {
        let p = two_gops();
        let order = LayeredOrder::with_uniform_bound(&p, 2);
        // Depth layering: I's, P1's, P2's, then all B's.
        assert_eq!(order.layer_count(), 4);
        assert_eq!(order.layer(0).frames(), &[0, 6]);
        assert_eq!(order.layer(1).frames(), &[2, 8]);
        assert_eq!(order.layer(2).frames(), &[4, 10]);
        assert_eq!(order.layer(3).frames(), &[1, 3, 5, 7, 9, 11]);
    }

    #[test]
    fn criticality_flags() {
        let p = two_gops();
        let order = LayeredOrder::with_uniform_bound(&p, 2);
        assert!(order.layer(0).is_critical());
        assert!(order.layer(1).is_critical());
        assert!(order.layer(2).is_critical());
        assert!(!order.layer(3).is_critical());
        assert_eq!(order.critical_layers().count(), 3);
        assert_eq!(order.non_critical_layers().count(), 1);
    }

    #[test]
    fn schedule_is_linear_extension() {
        let p = two_gops();
        for b in 0..6 {
            let order = LayeredOrder::with_uniform_bound(&p, b);
            let seq = order.transmission_sequence();
            assert_eq!(seq.len(), 12);
            assert!(p.is_linear_extension(&seq), "b={b} seq={seq:?}");
        }
    }

    #[test]
    fn b_layer_is_spread() {
        let p = two_gops();
        let order = LayeredOrder::with_uniform_bound(&p, 2);
        let b_layer = order.layer(3);
        assert_eq!(b_layer.burst_bound(), 2);
        // 6 frames against bursts of 2: spreading keeps CLF at 1.
        assert_eq!(b_layer.worst_clf(), 1);
        // The transmission order is not the identity.
        let tx = b_layer.transmission_order();
        assert_ne!(tx, b_layer.frames());
    }

    #[test]
    fn frame_at_slot_matches_sequence() {
        let p = two_gops();
        let order = LayeredOrder::with_uniform_bound(&p, 3);
        let seq = order.transmission_sequence();
        for (slot, &frame) in seq.iter().enumerate() {
            assert_eq!(order.frame_at_slot(slot), Some(frame));
        }
        assert_eq!(order.frame_at_slot(seq.len()), None);
    }

    #[test]
    fn per_layer_bounds_respected() {
        let p = two_gops();
        let order = LayeredOrder::from_poset(&p, |idx, len| if idx == 3 { 4 } else { len });
        assert_eq!(order.layer(3).burst_bound(), 4);
        // Bounds are clamped to the layer length.
        assert_eq!(order.layer(0).burst_bound(), 2);
    }

    #[test]
    fn independent_stream_collapses_to_single_layer() {
        // MJPEG/audio: no dependencies → one non-critical layer, pure CPO.
        let p = Poset::antichain(10);
        let order = LayeredOrder::with_uniform_bound(&p, 3);
        assert_eq!(order.layer_count(), 1);
        assert!(!order.layer(0).is_critical());
        assert_eq!(order.layer(0).len(), 10);
        assert_eq!(order.layer(0).worst_clf(), 1); // 3² ≤ 10
    }

    #[test]
    fn empty_poset_empty_schedule() {
        let p = Poset::antichain(0);
        let order = LayeredOrder::with_uniform_bound(&p, 2);
        assert_eq!(order.layer_count(), 0);
        assert!(order.transmission_sequence().is_empty());
        assert_eq!(order.window_len(), 0);
        assert_eq!(order.frame_at_slot(0), None);
    }
}
