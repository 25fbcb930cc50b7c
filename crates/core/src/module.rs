//! Error spreading as a plug-in module (§4.3).
//!
//! "It is possible to build an error spreading module … independent of any
//! other error handling protocol": the sender drains its frames through a
//! [`Scrambler`] instead of sending directly, and the receiver routes
//! arrivals through a [`Descrambler`] before delivery to the application.
//! Neither side's base protocol changes; the pair is transparent on a
//! lossless path and spreads bursts on a lossy one.
//!
//! The scrambler buffers one window of items, emits them in the
//! error-spreading order, and re-plans each window from a burst-bound
//! callback (wire it to a [`BurstEstimator`](crate::estimator) fed by
//! receiver feedback for the adaptive behaviour of §4.2).

use crate::cpo::calculate_permutation;
use crate::permutation::Permutation;

/// A scrambled item: the payload plus the metadata the descrambler needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrambled<T> {
    /// Which window the item belongs to.
    pub window: u64,
    /// The item's playout position within its window.
    pub playout: usize,
    /// The item's transmission slot within its window.
    pub slot: usize,
    /// The payload.
    pub item: T,
}

/// Sender-side spreading module: buffers a window, emits it permuted.
///
/// # Example
///
/// ```
/// use espread_core::module::{Descrambler, Scrambler};
///
/// let mut tx = Scrambler::new(6, |_| 2); // windows of 6, burst bound 2
/// let mut rx = Descrambler::new(6);
///
/// let mut delivered = Vec::new();
/// for item in 0..12u32 {
///     if let Some(window) = tx.push(item) {
///         let w = window[0].window;
///         for s in window {
///             rx.accept(s); // the network may drop some of these
///         }
///         delivered.extend(rx.take_window(w).unwrap().into_iter().flatten());
///     }
/// }
/// assert_eq!(delivered, (0..12).collect::<Vec<u32>>()); // transparent
/// ```
#[derive(Debug, Clone)]
pub struct Scrambler<T> {
    window_len: usize,
    next_window: u64,
    buffer: Vec<T>,
    burst_bound: fn(u64) -> usize,
}

impl<T> Scrambler<T> {
    /// Creates a scrambler for windows of `window_len` items; `burst_bound`
    /// supplies the per-window bursty-loss bound (its argument is the
    /// window number, so adaptive callers can vary it over time).
    ///
    /// # Panics
    ///
    /// Panics if `window_len == 0`.
    pub fn new(window_len: usize, burst_bound: fn(u64) -> usize) -> Self {
        assert!(window_len > 0, "window must hold at least one item");
        Scrambler {
            window_len,
            next_window: 0,
            buffer: Vec::with_capacity(window_len),
            burst_bound,
        }
    }

    /// The window length.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Items buffered towards the current window.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Adds one item in playout order; returns the full window in
    /// transmission order once it fills.
    pub fn push(&mut self, item: T) -> Option<Vec<Scrambled<T>>> {
        self.buffer.push(item);
        if self.buffer.len() < self.window_len {
            return None;
        }
        Some(self.emit())
    }

    /// Emits any partially filled window (e.g. at end of stream),
    /// permuted within its shorter length. Returns `None` when empty.
    pub fn flush(&mut self) -> Option<Vec<Scrambled<T>>> {
        if self.buffer.is_empty() {
            None
        } else {
            Some(self.emit())
        }
    }

    fn emit(&mut self) -> Vec<Scrambled<T>> {
        let window = self.next_window;
        self.next_window += 1;
        let items = std::mem::take(&mut self.buffer);
        let n = items.len();
        let b = (self.burst_bound)(window).clamp(1, n);
        let perm = calculate_permutation(n, b).permutation;
        let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
        perm.as_slice()
            .iter()
            .enumerate()
            .map(|(slot, &playout)| Scrambled {
                window,
                playout,
                slot,
                item: slots[playout].take().expect("each playout index used once"),
            })
            .collect()
    }

    /// The permutation the scrambler would use for a full window number
    /// `window` (for receivers that want to predict slots).
    pub fn permutation_for(&self, window: u64) -> Permutation {
        let b = (self.burst_bound)(window).clamp(1, self.window_len);
        calculate_permutation(self.window_len, b).permutation
    }
}

/// Receiver-side module: collects scrambled arrivals (any order, with
/// gaps) and hands back windows in playout order.
#[derive(Debug, Clone)]
pub struct Descrambler<T> {
    window_len: usize,
    /// (window, slots) for windows still being collected.
    open: Vec<(u64, Vec<Option<T>>, usize)>,
}

impl<T> Descrambler<T> {
    /// Creates a descrambler for windows of `window_len` items.
    ///
    /// # Panics
    ///
    /// Panics if `window_len == 0`.
    pub fn new(window_len: usize) -> Self {
        assert!(window_len > 0, "window must hold at least one item");
        Descrambler {
            window_len,
            open: Vec::new(),
        }
    }

    /// Accepts one scrambled arrival. Duplicate (window, playout) pairs
    /// keep the first copy.
    ///
    /// # Panics
    ///
    /// Panics if the playout index exceeds the window length.
    pub fn accept(&mut self, scrambled: Scrambled<T>) {
        assert!(
            scrambled.playout < self.window_len,
            "playout index {} out of window {}",
            scrambled.playout,
            self.window_len
        );
        let entry = match self
            .open
            .iter_mut()
            .find(|(w, _, _)| *w == scrambled.window)
        {
            Some(entry) => entry,
            None => {
                self.open.push((
                    scrambled.window,
                    (0..self.window_len).map(|_| None).collect(),
                    0,
                ));
                self.open.last_mut().expect("just pushed")
            }
        };
        if entry.1[scrambled.playout].is_none() {
            entry.1[scrambled.playout] = Some(scrambled.item);
            entry.2 += 1;
        }
    }

    /// Windows with at least one arrival, ascending.
    pub fn completed_windows(&self) -> Vec<u64> {
        let mut ws: Vec<u64> = self.open.iter().map(|(w, _, _)| *w).collect();
        ws.sort_unstable();
        ws
    }

    /// Number of items received so far for `window`.
    pub fn received_count(&self, window: u64) -> usize {
        self.open
            .iter()
            .find(|(w, _, _)| *w == window)
            .map(|(_, _, count)| *count)
            .unwrap_or(0)
    }

    /// Removes and returns `window` in playout order (`None` entries are
    /// the losses). Returns `None` if the window was never seen.
    pub fn take_window(&mut self, window: u64) -> Option<Vec<Option<T>>> {
        let idx = self.open.iter().position(|(w, _, _)| *w == window)?;
        let (_, slots, _) = self.open.swap_remove(idx);
        Some(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_without_loss_is_transparent() {
        let mut tx = Scrambler::new(8, |_| 3);
        let mut rx = Descrambler::new(8);
        let mut out = Vec::new();
        for item in 0..24 {
            if let Some(window) = tx.push(item) {
                let w = window[0].window;
                // The wire order differs from playout order.
                let wire: Vec<i32> = window.iter().map(|s| s.item).collect();
                assert_ne!(wire, (w as i32 * 8..w as i32 * 8 + 8).collect::<Vec<_>>());
                for s in window {
                    rx.accept(s);
                }
                out.extend(rx.take_window(w).unwrap().into_iter().flatten());
            }
        }
        assert_eq!(out, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn one_full_window_round_trips() {
        let mut rx = Descrambler::new(12);
        let mut tx = Scrambler::new(12, |_| 4);
        let window = (0..12).fold(None, |_, i| tx.push(i)).expect("full window");
        for s in window {
            rx.accept(s);
        }
        let restored: Vec<i32> = rx.take_window(0).unwrap().into_iter().flatten().collect();
        assert_eq!(restored, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn bursts_on_the_wire_spread_in_playout() {
        let mut tx = Scrambler::new(16, |_| 4);
        let mut rx = Descrambler::new(16);
        let window = (0..16).fold(None, |_, i| tx.push(i)).expect("window full");
        // Drop 4 consecutive wire slots.
        for s in window.into_iter().filter(|s| !(5..9).contains(&s.slot)) {
            rx.accept(s);
        }
        let playout = rx.take_window(0).unwrap();
        let lost: Vec<usize> = playout
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        assert_eq!(lost.len(), 4);
        // No two lost items adjacent: the burst was spread (16 ≥ 4²).
        for w in lost.windows(2) {
            assert!(w[1] - w[0] >= 2, "adjacent losses {lost:?}");
        }
    }

    #[test]
    fn flush_emits_short_tail_window() {
        let mut tx = Scrambler::new(10, |_| 2);
        for i in 0..7 {
            assert!(tx.push(i).is_none());
        }
        let tail = tx.flush().expect("partial window");
        assert_eq!(tail.len(), 7);
        assert!(tx.flush().is_none());
        // All playout indices 0..7 present exactly once.
        let mut seen: Vec<usize> = tail.iter().map(|s| s.playout).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_for_matches_calculate_permutation() {
        // (The multi-scale tie-break may select the same robust order for
        // different bounds — what matters is agreement with the planner.)
        let tx: Scrambler<u32> = Scrambler::new(16, |w| if w == 0 { 2 } else { 8 });
        assert_eq!(
            tx.permutation_for(0),
            calculate_permutation(16, 2).permutation
        );
        assert_eq!(
            tx.permutation_for(1),
            calculate_permutation(16, 8).permutation
        );
        // Out-of-range bounds are clamped to the window.
        let tx: Scrambler<u32> = Scrambler::new(4, |_| 99);
        assert_eq!(tx.permutation_for(0).len(), 4);
    }

    #[test]
    fn descrambler_tracks_windows_and_duplicates() {
        let mut rx = Descrambler::new(4);
        rx.accept(Scrambled {
            window: 3,
            playout: 1,
            slot: 0,
            item: "a",
        });
        rx.accept(Scrambled {
            window: 3,
            playout: 1,
            slot: 2,
            item: "dup",
        });
        rx.accept(Scrambled {
            window: 5,
            playout: 0,
            slot: 0,
            item: "b",
        });
        assert_eq!(rx.completed_windows(), vec![3, 5]);
        assert_eq!(rx.received_count(3), 1);
        let w3 = rx.take_window(3).unwrap();
        assert_eq!(w3[1], Some("a")); // first copy kept
        assert!(rx.take_window(3).is_none());
        assert_eq!(rx.received_count(9), 0);
    }

    #[test]
    #[should_panic(expected = "out of window")]
    fn out_of_range_playout_rejected() {
        let mut rx: Descrambler<()> = Descrambler::new(4);
        rx.accept(Scrambled {
            window: 0,
            playout: 9,
            slot: 0,
            item: (),
        });
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_window_rejected() {
        let _: Scrambler<u8> = Scrambler::new(0, |_| 1);
    }
}
