//! The Inverse Binary Order (IBO) baseline from the Berkeley CMT.
//!
//! CMT prioritises the B-frames of a buffer using the *Inverse Binary
//! Order* (attributed in the CMT code to Daishi Harada): frame priorities
//! follow the bit-reversed index sequence, so the first half of the order
//! samples the window at power-of-two strides. The paper's Table 2 compares
//! IBO against the CPO scrambled order on an 8-frame window and shows IBO's
//! CLF degrading once more than half the transmitted frames are lost.
//!
//! For a window of 8, IBO transmits playout indices
//! `0 4 2 6 1 5 3 7` (1-indexed in the paper: `01 05 03 07 02 06 04 08`).

use crate::permutation::Permutation;

/// The Inverse Binary Order over a window of `n` frames.
///
/// Indices are emitted in bit-reversed order of the smallest power of two
/// `≥ n`, skipping values outside the window — the natural generalisation
/// of CMT's power-of-two scheme to arbitrary window sizes.
///
/// # Example
///
/// ```
/// use espread_core::ibo::inverse_binary_order;
///
/// // Table 2 of the paper (0-indexed).
/// assert_eq!(inverse_binary_order(8).as_slice(), &[0, 4, 2, 6, 1, 5, 3, 7]);
/// // Non-power-of-two windows skip out-of-range values.
/// assert_eq!(inverse_binary_order(6).as_slice(), &[0, 4, 2, 1, 5, 3]);
/// ```
pub fn inverse_binary_order(n: usize) -> Permutation {
    if n <= 1 {
        return Permutation::identity(n);
    }
    let bits = usize::BITS - (n - 1).leading_zeros();
    let size = 1usize << bits;
    let mut forward = Vec::with_capacity(n);
    for t in 0..size {
        let rev = (t as u64).reverse_bits() >> (64 - bits) as u64;
        let idx = rev as usize;
        if idx < n {
            forward.push(idx);
        }
    }
    Permutation::from_vec(forward).expect("bit reversal is a bijection on 0..2^bits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::worst_case_clf;
    use crate::cache::calculate_permutation_cached;
    use crate::cpo::calculate_permutation;

    #[test]
    fn paper_table2_order() {
        assert_eq!(
            inverse_binary_order(8).as_slice(),
            &[0, 4, 2, 6, 1, 5, 3, 7]
        );
    }

    #[test]
    fn small_windows() {
        assert_eq!(inverse_binary_order(0).len(), 0);
        assert_eq!(inverse_binary_order(1).as_slice(), &[0]);
        assert_eq!(inverse_binary_order(2).as_slice(), &[0, 1]);
        assert_eq!(inverse_binary_order(4).as_slice(), &[0, 2, 1, 3]);
    }

    #[test]
    fn always_a_permutation() {
        for n in 0..70 {
            assert_eq!(inverse_binary_order(n).len(), n);
        }
    }

    #[test]
    fn ibo_good_below_half_window_losses() {
        // CMT's claim: as long as fewer than half the frames are lost, IBO
        // keeps the CLF low. For n = 8 and b ≤ 4, CLF stays ≤ 2.
        let ibo = inverse_binary_order(8);
        for b in 1..=4 {
            assert!(worst_case_clf(&ibo, b) <= 2, "b={b}");
        }
    }

    #[test]
    fn ibo_degrades_past_half_window() {
        // Table 2's pathological scenario: losing more than half the
        // window makes IBO's CLF jump while CPO stays at the bound. CPO is
        // no worse at any burst size, measured on the cached order the
        // protocol transmits.
        let n = 8;
        let ibo = inverse_binary_order(n);
        for b in 1..8 {
            let ibo_clf = worst_case_clf(&ibo, b);
            let cpo_clf = worst_case_clf(&calculate_permutation_cached(n, b).permutation, b);
            assert!(
                cpo_clf <= ibo_clf,
                "CPO must not be worse: b={b} cpo={cpo_clf} ibo={ibo_clf}"
            );
        }
        // At b = 6 the gap is strict: IBO loses a long run.
        assert!(worst_case_clf(&ibo, 6) > calculate_permutation(n, 6).worst_clf);
    }
}
