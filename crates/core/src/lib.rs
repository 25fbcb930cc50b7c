//! Error spreading: permutation-based bursty-loss dispersal for continuous
//! media streaming.
//!
//! This crate is the primary contribution of
//! *"An Adaptive, Perception-Driven Error Spreading Scheme in Continuous
//! Media Streaming"* (Varadarajan, Ngo & Srivastava, ICDCS 2000): a
//! transformation that **permutes the frames of each sender-buffer window
//! before transmission** and un-permutes them at the receiver, so that a
//! bursty network loss lands on frames that are far apart in playout order.
//! Bursty loss (high CLF — the perceptually damaging kind) is traded for
//! spread-out loss (higher tolerated ALF) at **zero extra bandwidth**.
//!
//! The crate provides:
//!
//! * [`Permutation`] — validated transmission orders with apply/unapply;
//! * [`worst_case_clf`] / [`burst_loss_pattern`] — exact adversarial
//!   analysis of an order against single bursts of bounded size;
//! * [`calculate_permutation`] — the paper's `calculatePermutation(n, b)`:
//!   the optimal spreading order for a window of `n` under burst bound `b`
//!   (exact search over cyclic strides, block interleavers, and — for tiny
//!   windows — all orders);
//! * [`bounds`] — the reconstructed Theorem 1 (min supportable CLF);
//! * [`LayeredOrder`] — the Layered Permutation Transmission Order for
//!   streams with inter-frame dependency (MPEG), built on
//!   [`espread_poset`];
//! * [`BurstEstimator`] — the adaptive exponential-averaging loss
//!   estimator of eq. (1);
//! * [`ibo`] — CMT's Inverse Binary Order, the baseline of Table 2.
//!
//! # Quick start
//!
//! ```
//! use espread_core::{calculate_permutation, worst_case_clf, Permutation};
//!
//! // A 17-frame sender buffer facing bursts of up to 5 packets (Table 1).
//! let choice = calculate_permutation(17, 5);
//! assert_eq!(choice.worst_clf, 1);
//!
//! // The same burst against in-order transmission wipes 5 consecutive frames.
//! assert_eq!(worst_case_clf(&Permutation::identity(17), 5), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod burst;
pub mod cache;
pub mod cpo;
pub mod estimator;
pub mod ibo;
pub mod interleave;
pub mod layered;
pub mod module;
pub mod permutation;
pub mod stochastic;

pub use bounds::{clf_lower_bound, theorem_one, TheoremOneBound};
pub use burst::{
    burst_clf, burst_loss_pattern, clf_profile, multi_burst_lower_bound, try_burst_clf,
    try_burst_loss_pattern, worst_case_clf, worst_case_clf_multi,
};
pub use cache::{
    calculate_permutation_cached, spread_cache_stats, CacheStats, OrderCache,
    DEFAULT_CACHE_CAPACITY,
};
pub use cpo::{
    calculate_permutation, k_cpo, k_cpo_cached, max_tolerable_burst, min_window_for, OrderFamily,
    SpreadChoice,
};
pub use estimator::{BurstEstimator, ObservationError};
pub use layered::{LayerPlan, LayeredOrder};
pub use module::{Descrambler, Scrambled, Scrambler};
pub use permutation::{Permutation, PermutationError};
pub use stochastic::{monte_carlo_clf, monte_carlo_series, rank_orders, rank_orders_by};
