//! # A guided tour of error spreading
//!
//! This module contains no code — it is the long-form documentation a new
//! user reads once, then never again. Everything here links into the API.
//!
//! ## 1. The problem: bursty loss is perceptually expensive
//!
//! Best-effort networks drop packets in *runs*: a congested drop-tail
//! router discards whatever arrives while its buffer is full. For
//! continuous media the damage of a loss run grows super-linearly in the
//! viewer's eyes — the user study behind the paper found dissatisfaction
//! rising dramatically past **2 consecutive video frames** (3 for audio),
//! while the same number of losses *spread out* is barely noticed.
//!
//! The two numbers that capture this are the window metrics of
//! [`qos`](crate::qos):
//!
//! * **ALF** ([`Alf`](crate::qos::Alf)) — the fraction of a window lost;
//! * **CLF** ([`ContinuityMetrics::clf`](crate::qos::ContinuityMetrics::clf))
//!   — the longest run of consecutive losses.
//!
//! ## 2. The idea: permute, so bursts land spread out
//!
//! The sender buffers a window of `n` frames and transmits them in a
//! permuted order; the receiver restores playout order. A network burst of
//! `b` packets now hits frames that were *adjacent on the wire* but far
//! apart in playout. The ALF is untouched (same losses!) — only their
//! shape changes. That is the entire trick, and it costs **zero extra
//! bandwidth**; only sender/receiver buffering (one window each, §4.1 of
//! the paper) and start-up delay (one window).
//!
//! The right permutation matters. [`calculate_permutation`](crate::core::calculate_permutation)
//! searches structured families (cyclic strides, block interleavers) for
//! the order whose **worst-case CLF** over every burst placement —
//! [`worst_case_clf`](crate::core::worst_case_clf) — is minimal, with
//! provable brackets from the reconstructed Theorem 1
//! ([`theorem_one`](crate::core::theorem_one)): a burst of `b` in a window
//! of `n ≥ b²` can always be spread to **isolated** losses.
//!
//! ## 3. Dependent streams: permute within antichains
//!
//! MPEG frames are not interchangeable: B-frames are predicted from
//! anchors (I/P). Model the dependency as a poset
//! ([`GopPattern::dependency_poset`](crate::trace::GopPattern::dependency_poset));
//! then the sets you may permute are exactly its **antichains**, and the
//! minimum antichain decomposition — by Mirsky's theorem, as many layers
//! as the longest dependency chain — gives the paper's **Layered
//! Permutation Transmission Order** ([`LayeredOrder`](crate::core::LayeredOrder)):
//! all I's first, then the P₁'s, P₂'s, …, finally every B-frame, each
//! layer internally scrambled. Anchor layers are *critical* (their loss
//! cascades) and get retransmission or FEC; B layers rely on spreading
//! alone.
//!
//! ## 4. Adaptation: size the permutation from feedback
//!
//! The burst bound `b` is not known a priori. The protocol
//! ([`Session`](crate::protocol::Session)) has the client observe, per
//! layer and per window, the longest run of lost transmission slots, and
//! ACK it (sequence-numbered; stale ACKs ignored). The server folds it
//! into [`BurstEstimator`](crate::core::BurstEstimator) — the paper's
//! eq. (1), `b̂ᵢ₊₁ = ½bᵢ + ½b̂ᵢ` — and re-plans the next window. One
//! small ACK per window is the entire control overhead.
//!
//! ## 5. Composition: spreading is orthogonal to recovery
//!
//! Retransmission and FEC *reduce* loss at a bandwidth price; spreading
//! *reshapes* it for free. They compose: see
//! [`Recovery`](crate::protocol::Recovery) and the blocks A–F experiment.
//! Better still, spreading feeds receiver-side **concealment**
//! ([`Concealment`](crate::qos::Concealment)): interpolation repairs
//! isolated losses only, and spreading is precisely the machine that
//! isolates them.
//!
//! ## 6. Using the pieces
//!
//! * Full protocol over the simulator: [`protocol::Session`](crate::protocol::Session);
//!   [`Session::with_stream`](crate::protocol::Session::with_stream) adds
//!   a stream (audio + video) to the same channel.
//! * Just the reordering inside your own transport:
//!   [`core::Scrambler`](crate::core::Scrambler) /
//!   [`core::Descrambler`](crate::core::Descrambler).
//! * Just the math: [`core::calculate_permutation`](crate::core::calculate_permutation),
//!   [`core::theorem_one`](crate::core::theorem_one),
//!   [`core::min_window_for`](crate::core::cpo::min_window_for).
//! * Sizing: tolerance `k` and observed burst `b` →
//!   [`min_window_for`](crate::core::cpo::min_window_for) gives the buffer
//!   (and start-up delay) you must pay.
//!
//! ## 7. What to watch out for
//!
//! * **Window ≥ b².** Below that, isolated losses are unreachable and the
//!   guarantee degrades gracefully toward `⌈b/(n−b+1)⌉`.
//! * **Multiple bursts.** The single-burst optimum is not the multi-burst
//!   optimum (see `worst_case_clf_multi`); the adaptive estimator and the
//!   multi-scale tie-breaking in `calculate_permutation` exist for exactly
//!   this reason.
//! * **Latency.** Spreading itself adds no per-frame jitter (the window
//!   was buffered anyway), but it does cost one window of start-up delay —
//!   choose `W` against your interactivity budget
//!   ([`negotiate`](crate::protocol::negotiate) checks both).
