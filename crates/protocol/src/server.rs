//! Server-side protocol state: adaptive per-layer estimators and window
//! planning.
//!
//! At the start of each buffer window the server folds the freshest ACK
//! (highest sequence number, §4.2) into its per-layer exponential-averaging
//! estimators (eq. 1) and generates the window's transmission plan.
//!
//! The rounded estimates revisit the same handful of values constantly,
//! across windows and across sessions, so plans come from one
//! process-wide cache keyed by everything a plan is built from (see
//! [`plan_cache_stats`]). A server keeps its last plan: a window whose
//! estimates did not move reuses it without touching the cache.

use std::sync::{Arc, OnceLock};

use espread_core::{BurstEstimator, CacheStats, OrderCache};
use espread_poset::Poset;

use crate::config::{Ordering, ProtocolConfig};
use crate::feedback::{AckTracker, WindowFeedback};
use crate::layers::WindowPlan;

/// One applied adaptation step: the feedback that triggered it and how the
/// per-layer estimates moved. Plain data, so callers can observe
/// adaptation without reading the telemetry event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptationRecord {
    /// The window the triggering feedback described.
    pub feedback_window: u64,
    /// Per-layer burst observations carried by the feedback.
    pub observed_bursts: Vec<usize>,
    /// Raw per-layer estimates before folding the feedback in.
    pub old_estimates: Vec<f64>,
    /// Raw per-layer estimates after folding the feedback in.
    pub new_estimates: Vec<f64>,
}

/// Everything [`WindowPlan::build`] reads: a plan is a pure function of
/// its key, so every server, session and sweep worker may share it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    ordering: Ordering,
    poset_fingerprint: u64,
    poset_len: usize,
    /// The bounded per-layer estimates; empty for orderings that ignore
    /// them.
    estimates: Vec<usize>,
}

type PlanCache = OrderCache<PlanKey, WindowPlan>;

/// The process-wide plan cache: the same bounded LRU memo as the order
/// caches, at their default capacity.
fn plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        OrderCache::new(
            "protocol.plan_cache.hits",
            "protocol.plan_cache.misses",
            "protocol.plan_cache.evictions",
        )
    })
}

/// The plan for `key`, built on a miss from `poset` (which `key`
/// fingerprints).
fn cached_plan(cache: &PlanCache, key: &PlanKey, poset: &Poset) -> Arc<WindowPlan> {
    cache.get_or_compute(key, || {
        WindowPlan::build(key.ordering, poset, &key.estimates)
    })
}

/// Counters of the process-wide window-plan cache
/// (`protocol.plan_cache.{hits,misses,evictions}` in telemetry).
pub fn plan_cache_stats() -> CacheStats {
    plan_cache().stats()
}

/// Server state across buffer windows.
#[derive(Debug, Clone)]
pub struct Server {
    estimators: Vec<BurstEstimator>,
    layer_sizes: Vec<usize>,
    acks: AckTracker,
    last_applied_window: Option<u64>,
    /// The last adaptation, refilled in place (its vectors keep their
    /// capacity); `adapted` says whether the last `plan_window` made it.
    adaptation: AdaptationRecord,
    adapted: bool,
    /// The key of `plan`; its poset fingerprint is that of the poset
    /// given to [`Server::new`], which every [`Server::plan_window`] call
    /// must pass again.
    key: PlanKey,
    /// The plan last returned, reused while the estimates stay put.
    plan: Option<Arc<WindowPlan>>,
}

impl Server {
    /// Creates the server for a stream whose per-window dependency poset is
    /// `poset` (constant across windows, as with a fixed GOP pattern).
    ///
    /// Initial estimates follow the config's "average case" prior:
    /// `initial_estimate_fraction × layer length` per layer.
    pub fn new(config: &ProtocolConfig, poset: &Poset) -> Self {
        let layer_sizes: Vec<usize> = poset
            .depth_decomposition()
            .iter()
            .map(|l| l.len())
            .collect();
        let estimators = layer_sizes
            .iter()
            .map(|&len| {
                BurstEstimator::new(
                    config.alpha,
                    (len as f64 * config.initial_estimate_fraction).max(1.0),
                )
            })
            .collect();
        Server {
            estimators,
            layer_sizes,
            acks: AckTracker::new(),
            last_applied_window: None,
            adaptation: AdaptationRecord::default(),
            adapted: false,
            key: PlanKey {
                ordering: config.ordering,
                poset_fingerprint: poset.fingerprint(),
                poset_len: poset.len(),
                estimates: Vec::new(),
            },
            plan: None,
        }
    }

    /// Offers an arrived window-ACK (with its channel sequence number);
    /// out-of-order ACKs are ignored per §4.2.
    pub fn offer_ack(&mut self, seq: u64, feedback: WindowFeedback) -> bool {
        self.acks.offer(seq, feedback)
    }

    /// Current per-layer burst-bound estimates, rounded for use by
    /// `calculatePermutation` and clamped to each layer's length — after a
    /// run of full-window losses the raw estimate can exceed the layer
    /// size, and spreading against `b > n` is meaningless.
    pub fn estimates(&self) -> Vec<usize> {
        bounded(&self.estimators, &self.layer_sizes).collect()
    }

    /// Raw (un-rounded) estimator values, for reporting.
    pub fn raw_estimates(&self) -> Vec<f64> {
        self.estimators.iter().map(|e| e.value()).collect()
    }

    /// Starts a new buffer window: folds in the freshest unapplied ACK and
    /// returns the transmission plan.
    ///
    /// `poset` must be the poset given to [`Server::new`] (checked in
    /// debug builds). The returned plan equals `WindowPlan::build(ordering,
    /// poset, &self.estimates())`. While the estimates stay put it is the
    /// last plan again, with no lock and no allocation; otherwise it comes
    /// from the process-wide plan cache, shared with every server that
    /// planned the same key.
    pub fn plan_window(&mut self, poset: &Poset) -> Arc<WindowPlan> {
        debug_assert_eq!(
            poset.fingerprint(),
            self.key.poset_fingerprint,
            "plan_window needs the poset the server was created with"
        );
        self.adapted = false;
        if let Some(fb) = self.acks.latest() {
            let newer = self
                .last_applied_window
                .is_none_or(|applied| fb.window > applied);
            if newer {
                self.last_applied_window = Some(fb.window);
                let record = &mut self.adaptation;
                record.feedback_window = fb.window;
                record.observed_bursts.clear();
                record
                    .observed_bursts
                    .extend_from_slice(&fb.per_layer_burst);
                record.old_estimates.clear();
                record
                    .old_estimates
                    .extend(self.estimators.iter().map(BurstEstimator::value));
                for (est, observed) in self.estimators.iter_mut().zip(&record.observed_bursts) {
                    // Feedback arrives off the network: an out-of-range
                    // observation is skipped, never a panic. (The wire's
                    // u16 burst field can't produce one today, but this
                    // path must stay safe under any future feedback
                    // source.)
                    let _ = est.try_observe(*observed as f64);
                }
                record.new_estimates.clear();
                record
                    .new_estimates
                    .extend(self.estimators.iter().map(BurstEstimator::value));
                self.adapted = true;
            }
        }
        // The key is all `build` reads of the estimates: orderings that
        // ignore them plan from the empty key alike.
        let adaptive = self.key.ordering.is_adaptive();
        if let Some(plan) = &self.plan {
            let unmoved = !adaptive
                || self
                    .key
                    .estimates
                    .iter()
                    .copied()
                    .eq(bounded(&self.estimators, &self.layer_sizes));
            if unmoved {
                return Arc::clone(plan);
            }
        }
        self.key.estimates.clear();
        if adaptive {
            self.key
                .estimates
                .extend(bounded(&self.estimators, &self.layer_sizes));
        }
        let plan = cached_plan(plan_cache(), &self.key, poset);
        self.plan = Some(Arc::clone(&plan));
        plan
    }

    /// The adaptation performed by the most recent [`Self::plan_window`]
    /// call, if that call applied fresh feedback; a planning round without
    /// new feedback reads as `None`. The record is lent: the server
    /// refills it in place on the next adaptation, so a steady stream of
    /// ACKs allocates nothing here.
    pub fn last_adaptation(&self) -> Option<&AdaptationRecord> {
        self.adapted.then_some(&self.adaptation)
    }
}

/// Each estimator's value rounded and clamped to its layer's length.
fn bounded<'a>(
    estimators: &'a [BurstEstimator],
    layer_sizes: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    estimators
        .iter()
        .zip(layer_sizes)
        .map(|(e, &len)| e.bounded(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_trace::GopPattern;

    fn setup() -> (ProtocolConfig, Poset) {
        (
            ProtocolConfig::paper(0.6, 1),
            GopPattern::gop12().dependency_poset(2, false),
        )
    }

    #[test]
    fn initial_estimates_are_half_layer_length() {
        let (config, poset) = setup();
        let server = Server::new(&config, &poset);
        // Layers: 2, 2, 2, 2, 16 → priors 1, 1, 1, 1, 8.
        assert_eq!(server.estimates(), vec![1, 1, 1, 1, 8]);
    }

    #[test]
    fn ack_updates_estimates_via_exponential_averaging() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        server.offer_ack(
            1,
            WindowFeedback {
                window: 0,
                per_layer_burst: vec![1, 1, 1, 1, 2],
            },
        );
        let _ = server.plan_window(&poset);
        // B layer: (8 + 2) / 2 = 5.
        assert_eq!(server.estimates()[4], 5);
        assert!((server.raw_estimates()[4] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn last_adaptation_lends_the_applied_step() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        let _ = server.plan_window(&poset);
        assert_eq!(server.last_adaptation(), None, "no feedback yet");
        for (seq, b) in [(1u64, 2usize), (2, 6)] {
            let before = server.raw_estimates();
            server.offer_ack(
                seq,
                WindowFeedback {
                    window: seq - 1,
                    per_layer_burst: vec![1, 1, 1, 1, b],
                },
            );
            let _ = server.plan_window(&poset);
            assert_eq!(
                server.last_adaptation(),
                Some(&AdaptationRecord {
                    feedback_window: seq - 1,
                    observed_bursts: vec![1, 1, 1, 1, b],
                    old_estimates: before,
                    new_estimates: server.raw_estimates(),
                })
            );
        }
        let _ = server.plan_window(&poset);
        assert_eq!(server.last_adaptation(), None, "the same ACK again");
    }

    #[test]
    fn same_ack_not_applied_twice() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        server.offer_ack(
            1,
            WindowFeedback {
                window: 0,
                per_layer_burst: vec![1, 1, 1, 1, 2],
            },
        );
        let _ = server.plan_window(&poset);
        let once = server.raw_estimates();
        let _ = server.plan_window(&poset);
        assert_eq!(server.raw_estimates(), once);
    }

    #[test]
    fn out_of_order_acks_ignored() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        assert!(server.offer_ack(
            5,
            WindowFeedback {
                window: 3,
                per_layer_burst: vec![1, 1, 1, 1, 4],
            }
        ));
        assert!(!server.offer_ack(
            2,
            WindowFeedback {
                window: 1,
                per_layer_burst: vec![1, 1, 1, 1, 16],
            }
        ));
        let _ = server.plan_window(&poset);
        assert_eq!(server.estimates()[4], 6); // (8+4)/2, not (8+16)/2
    }

    #[test]
    fn estimates_clamped_to_layer_sizes() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        // Repeated full-window losses drive the raw B-layer estimate past
        // the 16-frame layer (ceil rounds up, ACKs report the whole layer
        // and then some after retransmission accounting).
        for seq in 1..=6 {
            server.offer_ack(
                seq,
                WindowFeedback {
                    window: seq - 1,
                    per_layer_burst: vec![9, 9, 9, 9, 40],
                },
            );
            let _ = server.plan_window(&poset);
        }
        assert!(server.raw_estimates()[4] > 16.0);
        let estimates = server.estimates();
        assert_eq!(estimates[4], 16, "B layer clamped to its length");
        assert!(estimates[..4].iter().all(|&e| e <= 2), "anchor layers too");
    }

    #[test]
    fn repeated_estimates_reuse_the_cached_plan() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        let ack = |server: &mut Server, seq: u64, b: usize| {
            server.offer_ack(
                seq,
                WindowFeedback {
                    window: seq - 1,
                    per_layer_burst: vec![1, 1, 1, 1, b],
                },
            );
        };
        let prior = server.plan_window(&poset);
        assert!(Arc::ptr_eq(&prior, &server.plan_window(&poset)));
        ack(&mut server, 1, 0); // B estimate 8 → 4: a new plan
        let moved = server.plan_window(&poset);
        assert!(!Arc::ptr_eq(&prior, &moved));
        assert_eq!(moved.layers[4].burst_bound, 4);
        ack(&mut server, 2, 12); // 4 → 8: the prior's plan again
        assert!(Arc::ptr_eq(&prior, &server.plan_window(&poset)));
    }

    #[test]
    fn servers_with_one_config_share_their_plans() {
        let (config, poset) = setup();
        let mut a = Server::new(&config, &poset);
        let mut b = Server::new(&config, &GopPattern::gop12().dependency_poset(2, false));
        assert!(Arc::ptr_eq(&a.plan_window(&poset), &b.plan_window(&poset)));
        for server in [&mut a, &mut b] {
            server.offer_ack(
                1,
                WindowFeedback {
                    window: 0,
                    per_layer_burst: vec![1, 1, 1, 1, 2],
                },
            );
        }
        let (pa, pb) = (a.plan_window(&poset), b.plan_window(&poset));
        assert!(Arc::ptr_eq(&pa, &pb));
        assert_eq!(
            *pa,
            WindowPlan::build(config.ordering, &poset, &a.estimates())
        );
    }

    #[test]
    fn distinct_keys_never_share_a_plan() {
        let (config, poset) = setup();
        let other_poset = GopPattern::gop12().dependency_poset(1, false);
        let mut plans = Vec::new();
        for ordering in [
            Ordering::spread(),
            Ordering::Spread { adaptive: false },
            Ordering::Ibo,
            Ordering::InOrder,
        ] {
            for p in [&poset, &other_poset] {
                let config = config.clone().with_ordering(ordering);
                plans.push(Server::new(&config, p).plan_window(p));
            }
        }
        // A moved estimate is a third kind of key.
        let mut server = Server::new(&config, &poset);
        server.offer_ack(
            1,
            WindowFeedback {
                window: 0,
                per_layer_burst: vec![1, 1, 1, 1, 0],
            },
        );
        plans.push(server.plan_window(&poset));
        for (i, a) in plans.iter().enumerate() {
            for b in &plans[i + 1..] {
                assert!(!Arc::ptr_eq(a, b), "plans {i} and a later one share");
            }
        }
    }

    #[test]
    fn plan_cache_respects_its_capacity() {
        assert_eq!(
            plan_cache().capacity(),
            espread_core::DEFAULT_CACHE_CAPACITY
        );
        let (_, poset) = setup();
        let cache = PlanCache::with_capacity(4, "t.hit", "t.miss", "t.evict");
        let key = |b: usize| PlanKey {
            ordering: Ordering::spread(),
            poset_fingerprint: poset.fingerprint(),
            poset_len: poset.len(),
            estimates: vec![1, 1, 1, 1, b],
        };
        for b in 1..=12 {
            let plan = cached_plan(&cache, &key(b), &poset);
            assert_eq!(plan.layers[4].burst_bound, b);
            assert!(cache.stats().entries <= 4, "flooded past capacity at b={b}");
        }
        assert_eq!(cache.stats().evictions, 8);
        // An evicted key builds its plan again, equal to the first.
        let again = cached_plan(&cache, &key(1), &poset);
        assert_eq!(
            *again,
            WindowPlan::build(Ordering::spread(), &poset, &key(1).estimates)
        );
        assert_eq!(cache.stats().misses, 13);
    }

    #[test]
    fn orderings_that_ignore_estimates_plan_once() {
        let (config, poset) = setup();
        for ordering in [
            Ordering::InOrder,
            Ordering::Ibo,
            Ordering::Spread { adaptive: false },
        ] {
            let mut server = Server::new(&config.clone().with_ordering(ordering), &poset);
            let first = server.plan_window(&poset);
            for seq in 1..=4 {
                server.offer_ack(
                    seq,
                    WindowFeedback {
                        window: seq - 1,
                        per_layer_burst: vec![2, 0, 2, 0, 3 * seq as usize],
                    },
                );
                assert!(
                    Arc::ptr_eq(&first, &server.plan_window(&poset)),
                    "{ordering}"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "plan_window needs the poset the server was created with")]
    fn planning_with_another_poset_is_caught_in_debug_builds() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        let _ = server.plan_window(&GopPattern::gop12().dependency_poset(1, false));
    }

    #[test]
    fn plan_uses_current_estimates() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        let plan = server.plan_window(&poset);
        assert_eq!(plan.layers[4].burst_bound, 8);
        server.offer_ack(
            1,
            WindowFeedback {
                window: 0,
                per_layer_burst: vec![1, 1, 1, 1, 0],
            },
        );
        let plan = server.plan_window(&poset);
        assert_eq!(plan.layers[4].burst_bound, 4); // (8+0)/2
    }
}
