//! The metrics registry and its instrument handles.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Instant;

use crate::event::Event;
use crate::hist::{HistogramCore, HistogramSnapshot};

/// Default upper bound on retained events; beyond it new events are
/// counted as dropped rather than growing without bound. Override per
/// registry with [`Registry::with_event_cap`].
const EVENT_CAP: usize = 65_536;

/// A monotone counter handle (cloning shares the underlying cell).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle storing an `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log-linear histogram handle (see the `hist` module for bucketing).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Records `n` samples of value `v` at once, leaving exactly the
    /// state `n` calls of [`record`](Histogram::record) would: for a
    /// recorder that tallies small values locally and publishes once.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        self.0.record_n(v, n);
    }

    /// Times `f` and records the elapsed wall-clock nanoseconds.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Folds a [`HistogramSnapshot`] into this live histogram —
    /// bucket-wise addition, widening min/max. Used by
    /// [`Registry::absorb`] to merge per-worker deltas at thread join.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        self.0.absorb(snap);
    }

    /// Starts an RAII span: the guard records elapsed nanoseconds into
    /// this histogram when dropped.
    pub fn start_timer(&self) -> SpanGuard {
        SpanGuard {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// A point-in-time copy of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// RAII span guard from [`Histogram::start_timer`].
#[derive(Debug)]
pub struct SpanGuard {
    hist: Histogram,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[derive(Debug)]
struct Inner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    events: Mutex<Vec<Event>>,
    events_dropped: AtomicU64,
    event_cap: usize,
    /// Set once the log is seen at its cap. The log never shrinks, so a
    /// set flag lets `emit_with` count a drop without the lock.
    events_full: AtomicBool,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histograms: RwLock::default(),
            events: Mutex::default(),
            events_dropped: AtomicU64::new(0),
            event_cap: EVENT_CAP,
            events_full: AtomicBool::new(false),
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }
}

/// A registry of named instruments plus an event log.
///
/// Cloning is cheap and shares state. Lookup by name takes a short
/// read-lock; keep the returned handle for hot paths.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

macro_rules! instrument_accessor {
    ($fn_name:ident, $map:ident, $ty:ident, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name(&self, name: &str) -> $ty {
            if let Some(existing) = read_lock(&self.inner.$map).get(name) {
                return existing.clone();
            }
            write_lock(&self.inner.$map)
                .entry(name.to_string())
                .or_default()
                .clone()
        }
    };
}

// Lock acquisition with poison recovery: the registry is shared by every
// instrumented thread (including the net server's per-session workers), so
// one panicking thread must not cascade-poison telemetry for the rest of
// the process. All registry state stays consistent under a recovered
// guard — counters/gauges/histograms are atomics and the maps/event log
// are only ever mutated by single infallible operations.
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

fn mutex_lock<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates an empty registry whose event log retains at most `cap`
    /// events (further [`emit`](Registry::emit)s are counted as dropped,
    /// exactly once each). The default cap is 65 536.
    pub fn with_event_cap(cap: usize) -> Self {
        Registry {
            inner: Arc::new(Inner {
                event_cap: cap,
                ..Inner::default()
            }),
        }
    }

    /// The event-log retention cap.
    pub fn event_cap(&self) -> usize {
        self.inner.event_cap
    }

    instrument_accessor!(
        counter,
        counters,
        Counter,
        "Returns (registering on first use) the named counter."
    );
    instrument_accessor!(
        gauge,
        gauges,
        Gauge,
        "Returns (registering on first use) the named gauge."
    );
    instrument_accessor!(
        histogram,
        histograms,
        Histogram,
        "Returns (registering on first use) the named histogram."
    );

    /// Appends an event to the log (dropped and counted once the cap is
    /// reached).
    pub fn emit(&self, event: Event) {
        self.emit_with(|| event);
    }

    /// Appends the event `build` makes, calling `build` only when the log
    /// has room: a full log counts the drop exactly as
    /// [`emit`](Registry::emit) does and builds nothing, so an event that
    /// copies vectors costs nothing once the cap is reached. `build` runs
    /// under the event-log lock and must not emit into this registry.
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if !self.inner.events_full.load(Ordering::Relaxed) {
            let mut events = mutex_lock(&self.inner.events);
            if events.len() < self.inner.event_cap {
                events.push(build());
                return;
            }
            self.inner.events_full.store(true, Ordering::Relaxed);
        }
        self.inner.events_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of the event log.
    pub fn events(&self) -> Vec<Event> {
        mutex_lock(&self.inner.events).clone()
    }

    /// Folds a [`Snapshot`] (typically taken from a worker thread's
    /// private registry) into this live registry: counters add, gauges
    /// take the snapshot's value, histograms merge bucket-wise, events
    /// append. This is how a parallel executor merges per-worker telemetry
    /// deltas **once at join** instead of contending on shared atomics in
    /// the hot loop.
    pub fn absorb(&self, snap: &Snapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name).absorb(h);
        }
        {
            let mut events = mutex_lock(&self.inner.events);
            for event in &snap.events {
                if events.len() < self.inner.event_cap {
                    events.push(event.clone());
                } else {
                    self.inner.events_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.inner
            .events_dropped
            .fetch_add(snap.events_dropped, Ordering::Relaxed);
    }

    /// Reads every instrument and the event log into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: read_lock(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read_lock(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read_lock(&self.inner.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            events: self.events(),
            events_dropped: self.inner.events_dropped.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide default registry, used by instrumentation that has no
/// natural place to thread a handle through (free functions, loss models).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

thread_local! {
    /// Stack of thread-local registry overrides (see [`with_current`]).
    static CURRENT: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
    /// The counters [`count`] resolved on this thread, by registry and
    /// name, so a repeated count skips the registry's name lookup.
    static RESOLVED: RefCell<Vec<Resolved>> = const { RefCell::new(Vec::new()) };
}

/// One [`count`] memo entry. The `Weak` keeps the registry's allocation
/// (not its contents) alive, so no later registry can reuse its address
/// while the entry stands.
struct Resolved {
    registry: Weak<Inner>,
    name: &'static str,
    counter: Counter,
}

/// Memo entries per thread; a full memo starts over.
const RESOLVED_CAP: usize = 32;

/// Pops the thread-local override on scope exit, including unwinds.
struct CurrentGuard;

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `registry` installed as this thread's [`current`]
/// registry. Overrides nest (a stack) and are restored on exit, including
/// panics. Instrumentation that resolves its registry through [`current`]
/// — the per-crate telemetry shims — records into `registry` for the
/// duration, letting a parallel executor give each worker thread a
/// private registry and merge the deltas once at join.
pub fn with_current<R>(registry: &Registry, f: impl FnOnce() -> R) -> R {
    CURRENT.with(|stack| stack.borrow_mut().push(registry.clone()));
    let _guard = CurrentGuard;
    f()
}

/// This thread's effective registry: the innermost [`with_current`]
/// override, or [`global`] when none is installed.
pub fn current() -> Registry {
    CURRENT
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// Starts an RAII span recording elapsed nanoseconds into the named
/// histogram of the [`current`] registry.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    current().histogram(name).start_timer()
}

/// Adds `n` to the named counter of the [`current`] registry.
///
/// The handle is resolved once per thread, registry and name (the name
/// compared by address), so a hot caller — a cache counting its hits —
/// pays no lock and no name lookup after the first count.
pub fn count(name: &'static str, n: u64) {
    CURRENT.with(|stack| {
        let stack = stack.borrow();
        let registry = stack.last().unwrap_or_else(|| global());
        let inner = Arc::as_ptr(&registry.inner);
        RESOLVED.with(|memo| {
            let mut memo = memo.borrow_mut();
            let hit = memo
                .iter()
                .find(|r| r.registry.as_ptr() == inner && std::ptr::eq(r.name, name));
            if let Some(r) = hit {
                r.counter.add(n);
                return;
            }
            let counter = registry.counter(name);
            counter.add(n);
            if memo.len() >= RESOLVED_CAP {
                memo.clear();
            }
            memo.push(Resolved {
                registry: Arc::downgrade(&registry.inner),
                name,
                counter,
            });
        });
    });
}

/// A point-in-time copy of a whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// The event log at snapshot time.
    pub events: Vec<Event>,
    /// Events discarded because the log cap was reached.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// value (latest wins), histograms merge bucket-wise, events append.
    pub fn merge(&mut self, other: &Snapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (name, v) in &other.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, f64> = self.gauges.drain(..).collect();
        for (name, v) in &other.gauges {
            gauges.insert(name.clone(), *v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            self.histograms.drain(..).collect();
        for (name, h) in &other.histograms {
            histograms.entry(name.clone()).or_default().merge(h);
        }
        self.histograms = histograms.into_iter().collect();

        self.events.extend(other.events.iter().cloned());
        self.events_dropped += other.events_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_register_once() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn gauge_stores_last_value() {
        let r = Registry::new();
        let g = r.gauge("alf");
        g.set(0.25);
        g.set(0.5);
        assert_eq!(r.snapshot().gauge("alf"), Some(0.5));
    }

    #[test]
    fn span_guard_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("span.ns");
        {
            let _guard = h.start_timer();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.bucket_total(), 1);
    }

    #[test]
    fn time_returns_closure_value() {
        let r = Registry::new();
        let h = r.histogram("f.ns");
        assert_eq!(h.time(|| 41 + 1), 42);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn snapshot_merge_combines_all_instrument_kinds() {
        let a = Registry::new();
        a.counter("c").add(1);
        a.gauge("g").set(1.0);
        a.histogram("h").record(5);
        a.emit(Event::WindowMetrics {
            window: 0,
            lost: 1,
            window_len: 4,
            clf: 1,
        });

        let b = Registry::new();
        b.counter("c").add(2);
        b.counter("only_b").add(7);
        b.gauge("g").set(2.0);
        b.histogram("h").record(9);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c"), Some(3));
        assert_eq!(merged.counter("only_b"), Some(7));
        assert_eq!(merged.gauge("g"), Some(2.0));
        let h = merged.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 14);
        assert_eq!(h.bucket_total(), 2);
        assert_eq!(merged.events.len(), 1);
    }

    #[test]
    fn event_log_caps_and_counts_drops() {
        let r = Registry::new();
        for w in 0..(EVENT_CAP + 10) as u64 {
            r.emit(Event::WindowMetrics {
                window: w,
                lost: 0,
                window_len: 1,
                clf: 0,
            });
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAP);
        assert_eq!(snap.events_dropped, 10);
    }

    #[test]
    fn emit_with_builds_only_when_the_log_has_room() {
        let r = Registry::with_event_cap(2);
        let built = std::cell::Cell::new(0);
        let event = |w: u64| {
            built.set(built.get() + 1);
            Event::WindowMetrics {
                window: w,
                lost: 0,
                window_len: 1,
                clf: 0,
            }
        };
        for w in 0..5 {
            r.emit_with(|| event(w));
        }
        assert_eq!(built.get(), 2, "a full log builds nothing");
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_dropped, 3, "each drop counted once");
        // `emit` and `emit_with` count a drop alike.
        r.emit(event(5));
        assert_eq!(r.snapshot().events_dropped, 4);
        let closed = Registry::with_event_cap(0);
        closed.emit_with(|| unreachable!("a zero-cap log builds nothing"));
        assert_eq!(closed.snapshot().events_dropped, 1);
    }

    #[test]
    fn count_reaches_the_registry_current_at_each_call() {
        const NAME: &str = "telemetry.test.memo";
        let a = Registry::new();
        let b = Registry::new();
        with_current(&a, || {
            count(NAME, 1);
            with_current(&b, || count(NAME, 10));
            count(NAME, 2);
        });
        assert_eq!(a.snapshot().counter(NAME), Some(3));
        assert_eq!(b.snapshot().counter(NAME), Some(10));
        // Registries made and dropped one after another each get only
        // their own counts, though one may sit where the last one was.
        for i in 1..=(2 * RESOLVED_CAP as u64) {
            let fresh = Registry::new();
            with_current(&fresh, || count(NAME, i));
            assert_eq!(fresh.snapshot().counter(NAME), Some(i));
        }
        // A distinct name is a distinct counter.
        with_current(&a, || count("telemetry.test.memo_other", 4));
        assert_eq!(a.snapshot().counter("telemetry.test.memo_other"), Some(4));
        assert_eq!(a.snapshot().counter(NAME), Some(3));
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("telemetry.test.global").inc();
        assert!(
            global()
                .snapshot()
                .counter("telemetry.test.global")
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn absorb_folds_a_worker_snapshot() {
        let main = Registry::new();
        main.counter("c").add(5);
        main.histogram("h").record(3);

        let worker = Registry::new();
        worker.counter("c").add(2);
        worker.gauge("g").set(0.75);
        worker.histogram("h").record(7);
        worker.emit(Event::WindowMetrics {
            window: 1,
            lost: 2,
            window_len: 8,
            clf: 2,
        });

        main.absorb(&worker.snapshot());
        let snap = main.snapshot();
        assert_eq!(snap.counter("c"), Some(7));
        assert_eq!(snap.gauge("g"), Some(0.75));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 10);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 7);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn absorb_respects_event_cap() {
        let main = Registry::new();
        let worker = Registry::new();
        for w in 0..(EVENT_CAP + 5) as u64 {
            worker.emit(Event::WindowMetrics {
                window: w,
                lost: 0,
                window_len: 1,
                clf: 0,
            });
        }
        main.absorb(&worker.snapshot());
        let snap = main.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAP);
        assert_eq!(snap.events_dropped, 5);
    }

    #[test]
    fn with_current_overrides_and_restores() {
        let local = Registry::new();
        with_current(&local, || {
            current().counter("scoped").inc();
            count("scoped.helper", 2);
            // Nested override wins over the outer one.
            let inner = Registry::new();
            with_current(&inner, || {
                current().counter("scoped").inc();
                count("scoped.helper", 5);
                drop(span("scoped.span_ns"));
            });
            assert_eq!(inner.snapshot().counter("scoped"), Some(1));
            assert_eq!(inner.snapshot().counter("scoped.helper"), Some(5));
            assert_eq!(
                inner
                    .snapshot()
                    .histogram("scoped.span_ns")
                    .map(|h| h.count),
                Some(1)
            );
        });
        let outer = local.snapshot();
        assert_eq!(outer.counter("scoped"), Some(1));
        assert_eq!(outer.counter("scoped.helper"), Some(2));
        assert!(outer.histogram("scoped.span_ns").is_none());
        // Outside any override, current() is the global registry.
        assert_eq!(
            global().snapshot().counter("scoped"),
            current().snapshot().counter("scoped")
        );
        // ...and so the helpers record there too.
        let before = global().snapshot().counter("telemetry.test.global_helper");
        count("telemetry.test.global_helper", 3);
        drop(span("telemetry.test.global_span_ns"));
        let after = global().snapshot();
        assert_eq!(
            after.counter("telemetry.test.global_helper"),
            Some(before.unwrap_or(0) + 3)
        );
        assert!(after.histogram("telemetry.test.global_span_ns").is_some());
    }

    #[test]
    fn with_current_restores_after_panic() {
        let local = Registry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_current(&local, || panic!("boom"));
        }));
        assert!(result.is_err());
        // The override stack must be empty again.
        current().counter("telemetry.test.after_panic").inc();
        assert!(local
            .snapshot()
            .counter("telemetry.test.after_panic")
            .is_none());
    }

    #[test]
    fn current_is_thread_local() {
        let local = Registry::new();
        with_current(&local, || {
            let handle = std::thread::spawn(|| {
                // The spawned thread sees no override.
                current().counter("telemetry.test.other_thread").inc();
            });
            handle.join().unwrap();
        });
        assert!(local
            .snapshot()
            .counter("telemetry.test.other_thread")
            .is_none());
    }

    #[test]
    fn poisoned_event_lock_recovers() {
        let r = Registry::new();
        r.emit(Event::WindowMetrics {
            window: 0,
            lost: 0,
            window_len: 1,
            clf: 0,
        });
        // Poison the event mutex: panic while holding it.
        let r2 = r.clone();
        let result = std::thread::spawn(move || {
            let _guard = r2.inner.events.lock().unwrap();
            panic!("poisoning the event log");
        })
        .join();
        assert!(result.is_err());
        // The registry keeps working for every other thread.
        r.emit(Event::WindowMetrics {
            window: 1,
            lost: 1,
            window_len: 2,
            clf: 1,
        });
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.snapshot().events.len(), 2);
    }

    #[test]
    fn poisoned_instrument_locks_recover() {
        let r = Registry::new();
        r.counter("pre").inc();
        let r2 = r.clone();
        let result = std::thread::spawn(move || {
            let _guard = r2.inner.counters.write().unwrap();
            panic!("poisoning the counter map");
        })
        .join();
        assert!(result.is_err());
        // Lookup, registration, and snapshotting all still work.
        r.counter("pre").inc();
        r.counter("post").add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("pre"), Some(2));
        assert_eq!(snap.counter("post"), Some(3));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Registry::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = r.counter("n");
                let h = r.histogram("v");
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 100);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), Some(40_000));
        let h = snap.histogram("v").unwrap();
        assert_eq!(h.count, 40_000);
        assert_eq!(h.bucket_total(), 40_000);
    }
}
