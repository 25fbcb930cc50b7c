//! The UDP client as a sans-IO state object.
//!
//! [`ClientCore`] is the client half of the paper's §4.2 exchange: the
//! `Hello`/`Accept` negotiation and the `Begin` under bounded retry, then
//! the stream — reassembling each window in a [`ClientWindow`], measuring
//! per-layer loss bursts and answering every `WindowEnd` with a
//! sequence-numbered `WindowAck`. A lost `WindowEnd` heals two ways: the
//! server retries it, and data for a *newer* window implicitly finalizes
//! the current one.
//!
//! Like the server's session core it does no I/O and never blocks: a call
//! reads the clock from [`Ctx::now`] (µs since the client's epoch) and
//! appends its datagrams and [`Effect`]s to the out-queue the caller
//! drains. It keeps no counters: the caller folds the effects into them
//! and into the report's counts.

use std::collections::HashMap;
use std::time::Duration;

use espread_protocol::client::ClientWindow;
use espread_qos::{ContinuityMetrics, LossPattern, WindowSeries};

use crate::client::{NetClientConfig, NetClientReport};
use crate::clientwin::RecoverScratch;
use crate::error::NetError;
use crate::session::{data_labels, earliest, us, Ctx, Effect, FrameLabels, WindowLabels};
use crate::wire::{self, Accept, CriticalNackMsg, Hello, Msg, WindowAckMsg, CONN_NONE};

/// Cheap deterministic jitter in `[0, retry_after/4]` ms, derived from
/// the nonce: decorrelates a thundering herd of `Busy`-refused clients
/// without an RNG dependency.
fn busy_jitter_ms(nonce: u64, retry_after_ms: u32) -> u64 {
    let span = u64::from(retry_after_ms) / 4 + 1;
    nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15) % span
}

/// Refuses an `Accept` whose session shape is internally inconsistent —
/// a hostile (or corrupted) server must produce a typed error, not a
/// client that NACKs unreachable frames forever.
fn validate_accept(accept: &Accept) -> Result<(), NetError> {
    let frames = accept.frames_per_window;
    let problem = match accept.critical_frames.iter().find(|&&f| f >= frames) {
        _ if frames == 0 => "zero frames per window".to_string(),
        Some(f) => format!("critical frame {f} outside the {frames}-frame window"),
        None => return Ok(()),
    };
    Err(NetError::Protocol(format!("accept: {problem}")))
}

/// Where a call left the exchange; a [`NetError`] ends it instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Pending,
    /// The server accepted: [`ClientCore::begin`] may start the stream.
    Connected,
    /// Its `Bye` arrived, or the linger for it ran out.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Hello,
    Connected,
    /// `begin` was called: `Begin`s until the first stream datagram.
    Stream,
}

/// One client's complete protocol state.
#[derive(Debug)]
pub(crate) struct ClientCore {
    config: NetClientConfig,
    /// The connection id the `Accept` assigned (`CONN_NONE` before).
    conn_id: u32,
    /// The live handshake nonce. A `Busy` moves it one up, so the caller
    /// reserves `retry.max_attempts` consecutive values.
    nonce: u64,
    /// The last `Busy`'s retry-after, for [`NetError::ServerBusy`].
    last_busy: Option<u32>,
    /// The negotiated session shape (empty until `Accept`).
    accept: Accept,
    phase: Phase,
    /// 0-based number of the phase's latest `Hello` or `Begin`.
    attempt: u32,
    /// Whether `retry_at` is a `Busy` back-off.
    backoff: bool,
    retry_at: Option<u64>,
    /// The hard deadline, armed by `begin`.
    deadline: Option<u64>,
    /// When the linger for the `Bye` ends; armed once every window is in.
    linger_until: Option<u64>,
    decode_scratch: wire::DecodeScratch,
    current: Option<ClientWindow>,
    /// window → its acked bursts, for re-acking retried `WindowEnd`s.
    acked: HashMap<u64, Vec<u16>>,
    /// `(window, rounds)`: critical-NACK rounds already spent on `window`.
    nacked: Option<(u64, u32)>,
    /// The previous window's tracker, which `open` resets instead of
    /// allocating, so one tracker serves the whole stream.
    spare: Option<ClientWindow>,
    recover_scratch: RecoverScratch,
    /// Reusable body of the `CriticalNack`s.
    nack_buf: Vec<u16>,
    ack_seq: u64,
    /// Per-window continuity metrics and loss patterns, in window order.
    series: WindowSeries,
    patterns: Vec<LossPattern>,
    saw_bye: bool,
}

impl ClientCore {
    /// A client that offers `config`'s capabilities under `nonce`.
    pub(crate) fn new(config: NetClientConfig, nonce: u64) -> Self {
        ClientCore {
            config,
            conn_id: CONN_NONE,
            nonce,
            last_busy: None,
            accept: Accept {
                nonce,
                frames_per_window: 0,
                windows_total: 0,
                packet_bytes: 0,
                fps: 0,
                layer_sizes: Vec::new(),
                critical_frames: Vec::new(),
            },
            phase: Phase::Hello,
            attempt: 0,
            backoff: false,
            retry_at: None,
            deadline: None,
            linger_until: None,
            decode_scratch: wire::DecodeScratch::default(),
            current: None,
            acked: HashMap::new(),
            nacked: None,
            spare: None,
            recover_scratch: RecoverScratch::default(),
            nack_buf: Vec::new(),
            ack_seq: 0,
            series: WindowSeries::new(),
            patterns: Vec::new(),
            saw_bye: false,
        }
    }

    pub(crate) fn session(&self) -> &Accept {
        &self.accept
    }

    /// Sends the first `Hello`.
    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_attempt(ctx);
    }

    /// Starts the negotiated stream: the first `Begin` and the deadline.
    pub(crate) fn begin(&mut self, ctx: &mut Ctx<'_>) {
        (self.phase, self.attempt) = (Phase::Stream, 0);
        self.deadline = Some(ctx.now.saturating_add(us(self.config.deadline)));
        self.send_attempt(ctx);
    }

    /// The earliest armed deadline; `None` while only a datagram can act.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        earliest(earliest(self.retry_at, self.deadline), self.linger_until)
    }

    /// Sends the phase's `Hello` or `Begin` and arms its retry deadline.
    fn send_attempt(&mut self, ctx: &mut Ctx<'_>) {
        let caps = self.config.capabilities;
        let msg = match self.phase {
            Phase::Hello => Msg::Hello(Hello {
                nonce: self.nonce,
                buffer_bytes: caps.buffer_bytes,
                max_startup_delay_ms: caps.max_startup_delay_ms,
                ordering: self.config.ordering,
            }),
            _ => Msg::Begin,
        };
        self.send(ctx, &msg);
        self.backoff = false;
        self.arm(ctx.now, self.config.retry.backoff(self.attempt));
    }

    fn arm(&mut self, now: u64, wait: Duration) {
        self.retry_at = Some(now.saturating_add(us(wait)));
    }

    /// A datagram `d` from the server arrived at `ctx.now`. Fails when the
    /// server refused the handshake or accepted an inconsistent shape.
    pub(crate) fn on_datagram(&mut self, d: &[u8], ctx: &mut Ctx<'_>) -> Result<Step, NetError> {
        ctx.emit(Effect::DatagramRx(d.len()));
        let connected = self.phase != Phase::Hello;
        let Ok((conn_id, msg)) = wire::decode_with(d, &mut self.decode_scratch) else {
            ctx.emit(Effect::DecodeError(connected.then_some(self.conn_id)));
            return Ok(Step::Pending);
        };
        match msg {
            // Another connection's datagram: acting on it (a stray `Bye`
            // above all) could end this healthy session.
            _ if connected && conn_id != self.conn_id => ctx.emit(Effect::ForeignConn),
            Msg::Accept(accept) if !connected && accept.nonce == self.nonce => {
                validate_accept(&accept)?;
                ctx.emit(Effect::Accepted);
                (self.conn_id, self.accept) = (conn_id, accept);
                (self.phase, self.retry_at) = (Phase::Connected, None);
                return Ok(Step::Connected);
            }
            Msg::Reject(reject) if !connected && reject.nonce == self.nonce => {
                return Err(NetError::Rejected(reject.reason));
            }
            // Admission refusal: honor the server's retry-after (plus our
            // jitter), then spend the next attempt on a *fresh* nonce: the
            // server caches the old one's Busy. A duplicate Busy does not
            // stretch the back-off.
            Msg::Busy { retry_after_ms } if !connected => {
                self.last_busy = Some(retry_after_ms);
                if !self.backoff {
                    let jitter = busy_jitter_ms(self.nonce, retry_after_ms);
                    let wait = Duration::from_millis(u64::from(retry_after_ms) + jitter);
                    self.arm(ctx.now, wait);
                    self.nonce = self.nonce.wrapping_add(1);
                    self.backoff = true;
                }
            }
            // A stale or duplicate handshake reply, or a datagram before
            // `begin`, is not ours to act on.
            _ if self.phase != Phase::Stream || matches!(msg, Msg::Accept(_)) => {}
            // The stream is flowing: no more `Begin`s.
            _ => {
                self.retry_at = None;
                self.process(&msg, ctx);
            }
        }
        self.decode_scratch.recycle(msg);
        if self.saw_bye {
            return Ok(self.finish());
        }
        Ok(Step::Pending)
    }

    /// Fires whatever is due at `ctx.now`: the hard deadline (fails), the
    /// end of the linger, or a retry (fails when the retries ran dry).
    pub(crate) fn on_deadline(&mut self, ctx: &mut Ctx<'_>) -> Result<Step, NetError> {
        let due = |at: Option<u64>| at.is_some_and(|t| t <= ctx.now);
        if due(self.deadline) {
            return Err(NetError::StreamTimeout);
        }
        if due(self.linger_until) {
            return Ok(self.finish());
        }
        if !due(self.retry_at) {
            return Ok(Step::Pending);
        }
        if self.attempt + 1 >= self.config.retry.max_attempts {
            return Err(match (self.phase, self.last_busy) {
                (Phase::Hello, Some(retry_after_ms)) => NetError::ServerBusy { retry_after_ms },
                (Phase::Hello, None) => NetError::HandshakeTimeout,
                _ => NetError::StreamTimeout,
            });
        }
        self.attempt += 1;
        ctx.emit(match self.phase {
            Phase::Hello => Effect::HelloRetry,
            _ => Effect::BeginRetry,
        });
        self.send_attempt(ctx);
        Ok(Step::Pending)
    }

    /// The stream ended: no deadline outlives it.
    fn finish(&mut self) -> Step {
        (self.retry_at, self.deadline, self.linger_until) = (None, None, None);
        Step::Done
    }

    /// The core's half of the report: the per-window results, the
    /// promised window count and whether the `Bye` came, written over the
    /// counts the caller folded into `report`.
    pub(crate) fn report(self, report: NetClientReport) -> NetClientReport {
        NetClientReport {
            windows_completed: self.acked.len(),
            windows_total: self.windows_total(),
            series: self.series,
            patterns: self.patterns,
            saw_bye: self.saw_bye,
            ..report
        }
    }

    /// Windows the server promised (0 before `Accept`).
    fn windows_total(&self) -> usize {
        self.accept.windows_total as usize
    }

    /// Encodes onto the end of the out-queue. An oversize message (a NACK
    /// list inflated by hostile labels) is reported and dropped, never
    /// truncated and never a panic: the server sees it as loss.
    fn send(&mut self, ctx: &mut Ctx<'_>, msg: &Msg) {
        if !ctx.out.push(self.conn_id, msg) {
            ctx.emit(Effect::EncodeOversize);
        }
    }

    fn process(&mut self, msg: &Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Data(data) => {
                let labels = data_labels(self.conn_id, data);
                let Some(mut cur) = self.take_window(labels.window, ctx) else {
                    // Stale retransmission, duplicate after finalize or a
                    // window id out of range: no window this stream opens.
                    ctx.emit(Effect::Ignored(labels));
                    return;
                };
                let f = &data.fragment;
                let was_complete = cur.is_complete(f.frame);
                if cur.accept(data) {
                    ctx.emit(Effect::Delivered(labels));
                    if !was_complete && cur.is_complete(f.frame) {
                        let at = FrameLabels::new(self.conn_id, f.window, f.frame);
                        ctx.emit(Effect::Reassembled(at, f.frags_total));
                    }
                } else {
                    ctx.emit(Effect::BadFragment(labels));
                }
                self.current = Some(cur);
            }
            Msg::Parity(parity) => {
                ctx.emit(Effect::ParityRx);
                // Parity rides the same window-advance logic as data: a
                // group for a newer window implicitly closes the current.
                let Some(mut cur) = self.take_window(parity.window, ctx) else {
                    return;
                };
                if !cur.accept_parity(parity) {
                    ctx.emit(Effect::BadLabel);
                }
                self.current = Some(cur);
            }
            Msg::WindowEnd(end) => {
                if let Some(bursts) = self.acked.get(&end.window).cloned() {
                    // Our ack was lost and the server retried: re-ack
                    // with a fresh sequence number.
                    self.ack(end.window, end.sent_at_us, bursts, ctx);
                    return;
                }
                let Some(mut cur) = self.take_window(end.window, ctx) else {
                    return; // stale
                };
                // Erasure recovery repairs what parity can cover BEFORE the
                // NACK decision: covered losses cost no retransmission.
                self.run_recovery(&mut cur, ctx);
                let round = match self.nacked {
                    Some((w, rounds)) if w == end.window => rounds + 1,
                    _ => 1,
                };
                if self.config.recovery && round <= self.config.retry.max_attempts {
                    let mut missing = std::mem::take(&mut self.nack_buf);
                    cur.missing_critical_into(&mut missing);
                    if !missing.is_empty() {
                        self.nacked = Some((end.window, round));
                        ctx.emit(Effect::NackRound);
                        for &frame in &missing {
                            let at = FrameLabels::new(self.conn_id, end.window, usize::from(frame));
                            ctx.emit(Effect::NackSent(at, round));
                        }
                        let window = end.window;
                        let nack = Msg::CriticalNack(CriticalNackMsg { window, missing });
                        self.send(ctx, &nack);
                        if let Msg::CriticalNack(n) = nack {
                            self.nack_buf = n.missing;
                        }
                        // Wait for the recovery round; the server re-sends
                        // WindowEnd after retransmitting.
                        self.current = Some(cur);
                        return;
                    }
                    self.nack_buf = missing;
                }
                self.finalize(cur, end.sent_at_us, ctx);
            }
            Msg::Bye(_) => {
                if let Some(cur) = self.current.take() {
                    self.finalize(cur, 0, ctx);
                }
                self.send(ctx, &Msg::ByeAck);
                self.saw_bye = true;
            }
            // Handshake duplicates and client-side message types echoed
            // back are not ours to act on.
            _ => {}
        }
    }

    /// Advances the stream to window `w` and takes its tracker out of
    /// `current`; the caller puts it back while the window stays open.
    /// A newer window implicitly finalizes the open one (its `WindowEnd`
    /// was lost; echo 0 = no RTT sample). `None`, changing nothing, for a
    /// stale window, a duplicate after finalize, or an id out of range.
    fn take_window(&mut self, w: u64, ctx: &mut Ctx<'_>) -> Option<ClientWindow> {
        if w >= self.windows_total() as u64 {
            // Most likely a corrupted id. Opening it would close the real
            // window early and count toward completion.
            ctx.emit(Effect::BadLabel);
            return None;
        }
        match self.current.take() {
            Some(cur) if w == cur.window() => Some(cur),
            Some(cur) if w > cur.window() => {
                self.finalize(cur, 0, ctx);
                Some(self.open(w))
            }
            stale @ Some(_) => {
                self.current = stale;
                None
            }
            None if self.acked.contains_key(&w) => None,
            None => Some(self.open(w)),
        }
    }

    /// A tracker for `window`, recycled from `spare` when one is retired.
    fn open(&mut self, window: u64) -> ClientWindow {
        let a = &self.accept;
        let frames = usize::from(a.frames_per_window);
        let Some(mut w) = self.spare.take() else {
            return ClientWindow::new(window, frames, &a.layer_sizes, &a.critical_frames);
        };
        w.reset(window, frames, &a.layer_sizes, &a.critical_frames);
        w
    }

    /// Runs one erasure-recovery pass over `win` and reports what it
    /// repaired and what it could not.
    fn run_recovery(&mut self, win: &mut ClientWindow, ctx: &mut Ctx<'_>) {
        let r = win.recover_with(&mut self.recover_scratch);
        if r.recovered > 0 {
            ctx.emit(Effect::FecRecovered(r.recovered as u64));
        }
        if r.unrecoverable > 0 {
            ctx.emit(Effect::FecUnrecoverable(r.unrecoverable as u64));
        }
    }

    fn finalize(&mut self, mut win: ClientWindow, echo_us: u64, ctx: &mut Ctx<'_>) {
        // Implicitly closed windows still get their recovery pass; for
        // explicitly closed ones it finds nothing new.
        self.run_recovery(&mut win, ctx);
        let outcome = win.close();
        self.spare = Some(win);
        let (w, pattern) = (outcome.window, outcome.pattern);
        for frame in pattern.lost_indices() {
            ctx.emit(Effect::Abandoned(FrameLabels::new(self.conn_id, w, frame)));
        }
        let (conn, frames) = (self.conn_id, pattern.len() as u32);
        ctx.emit(Effect::WindowClosed(
            WindowLabels { conn, window: w },
            frames,
        ));
        self.series.push(ContinuityMetrics::of(&pattern));
        self.patterns.push(pattern);
        let bursts = outcome.per_layer_burst;
        self.ack(w, echo_us, bursts.clone(), ctx);
        self.acked.insert(w, bursts);
        if self.acked.len() >= self.windows_total() && self.linger_until.is_none() {
            // All windows in: linger for the Bye, but don't stall forever.
            let linger = us(self.config.retry.total_wait()).saturating_add(1);
            self.linger_until = Some(ctx.now.saturating_add(linger));
        }
    }

    fn ack(&mut self, window: u64, echo_us: u64, per_layer_burst: Vec<u16>, ctx: &mut Ctx<'_>) {
        self.ack_seq += 1;
        let ack_seq = self.ack_seq;
        let conn = self.conn_id;
        ctx.emit(Effect::AckSent(WindowLabels { conn, window }, ack_seq));
        let ack = WindowAckMsg {
            ack_seq,
            window,
            echo_us,
            per_layer_burst,
        };
        self.send(ctx, &Msg::WindowAck(ack));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{apply, decode, rs82, Input, Pair, CONN, NONCE};
    use crate::retry::RetryPolicy;
    use crate::session::OutQueue;
    use crate::wire::WindowEnd;

    /// A bare core and its out-queue on an integer clock.
    struct Bare {
        core: ClientCore,
        out: OutQueue,
    }

    impl Bare {
        fn new(retry: RetryPolicy) -> Self {
            let config = NetClientConfig {
                retry,
                ..NetClientConfig::default()
            };
            Bare {
                core: ClientCore::new(config, NONCE),
                out: OutQueue::default(),
            }
        }

        fn at<R>(&mut self, now: u64, f: impl FnOnce(&mut ClientCore, &mut Ctx<'_>) -> R) -> R {
            f(
                &mut self.core,
                &mut Ctx {
                    now,
                    out: &mut self.out,
                },
            )
        }

        fn drain(&mut self) -> Vec<Msg> {
            let mut msgs = Vec::new();
            self.out.drain(|d| msgs.push(decode(d)));
            msgs
        }
    }

    #[test]
    fn connect_times_out_against_a_silent_peer() {
        // Nobody answers: the handshake gives up when its schedule ends.
        let retry = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(5),
            max: Duration::from_millis(10),
        };
        let mut c = Bare::new(retry);
        c.at(0, |core, ctx| core.start(ctx));
        let mut hellos = 0;
        let (at, err) = loop {
            hellos += c
                .drain()
                .iter()
                .filter(|m| matches!(m, Msg::Hello(_)))
                .count();
            let at = c.core.next_deadline().expect("a retry deadline is armed");
            match c.at(at, |core, ctx| core.on_deadline(ctx)) {
                Ok(step) => assert_eq!(step, Step::Pending),
                Err(e) => break (at, e),
            }
        };
        assert!(matches!(err, NetError::HandshakeTimeout), "{err}");
        assert_eq!(at, us(retry.total_wait()), "gives up after the schedule");
        assert_eq!(hellos, 2, "one Hello per attempt");
    }

    #[test]
    fn busy_server_yields_typed_error_and_fresh_nonce_per_retry() {
        // A server that answers every Hello with Busy.
        let retry = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(20),
            max: Duration::from_millis(40),
        };
        let busy = wire::try_encode(CONN_NONE, &Msg::Busy { retry_after_ms: 5 }).unwrap();
        let mut c = Bare::new(retry);
        let mut now = 0;
        c.at(now, |core, ctx| core.start(ctx));
        let mut nonces = Vec::new();
        let err = loop {
            for msg in c.drain() {
                let Msg::Hello(hello) = msg else { continue };
                nonces.push(hello.nonce);
                let step = c.at(now, |core, ctx| core.on_datagram(&busy, ctx));
                assert_eq!(step.unwrap(), Step::Pending);
                // The back-off is the retry-after plus at most a quarter
                // of it, whatever the retry schedule says.
                let wait = c.core.next_deadline().unwrap() - now;
                assert!((5_000..=6_000).contains(&wait), "back-off {wait} µs");
            }
            now = c.core.next_deadline().expect("a back-off is armed");
            if let Err(e) = c.at(now, |core, ctx| core.on_deadline(ctx)) {
                break e;
            }
        };
        assert!(
            matches!(err, NetError::ServerBusy { retry_after_ms: 5 }),
            "{err}"
        );
        assert_eq!(nonces.len(), 3, "the client retried after every Busy");
        let distinct: std::collections::HashSet<u64> = nonces.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            nonces.len(),
            "every retry after Busy used a fresh nonce"
        );
    }

    #[test]
    fn busy_jitter_stays_inside_a_quarter_of_the_retry_after() {
        for nonce in [0u64, 1, 42, u64::MAX] {
            for retry_after in [0u32, 1, 5, 250, 10_000] {
                let j = busy_jitter_ms(nonce, retry_after);
                assert!(j <= u64::from(retry_after) / 4, "{nonce} {retry_after} {j}");
            }
        }
    }

    /// A simulated transport replays events into the core, so the same
    /// script must give the same datagrams and deadlines on every run.
    #[test]
    fn replayed_client_events_produce_identical_datagrams_and_deadlines() {
        // Lose the first Begin and the first WindowAck: the script then
        // holds a Begin retry fired from a deadline, the Accept,
        // Data/Parity, WindowEnds, a retried WindowEnd and the Bye.
        let (mut begins, mut acks) = (0, 0);
        let (_, script) = Pair::connect(2, rs82()).run(|msg| match msg {
            Msg::Begin => {
                begins += 1;
                begins > 1
            }
            Msg::WindowAck(_) => {
                acks += 1;
                acks > 1
            }
            _ => true,
        });
        let replay = || {
            let mut core = ClientCore::new(NetClientConfig::default(), NONCE);
            let mut out = OutQueue::default();
            let (mut datagrams, mut deadlines) = (Vec::new(), Vec::new());
            for (now, input) in &script {
                let _ = apply(
                    &mut core,
                    input,
                    &mut Ctx {
                        now: *now,
                        out: &mut out,
                    },
                );
                out.drain(|d| datagrams.push(d.to_vec()));
                deadlines.push(core.next_deadline());
            }
            (datagrams, deadlines)
        };
        let first = replay();
        assert_eq!(first, replay(), "replays must match byte for byte");

        let fed: Vec<Msg> = script
            .iter()
            .filter_map(|(_, input)| match input {
                Input::Datagram(d) => Some(decode(d)),
                _ => None,
            })
            .collect();
        assert!(script.iter().any(|(_, i)| matches!(i, Input::Deadline)));
        assert!(fed.iter().any(|m| matches!(m, Msg::Accept(_))));
        assert!(fed.iter().any(Msg::is_data));
        assert!(fed.iter().any(|m| matches!(m, Msg::Parity(_))));
        let first_ends = fed
            .iter()
            .filter(|m| matches!(m, Msg::WindowEnd(e) if e.window == 0))
            .count();
        assert_eq!(first_ends, 2, "the server retried the unacked WindowEnd");
        assert!(fed.iter().any(|m| matches!(m, Msg::Bye(_))));
        let sent: Vec<Msg> = first.0.iter().map(|d| decode(d)).collect();
        assert_eq!(sent.iter().filter(|m| matches!(m, Msg::Begin)).count(), 2);
        let first_acks: Vec<u64> = sent
            .iter()
            .filter_map(|m| match m {
                Msg::WindowAck(a) if a.window == 0 => Some(a.ack_seq),
                _ => None,
            })
            .collect();
        assert_eq!(first_acks, [1, 2], "a re-ack takes a fresh sequence number");
        assert!(matches!(sent.last(), Some(Msg::ByeAck)));
    }

    /// Corruption that flips a byte of a window id (FullChaos does) must
    /// not close the open window early nor count a window the stream
    /// does not have toward completion.
    #[test]
    fn out_of_range_window_ids_are_dropped_mid_stream() {
        const WINDOWS: u64 = 3;
        let (_, script) = Pair::connect(WINDOWS as usize, rs82()).run(|_| true);
        let first_of_window_1 = script
            .iter()
            .position(|(_, i)| {
                matches!(i, Input::Datagram(d)
                    if matches!(decode(d), Msg::Data(data) if data.fragment.window == 1))
            })
            .expect("window 1 streams");
        let mut data = decode(match &script[first_of_window_1].1 {
            Input::Datagram(d) => d,
            _ => unreachable!(),
        });
        if let Msg::Data(d) = &mut data {
            d.fragment.window = WINDOWS;
        }
        let end = Msg::WindowEnd(WindowEnd {
            window: 0x55 << 56,
            sent_at_us: 1,
            last: false,
        });
        let bogus = [data, end].map(|m| wire::try_encode(CONN, &m).unwrap());

        let mut core = ClientCore::new(NetClientConfig::default(), NONCE);
        let mut out = OutQueue::default();
        let mut acked = Vec::new();
        for (k, (now, input)) in script.iter().enumerate() {
            let ctx = &mut Ctx {
                now: *now,
                out: &mut out,
            };
            let _ = apply(&mut core, input, ctx);
            if k == first_of_window_1 {
                for d in &bogus {
                    assert_eq!(core.on_datagram(d, ctx).unwrap(), Step::Pending);
                }
                let open = core.current.as_ref().map(ClientWindow::window);
                assert_eq!(open, Some(1), "the real window stays open");
            }
            out.drain(|d| {
                if let Msg::WindowAck(a) = decode(d) {
                    acked.push(a.window);
                }
            });
        }
        assert_eq!(acked, [0, 1, 2], "every real window is ACKed, in order");
        let report = core.report(NetClientReport::default());
        assert_eq!(report.windows_completed, WINDOWS as usize);
        assert_eq!(report.patterns.len(), WINDOWS as usize);
    }
}
