//! The UDP client as a sans-IO state object.
//!
//! [`ClientCore`] is the client half of the paper's §4.2 exchange: the
//! `Hello`/`Accept` negotiation and the `Begin` under bounded retry, then
//! the stream — reassembling each window in a [`NetWindow`], measuring
//! per-layer loss bursts and answering every `WindowEnd` with a
//! sequence-numbered `WindowAck`. A lost `WindowEnd` heals two ways: the
//! server retries it, and data for a *newer* window implicitly finalizes
//! the current one.
//!
//! Like the server's session core it does no I/O and never blocks: a call
//! reads the clock from [`Ctx::now`] (µs since the client's epoch) and
//! appends its datagrams to the out-queue the caller drains.

use std::collections::HashMap;
use std::time::Duration;

use espread_qos::{ContinuityMetrics, WindowSeries};

use crate::client::{NetClientConfig, NetClientReport};
use crate::clientwin::{NetWindow, RecoverScratch};
use crate::error::NetError;
use crate::session::{earliest, us, Ctx};
use crate::telem::ClientTelem;
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
    telem: ClientTelem,
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
    current: Option<NetWindow>,
    /// window → its acked bursts, for re-acking retried `WindowEnd`s.
    acked: HashMap<u64, Vec<u16>>,
    /// `(window, rounds)`: critical-NACK rounds already spent on `window`.
    nacked: Option<(u64, u32)>,
    /// The previous window's tracker, which `open` resets instead of
    /// allocating, so one tracker serves the whole stream.
    spare: Option<NetWindow>,
    recover_scratch: RecoverScratch,
    /// Reusable body of the `CriticalNack`s.
    nack_buf: Vec<u16>,
    ack_seq: u64,
    report: NetClientReport,
}

impl ClientCore {
    /// A client that offers `config`'s capabilities under `nonce`.
    pub(crate) fn new(config: NetClientConfig, nonce: u64) -> Self {
        ClientCore {
            config,
            telem: ClientTelem::default_global(),
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
            report: NetClientReport {
                series: WindowSeries::new(),
                patterns: Vec::new(),
                windows_completed: 0,
                windows_total: 0,
                acks_sent: 0,
                nacks_sent: 0,
                datagrams_rx: 0,
                data_rx: 0,
                parity_rx: 0,
                bytes_rx: 0,
                hello_retries: 0,
                saw_bye: false,
                timeout_updates: 0,
                fec_recovered: 0,
                fec_unrecoverable: 0,
                send_errors: 0,
                foreign_conn: 0,
            },
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

    /// The caller's socket took (`true`) or refused one drained datagram.
    pub(crate) fn on_sent(&mut self, ok: bool) {
        if ok {
            self.telem.on_tx();
        } else {
            self.telem.on_send_error();
            self.report.send_errors += 1;
        }
    }

    /// A datagram `d` from the server arrived at `ctx.now`. Fails when the
    /// server refused the handshake or accepted an inconsistent shape.
    pub(crate) fn on_datagram(&mut self, d: &[u8], ctx: &mut Ctx<'_>) -> Result<Step, NetError> {
        self.telem.on_rx();
        let connected = self.phase != Phase::Hello;
        if connected {
            self.report.bytes_rx += d.len() as u64;
            self.report.datagrams_rx += 1;
        }
        let Ok((conn_id, msg)) = wire::decode_with(d, &mut self.decode_scratch) else {
            self.telem.on_decode_error();
            if connected {
                self.config.recorder.decode_error(self.conn_id);
            }
            return Ok(Step::Pending);
        };
        match msg {
            // Another connection's datagram: acting on it (a stray `Bye`
            // above all) could end this healthy session.
            _ if connected && conn_id != self.conn_id => {
                self.report.foreign_conn += 1;
                self.telem.on_foreign_conn();
            }
            Msg::Accept(accept) if !connected && accept.nonce == self.nonce => {
                validate_accept(&accept)?;
                self.report.windows_total = accept.windows_total as usize;
                // Only the stream's sends count in the report.
                self.report.send_errors = 0;
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
        if self.report.saw_bye {
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
        if self.phase == Phase::Hello {
            self.report.hello_retries += 1;
            self.telem.on_hello_retry();
        } else {
            self.telem.on_begin_retry();
        }
        self.send_attempt(ctx);
        Ok(Step::Pending)
    }

    /// The stream ended: no deadline outlives it.
    fn finish(&mut self) -> Step {
        (self.retry_at, self.deadline, self.linger_until) = (None, None, None);
        Step::Done
    }

    /// What the client saw; `timeout_updates` is the caller's count.
    pub(crate) fn report(mut self, timeout_updates: u64) -> NetClientReport {
        self.report.windows_completed = self.acked.len();
        self.report.timeout_updates = timeout_updates;
        self.report
    }

    /// Encodes onto the end of the out-queue. An oversize message (a NACK
    /// list inflated by hostile labels) is counted and dropped, never
    /// truncated and never a panic: the server sees it as loss.
    fn send(&mut self, ctx: &mut Ctx<'_>, msg: &Msg) {
        if !ctx.out.push(self.conn_id, msg) {
            self.telem.on_encode_oversize();
            self.report.send_errors += 1;
        }
    }

    fn process(&mut self, msg: &Msg, ctx: &mut Ctx<'_>) {
        let conn = self.conn_id;
        match msg {
            Msg::Data(data) => {
                self.report.data_rx += 1;
                let f = &data.fragment;
                let (w, frame, frag, retx) = (f.window, f.frame as u32, f.frag, f.retransmit);
                let Some(mut cur) = self.take_window(w, ctx) else {
                    // Stale retransmission, duplicate after finalize or a
                    // window id out of range: no window this stream opens.
                    self.config.recorder.ignored(conn, w, frame, frag, retx);
                    return;
                };
                let obs = &self.config.recorder;
                let was_complete = cur.is_complete(f.frame);
                if cur.accept(data) {
                    obs.delivered(conn, w, frame, frag, retx);
                    if !was_complete && cur.is_complete(f.frame) {
                        obs.reassembled(conn, w, frame, f.frags_total);
                    }
                } else {
                    self.telem.on_bad_fragment();
                    obs.bad_fragment(conn, w, frame, frag);
                }
                self.current = Some(cur);
            }
            Msg::Parity(parity) => {
                self.report.parity_rx += 1;
                // Parity rides the same window-advance logic as data: a
                // group for a newer window implicitly closes the current.
                let Some(mut cur) = self.take_window(parity.window, ctx) else {
                    return;
                };
                if !cur.accept_parity(parity) {
                    self.telem.on_bad_fragment();
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
                self.run_recovery(&mut cur);
                let round = match self.nacked {
                    Some((w, rounds)) if w == end.window => rounds + 1,
                    _ => 1,
                };
                if self.config.recovery && round <= self.config.retry.max_attempts {
                    let mut missing = std::mem::take(&mut self.nack_buf);
                    cur.missing_critical_into(&mut missing);
                    if !missing.is_empty() {
                        self.nacked = Some((end.window, round));
                        self.report.nacks_sent += 1;
                        for &frame in &missing {
                            let frame = u32::from(frame);
                            self.config
                                .recorder
                                .nack_sent(conn, end.window, frame, round);
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
                self.report.saw_bye = true;
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
    fn take_window(&mut self, w: u64, ctx: &mut Ctx<'_>) -> Option<NetWindow> {
        if w >= self.report.windows_total as u64 {
            // Most likely a corrupted id. Opening it would close the real
            // window early and count toward completion.
            self.telem.on_bad_fragment();
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
    fn open(&mut self, window: u64) -> NetWindow {
        let a = &self.accept;
        let frames = usize::from(a.frames_per_window);
        let Some(mut w) = self.spare.take() else {
            return NetWindow::new(window, frames, &a.layer_sizes, &a.critical_frames);
        };
        w.reset(window, frames, &a.layer_sizes, &a.critical_frames);
        w
    }

    /// Runs one erasure-recovery pass over `win`, folding the result
    /// into telemetry and the report counters.
    fn run_recovery(&mut self, win: &mut NetWindow) {
        let r = win.recover_with(&mut self.recover_scratch);
        if r.recovered > 0 {
            self.telem.on_fec_recovered(r.recovered as u64);
            self.report.fec_recovered += r.recovered as u64;
        }
        if r.unrecoverable > 0 {
            self.telem.on_fec_unrecoverable(r.unrecoverable as u64);
            self.report.fec_unrecoverable += r.unrecoverable as u64;
        }
    }

    fn finalize(&mut self, mut win: NetWindow, echo_us: u64, ctx: &mut Ctx<'_>) {
        // Implicitly closed windows still get their recovery pass; for
        // explicitly closed ones it finds nothing new.
        self.run_recovery(&mut win);
        let outcome = win.close();
        self.spare = Some(win);
        let (obs, w, pattern) = (&self.config.recorder, outcome.window, outcome.pattern);
        for frame in pattern.lost_indices() {
            obs.abandoned(self.conn_id, w, frame as u32);
        }
        obs.window_closed(self.conn_id, w, pattern.len() as u32);
        self.report.series.push(ContinuityMetrics::of(&pattern));
        self.report.patterns.push(pattern);
        self.telem.on_window();
        let bursts = outcome.per_layer_burst;
        self.ack(w, echo_us, bursts.clone(), ctx);
        self.acked.insert(w, bursts);
        if self.acked.len() >= self.report.windows_total && self.linger_until.is_none() {
            // All windows in: linger for the Bye, but don't stall forever.
            let linger = us(self.config.retry.total_wait()).saturating_add(1);
            self.linger_until = Some(ctx.now.saturating_add(linger));
        }
    }

    fn ack(&mut self, window: u64, echo_us: u64, per_layer_burst: Vec<u16>, ctx: &mut Ctx<'_>) {
        self.ack_seq += 1;
        self.report.acks_sent += 1;
        let ack_seq = self.ack_seq;
        self.config.recorder.ack_sent(self.conn_id, window, ack_seq);
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
    use std::sync::Arc;

    use espread_protocol::{
        negotiate, FecPolicy, FecScope, ProtocolConfig, SessionOffer, StreamSource,
    };
    use espread_trace::{GopPattern, Movie, MpegTrace};

    use super::*;
    use crate::obsrec::SessionRecorder;
    use crate::retry::RetryPolicy;
    use crate::session::{OutQueue, SessionCore, SessionLimits};
    use crate::telem::ServerTelem;
    use crate::wire::WindowEnd;

    const NONCE: u64 = 7 << 32;
    const CONN: u32 = 1;
    /// The shared clock's start: far enough from 0 that nothing clamps.
    const T0: u64 = 1_000;

    fn decode(datagram: &[u8]) -> Msg {
        wire::decode(datagram).expect("datagrams decode").1
    }

    fn rs82() -> FecPolicy {
        FecPolicy::rs(FecScope::All, 8, 2)
    }

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

    /// One client input, logged with its clock so a script replays.
    #[derive(Debug, Clone)]
    enum Input {
        Start,
        Begin,
        Datagram(Vec<u8>),
        Deadline,
    }

    fn apply(core: &mut ClientCore, input: &Input, ctx: &mut Ctx<'_>) -> Result<Step, NetError> {
        match input {
            Input::Start => core.start(ctx),
            Input::Begin => core.begin(ctx),
            Input::Datagram(d) => return core.on_datagram(d, ctx),
            Input::Deadline => return core.on_deadline(ctx),
        }
        Ok(Step::Pending)
    }

    /// A `SessionCore` and a `ClientCore` joined by plain `Vec<u8>`
    /// hand-off on one integer clock: a session with no socket.
    struct Pair {
        server: SessionCore,
        client: ClientCore,
        now: u64,
        to_client: OutQueue,
        to_server: OutQueue,
        /// Every client input with its clock.
        inputs: Vec<(u64, Input)>,
    }

    impl Pair {
        /// Runs the handshake (never lost) and begins a stream of
        /// `windows` Jurassic Park windows, one GOP 12 each.
        fn connect(windows: usize, fec: FecPolicy) -> Self {
            let config = NetClientConfig::default();
            let mut client = ClientCore::new(config.clone(), NONCE);
            let (mut to_client, mut to_server) = (OutQueue::default(), OutQueue::default());
            client.start(&mut Ctx {
                now: T0,
                out: &mut to_server,
            });
            let mut hellos = Vec::new();
            to_server.drain(|d| hellos.push(decode(d)));
            let [Msg::Hello(hello)] = &hellos[..] else {
                panic!("one Hello: {hellos:?}");
            };
            let offer = SessionOffer {
                gop_pattern: GopPattern::gop12(),
                gops_per_window: 1,
                open_gop: false,
                fps: 24,
                packet_bytes: 2048,
                max_frame_bytes: 62_776 / 8,
                fec,
            };
            let agreed = negotiate(offer, config.capabilities).expect("the offer fits");
            let narrow = |v: &[usize]| v.iter().map(|&x| x as u16).collect();
            let accept = Accept {
                nonce: hello.nonce,
                frames_per_window: agreed.offer.frames_per_window() as u16,
                windows_total: windows as u32,
                packet_bytes: agreed.offer.packet_bytes,
                fps: agreed.offer.fps,
                layer_sizes: narrow(&agreed.layer_sizes),
                critical_frames: narrow(&agreed.critical_frames),
            };
            let trace = MpegTrace::new(Movie::JurassicPark, 1);
            let mut server = SessionCore::new(
                CONN,
                ProtocolConfig::paper(0.6, 1).with_ordering(hello.ordering),
                Arc::new(StreamSource::mpeg(&trace, 1, windows, false)),
                RetryPolicy::lan(),
                Duration::ZERO,
                fec,
                SessionLimits::unlimited(),
                ServerTelem::default_global(),
                SessionRecorder::disabled(),
                T0,
            );
            server.start(&mut Ctx {
                now: T0,
                out: &mut to_client,
            });
            let mut pair = Pair {
                server,
                client,
                now: T0,
                to_client,
                to_server,
                inputs: vec![(T0, Input::Start)],
            };
            let accept = wire::try_encode(CONN, &Msg::Accept(accept)).unwrap();
            assert_eq!(pair.feed(Input::Datagram(accept)).unwrap(), Step::Connected);
            pair.feed(Input::Begin).unwrap();
            pair
        }

        fn feed(&mut self, input: Input) -> Result<Step, NetError> {
            let ctx = &mut Ctx {
                now: self.now,
                out: &mut self.to_server,
            };
            let step = apply(&mut self.client, &input, ctx);
            self.inputs.push((self.now, input));
            step
        }

        /// One round on the shared clock: the server fires what is due
        /// and pumps, the client fires its deadline when due, then every
        /// queued datagram crosses unless `deliver` drops it. When
        /// nothing crossed, the clock moves to the next deadline.
        fn round(&mut self, deliver: &mut impl FnMut(&Msg) -> bool) -> Step {
            let ctx = &mut Ctx {
                now: self.now,
                out: &mut self.to_client,
            };
            self.server.on_deadline(ctx);
            self.server.on_tick(ctx);
            let mut step = Step::Pending;
            if self.client.next_deadline().is_some_and(|t| t <= self.now) {
                step = self.feed(Input::Deadline).expect("the stream heals");
            }
            let mut down = Vec::new();
            self.to_client.drain(|d| down.push(d.to_vec()));
            let mut crossed = !down.is_empty();
            for d in down {
                if deliver(&decode(&d)) {
                    match self.feed(Input::Datagram(d)).expect("the stream heals") {
                        Step::Pending => {}
                        s => step = s,
                    }
                }
            }
            let mut up = Vec::new();
            self.to_server.drain(|d| up.push(decode(d)));
            crossed |= !up.is_empty();
            for msg in up.iter().filter(|m| deliver(m)) {
                let ctx = &mut Ctx {
                    now: self.now,
                    out: &mut self.to_client,
                };
                self.server.on_msg(msg, self.now, ctx);
            }
            if !crossed {
                let next = earliest(self.server.next_deadline(), self.client.next_deadline());
                self.now = next.expect("a deadline is armed").max(self.now);
            }
            step
        }

        /// Rounds until the client's stream ends; its report and inputs.
        fn run(
            mut self,
            mut deliver: impl FnMut(&Msg) -> bool,
        ) -> (NetClientReport, Vec<(u64, Input)>) {
            for _ in 0..100_000 {
                if self.round(&mut deliver) == Step::Done {
                    assert_eq!(
                        self.server.next_deadline(),
                        None,
                        "the ByeAck crossed and ended the server session too"
                    );
                    return (self.client.report(0), self.inputs);
                }
            }
            panic!("the stream never ended");
        }
    }

    #[test]
    fn a_session_with_no_socket_completes_and_heals_through_deadlines() {
        let (report, _) = Pair::connect(4, rs82()).run(|_| true);
        assert_eq!(report.windows_total, 4);
        assert_eq!(report.windows_completed, report.windows_total);
        assert!(report.saw_bye);
        assert!(report.parity_rx > 0, "RS(8,2) parity crossed");
        assert_eq!((report.fec_recovered, report.fec_unrecoverable), (0, 0));
        assert_eq!(report.series.summary().mean_clf, 0.0, "nothing lost");

        // Lose the first Begin and the first WindowEnd of window 1: the
        // client's Begin retry and the server's WindowEnd retry heal both.
        let (mut begins, mut ends) = (0, 0);
        let mut deliver = |msg: &Msg| match msg {
            Msg::Begin => {
                begins += 1;
                begins > 1
            }
            Msg::WindowEnd(end) if end.window == 1 => {
                ends += 1;
                ends > 1
            }
            _ => true,
        };
        let (healed, _) = Pair::connect(4, rs82()).run(&mut deliver);
        assert_eq!((begins, ends), (2, 2), "each was lost once, then retried");
        assert_eq!(healed.windows_completed, healed.windows_total);
        assert_eq!(healed.acks_sent, 4, "one ACK per window");
        assert_eq!(healed.patterns, report.patterns, "no loss reached playout");
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
                let open = core.current.as_ref().map(NetWindow::window);
                assert_eq!(open, Some(1), "the real window stays open");
            }
            out.drain(|d| {
                if let Msg::WindowAck(a) = decode(d) {
                    acked.push(a.window);
                }
            });
        }
        assert_eq!(acked, [0, 1, 2], "every real window is ACKed, in order");
        let report = core.report(0);
        assert_eq!(report.windows_completed, WINDOWS as usize);
        assert_eq!(report.patterns.len(), WINDOWS as usize);
    }
}
