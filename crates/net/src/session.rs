//! A server session as a sans-IO state object.
//!
//! [`SessionCore`] is the window-pacing / `WindowAck`-retry /
//! `CriticalNack` logic of the paper's §4.2 protocol as an explicit
//! state machine with three entry points:
//!
//! * [`SessionCore::on_msg`] — a routed datagram arrived for this
//!   connection;
//! * [`SessionCore::on_deadline`] — the clock reached one of the
//!   session's own timers (the watchdog, then the retry deadline);
//! * [`SessionCore::on_tick`] — the transmit pump: queues the next paced
//!   batch of fragments when the session is mid-window.
//!
//! The core does no I/O and never blocks. A call reads the clock from
//! [`Ctx::now`] (µs since the server epoch) and appends its datagrams to
//! the [`OutQueue`] the caller drains afterwards, so tests and simulated
//! transports drive it with plain integers. The session owns its
//! deadlines, which arming sets and disarming clears, so a cancelled
//! timer exists nowhere; [`SessionCore::next_deadline`] reports the
//! earliest. They follow the threaded server's [`RetryPolicy`]
//! schedules, so the retry/NACK behaviour on the wire is unchanged.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use espread_fec::Codec;
use espread_protocol::client::{DataMsg, ParityMember, ParityMsg};
use espread_protocol::{
    FecPolicy, FecScope, ParityGrouper, ProtocolConfig, Server, StreamSource, WindowFeedback,
    WindowPlan,
};

use crate::retry::RetryPolicy;
use crate::wire::{self, ByeReason, DataLabels, Msg, WindowEnd};

/// Fragments sent per [`SessionCore::on_tick`] when pacing is disabled —
/// bounds how long one session can monopolise its shard.
const TICK_BATCH: usize = 64;

/// Overload-protection knobs a session inherits from the server config.
/// A zero duration disables the corresponding mechanism, so a
/// default-configured server behaves exactly as it did before the
/// graceful-degradation layer existed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionLimits {
    /// Pacing debt past which whole enhancement-layer frames are shed
    /// (critical frames are never shed, whatever the debt).
    pub shed_lag: Duration,
    /// Age of a closed window past which NACKed retransmissions are
    /// skipped as stale — the frames' playout deadline has passed, so
    /// resending them wastes capacity the overloaded server needs.
    pub stale_retx_after: Duration,
    /// No-forward-progress deadline: a session that neither sends nor
    /// receives a datagram for this long is terminated (typed outcome)
    /// and reaped. A backstop against wedged state, not a retry knob.
    pub watchdog: Duration,
}

impl SessionLimits {
    /// Every mechanism disabled — the pre-overload-protection behaviour.
    #[cfg(test)]
    pub(crate) fn unlimited() -> Self {
        SessionLimits {
            shed_lag: Duration::ZERO,
            stale_retx_after: Duration::ZERO,
            watchdog: Duration::ZERO,
        }
    }
}

/// The datagrams queued by session calls, in encode order: one encode
/// buffer (the per-shard "buffer pool" — one allocation serves every
/// send on the shard) and each datagram's byte span in it; and beside
/// them the calls' [`Effect`]s, each stamped with its call's clock.
#[derive(Debug, Default)]
pub(crate) struct OutQueue {
    bytes: Vec<u8>,
    spans: Vec<Range<usize>>,
    effects: Vec<(u64, Effect)>,
}

impl OutQueue {
    /// Encodes `msg` for `conn_id` onto the end of the queue; `false`,
    /// with nothing queued, when the message is too long for the wire.
    pub(crate) fn push(&mut self, conn_id: u32, msg: &Msg) -> bool {
        let span = wire::try_encode_append(conn_id, msg, &mut self.bytes);
        span.map(|span| self.spans.push(span)).is_ok()
    }

    /// Queues an already-encoded datagram.
    pub(crate) fn push_encoded(&mut self, datagram: &[u8]) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(datagram);
        self.spans.push(start..self.bytes.len());
    }

    /// Hands every queued datagram to `send`, in encode order, and
    /// empties the queue.
    pub(crate) fn drain(&mut self, mut send: impl FnMut(&[u8])) {
        for span in self.spans.drain(..) {
            send(&self.bytes[span]);
        }
        self.bytes.clear();
    }

    /// Hands every queued effect and its stamp to `fold`, in the order
    /// the calls pushed them, and empties the buffer, keeping its
    /// capacity.
    pub(crate) fn drain_effects(&mut self, mut fold: impl FnMut(u64, Effect)) {
        for (at, effect) in self.effects.drain(..) {
            fold(at, effect);
        }
    }

    /// Room for effects the buffer has grown to.
    #[cfg(test)]
    pub(crate) fn effect_capacity(&self) -> usize {
        self.effects.capacity()
    }
}

/// What a session or client call reads and writes: the clock, in µs
/// since the caller's epoch, and the out-queue its sends and effects
/// append to.
pub(crate) struct Ctx<'a> {
    pub now: u64,
    pub out: &'a mut OutQueue,
}

impl Ctx<'_> {
    /// Queues `effect` for the shell's fold, stamped with this call's
    /// clock.
    pub(crate) fn emit(&mut self, effect: Effect) {
        self.out.effects.push((self.now, effect));
    }
}

/// Where a window-level effect happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowLabels {
    pub conn: u32,
    pub window: u64,
}

/// Where a per-frame effect happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameLabels {
    pub conn: u32,
    pub window: u64,
    pub frame: u32,
}

impl FrameLabels {
    pub(crate) fn new(conn: u32, window: u64, frame: usize) -> Self {
        let frame = frame as u32;
        FrameLabels {
            conn,
            window,
            frame,
        }
    }
}

/// The labels of the fragment a data message carries on `conn`.
pub(crate) fn data_labels(conn: u32, data: &DataMsg) -> DataLabels {
    let f = &data.fragment;
    DataLabels {
        conn,
        window: f.window,
        frame: f.frame as u16,
        frag: f.frag,
        retransmit: f.retransmit,
    }
}

/// One occurrence inside a core call, reported once. The cores push
/// effects and book nothing: the shell that drives a core folds each
/// effect, once, into the counters, the flight recorder and, on the
/// client, the report's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    // ── admission ───────────────────────────────────────────────
    /// A `Hello` opened a session.
    Admitted,
    /// A `Hello` at the session cap was refused with `Busy`.
    Busy,
    /// Caching a handshake reply expired or evicted this many others.
    HandshakeEvictions(u64),
    // ── server session ──────────────────────────────────────────
    /// A frame entered the window's schedule at transmission slot `.1`.
    Queued(FrameLabels, u32),
    /// A data fragment was queued for the socket; a retransmission
    /// when its labels say so.
    Sent(DataLabels),
    /// A data fragment was too long for the wire; nothing was queued.
    SendRefused(DataLabels),
    /// A control message was too long for the wire; nothing was queued.
    EncodeOversize,
    /// The window's `WindowEnd` was queued.
    WindowEndSent(WindowLabels),
    /// An enhancement-layer frame was shed under pacing debt.
    ShedEnhancement(FrameLabels),
    /// A NACKed frame was skipped: its window is past playout.
    ShedStaleRetx(FrameLabels),
    /// A NACKed frame is resent (each fragment is also a `Sent`).
    Retransmission,
    /// A `WindowAck` (`.1` = its sequence number) was folded into the
    /// planner.
    AckReceived(WindowLabels, u64),
    /// A `CriticalNack` named this frame as missing.
    NackReceived(FrameLabels),
    /// A round-trip sample from an ACK's echo, in µs.
    Rtt(u64),
    /// A `WindowEnd` or `Bye` was resent under the retry schedule.
    Retry,
    /// The window's ACK never came inside `.1` tries.
    AckTimeout(WindowLabels, u32),
    /// No `Begin` came inside the handshake's patience.
    HandshakeTimeout,
    /// The watchdog ended a session that made no progress.
    WatchdogTermination,
    /// The stream completed (by `ByeAck` or exhausted `Bye` retries).
    SessionComplete,
    /// A closed parity group went out as this many parity datagrams.
    FecGroup(u8),
    // ── client core ─────────────────────────────────────────────
    /// A datagram of this many bytes arrived.
    DatagramRx(usize),
    /// An arrival did not decode; `Some(conn)` once connected.
    DecodeError(Option<u32>),
    /// A decoded datagram carried another connection's id.
    ForeignConn,
    /// The server accepted: the stream's own counts start here.
    Accepted,
    /// A `Hello` was resent.
    HelloRetry,
    /// A `Begin` was resent.
    BeginRetry,
    /// A data fragment was taken into its open window.
    Delivered(DataLabels),
    /// The frame's last missing fragment arrived (`.1` = fragments).
    Reassembled(FrameLabels, u16),
    /// A data fragment for no window this stream opens.
    Ignored(DataLabels),
    /// A data fragment its window refused.
    BadFragment(DataLabels),
    /// A parity datagram its window refused, or a window id past the
    /// stream's end.
    BadLabel,
    /// A parity datagram arrived mid-stream.
    ParityRx,
    /// A frame missed playout when its window closed.
    Abandoned(FrameLabels),
    /// A window of `.1` frames closed.
    WindowClosed(WindowLabels, u32),
    /// A `WindowAck` (`.1` = its sequence number) was queued.
    AckSent(WindowLabels, u64),
    /// A `CriticalNack` was queued: one recovery round.
    NackRound,
    /// The round's `CriticalNack` named this frame (`.1` = round).
    NackSent(FrameLabels, u32),
    /// Fragments repaired by erasure decoding.
    FecRecovered(u64),
    /// Parity groups whose erasures exceeded their parity.
    FecUnrecoverable(u64),
}

/// What the shard should do with the session after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Keep the session in the table.
    Active,
    /// The session ended (gracefully or not): remove and reap it.
    Finished,
}

/// A duration in whole µs, the unit of the session clock.
pub(crate) fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The earlier of two optional clock values.
pub(crate) fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    a.into_iter().chain(b).min()
}

/// Where the session is in its lifecycle.
#[derive(Debug)]
enum Phase {
    /// Accept sent; waiting for the client's `Begin` under one full
    /// retry-schedule's worth of patience.
    AwaitBegin,
    /// Mid-window: the transmit pump is draining the plan's schedule.
    Sending,
    /// `WindowEnd` sent; waiting for the window's ACK under the retry
    /// schedule, serving critical-NACK recovery rounds meanwhile.
    AwaitAck { attempt: u32 },
    /// `Bye` sent; waiting for `ByeAck` under the retry schedule.
    Teardown { attempt: u32 },
    /// Terminal.
    Done,
}

/// Cursor into the current window's transmission schedule:
/// `schedule[slot]`, fragment `frag` of that frame.
#[derive(Debug, Clone, Copy)]
struct SendCursor {
    slot: usize,
    frag: u16,
}

/// Server-side erasure-coding state, present only when the negotiated
/// policy enables FEC. Groups form over **transmission order**: the
/// fragments a loss burst hits are exactly the ones that share a group,
/// so one burst consumes parity from many groups instead of exhausting
/// one.
struct FecState {
    policy: FecPolicy,
    /// The full `(k, m)` codec; an under-filled tail group builds a
    /// smaller one on the fly.
    codec: Codec,
    /// The open group and the window's next group id.
    groups: ParityGrouper,
    /// Reusable zero-filled data shards and parity outputs.
    data: Vec<Vec<u8>>,
    parity: Vec<Vec<u8>>,
}

/// One connection's complete server-side state.
pub(crate) struct SessionCore {
    conn_id: u32,
    protocol: ProtocolConfig,
    source: StreamSource,
    retry: RetryPolicy,
    pace: Duration,
    /// When the session was opened; `WindowEnd` stamps and RTT samples
    /// count from here.
    epoch: u64,
    proto: Server,
    phase: Phase,
    /// The live retry deadline (ACK wait, teardown wait or the `Begin`
    /// window), if one is armed.
    retry_at: Option<u64>,
    /// The live no-progress watchdog deadline, if one is armed.
    watchdog_at: Option<u64>,
    window: usize,
    plan: Option<Arc<WindowPlan>>,
    cursor: SendCursor,
    next_send_at: u64,
    fec: Option<FecState>,
    limits: SessionLimits,
    /// Per-frame criticality of the current window (the shed boundary:
    /// `true` frames are never shed; also the `FecScope::Critical` scope).
    critical: Vec<bool>,
    /// When the current window's first `WindowEnd` went out — the stale
    /// clock retransmission requests are judged against.
    closed_at: u64,
    /// Datagram activity counter (sends + routed receives); the watchdog
    /// compares it against [`Self::progress_mark`] to detect a session
    /// making no forward progress at all.
    progress: u64,
    /// Value of `progress` when the watchdog was last armed.
    progress_mark: u64,
    /// `slot_of_frame[frame]` = first schedule slot carrying `frame` in
    /// the current window, `u32::MAX` when the frame is unscheduled.
    /// Rebuilt per window so NACK retransmissions index instead of scan.
    slot_of_frame: Vec<u32>,
}

impl SessionCore {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        conn_id: u32,
        protocol: ProtocolConfig,
        source: StreamSource,
        retry: RetryPolicy,
        pace: Duration,
        fec: FecPolicy,
        limits: SessionLimits,
        epoch: u64,
    ) -> Self {
        let proto = Server::new(&protocol, &source.poset);
        // The offer validated the geometry; a bad one here (hand-built
        // config) silently disables FEC rather than panicking a shard.
        let fec = if fec.enabled() {
            Codec::new(usize::from(fec.group_k), usize::from(fec.parity_m))
                .ok()
                .map(|codec| FecState {
                    policy: fec,
                    groups: ParityGrouper::new(codec.k(), codec.m() as u8),
                    codec,
                    data: Vec::new(),
                    parity: Vec::new(),
                })
        } else {
            None
        };
        SessionCore {
            conn_id,
            protocol,
            source,
            retry,
            pace,
            epoch,
            proto,
            phase: Phase::AwaitBegin,
            retry_at: None,
            watchdog_at: None,
            window: 0,
            plan: None,
            cursor: SendCursor { slot: 0, frag: 0 },
            next_send_at: epoch,
            fec,
            limits,
            critical: Vec::new(),
            closed_at: epoch,
            progress: 0,
            progress_mark: 0,
            slot_of_frame: Vec::new(),
        }
    }

    pub(crate) fn conn_id(&self) -> u32 {
        self.conn_id
    }

    fn window_labels(&self, window: u64) -> WindowLabels {
        let conn = self.conn_id;
        WindowLabels { conn, window }
    }

    /// The labels of `frame` in the current window.
    fn frame_labels(&self, frame: usize) -> FrameLabels {
        FrameLabels::new(self.conn_id, self.window as u64, frame)
    }

    /// Whether the window is closed and the session waits for its ACK.
    #[cfg(test)]
    pub(crate) fn awaits_ack(&self) -> bool {
        matches!(self.phase, Phase::AwaitAck { .. })
    }

    /// The earliest armed timer (retry or watchdog), if any. The shard
    /// fires due timers in `(deadline, conn)` order.
    pub(crate) fn timer_at(&self) -> Option<u64> {
        earliest(self.retry_at, self.watchdog_at)
    }

    /// When the session next needs the shard: its earliest timer or,
    /// mid-window, the paced send clock. `None` means it waits only for
    /// datagrams.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        let send_at = matches!(self.phase, Phase::Sending).then_some(self.next_send_at);
        earliest(self.timer_at(), send_at)
    }

    /// Arms the session's `Begin` deadline (and the progress watchdog,
    /// when configured); called once, right after the shard inserts the
    /// session. Sends nothing, so the session stays active.
    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_>) -> Status {
        self.arm(ctx.now, self.retry.total_wait());
        self.arm_watchdog(ctx.now);
        Status::Active
    }

    /// Replaces the live retry deadline with one `wait` after `now`.
    fn arm(&mut self, now: u64, wait: Duration) {
        self.retry_at = Some(now.saturating_add(us(wait)));
    }

    /// Cancels the live retry deadline without arming a new one.
    fn disarm(&mut self) {
        self.retry_at = None;
    }

    /// Arms (or re-arms) the no-progress watchdog, snapshotting the
    /// progress counter the eventual fire will be judged against.
    fn arm_watchdog(&mut self, now: u64) {
        if self.limits.watchdog.is_zero() {
            return;
        }
        self.progress_mark = self.progress;
        self.watchdog_at = Some(now.saturating_add(us(self.limits.watchdog)));
    }

    /// Terminal transition: no timer outlives the session.
    fn finish(&mut self) -> Status {
        self.retry_at = None;
        self.watchdog_at = None;
        self.phase = Phase::Done;
        Status::Finished
    }

    /// The watchdog fired: terminate if nothing moved since it was
    /// armed, otherwise re-arm for another period.
    fn on_watchdog(&mut self, ctx: &mut Ctx<'_>) -> Status {
        if matches!(self.phase, Phase::Done) {
            return Status::Active;
        }
        if self.progress != self.progress_mark {
            self.arm_watchdog(ctx.now);
            return Status::Active;
        }
        // A whole watchdog period with no datagram in either direction:
        // tell the peer the stream is gone (best-effort, unacked) and
        // end in a typed outcome so the shard reaps the session.
        ctx.emit(Effect::WatchdogTermination);
        self.send(ctx, &Msg::Bye(ByeReason::Aborted));
        self.finish()
    }

    fn elapsed_us(&self, now: u64) -> u64 {
        // Never 0: an echo of 0 marks "no RTT sample" on the ACK path.
        now.saturating_sub(self.epoch).max(1)
    }

    /// Encodes onto the end of the out-queue, which the shard drains to
    /// the socket after the call. Oversize messages are reported and
    /// dropped, never a panic — the peer's retry machinery treats the
    /// gap as loss. The effect carries the call's clock, read before the
    /// bytes reach the socket, so a matching delivery on a shared clock
    /// can never be stamped earlier than its send.
    fn send(&mut self, ctx: &mut Ctx<'_>, msg: &Msg) {
        self.progress += 1;
        let queued = ctx.out.push(self.conn_id, msg);
        let effect = match msg {
            Msg::Data(data) => {
                let labels = data_labels(self.conn_id, data);
                if queued {
                    Effect::Sent(labels)
                } else {
                    Effect::SendRefused(labels)
                }
            }
            Msg::WindowEnd(end) if queued => Effect::WindowEndSent(self.window_labels(end.window)),
            _ if queued => return,
            _ => Effect::EncodeOversize,
        };
        ctx.emit(effect);
    }

    fn window_end(&self, now: u64, w: u64) -> Msg {
        Msg::WindowEnd(WindowEnd {
            window: w,
            sent_at_us: self.elapsed_us(now),
            last: w as usize + 1 == self.source.windows.len(),
        })
    }

    /// Plans the current window and starts its transmit pump. Feedback
    /// that arrived since the last plan is already folded into `proto`
    /// by [`Self::feed`], exactly as the threaded server folded its
    /// queue before planning.
    fn begin_window(&mut self, ctx: &mut Ctx<'_>) {
        self.disarm();
        let plan = self.proto.plan_window(&self.source.poset);
        for (slot, sched) in plan.schedule.iter().enumerate() {
            ctx.emit(Effect::Queued(self.frame_labels(sched.frame), slot as u32));
        }
        let frames = self.source.windows[self.window].len();
        self.critical.clear();
        self.critical.resize(frames, false);
        for f in plan.critical_frames() {
            if let Some(c) = self.critical.get_mut(f) {
                *c = true;
            }
        }
        // Precompute the inverse of the schedule once, so recovery
        // rounds index it instead of re-scanning the schedule per NACK.
        self.slot_of_frame.clear();
        self.slot_of_frame.resize(frames, u32::MAX);
        for (slot, sched) in plan.schedule.iter().enumerate() {
            if let Some(entry) = self.slot_of_frame.get_mut(sched.frame) {
                if *entry == u32::MAX {
                    *entry = slot as u32;
                }
            }
        }
        if let Some(fec) = &mut self.fec {
            fec.groups.reset(self.window as u64);
        }
        self.plan = Some(plan);
        self.cursor = SendCursor { slot: 0, frag: 0 };
        self.next_send_at = ctx.now;
        self.phase = Phase::Sending;
    }

    /// Sends one fragment of the frame at schedule position `slot`.
    /// First transmissions of in-scope frames also join the open FEC
    /// group; retransmissions never do (the client already counted the
    /// loss, and parity over a recovery round would shift the groups).
    fn send_fragment(&mut self, ctx: &mut Ctx<'_>, slot: usize, frag: u16, retransmit: bool) {
        let Some(plan) = &self.plan else { return };
        let sched = &plan.schedule[slot];
        let (frame, layer, layer_slot) = (sched.frame, sched.layer, sched.layer_slot);
        let w = self.window as u64;
        let ldu = self.source.windows[self.window][frame];
        let packet = self.protocol.packet_bytes;
        let frags_total = ldu.fragment_count(packet);
        let payload_len = ldu.fragment_size(packet, frag) as u16;
        self.send(
            ctx,
            &Msg::Data(DataMsg {
                fragment: espread_protocol::Fragment {
                    window: w,
                    frame,
                    frag,
                    frags_total,
                    layer,
                    layer_slot,
                    retransmit,
                },
                ldu,
                payload_len,
            }),
        );
        if !retransmit {
            self.fec_accumulate(ctx, frame, frag, frags_total, payload_len);
        }
    }

    /// Folds a freshly sent fragment into the open FEC group and emits
    /// the group's parity datagrams once it fills to `k` members.
    fn fec_accumulate(
        &mut self,
        ctx: &mut Ctx<'_>,
        frame: usize,
        frag: u16,
        frags_total: u16,
        payload_len: u16,
    ) {
        let Some(fec) = &mut self.fec else { return };
        let in_scope = match fec.policy.scope {
            FecScope::All => true,
            FecScope::Critical => self.critical.get(frame).copied().unwrap_or(false),
            FecScope::Off => false,
        };
        if !in_scope {
            return;
        }
        let Ok(frame) = u16::try_from(frame) else {
            return;
        };
        let member = ParityMember {
            frame,
            frag,
            frags_total,
        };
        if let Some(group) = fec.groups.push(member, payload_len) {
            self.fec_emit_group(ctx, group);
        }
    }

    /// Encodes and sends a closed group's `m` parity datagrams. An
    /// under-filled tail group (flushed before `WindowEnd`) encodes with
    /// a codec of its actual size.
    fn fec_emit_group(&mut self, ctx: &mut Ctx<'_>, group: ParityMsg) {
        let Some(fec) = &mut self.fec else { return };
        let k = group.members.len();
        let tail; // owns a tail-sized codec when the group is partial
        let codec = if k == fec.codec.k() {
            &fec.codec
        } else {
            let Ok(c) = Codec::new(k, fec.codec.m()) else {
                fec.groups.recycle(group);
                return;
            };
            tail = c;
            &tail
        };
        let bytes = usize::from(group.shard_bytes);
        // Traces carry sizes, not content, so the data shards here are
        // the wire's zero fill — but the parity still runs through the
        // real generator, so the send path pays the true byte cost the
        // frontier bench measures.
        fec.data.resize_with(k, Vec::new);
        for shard in fec.data.iter_mut() {
            shard.clear();
            shard.resize(bytes, 0);
        }
        fec.parity.resize_with(codec.m(), Vec::new);
        codec
            .encode_into(&fec.data[..k], &mut fec.parity)
            .expect("group geometry matches its codec");
        let m = group.m;
        // One Msg serves all m parity datagrams: only the parity index
        // changes between sends, and the member list goes back to the
        // grouper afterwards so the steady state allocates nothing.
        let mut msg = Msg::Parity(group);
        for i in 0..m {
            if let Msg::Parity(p) = &mut msg {
                p.parity_index = i;
            }
            self.send(ctx, &msg);
        }
        if let (Msg::Parity(p), Some(fec)) = (msg, &mut self.fec) {
            fec.groups.recycle(p);
        }
        ctx.emit(Effect::FecGroup(m));
    }

    /// The transmit pump: while in the sending phase and the pacing
    /// clock allows, emit fragments (at most [`TICK_BATCH`] per call so
    /// shard peers stay served). Closes the window with a `WindowEnd`
    /// and arms the first ACK-retry deadline when the schedule runs dry.
    pub(crate) fn on_tick(&mut self, ctx: &mut Ctx<'_>) -> Status {
        if !matches!(self.phase, Phase::Sending) {
            return Status::Active;
        }
        let mut budget = TICK_BATCH;
        while budget > 0 && ctx.now >= self.next_send_at {
            let Some(plan) = &self.plan else { break };
            if self.cursor.slot >= plan.schedule.len() {
                // Close the tail FEC group before the window does.
                if let Some(group) = self.fec.as_mut().and_then(|f| f.groups.flush()) {
                    self.fec_emit_group(ctx, group);
                }
                let w = self.window as u64;
                let end = self.window_end(ctx.now, w);
                self.send(ctx, &end);
                self.closed_at = ctx.now;
                self.phase = Phase::AwaitAck { attempt: 0 };
                self.arm(ctx.now, self.retry.backoff(0));
                return Status::Active;
            }
            let frame = plan.schedule[self.cursor.slot].frame;
            // Perception-ordered shedding: a session behind its pacing
            // schedule by more than the configured lag drops whole
            // enhancement-layer frames instead of pushing ever-staler
            // media — never a critical frame, never mid-frame. Nothing
            // hits the wire, so every shed is a step back toward the
            // schedule.
            if self.cursor.frag == 0 && self.should_shed(ctx.now, frame) {
                ctx.emit(Effect::ShedEnhancement(self.frame_labels(frame)));
                self.cursor.slot += 1;
                budget -= 1;
                continue;
            }
            let frags_total =
                self.source.windows[self.window][frame].fragment_count(self.protocol.packet_bytes);
            self.send_fragment(ctx, self.cursor.slot, self.cursor.frag, false);
            self.cursor.frag += 1;
            if self.cursor.frag >= frags_total {
                self.cursor = SendCursor {
                    slot: self.cursor.slot + 1,
                    frag: 0,
                };
            }
            self.next_send_at = self.next_send_at.saturating_add(us(self.pace));
            budget -= 1;
        }
        Status::Active
    }

    /// Whether the frame at the cursor should be shed: shedding is
    /// enabled, the frame is enhancement-layer, and the pacing debt
    /// (how far behind `next_send_at` the loop is running) has crossed
    /// the configured lag.
    fn should_shed(&self, now: u64, frame: usize) -> bool {
        if self.limits.shed_lag.is_zero() {
            return false;
        }
        // An out-of-range frame index defaults to critical: never shed
        // what cannot be classified.
        if self.critical.get(frame).copied().unwrap_or(true) {
            return false;
        }
        now.saturating_sub(self.next_send_at) >= us(self.limits.shed_lag)
    }

    /// Offers a routed message to the planner; an ACK with an echo also
    /// yields an RTT sample. Returns the window an ACK described, if any.
    fn feed(&mut self, msg: &Msg, at: u64, ctx: &mut Ctx<'_>) -> Option<u64> {
        if let Msg::WindowAck(ack) = msg {
            if ack.echo_us != 0 {
                let at_us = at.saturating_sub(self.epoch);
                ctx.emit(Effect::Rtt(at_us.saturating_sub(ack.echo_us)));
            }
            ctx.emit(Effect::AckReceived(
                self.window_labels(ack.window),
                ack.ack_seq,
            ));
            self.proto.offer_ack(
                ack.ack_seq,
                WindowFeedback {
                    window: ack.window,
                    per_layer_burst: ack
                        .per_layer_burst
                        .iter()
                        .map(|&b| usize::from(b))
                        .collect(),
                },
            );
            return Some(ack.window);
        }
        None
    }

    /// Moves past the current window: next window's plan, or teardown
    /// after the last.
    fn advance_window(&mut self, ctx: &mut Ctx<'_>) {
        self.plan = None;
        self.window += 1;
        if self.window >= self.source.windows.len() {
            self.start_teardown(ctx);
        } else {
            self.begin_window(ctx);
        }
    }

    fn start_teardown(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Teardown { attempt: 0 };
        self.send(ctx, &Msg::Bye(ByeReason::Complete));
        self.arm(ctx.now, self.retry.backoff(0));
    }

    /// Terminal transition shared by graceful teardown and exhausted
    /// `Bye` retries (the threaded server also counted both as a
    /// completed session).
    fn finish_complete(&mut self, ctx: &mut Ctx<'_>) -> Status {
        ctx.emit(Effect::SessionComplete);
        self.finish()
    }

    /// A routed control datagram for this connection, which arrived at
    /// `at` on the session clock.
    pub(crate) fn on_msg(&mut self, msg: &Msg, at: u64, ctx: &mut Ctx<'_>) -> Status {
        // Any routed datagram is evidence of a live peer.
        self.progress += 1;
        match &self.phase {
            Phase::AwaitBegin => {
                if matches!(msg, Msg::Begin) {
                    self.begin_window(ctx);
                    return self.on_tick(ctx);
                }
                // Pre-Begin stragglers: ignore, as the threaded server did.
                Status::Active
            }
            Phase::Sending => {
                // ACKs for earlier windows fold into the estimators and
                // are picked up at the next plan; NACKs here can only be
                // stale (the client NACKs in response to a WindowEnd we
                // have not sent yet).
                let _ = self.feed(msg, at, ctx);
                Status::Active
            }
            Phase::AwaitAck { .. } => {
                let w = self.window as u64;
                match msg {
                    Msg::CriticalNack(nack) if nack.window == w => {
                        let frames = self.source.windows[self.window].len();
                        let missing: Vec<usize> = nack
                            .missing
                            .iter()
                            .map(|&f| usize::from(f))
                            .filter(|&f| f < frames)
                            .collect();
                        // A recovery round arriving after the window's
                        // playout deadline would resend frames the
                        // client can no longer show; skip it as stale.
                        let stale = !self.limits.stale_retx_after.is_zero()
                            && ctx.now.saturating_sub(self.closed_at)
                                >= us(self.limits.stale_retx_after);
                        for frame in missing {
                            let labels = self.frame_labels(frame);
                            ctx.emit(Effect::NackReceived(labels));
                            if stale {
                                ctx.emit(Effect::ShedStaleRetx(labels));
                                continue;
                            }
                            ctx.emit(Effect::Retransmission);
                            self.retransmit_frame(ctx, frame);
                        }
                        let end = self.window_end(ctx.now, w);
                        self.send(ctx, &end);
                        // The running backoff deadline keeps ticking; a
                        // recovery round does not reset the retry budget.
                        Status::Active
                    }
                    _ => {
                        if let Some(acked) = self.feed(msg, at, ctx) {
                            if acked >= w {
                                self.disarm();
                                self.advance_window(ctx);
                                return self.on_tick(ctx);
                            }
                        }
                        Status::Active
                    }
                }
            }
            Phase::Teardown { .. } => {
                if matches!(msg, Msg::ByeAck) {
                    return self.finish_complete(ctx);
                }
                let _ = self.feed(msg, at, ctx);
                Status::Active
            }
            Phase::Done => Status::Finished,
        }
    }

    /// Retransmits every fragment of `frame` (a critical-NACK round).
    /// Recovery rounds are small and bounded, so they skip the pacing
    /// clock rather than stall the shard.
    fn retransmit_frame(&mut self, ctx: &mut Ctx<'_>, frame: usize) {
        if self.plan.is_none() {
            return;
        }
        let slot = match self.slot_of_frame.get(frame) {
            Some(&s) if s != u32::MAX => s as usize,
            _ => return,
        };
        let frags_total =
            self.source.windows[self.window][frame].fragment_count(self.protocol.packet_bytes);
        for frag in 0..frags_total {
            self.send_fragment(ctx, slot, frag, true);
        }
    }

    /// Fires whatever is due at `ctx.now`: the watchdog first, then the
    /// retry deadline. A timer not yet due, or not armed, does nothing.
    pub(crate) fn on_deadline(&mut self, ctx: &mut Ctx<'_>) -> Status {
        if self.watchdog_at.is_some_and(|t| t <= ctx.now) {
            self.watchdog_at = None;
            if self.on_watchdog(ctx) == Status::Finished {
                return Status::Finished;
            }
        }
        if self.retry_at.is_none_or(|t| t > ctx.now) {
            return Status::Active;
        }
        self.retry_at = None;
        match self.phase {
            Phase::AwaitBegin => {
                ctx.emit(Effect::HandshakeTimeout);
                self.finish()
            }
            Phase::Sending | Phase::Done => Status::Active,
            Phase::AwaitAck { attempt } => {
                let w = self.window as u64;
                if attempt + 1 < self.retry.max_attempts {
                    ctx.emit(Effect::Retry);
                    let end = self.window_end(ctx.now, w);
                    self.send(ctx, &end);
                    self.phase = Phase::AwaitAck {
                        attempt: attempt + 1,
                    };
                    self.arm(ctx.now, self.retry.backoff(attempt + 1));
                    Status::Active
                } else {
                    // Retry budget spent: record the timeout and move on —
                    // streaming must not stall forever on a dead peer.
                    let attempts = self.retry.max_attempts;
                    ctx.emit(Effect::AckTimeout(self.window_labels(w), attempts));
                    self.advance_window(ctx);
                    self.on_tick(ctx)
                }
            }
            Phase::Teardown { attempt } => {
                if attempt + 1 < self.retry.max_attempts {
                    ctx.emit(Effect::Retry);
                    self.send(ctx, &Msg::Bye(ByeReason::Complete));
                    self.phase = Phase::Teardown {
                        attempt: attempt + 1,
                    };
                    self.arm(ctx.now, self.retry.backoff(attempt + 1));
                    Status::Active
                } else {
                    self.finish_complete(ctx)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{CriticalNackMsg, WindowAckMsg};
    use espread_protocol::{ProtocolConfig, StreamSource};
    use espread_trace::{Movie, MpegTrace};

    /// Session clock of the calls whose timing does not matter: far
    /// enough past the epoch (0) to put state a second in the past.
    const T0: u64 = 10_000_000;

    fn source(windows: usize) -> StreamSource {
        let trace = MpegTrace::new(Movie::JurassicPark, 1);
        StreamSource::mpeg(&trace, 1, windows, false)
    }

    struct Harness {
        core: SessionCore,
        out: OutQueue,
    }

    impl Harness {
        fn new(windows: usize) -> Self {
            Self::with_fec(windows, FecPolicy::off())
        }

        fn with_fec(windows: usize, fec: FecPolicy) -> Self {
            let core = SessionCore::new(
                1,
                ProtocolConfig::paper(0.6, 1),
                source(windows),
                RetryPolicy::lan(),
                Duration::ZERO,
                fec,
                SessionLimits::unlimited(),
                0,
            );
            Harness {
                core,
                out: OutQueue::default(),
            }
        }

        /// Calls into the core with the clock reading `now`.
        fn at<R>(&mut self, now: u64, f: impl FnOnce(&mut SessionCore, &mut Ctx<'_>) -> R) -> R {
            f(
                &mut self.core,
                &mut Ctx {
                    now,
                    out: &mut self.out,
                },
            )
        }

        /// Pumps at `T0` until the window closes (bounded).
        fn pump(&mut self) {
            for _ in 0..500 {
                if matches!(self.core.phase, Phase::AwaitAck { .. }) {
                    break;
                }
                self.at(T0, |c, ctx| c.on_tick(ctx));
            }
        }

        /// Fires whatever is due at `now`.
        fn fire_at(&mut self, now: u64) -> Status {
            self.at(now, |c, ctx| c.on_deadline(ctx))
        }

        /// Decodes and empties every datagram the core has queued.
        fn drain(&mut self) -> Vec<Msg> {
            let mut msgs = Vec::new();
            self.out
                .drain(|d| msgs.push(wire::decode(d).expect("session datagrams decode").1));
            msgs
        }

        /// Empties the effects the core has reported, each with its stamp.
        fn effects(&mut self) -> Vec<(u64, Effect)> {
            let mut effects = Vec::new();
            self.out.drain_effects(|at, e| effects.push((at, e)));
            effects
        }
    }

    #[test]
    fn begin_starts_the_window_and_sends_the_whole_schedule() {
        let mut h = Harness::new(1);
        h.at(T0, |c, ctx| c.start(ctx));
        let status = h.at(T0, |c, ctx| c.on_msg(&Msg::Begin, ctx.now, ctx));
        assert_eq!(status, Status::Active);
        // Pump until the WindowEnd goes out (pace is zero, batch-bounded).
        h.pump();
        let msgs = h.drain();
        let data = msgs.iter().filter(|m| m.is_data()).count();
        assert!(data > 0, "schedule fragments must flow");
        assert!(
            matches!(msgs.last(), Some(Msg::WindowEnd(e)) if e.window == 0 && e.last),
            "window closes with a WindowEnd: {:?}",
            msgs.last()
        );
    }

    #[test]
    fn cancelled_begin_deadline_never_fires() {
        let mut h = Harness::new(1);
        // Paced, so the window is still sending when the deadline passes.
        h.core.pace = Duration::from_secs(1);
        h.at(T0, |c, ctx| c.start(ctx));
        let begin_deadline = T0 + us(h.core.retry.total_wait());
        assert_eq!(h.core.retry_at, Some(begin_deadline));
        h.at(T0, |c, ctx| c.on_msg(&Msg::Begin, ctx.now, ctx)); // cancels it
        assert_eq!(h.core.retry_at, None, "no retry deadline mid-window");
        assert_eq!(h.core.next_deadline(), Some(h.core.next_send_at));
        let status = h.fire_at(begin_deadline);
        assert_eq!(status, Status::Active);
        assert!(
            matches!(h.core.phase, Phase::Sending | Phase::AwaitAck { .. }),
            "a cancelled Begin deadline must not kill a running session"
        );
    }

    #[test]
    fn begin_deadline_expiry_finishes_the_session() {
        let mut h = Harness::new(1);
        h.at(T0, |c, ctx| c.start(ctx));
        let deadline = T0 + us(h.core.retry.total_wait());
        assert_eq!(h.core.next_deadline(), Some(deadline));
        let early = deadline - 1;
        assert_eq!(h.fire_at(early), Status::Active, "not due yet");
        assert_eq!(h.fire_at(deadline), Status::Finished);
        assert_eq!(
            h.core.next_deadline(),
            None,
            "no timer outlives the session"
        );
    }

    #[test]
    fn ack_retries_then_timeout_advances_to_teardown() {
        let mut h = Harness::new(1);
        h.at(T0, |c, ctx| c.start(ctx));
        h.at(T0, |c, ctx| c.on_msg(&Msg::Begin, ctx.now, ctx));
        h.pump();
        let _ = h.drain();
        // Exhaust the ACK retry schedule by advancing the clock to each
        // armed deadline: every one follows the policy's backoff.
        let max = h.core.retry.max_attempts;
        let mut fired_at = T0;
        for attempt in 0..max {
            let deadline = h.core.retry_at.expect("an ACK deadline is armed");
            assert_eq!(deadline, fired_at + us(h.core.retry.backoff(attempt)));
            h.fire_at(deadline);
            fired_at = deadline;
        }
        assert!(
            matches!(h.core.phase, Phase::Teardown { .. }),
            "after the retry budget the single window times out into teardown"
        );
        let msgs = h.drain();
        let ends = msgs
            .iter()
            .filter(|m| matches!(m, Msg::WindowEnd(_)))
            .count();
        assert_eq!(
            ends,
            (max - 1) as usize,
            "one WindowEnd resend per retry attempt"
        );
        assert!(
            msgs.iter().any(|m| matches!(m, Msg::Bye(_))),
            "teardown opens with a Bye"
        );
    }

    /// Pumps the harness until the window closes, returning everything
    /// that hit the wire.
    fn pump_one_window(h: &mut Harness) -> Vec<Msg> {
        h.at(T0, |c, ctx| c.start(ctx));
        h.at(T0, |c, ctx| c.on_msg(&Msg::Begin, ctx.now, ctx));
        h.pump();
        h.drain()
    }

    #[test]
    fn fec_groups_cover_critical_fragments_in_transmission_order() {
        let mut h = Harness::with_fec(1, FecPolicy::rs(FecScope::Critical, 4, 2));
        let msgs = pump_one_window(&mut h);
        let critical: std::collections::HashSet<usize> = h
            .core
            .plan
            .as_ref()
            .expect("window planned")
            .critical_frames()
            .collect();
        assert!(!critical.is_empty());
        let parities: Vec<&ParityMsg> = msgs
            .iter()
            .filter_map(|m| match m {
                Msg::Parity(p) => Some(p),
                _ => None,
            })
            .collect();
        assert!(!parities.is_empty(), "FEC sessions must emit parity");
        for p in &parities {
            assert_eq!(p.window, 0);
            assert_eq!(p.m, 2, "policy parity count rides every datagram");
            for mem in &p.members {
                assert!(
                    critical.contains(&usize::from(mem.frame)),
                    "Critical scope must not cover frame {}",
                    mem.frame
                );
            }
        }
        // Each group goes out as m parity datagrams with identical members.
        let last_group = parities.iter().map(|p| p.group).max().unwrap();
        for g in 0..=last_group {
            let of_group: Vec<_> = parities.iter().filter(|p| p.group == g).collect();
            assert_eq!(of_group.len(), 2, "group {g} must send m = 2 parities");
            assert_eq!(of_group[0].members, of_group[1].members);
            if g < last_group {
                assert_eq!(of_group[0].members.len(), 4, "full groups carry k members");
            }
        }
        // Concatenated group members equal the in-scope data sends, in
        // transmission order: parity protects transmission-order runs.
        let covered: Vec<(usize, u16)> = parities
            .iter()
            .filter(|p| p.parity_index == 0)
            .flat_map(|p| {
                p.members
                    .iter()
                    .map(|mem| (usize::from(mem.frame), mem.frag))
            })
            .collect();
        let sent: Vec<(usize, u16)> = msgs
            .iter()
            .filter_map(|m| match m {
                Msg::Data(d) if critical.contains(&d.fragment.frame) && !d.fragment.retransmit => {
                    Some((d.fragment.frame, d.fragment.frag))
                }
                _ => None,
            })
            .collect();
        assert_eq!(covered, sent);
    }

    #[test]
    fn fec_off_sends_no_parity() {
        let mut h = Harness::new(1);
        let msgs = pump_one_window(&mut h);
        assert!(
            !msgs.iter().any(|m| matches!(m, Msg::Parity(_))),
            "FEC off must leave the wire untouched"
        );
    }

    #[test]
    fn overload_sheds_enhancement_frames_never_critical() {
        let mut h = Harness::new(1);
        h.core.limits.shed_lag = Duration::from_millis(1);
        h.core.pace = Duration::from_millis(1);
        h.at(T0, |c, ctx| c.start(ctx));
        h.at(T0, |c, ctx| c.on_msg(&Msg::Begin, ctx.now, ctx));
        // Put the session a full second behind its pacing schedule.
        h.core.next_send_at = T0 - 1_000_000;
        h.pump();
        assert!(
            matches!(h.core.phase, Phase::AwaitAck { .. }),
            "a shedding session still closes its window"
        );
        let msgs = h.drain();
        let critical: std::collections::HashSet<usize> =
            h.core.plan.as_ref().unwrap().critical_frames().collect();
        let sent: std::collections::HashSet<usize> = msgs
            .iter()
            .filter_map(|m| match m {
                Msg::Data(d) => Some(d.fragment.frame),
                _ => None,
            })
            .collect();
        for f in &critical {
            assert!(sent.contains(f), "critical frame {f} must never be shed");
        }
        let frames = h.core.source.windows[0].len();
        assert!(
            sent.len() < frames,
            "a second of pacing debt must shed some enhancement frames"
        );
        assert!(
            msgs.iter().any(|m| matches!(m, Msg::WindowEnd(_))),
            "the window still ends with a WindowEnd"
        );
        // Each shed frame is reported once, at the clock of its pump.
        let shed: std::collections::HashSet<usize> = h
            .effects()
            .into_iter()
            .filter_map(|e| match e {
                (T0, Effect::ShedEnhancement(f)) => Some(f.frame as usize),
                _ => None,
            })
            .collect();
        assert_eq!(shed.len() + sent.len(), frames, "shed or sent, never both");
        assert!(shed.is_disjoint(&critical));
    }

    #[test]
    fn stale_nack_rounds_skip_retransmission_fresh_ones_do_not() {
        let mut h = Harness::new(1);
        h.core.limits.stale_retx_after = Duration::from_millis(50);
        let _ = pump_one_window(&mut h);
        let nack = Msg::CriticalNack(CriticalNackMsg {
            window: 0,
            missing: vec![0],
        });
        // Past the playout deadline: the round is answered (WindowEnd)
        // but nothing is retransmitted.
        h.core.closed_at = T0 - 100_000;
        let _ = h.effects();
        h.at(T0, |c, ctx| c.on_msg(&nack, ctx.now, ctx));
        let msgs = h.drain();
        let at = FrameLabels::new(1, 0, 0);
        let nacked = [Effect::NackReceived(at), Effect::ShedStaleRetx(at)];
        let reported: Vec<Effect> = h.effects().into_iter().map(|e| e.1).collect();
        assert_eq!(reported[..2], nacked, "a stale round reports the skip");
        assert!(
            !msgs.iter().any(Msg::is_data),
            "stale recovery rounds must not retransmit: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| matches!(m, Msg::WindowEnd(_))),
            "a stale round still re-answers with a WindowEnd"
        );
        // A fresh round (window just closed) retransmits as before.
        h.core.closed_at = T0;
        h.at(T0, |c, ctx| c.on_msg(&nack, ctx.now, ctx));
        let msgs = h.drain();
        assert!(
            msgs.iter()
                .any(|m| matches!(m, Msg::Data(d) if d.fragment.retransmit)),
            "fresh recovery rounds keep retransmitting"
        );
        let reported: Vec<Effect> = h.effects().into_iter().map(|e| e.1).collect();
        assert_eq!(reported[..2], [nacked[0], Effect::Retransmission]);
        assert!(matches!(reported[2], Effect::Sent(l) if l.retransmit && l.frame == 0));
    }

    #[test]
    fn watchdog_rearms_on_progress_then_terminates_a_stalled_session() {
        let mut h = Harness::new(1);
        h.core.limits.watchdog = Duration::from_millis(200);
        let period = 200_000;
        h.at(T0, |c, ctx| c.start(ctx));
        let wd = h.core.watchdog_at;
        assert_eq!(
            wd,
            Some(T0 + period),
            "start arms the watchdog when configured"
        );
        // Progress since arming (a pre-Begin straggler still proves a
        // live peer): the fire re-arms instead of killing. The `Begin`
        // deadline is a full retry schedule out, so only the watchdog
        // is due.
        h.at(T0, |c, ctx| c.on_msg(&Msg::ByeAck, ctx.now, ctx));
        let status = h.fire_at(T0 + period);
        assert_eq!(status, Status::Active);
        assert_eq!(
            h.core.watchdog_at,
            Some(T0 + 2 * period),
            "progress re-arms the watchdog one period on"
        );
        let _ = h.drain();
        // A whole period with no datagram either way: typed termination.
        let status = h.fire_at(T0 + 2 * period);
        assert_eq!(status, Status::Finished);
        assert!(
            h.drain()
                .iter()
                .any(|m| matches!(m, Msg::Bye(ByeReason::Aborted))),
            "the peer is told the stream was aborted"
        );
    }

    #[test]
    fn watchdog_disabled_by_default_arms_no_deadline() {
        let mut h = Harness::new(1);
        h.at(T0, |c, ctx| c.start(ctx));
        assert_eq!(h.core.watchdog_at, None, "no watchdog unless configured");
        // Only the Begin deadline is live, so nothing fires before it.
        let begin_deadline = T0 + us(h.core.retry.total_wait());
        assert_eq!(h.core.next_deadline(), Some(begin_deadline));
        let status = h.fire_at(begin_deadline - 1);
        assert_eq!(status, Status::Active);
        assert!(matches!(h.core.phase, Phase::AwaitBegin));
    }

    #[test]
    fn bye_ack_completes_the_session() {
        let mut h = Harness::new(1);
        h.at(T0, |c, ctx| c.start(ctx));
        h.core.window = 1; // pretend the stream is done
        h.at(T0, |c, ctx| c.start_teardown(ctx));
        let status = h.at(T0, |c, ctx| c.on_msg(&Msg::ByeAck, ctx.now, ctx));
        assert_eq!(status, Status::Finished);
    }

    /// A simulated transport or a virtual-time soak replays events into
    /// the core, so the same script must give the same datagrams and
    /// deadlines, byte for byte, on every run.
    #[test]
    fn replayed_events_produce_identical_datagrams_and_deadlines() {
        let nack = Msg::CriticalNack(CriticalNackMsg {
            window: 0,
            missing: vec![0, 1],
        });
        let ack = Msg::WindowAck(WindowAckMsg {
            ack_seq: 1,
            window: 0,
            echo_us: 7,
            per_layer_burst: vec![2, 1],
        });
        // `(µs after the last step, datagram)`; `None` fires the next
        // deadline. After each step the core is pumped at its own
        // deadlines until its window closes, as the shard would.
        let mut script = vec![(1_000, Some(&Msg::Begin)), (2_000, Some(&nack)), (0, None)];
        script.push((500, Some(&ack)));
        script.extend((0..2 * RetryPolicy::lan().max_attempts).map(|_| (0, None)));
        fn wake(h: &mut Harness, now: &mut u64) {
            *now = h.core.next_deadline().map_or(*now, |t| t.max(*now));
            h.at(*now, |c, ctx| {
                c.on_deadline(ctx);
                c.on_tick(ctx)
            });
        }
        let replay = || {
            let mut h = Harness::with_fec(2, FecPolicy::rs(FecScope::All, 4, 2));
            h.core.pace = Duration::from_micros(50);
            let mut now = T0;
            h.at(now, |c, ctx| c.start(ctx));
            let (mut datagrams, mut deadlines) = (Vec::new(), Vec::new());
            for &(dt, msg) in &script {
                now += dt;
                match msg {
                    Some(msg) => _ = h.at(now, |c, ctx| c.on_msg(msg, now, ctx)),
                    None => wake(&mut h, &mut now),
                }
                while matches!(h.core.phase, Phase::Sending) {
                    wake(&mut h, &mut now);
                }
                h.out.drain(|d| datagrams.push(d.to_vec()));
                deadlines.push(h.core.next_deadline());
            }
            assert!(
                matches!(h.core.phase, Phase::Done),
                "the script ends the session"
            );
            (datagrams, deadlines)
        };
        let first = replay();
        assert_eq!(first, replay(), "replays must match byte for byte");
        let msgs: Vec<Msg> = first.0.iter().map(|d| wire::decode(d).unwrap().1).collect();
        let retransmit = |m: &Msg| matches!(m, Msg::Data(d) if d.fragment.retransmit);
        assert!(msgs.iter().any(retransmit), "the NACK is served");
        assert!(msgs.iter().any(|m| matches!(m, Msg::Parity(_))));
        assert!(msgs
            .iter()
            .any(|m| matches!(m, Msg::Data(d) if d.fragment.window == 1)));
        assert!(msgs.iter().any(|m| matches!(m, Msg::Bye(_))));
    }
}
