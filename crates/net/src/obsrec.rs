//! Flight-recorder hook: a [`SessionRecorder`] carries an optional
//! `espread-obs` recorder into the server, client, and proxy loops, so
//! the transport code records through one handle whether or not a
//! recorder is attached.

use espread_obs::{data_detail, EventKind, FlightRecorder, FRAME_NONE, WINDOW_NONE};

use crate::wire::{DataLabels, Msg};

/// Optional hook into an `espread-obs` flight recorder. The default
/// ([`SessionRecorder::disabled`]) records nothing; attach one
/// recorder per role with [`SessionRecorder::attached`] (created via
/// `espread_obs::trio` when the three roles share a process, so their
/// timestamps are causally comparable).
#[derive(Debug, Clone, Default)]
pub struct SessionRecorder {
    rec: Option<FlightRecorder>,
}

impl SessionRecorder {
    /// A recorder hook that records nothing (the default).
    pub fn disabled() -> Self {
        SessionRecorder::default()
    }

    /// Wraps a live flight recorder.
    pub fn attached(rec: FlightRecorder) -> Self {
        SessionRecorder { rec: Some(rec) }
    }

    /// Whether events are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    #[inline]
    fn record(&self, kind: EventKind, conn: u32, window: u64, frame: u32, detail: u32) {
        if let Some(rec) = &self.rec {
            rec.record(kind, conn, window, frame, detail);
        }
    }

    // ── server hooks ────────────────────────────────────────────

    pub(crate) fn queued(&self, conn: u32, window: u64, frame: u32, slot: u32) {
        self.record(EventKind::Queued, conn, window, frame, slot);
    }

    /// Records the send of an outgoing message, called just *before*
    /// the bytes reach the socket so a matching `Delivered` can never
    /// carry an earlier timestamp.
    pub(crate) fn sent_msg(&self, conn: u32, msg: &Msg) {
        match msg {
            Msg::Data(data) => {
                let f = &data.fragment;
                let kind = if f.retransmit {
                    EventKind::Retransmitted
                } else {
                    EventKind::Sent
                };
                self.record(
                    kind,
                    conn,
                    f.window,
                    f.frame as u32,
                    data_detail(f.frag, f.retransmit),
                );
            }
            Msg::WindowEnd(end) => {
                self.record(EventKind::WindowEndSent, conn, end.window, FRAME_NONE, 0);
            }
            _ => {}
        }
    }

    /// Records an oversize encode refusal (data only — control
    /// refusals surface through the peer's retry machinery instead).
    pub(crate) fn refused_msg(&self, conn: u32, msg: &Msg) {
        if let Msg::Data(data) = msg {
            let f = &data.fragment;
            self.record(
                EventKind::SendRefused,
                conn,
                f.window,
                f.frame as u32,
                data_detail(f.frag, f.retransmit),
            );
        }
    }

    pub(crate) fn ack_received(&self, conn: u32, window: u64, ack_seq: u64) {
        self.record(
            EventKind::AckReceived,
            conn,
            window,
            FRAME_NONE,
            ack_seq as u32,
        );
    }

    pub(crate) fn nack_received(&self, conn: u32, window: u64, frame: u32) {
        self.record(EventKind::NackReceived, conn, window, frame, 0);
    }

    pub(crate) fn ack_timeout(&self, conn: u32, window: u64, attempts: u32) {
        self.record(EventKind::AckTimeout, conn, window, FRAME_NONE, attempts);
    }

    /// Records an intentional overload shed of `frame` — nothing was
    /// (or will be) sent for it this round.
    pub(crate) fn shed(&self, conn: u32, window: u64, frame: u32) {
        self.record(EventKind::Shed, conn, window, frame, 0);
    }

    // ── client hooks ────────────────────────────────────────────

    pub(crate) fn delivered(
        &self,
        conn: u32,
        window: u64,
        frame: u32,
        frag: u16,
        retransmit: bool,
    ) {
        self.record(
            EventKind::Delivered,
            conn,
            window,
            frame,
            data_detail(frag, retransmit),
        );
    }

    pub(crate) fn bad_fragment(&self, conn: u32, window: u64, frame: u32, frag: u16) {
        self.record(
            EventKind::BadFragment,
            conn,
            window,
            frame,
            data_detail(frag, false),
        );
    }

    pub(crate) fn ignored(&self, conn: u32, window: u64, frame: u32, frag: u16, retransmit: bool) {
        self.record(
            EventKind::Ignored,
            conn,
            window,
            frame,
            data_detail(frag, retransmit),
        );
    }

    pub(crate) fn reassembled(&self, conn: u32, window: u64, frame: u32, frags_total: u16) {
        self.record(
            EventKind::Reassembled,
            conn,
            window,
            frame,
            u32::from(frags_total),
        );
    }

    pub(crate) fn abandoned(&self, conn: u32, window: u64, frame: u32) {
        self.record(EventKind::Abandoned, conn, window, frame, 0);
    }

    pub(crate) fn window_closed(&self, conn: u32, window: u64, frames_total: u32) {
        self.record(
            EventKind::WindowClosed,
            conn,
            window,
            FRAME_NONE,
            frames_total,
        );
    }

    pub(crate) fn ack_sent(&self, conn: u32, window: u64, ack_seq: u64) {
        self.record(EventKind::AckSent, conn, window, FRAME_NONE, ack_seq as u32);
    }

    pub(crate) fn nack_sent(&self, conn: u32, window: u64, frame: u32, round: u32) {
        self.record(EventKind::NackSent, conn, window, frame, round);
    }

    pub(crate) fn decode_error(&self, conn: u32) {
        self.record(EventKind::DecodeError, conn, WINDOW_NONE, FRAME_NONE, 0);
    }

    // ── proxy hooks ─────────────────────────────────────────────

    #[inline]
    fn data_event(&self, kind: EventKind, labels: DataLabels) {
        self.record(
            kind,
            labels.conn,
            labels.window,
            u32::from(labels.frame),
            data_detail(labels.frag, labels.retransmit),
        );
    }

    pub(crate) fn forwarded_data(&self, labels: DataLabels) {
        self.data_event(EventKind::ForwardedData, labels);
    }

    pub(crate) fn dropped_data(&self, labels: DataLabels) {
        self.data_event(EventKind::DroppedData, labels);
    }

    pub(crate) fn dropped_control(&self, conn: u32, type_byte: u8) {
        self.record(
            EventKind::DroppedControl,
            conn,
            WINDOW_NONE,
            FRAME_NONE,
            u32::from(type_byte),
        );
    }

    pub(crate) fn duplicated(&self, labels: DataLabels) {
        self.data_event(EventKind::Duplicated, labels);
    }

    pub(crate) fn reordered(&self, labels: DataLabels) {
        self.data_event(EventKind::Reordered, labels);
    }

    /// Records a byte-flip on a surviving datagram; `labels` are the
    /// *pre-mangle* labels when the victim was a data datagram.
    pub(crate) fn corrupted(&self, labels: Option<DataLabels>, conn: u32) {
        match labels {
            Some(l) => self.data_event(EventKind::Corrupted, l),
            None => self.record(EventKind::Corrupted, conn, WINDOW_NONE, FRAME_NONE, 0),
        }
    }

    /// Records a truncation; same labelling rules as [`corrupted`].
    pub(crate) fn truncated(&self, labels: Option<DataLabels>, conn: u32) {
        match labels {
            Some(l) => self.data_event(EventKind::Truncated, l),
            None => self.record(EventKind::Truncated, conn, WINDOW_NONE, FRAME_NONE, 0),
        }
    }
}
