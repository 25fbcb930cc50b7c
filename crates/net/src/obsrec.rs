//! Flight-recorder hook: a [`SessionRecorder`] carries an optional
//! `espread-obs` recorder into the server, client, and proxy loops, so
//! the transport code records through one handle whether or not a
//! recorder is attached. The server and client record what their cores'
//! effects stand for, stamped with the cores' own clock values; the
//! proxy records what it did to each datagram as it happens.

use std::time::Instant;

use espread_obs::{data_detail, EventKind, FlightRecorder, FRAME_NONE, WINDOW_NONE};

use crate::session::{Effect, FrameLabels, WindowLabels};
use crate::wire::DataLabels;

/// Optional hook into an `espread-obs` flight recorder. The default
/// ([`SessionRecorder::disabled`]) records nothing; attach one
/// recorder per role with [`SessionRecorder::attached`] (created via
/// `espread_obs::trio` when the three roles share a process, so their
/// timestamps are causally comparable).
#[derive(Debug, Clone, Default)]
pub struct SessionRecorder {
    rec: Option<FlightRecorder>,
}

/// A recorded event's `(kind, conn, window, frame, detail)`.
type Event = (EventKind, u32, u64, u32, u32);

fn data_event(kind: EventKind, l: DataLabels) -> Event {
    let detail = data_detail(l.frag, l.retransmit);
    (kind, l.conn, l.window, u32::from(l.frame), detail)
}

fn frame_event(kind: EventKind, f: FrameLabels, detail: u32) -> Event {
    (kind, f.conn, f.window, f.frame, detail)
}

fn window_event(kind: EventKind, w: WindowLabels, detail: u32) -> Event {
    (kind, w.conn, w.window, FRAME_NONE, detail)
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

    /// The clock epoch of a transport this hook records for: the
    /// recorder's own epoch when one is attached, so the transport's
    /// clock values are already recorder timestamps; else now.
    pub(crate) fn clock_epoch(&self) -> Instant {
        self.rec
            .as_ref()
            .map_or_else(Instant::now, FlightRecorder::epoch)
    }

    #[inline]
    fn record(&self, kind: EventKind, conn: u32, window: u64, frame: u32, detail: u32) {
        if let Some(rec) = &self.rec {
            rec.record(kind, conn, window, frame, detail);
        }
    }

    /// Records the event a core's effect stands for, if any, stamped
    /// `at` µs after [`Self::clock_epoch`]. Of the oversize refusals only
    /// data is recorded: a refused control message surfaces through the
    /// peer's retry machinery instead.
    pub(crate) fn record_effect(&self, at: u64, effect: &Effect) {
        use EventKind as K;
        let Some(rec) = &self.rec else { return };
        let (kind, conn, window, frame, detail) = match *effect {
            Effect::Queued(f, slot) => frame_event(K::Queued, f, slot),
            Effect::Sent(l) if l.retransmit => data_event(K::Retransmitted, l),
            Effect::Sent(l) => data_event(K::Sent, l),
            Effect::SendRefused(l) => data_event(K::SendRefused, l),
            Effect::WindowEndSent(w) => window_event(K::WindowEndSent, w, 0),
            Effect::ShedEnhancement(f) | Effect::ShedStaleRetx(f) => frame_event(K::Shed, f, 0),
            Effect::AckReceived(w, seq) => window_event(K::AckReceived, w, seq as u32),
            Effect::NackReceived(f) => frame_event(K::NackReceived, f, 0),
            Effect::AckTimeout(w, attempts) => window_event(K::AckTimeout, w, attempts),
            Effect::DecodeError(Some(conn)) => (K::DecodeError, conn, WINDOW_NONE, FRAME_NONE, 0),
            Effect::Delivered(l) => data_event(K::Delivered, l),
            Effect::Reassembled(f, frags) => frame_event(K::Reassembled, f, u32::from(frags)),
            Effect::Ignored(l) => data_event(K::Ignored, l),
            Effect::BadFragment(l) => {
                // A refused fragment is recorded by its index alone,
                // without the retransmit flag.
                let detail = data_detail(l.frag, false);
                (K::BadFragment, l.conn, l.window, u32::from(l.frame), detail)
            }
            Effect::Abandoned(f) => frame_event(K::Abandoned, f, 0),
            Effect::WindowClosed(w, frames) => window_event(K::WindowClosed, w, frames),
            Effect::AckSent(w, seq) => window_event(K::AckSent, w, seq as u32),
            Effect::NackSent(f, round) => frame_event(K::NackSent, f, round),
            _ => return,
        };
        rec.record_at(at, kind, conn, window, frame, detail);
    }

    // ── proxy hooks ─────────────────────────────────────────────

    #[inline]
    fn data_event(&self, kind: EventKind, labels: DataLabels) {
        let (kind, conn, window, frame, detail) = data_event(kind, labels);
        self.record(kind, conn, window, frame, detail);
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
