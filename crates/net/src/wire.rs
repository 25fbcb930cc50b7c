//! The versioned binary wire codec.
//!
//! Every datagram starts with a 10-byte header — magic (4), version (1),
//! message type (1), connection id (4) — followed by a type-specific body.
//! All integers are big-endian. Decoding is fully length-checked: a
//! malformed, truncated, or alien datagram yields a [`WireError`], never a
//! panic, so a hostile peer cannot crash the server or client.
//!
//! | type | message | body |
//! |---|---|---|
//! | 0 | [`Msg::Hello`] | nonce u64, buffer u64, startup ms u64, ordering u8 |
//! | 1 | [`Msg::Accept`] | nonce u64, frames/window u16, windows u32, packet u32, fps u32, layer sizes (u8 count × u16), critical frames (u16 count × u16) |
//! | 2 | [`Msg::Reject`] | nonce u64, reason (u16 len × utf-8) |
//! | 3 | [`Msg::Begin`] | — |
//! | 4 | [`Msg::Data`] | window u64, frame u16, frag u16, frags u16, layer u8, slot u16, flags u8, ldu bytes u32, payload (u16 len × bytes) |
//! | 5 | [`Msg::WindowEnd`] | window u64, sent-at µs u64, last u8 |
//! | 6 | [`Msg::WindowAck`] | ack seq u64, window u64, echo µs u64, bursts (u8 count × u16) |
//! | 7 | [`Msg::CriticalNack`] | window u64, missing (u16 count × u16) |
//! | 8 | [`Msg::Bye`] | reason u8 |
//! | 9 | [`Msg::ByeAck`] | — |
//! | 10 | [`Msg::Parity`] | window u64, group u32, m u8, parity index u8, shard bytes u16, members (u8 count × (frame u16, frag u16, frags u16)), payload (shard bytes) |
//! | 11 | [`Msg::Busy`] | retry-after ms u32 |
//!
//! # Wire limits
//!
//! Every counted field has a hard ceiling fixed by its wire width. The
//! encoder *refuses* anything larger with [`WireError::Oversize`] — it
//! never silently truncates a list or narrows an index, because a peer
//! that decodes a *different* session config than the one offered fails
//! in ways no checksum catches.
//!
//! | field | limit | constant |
//! |---|---|---|
//! | `Data` frame index | 65 535 | [`MAX_FRAME_INDEX`] |
//! | `Accept` layer sizes | 255 entries | [`MAX_LAYERS`] |
//! | `Accept` critical frames | 65 535 entries | [`MAX_CRITICAL_FRAMES`] |
//! | `Reject` reason | 65 535 bytes | [`MAX_REASON_BYTES`] |
//! | `WindowAck` per-layer bursts | 255 entries | [`MAX_BURST_ENTRIES`] |
//! | `CriticalNack` missing frames | 65 535 entries | [`MAX_NACK_ENTRIES`] |
//! | `Parity` group members | 255 entries | [`MAX_PARITY_MEMBERS`] |
//!
//! Session negotiation enforces the same ceilings up front
//! (`NetServerConfig::validate` applies
//! [`check_wire_limits`](espread_protocol::check_wire_limits), which
//! rejects `frames_per_window > 65 535` and packets over 64 KiB, as the
//! simulator's sessions do), so a well-configured stack never trips them; [`try_encode`] is the
//! last-line guard for untrusted or computed sizes.

use std::error::Error;
use std::fmt;

use espread_protocol::{Fragment, Ldu, Ordering};

/// The data-path messages are the client window's own types; this module
/// gives them their wire encoding. The re-export stays while
/// `benchmark/src/replay.rs` imports them from here (ROADMAP item 12).
pub use espread_protocol::client::{DataMsg, ParityMember, ParityMsg};

/// The protocol magic, `"ESPR"` as a big-endian u32.
pub const MAGIC: u32 = 0x4553_5052;

/// Wire protocol version this codec speaks.
pub const VERSION: u8 = 1;

/// Size of the fixed datagram header in bytes.
pub const HEADER_BYTES: usize = 10;

/// Connection id used before a session exists (handshake datagrams).
pub const CONN_NONE: u32 = 0;

/// Largest frame index a [`Msg::Data`] datagram can carry (u16 on the
/// wire), and therefore the largest legal `frames_per_window - 1`.
pub const MAX_FRAME_INDEX: usize = u16::MAX as usize;

/// Largest layer-size list an [`Msg::Accept`] can carry (u8 count).
pub const MAX_LAYERS: usize = u8::MAX as usize;

/// Largest critical-frame list an [`Msg::Accept`] can carry (u16 count).
pub const MAX_CRITICAL_FRAMES: usize = u16::MAX as usize;

/// Largest [`Msg::Reject`] reason length in bytes (u16 length prefix).
pub const MAX_REASON_BYTES: usize = u16::MAX as usize;

/// Largest per-layer burst list a [`Msg::WindowAck`] can carry (u8 count).
pub const MAX_BURST_ENTRIES: usize = u8::MAX as usize;

/// Largest missing-frame list a [`Msg::CriticalNack`] can carry (u16
/// count).
pub const MAX_NACK_ENTRIES: usize = u16::MAX as usize;

/// Largest member list a [`Msg::Parity`] can carry (u8 count) — also the
/// erasure code's `k` ceiling, matching GF(256)'s symbol budget.
pub const MAX_PARITY_MEMBERS: usize = u8::MAX as usize;

/// Codec failures; each names the malformed-datagram class it rejects.
/// All but [`WireError::Oversize`] are decode-side; `Oversize` is the
/// encode-side refusal to narrow a field past its wire width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The datagram is shorter than the fixed header.
    ShortHeader {
        /// Bytes actually present.
        have: usize,
    },
    /// The magic number is not [`MAGIC`] — an alien datagram.
    BadMagic(u32),
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The message-type byte names no known message.
    UnknownType(u8),
    /// The body ends before a fixed-width field or counted list.
    Truncated {
        /// Bytes the field needs.
        need: usize,
        /// Bytes remaining in the datagram.
        have: usize,
    },
    /// A length field claims more payload than the datagram carries.
    Overlength {
        /// Bytes the length field declares.
        declared: usize,
        /// Bytes remaining in the datagram.
        have: usize,
    },
    /// Bytes remain after a complete message.
    TrailingBytes(usize),
    /// A field decoded but holds a semantically invalid value.
    BadValue(&'static str),
    /// Encode-side refusal: a field or list does not fit its wire width.
    /// Encoding it anyway would silently truncate — the sender and
    /// receiver would disagree about what was sent.
    Oversize {
        /// Which field overflowed.
        field: &'static str,
        /// The field's wire ceiling (see the module-level limits table).
        max: usize,
        /// The value or list length actually supplied.
        actual: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::ShortHeader { have } => {
                write!(f, "short header: {have} bytes < {HEADER_BYTES}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Truncated { need, have } => {
                write!(f, "truncated body: need {need} bytes, have {have}")
            }
            WireError::Overlength { declared, have } => {
                write!(
                    f,
                    "overlength field: declares {declared} bytes, have {have}"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadValue(what) => write!(f, "invalid field value: {what}"),
            WireError::Oversize { field, max, actual } => {
                write!(f, "oversize {field}: {actual} exceeds wire limit {max}")
            }
        }
    }
}

impl Error for WireError {}

/// The client's opening handshake datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Client-chosen nonce identifying this connection attempt (retries
    /// reuse it, so the server can answer duplicates idempotently).
    pub nonce: u64,
    /// Client decoder/reassembly buffer in bytes (§4.1 sizing check).
    pub buffer_bytes: u64,
    /// Largest tolerated start-up delay in milliseconds.
    pub max_startup_delay_ms: u64,
    /// Requested transmission ordering.
    pub ordering: Ordering,
}

/// The server's acceptance: the negotiated session shape the client needs
/// to size its per-layer slot tables and reassembly state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accept {
    /// Echo of the client's nonce.
    pub nonce: u64,
    /// Frames (LDUs) per buffer window.
    pub frames_per_window: u16,
    /// Total buffer windows the stream will carry.
    pub windows_total: u32,
    /// Negotiated packet payload size in bytes.
    pub packet_bytes: u32,
    /// Stream frame rate.
    pub fps: u32,
    /// Per-window layer sizes, most critical first.
    pub layer_sizes: Vec<u16>,
    /// Playout indices of the critical (anchor) frames per window.
    pub critical_frames: Vec<u16>,
}

/// The server's refusal, carrying the negotiation error text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Echo of the client's nonce.
    pub nonce: u64,
    /// Human-readable refusal reason.
    pub reason: String,
}

/// End-of-window marker; also the RTT probe (the client echoes
/// `sent_at_us` in its ACK).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowEnd {
    /// The window just finished.
    pub window: u64,
    /// Server session clock at send time, in microseconds.
    pub sent_at_us: u64,
    /// Whether this was the stream's final window.
    pub last: bool,
}

/// The sequence-numbered end-of-window ACK (§4.2) with per-layer burst
/// observations and the RTT echo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAckMsg {
    /// Monotone ACK sequence number; the server keeps only the highest.
    pub ack_seq: u64,
    /// Window the feedback describes.
    pub window: u64,
    /// Echo of the triggering [`WindowEnd::sent_at_us`].
    pub echo_us: u64,
    /// Largest run of lost transmission slots per layer.
    pub per_layer_burst: Vec<u16>,
}

/// Reactive report of critical frames still missing at window end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalNackMsg {
    /// Window the NACK describes.
    pub window: u64,
    /// Missing critical frame indices (playout positions).
    pub missing: Vec<u16>,
}

/// Why a [`Msg::Bye`] was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByeReason {
    /// The stream completed normally.
    Complete,
    /// The sender is tearing the session down early.
    Aborted,
}

/// Every message the transport speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → server connection request.
    Hello(Hello),
    /// Server → client handshake acceptance.
    Accept(Accept),
    /// Server → client handshake refusal.
    Reject(Reject),
    /// Client → server: handshake complete, start streaming.
    Begin,
    /// Server → client media fragment.
    Data(DataMsg),
    /// Server → client end-of-window marker.
    WindowEnd(WindowEnd),
    /// Client → server window feedback.
    WindowAck(WindowAckMsg),
    /// Client → server critical-recovery request.
    CriticalNack(CriticalNackMsg),
    /// Graceful teardown.
    Bye(ByeReason),
    /// Teardown acknowledgement.
    ByeAck,
    /// Server → client erasure-code parity shard.
    Parity(ParityMsg),
    /// Server → client admission refusal: the server is at its session
    /// cap. Unlike [`Msg::Reject`] (a negotiation failure the client
    /// should not retry), `Busy` is transient — the client may retry
    /// after `retry_after_ms` milliseconds (plus jitter of its own).
    Busy {
        /// Server's suggested wait before the next Hello, in ms.
        retry_after_ms: u32,
    },
}

impl Msg {
    /// The message's wire type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Msg::Hello(_) => 0,
            Msg::Accept(_) => 1,
            Msg::Reject(_) => 2,
            Msg::Begin => 3,
            Msg::Data(_) => 4,
            Msg::WindowEnd(_) => 5,
            Msg::WindowAck(_) => 6,
            Msg::CriticalNack(_) => 7,
            Msg::Bye(_) => 8,
            Msg::ByeAck => 9,
            Msg::Parity(_) => 10,
            Msg::Busy { .. } => 11,
        }
    }

    /// Whether this is a media-data datagram (the class the proxy's
    /// Gilbert–Elliott loss process applies to).
    pub fn is_data(&self) -> bool {
        matches!(self, Msg::Data(_))
    }
}

fn ordering_to_byte(ordering: Ordering) -> u8 {
    match ordering {
        Ordering::InOrder => 0,
        Ordering::Spread { adaptive: true } => 1,
        Ordering::Spread { adaptive: false } => 2,
        Ordering::Ibo => 3,
    }
}

fn ordering_from_byte(b: u8) -> Result<Ordering, WireError> {
    match b {
        0 => Ok(Ordering::InOrder),
        1 => Ok(Ordering::Spread { adaptive: true }),
        2 => Ok(Ordering::Spread { adaptive: false }),
        3 => Ok(Ordering::Ibo),
        _ => Err(WireError::BadValue("unknown ordering code")),
    }
}

/// Rejects `actual` values past a field's wire ceiling.
fn fits(field: &'static str, actual: usize, max: usize) -> Result<(), WireError> {
    if actual > max {
        return Err(WireError::Oversize { field, max, actual });
    }
    Ok(())
}

/// Encodes `msg` for connection `conn_id`, refusing any field that does
/// not fit its wire width (see the module-level limits table).
///
/// Data payload bytes are zero-filled: the simulator's traces carry frame
/// *sizes*, not content, so the wire stays byte-accurate without shipping
/// fake media.
///
/// # Errors
///
/// Returns [`WireError::Oversize`] naming the offending field — never
/// silently truncates a list or narrows an index.
pub fn try_encode(conn_id: u32, msg: &Msg) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    try_encode_into(conn_id, msg, &mut out)?;
    Ok(out)
}

/// Encodes `msg` into `out`, clearing it first — the reusable-buffer
/// variant of [`try_encode`] for hot send paths (one scratch buffer per
/// event loop instead of an allocation per datagram). `out` keeps its
/// capacity across calls; on error it is left cleared.
///
/// # Errors
///
/// Returns [`WireError::Oversize`] naming the offending field — never
/// silently truncates a list or narrows an index.
pub fn try_encode_into(conn_id: u32, msg: &Msg, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    try_encode_append(conn_id, msg, out)?;
    Ok(())
}

/// Encodes `msg` *appended* to `out` without clearing it, returning the
/// byte range of the new datagram — the scatter-buffer variant of
/// [`try_encode_into`] for batching a whole window of datagrams into one
/// buffer. On error `out` is truncated back to its prior length, so a
/// refused message never leaves half-written bytes in the batch.
///
/// # Errors
///
/// Returns [`WireError::Oversize`] naming the offending field — never
/// silently truncates a list or narrows an index.
pub fn try_encode_append(
    conn_id: u32,
    msg: &Msg,
    out: &mut Vec<u8>,
) -> Result<std::ops::Range<usize>, WireError> {
    let start = out.len();
    match encode_body(conn_id, msg, out) {
        Ok(()) => Ok(start..out.len()),
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

fn encode_body(conn_id: u32, msg: &Msg, out: &mut Vec<u8>) -> Result<(), WireError> {
    match msg {
        Msg::Accept(a) => {
            fits("accept.layer_sizes", a.layer_sizes.len(), MAX_LAYERS)?;
            fits(
                "accept.critical_frames",
                a.critical_frames.len(),
                MAX_CRITICAL_FRAMES,
            )?;
        }
        Msg::Reject(r) => fits("reject.reason", r.reason.len(), MAX_REASON_BYTES)?,
        Msg::Data(d) => fits("data.frame", d.fragment.frame, MAX_FRAME_INDEX)?,
        Msg::WindowAck(a) => fits(
            "window_ack.per_layer_burst",
            a.per_layer_burst.len(),
            MAX_BURST_ENTRIES,
        )?,
        Msg::CriticalNack(n) => fits("critical_nack.missing", n.missing.len(), MAX_NACK_ENTRIES)?,
        Msg::Parity(p) => fits("parity.members", p.members.len(), MAX_PARITY_MEMBERS)?,
        Msg::Hello(_)
        | Msg::Begin
        | Msg::WindowEnd(_)
        | Msg::Bye(_)
        | Msg::ByeAck
        | Msg::Busy { .. } => {}
    }
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.push(msg.type_byte());
    out.extend_from_slice(&conn_id.to_be_bytes());
    match msg {
        Msg::Hello(h) => {
            out.extend_from_slice(&h.nonce.to_be_bytes());
            out.extend_from_slice(&h.buffer_bytes.to_be_bytes());
            out.extend_from_slice(&h.max_startup_delay_ms.to_be_bytes());
            out.push(ordering_to_byte(h.ordering));
        }
        Msg::Accept(a) => {
            out.extend_from_slice(&a.nonce.to_be_bytes());
            out.extend_from_slice(&a.frames_per_window.to_be_bytes());
            out.extend_from_slice(&a.windows_total.to_be_bytes());
            out.extend_from_slice(&a.packet_bytes.to_be_bytes());
            out.extend_from_slice(&a.fps.to_be_bytes());
            out.push(a.layer_sizes.len() as u8);
            for &s in &a.layer_sizes {
                out.extend_from_slice(&s.to_be_bytes());
            }
            out.extend_from_slice(&(a.critical_frames.len() as u16).to_be_bytes());
            for &f in &a.critical_frames {
                out.extend_from_slice(&f.to_be_bytes());
            }
        }
        Msg::Reject(r) => {
            out.extend_from_slice(&r.nonce.to_be_bytes());
            let bytes = r.reason.as_bytes();
            out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
            out.extend_from_slice(bytes);
        }
        Msg::Begin | Msg::ByeAck => {}
        Msg::Data(d) => {
            let f = &d.fragment;
            out.extend_from_slice(&f.window.to_be_bytes());
            out.extend_from_slice(&(f.frame as u16).to_be_bytes());
            out.extend_from_slice(&f.frag.to_be_bytes());
            out.extend_from_slice(&f.frags_total.to_be_bytes());
            out.push(f.layer);
            out.extend_from_slice(&f.layer_slot.to_be_bytes());
            out.push(u8::from(f.retransmit));
            out.extend_from_slice(&d.ldu.size_bytes.to_be_bytes());
            out.extend_from_slice(&d.payload_len.to_be_bytes());
            out.resize(out.len() + usize::from(d.payload_len), 0);
        }
        Msg::WindowEnd(e) => {
            out.extend_from_slice(&e.window.to_be_bytes());
            out.extend_from_slice(&e.sent_at_us.to_be_bytes());
            out.push(u8::from(e.last));
        }
        Msg::WindowAck(a) => {
            out.extend_from_slice(&a.ack_seq.to_be_bytes());
            out.extend_from_slice(&a.window.to_be_bytes());
            out.extend_from_slice(&a.echo_us.to_be_bytes());
            out.push(a.per_layer_burst.len() as u8);
            for &b in &a.per_layer_burst {
                out.extend_from_slice(&b.to_be_bytes());
            }
        }
        Msg::CriticalNack(n) => {
            out.extend_from_slice(&n.window.to_be_bytes());
            out.extend_from_slice(&(n.missing.len() as u16).to_be_bytes());
            for &f in &n.missing {
                out.extend_from_slice(&f.to_be_bytes());
            }
        }
        Msg::Bye(reason) => {
            out.push(match reason {
                ByeReason::Complete => 0,
                ByeReason::Aborted => 1,
            });
        }
        Msg::Parity(p) => {
            out.extend_from_slice(&p.window.to_be_bytes());
            out.extend_from_slice(&p.group.to_be_bytes());
            out.push(p.m);
            out.push(p.parity_index);
            out.extend_from_slice(&p.shard_bytes.to_be_bytes());
            out.push(p.members.len() as u8);
            for member in &p.members {
                out.extend_from_slice(&member.frame.to_be_bytes());
                out.extend_from_slice(&member.frag.to_be_bytes());
                out.extend_from_slice(&member.frags_total.to_be_bytes());
            }
            out.resize(out.len() + usize::from(p.shard_bytes), 0);
        }
        Msg::Busy { retry_after_ms } => {
            out.extend_from_slice(&retry_after_ms.to_be_bytes());
        }
    }
    Ok(())
}

/// Bounds-checked big-endian reader over a datagram body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `count`-element list of u16s into `out`, checking the
    /// length *before* reserving so a hostile count cannot balloon memory.
    fn u16_list_into(&mut self, count: usize, out: &mut Vec<u16>) -> Result<(), WireError> {
        if self.remaining() < count * 2 {
            return Err(WireError::Truncated {
                need: count * 2,
                have: self.remaining(),
            });
        }
        out.reserve(count);
        for _ in 0..count {
            out.push(self.u16()?);
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            Err(WireError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

/// Peeks at a datagram's message-type byte without a full decode — the
/// proxy uses this to classify data vs. control traffic. Returns `None`
/// for anything that is not a well-formed header of ours.
pub fn peek_type(datagram: &[u8]) -> Option<u8> {
    if datagram.len() < HEADER_BYTES {
        return None;
    }
    let magic = u32::from_be_bytes([datagram[0], datagram[1], datagram[2], datagram[3]]);
    if magic != MAGIC || datagram[4] != VERSION {
        return None;
    }
    Some(datagram[5])
}

/// Peeks at a datagram's connection id without a full decode. Returns
/// `None` for anything that is not a well-formed header of ours.
pub fn peek_conn(datagram: &[u8]) -> Option<u32> {
    peek_type(datagram)?;
    Some(u32::from_be_bytes([
        datagram[6],
        datagram[7],
        datagram[8],
        datagram[9],
    ]))
}

/// The addressing labels of a data datagram — what the fault proxy peeks
/// without decoding the payload, and what the cores' data effects carry
/// to the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataLabels {
    /// Connection id from the header.
    pub conn: u32,
    /// Window index.
    pub window: u64,
    /// Frame index within the window.
    pub frame: u16,
    /// Fragment index within the frame.
    pub frag: u16,
    /// Whether the retransmit flag is set.
    pub retransmit: bool,
}

/// Peeks the labels of a `Msg::Data` datagram (fixed offsets; no payload
/// parse). Returns `None` for control datagrams, aliens, or anything too
/// short to carry the full label block.
pub fn peek_data_labels(datagram: &[u8]) -> Option<DataLabels> {
    if peek_type(datagram)? != 4 {
        return None;
    }
    // Header (10) + window u64 + frame u16 + frag u16 + frags u16 +
    // layer u8 + slot u16 + flags u8 = 28 bytes minimum.
    if datagram.len() < HEADER_BYTES + 18 {
        return None;
    }
    let b = |i: usize| datagram[HEADER_BYTES + i];
    Some(DataLabels {
        conn: u32::from_be_bytes([datagram[6], datagram[7], datagram[8], datagram[9]]),
        window: u64::from_be_bytes([b(0), b(1), b(2), b(3), b(4), b(5), b(6), b(7)]),
        frame: u16::from_be_bytes([b(8), b(9)]),
        frag: u16::from_be_bytes([b(10), b(11)]),
        retransmit: b(17) & 1 != 0,
    })
}

/// Reusable buffer pools for the decode hot path.
///
/// `decode` allocates fresh `Vec`s and `String`s for every counted field
/// — fine for handshakes, wasteful per-datagram. A long-lived receive loop
/// keeps one `DecodeScratch`, decodes with [`decode_with`], and hands each
/// fully-consumed message back via [`DecodeScratch::recycle`]; the owned
/// buffers inside return to the pools and the next decode reuses their
/// capacity instead of allocating.
///
/// Ownership rule: the buffers inside a decoded [`Msg`] belong to the
/// message until `recycle` is called — there is no aliasing, so dropping a
/// message instead of recycling it is always safe (the pool just stays
/// colder). Pools are bounded ([`DecodeScratch::MAX_POOLED`] per kind), so
/// a recycle storm cannot grow memory without limit.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    u16s: Vec<Vec<u16>>,
    members: Vec<Vec<ParityMember>>,
    strings: Vec<String>,
}

impl DecodeScratch {
    /// Most spare buffers kept per pool; further recycles are dropped.
    pub const MAX_POOLED: usize = 8;

    fn take_u16s(&mut self) -> Vec<u16> {
        self.u16s.pop().unwrap_or_default()
    }

    fn take_members(&mut self) -> Vec<ParityMember> {
        self.members.pop().unwrap_or_default()
    }

    fn take_string(&mut self) -> String {
        self.strings.pop().unwrap_or_default()
    }

    /// Returns a consumed message's owned buffers to the pools so the next
    /// [`decode_with`] reuses their capacity. Messages with no heap fields
    /// are dropped unchanged.
    pub fn recycle(&mut self, msg: Msg) {
        match msg {
            Msg::Accept(a) => {
                self.pool_u16s(a.layer_sizes);
                self.pool_u16s(a.critical_frames);
            }
            Msg::Reject(r) => {
                if self.strings.len() < Self::MAX_POOLED {
                    let mut s = r.reason;
                    s.clear();
                    self.strings.push(s);
                }
            }
            Msg::WindowAck(a) => self.pool_u16s(a.per_layer_burst),
            Msg::CriticalNack(n) => self.pool_u16s(n.missing),
            Msg::Parity(p) => {
                if self.members.len() < Self::MAX_POOLED {
                    let mut m = p.members;
                    m.clear();
                    self.members.push(m);
                }
            }
            Msg::Hello(_)
            | Msg::Begin
            | Msg::Data(_)
            | Msg::WindowEnd(_)
            | Msg::Bye(_)
            | Msg::ByeAck
            | Msg::Busy { .. } => {}
        }
    }

    fn pool_u16s(&mut self, mut v: Vec<u16>) {
        if self.u16s.len() < Self::MAX_POOLED {
            v.clear();
            self.u16s.push(v);
        }
    }
}

/// Decodes one datagram into `(conn_id, message)`.
///
/// # Errors
///
/// Returns a [`WireError`] naming the malformed-datagram class; never
/// panics, whatever the input bytes.
pub fn decode(datagram: &[u8]) -> Result<(u32, Msg), WireError> {
    decode_with(datagram, &mut DecodeScratch::default())
}

/// [`decode`] drawing counted-field buffers from a caller-owned
/// [`DecodeScratch`] — the zero-steady-state-allocation form for receive
/// loops. Behavior is byte-for-byte identical to [`decode`]; only where
/// the `Vec`/`String` capacity comes from differs.
///
/// # Errors
///
/// Returns a [`WireError`] naming the malformed-datagram class; never
/// panics, whatever the input bytes.
pub fn decode_with(datagram: &[u8], scratch: &mut DecodeScratch) -> Result<(u32, Msg), WireError> {
    if datagram.len() < HEADER_BYTES {
        return Err(WireError::ShortHeader {
            have: datagram.len(),
        });
    }
    let magic = u32::from_be_bytes([datagram[0], datagram[1], datagram[2], datagram[3]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if datagram[4] != VERSION {
        return Err(WireError::BadVersion(datagram[4]));
    }
    let type_byte = datagram[5];
    let conn_id = u32::from_be_bytes([datagram[6], datagram[7], datagram[8], datagram[9]]);
    let mut c = Cursor::new(&datagram[HEADER_BYTES..]);
    let msg = match type_byte {
        0 => {
            let nonce = c.u64()?;
            let buffer_bytes = c.u64()?;
            let max_startup_delay_ms = c.u64()?;
            let ordering = ordering_from_byte(c.u8()?)?;
            Msg::Hello(Hello {
                nonce,
                buffer_bytes,
                max_startup_delay_ms,
                ordering,
            })
        }
        1 => {
            let nonce = c.u64()?;
            let frames_per_window = c.u16()?;
            let windows_total = c.u32()?;
            let packet_bytes = c.u32()?;
            let fps = c.u32()?;
            let n_layers = usize::from(c.u8()?);
            let mut layer_sizes = scratch.take_u16s();
            c.u16_list_into(n_layers, &mut layer_sizes)?;
            let n_critical = usize::from(c.u16()?);
            let mut critical_frames = scratch.take_u16s();
            c.u16_list_into(n_critical, &mut critical_frames)?;
            Msg::Accept(Accept {
                nonce,
                frames_per_window,
                windows_total,
                packet_bytes,
                fps,
                layer_sizes,
                critical_frames,
            })
        }
        2 => {
            let nonce = c.u64()?;
            let len = usize::from(c.u16()?);
            if c.remaining() < len {
                return Err(WireError::Overlength {
                    declared: len,
                    have: c.remaining(),
                });
            }
            let bytes = c.take(len)?;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadValue("reject reason is not utf-8"))?;
            let mut reason = scratch.take_string();
            reason.push_str(text);
            Msg::Reject(Reject { nonce, reason })
        }
        3 => Msg::Begin,
        4 => {
            let window = c.u64()?;
            let frame = usize::from(c.u16()?);
            let frag = c.u16()?;
            let frags_total = c.u16()?;
            let layer = c.u8()?;
            let layer_slot = c.u16()?;
            let flags = c.u8()?;
            let ldu_bytes = c.u32()?;
            let ldu = Ldu::try_new(ldu_bytes).map_err(|_| WireError::BadValue("zero LDU size"))?;
            if frags_total == 0 {
                return Err(WireError::BadValue("zero fragment count"));
            }
            if frag >= frags_total {
                return Err(WireError::BadValue("fragment index out of range"));
            }
            let payload_len = c.u16()?;
            if c.remaining() < usize::from(payload_len) {
                return Err(WireError::Overlength {
                    declared: usize::from(payload_len),
                    have: c.remaining(),
                });
            }
            let _payload = c.take(usize::from(payload_len))?;
            Msg::Data(DataMsg {
                fragment: Fragment {
                    window,
                    frame,
                    frag,
                    frags_total,
                    layer,
                    layer_slot,
                    retransmit: flags & 1 != 0,
                },
                ldu,
                payload_len,
            })
        }
        5 => {
            let window = c.u64()?;
            let sent_at_us = c.u64()?;
            let last = c.u8()? != 0;
            Msg::WindowEnd(WindowEnd {
                window,
                sent_at_us,
                last,
            })
        }
        6 => {
            let ack_seq = c.u64()?;
            let window = c.u64()?;
            let echo_us = c.u64()?;
            let n = usize::from(c.u8()?);
            let mut per_layer_burst = scratch.take_u16s();
            c.u16_list_into(n, &mut per_layer_burst)?;
            Msg::WindowAck(WindowAckMsg {
                ack_seq,
                window,
                echo_us,
                per_layer_burst,
            })
        }
        7 => {
            let window = c.u64()?;
            let n = usize::from(c.u16()?);
            let mut missing = scratch.take_u16s();
            c.u16_list_into(n, &mut missing)?;
            Msg::CriticalNack(CriticalNackMsg { window, missing })
        }
        8 => Msg::Bye(match c.u8()? {
            0 => ByeReason::Complete,
            1 => ByeReason::Aborted,
            _ => return Err(WireError::BadValue("unknown bye reason")),
        }),
        9 => Msg::ByeAck,
        10 => {
            let window = c.u64()?;
            let group = c.u32()?;
            let m = c.u8()?;
            let parity_index = c.u8()?;
            let shard_bytes = c.u16()?;
            let count = usize::from(c.u8()?);
            if m == 0 {
                return Err(WireError::BadValue("zero parity count"));
            }
            if parity_index >= m {
                return Err(WireError::BadValue("parity index out of range"));
            }
            if count == 0 {
                return Err(WireError::BadValue("empty parity group"));
            }
            // Length-check the whole member block before reading it so a
            // hostile count cannot balloon the allocation.
            if c.remaining() < count * 6 {
                return Err(WireError::Truncated {
                    need: count * 6,
                    have: c.remaining(),
                });
            }
            let mut members = scratch.take_members();
            members.reserve(count);
            for _ in 0..count {
                let frame = c.u16()?;
                let frag = c.u16()?;
                let frags_total = c.u16()?;
                if frags_total == 0 {
                    return Err(WireError::BadValue("zero fragment count"));
                }
                if frag >= frags_total {
                    return Err(WireError::BadValue("fragment index out of range"));
                }
                members.push(ParityMember {
                    frame,
                    frag,
                    frags_total,
                });
            }
            if c.remaining() < usize::from(shard_bytes) {
                return Err(WireError::Overlength {
                    declared: usize::from(shard_bytes),
                    have: c.remaining(),
                });
            }
            let _payload = c.take(usize::from(shard_bytes))?;
            Msg::Parity(ParityMsg {
                window,
                group,
                m,
                parity_index,
                shard_bytes,
                members,
            })
        }
        11 => Msg::Busy {
            retry_after_ms: c.u32()?,
        },
        other => return Err(WireError::UnknownType(other)),
    };
    c.finish()?;
    Ok((conn_id, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Msg {
        Msg::Data(DataMsg {
            fragment: Fragment {
                window: 3,
                frame: 17,
                frag: 1,
                frags_total: 3,
                layer: 4,
                layer_slot: 9,
                retransmit: true,
            },
            ldu: Ldu::new(5000),
            payload_len: 904,
        })
    }

    fn all_messages() -> Vec<Msg> {
        vec![
            Msg::Hello(Hello {
                nonce: 0xDEAD_BEEF,
                buffer_bytes: 1024 * 1024,
                max_startup_delay_ms: 2000,
                ordering: Ordering::spread(),
            }),
            Msg::Accept(Accept {
                nonce: 0xDEAD_BEEF,
                frames_per_window: 24,
                windows_total: 20,
                packet_bytes: 2048,
                fps: 24,
                layer_sizes: vec![2, 2, 2, 2, 16],
                critical_frames: vec![0, 3, 6, 9, 12, 15, 18, 21],
            }),
            Msg::Reject(Reject {
                nonce: 1,
                reason: "client buffer too small".into(),
            }),
            Msg::Begin,
            sample_data(),
            Msg::WindowEnd(WindowEnd {
                window: 7,
                sent_at_us: 123_456,
                last: true,
            }),
            Msg::WindowAck(WindowAckMsg {
                ack_seq: 9,
                window: 7,
                echo_us: 123_456,
                per_layer_burst: vec![1, 0, 2, 0, 5],
            }),
            Msg::CriticalNack(CriticalNackMsg {
                window: 7,
                missing: vec![0, 12],
            }),
            Msg::Bye(ByeReason::Complete),
            Msg::ByeAck,
            sample_parity(),
            Msg::Busy {
                retry_after_ms: 250,
            },
        ]
    }

    fn sample_parity() -> Msg {
        Msg::Parity(ParityMsg {
            window: 7,
            group: 3,
            m: 2,
            parity_index: 1,
            shard_bytes: 904,
            members: vec![
                ParityMember {
                    frame: 0,
                    frag: 0,
                    frags_total: 2,
                },
                ParityMember {
                    frame: 0,
                    frag: 1,
                    frags_total: 2,
                },
                ParityMember {
                    frame: 3,
                    frag: 0,
                    frags_total: 1,
                },
            ],
        })
    }

    #[test]
    fn roundtrip_every_message_type() {
        for msg in all_messages() {
            let bytes = try_encode(42, &msg).unwrap();
            let (conn, decoded) = decode(&bytes).expect("decode");
            assert_eq!(conn, 42);
            assert_eq!(decoded, msg, "type {}", msg.type_byte());
        }
    }

    #[test]
    fn data_payload_travels_as_zeroes_of_declared_length() {
        let bytes = try_encode(1, &sample_data()).unwrap();
        // Header + body fields + 904 payload bytes.
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + 8 + 2 + 2 + 2 + 1 + 2 + 1 + 4 + 2 + 904
        );
        assert!(bytes[bytes.len() - 904..].iter().all(|&b| b == 0));
    }

    #[test]
    fn short_header_rejected() {
        for len in 0..HEADER_BYTES {
            let bytes = vec![0u8; len];
            assert_eq!(decode(&bytes), Err(WireError::ShortHeader { have: len }));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = try_encode(1, &Msg::Begin).unwrap();
        bytes[0] = 0xFF;
        assert!(matches!(decode(&bytes), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = try_encode(1, &Msg::Begin).unwrap();
        bytes[4] = VERSION + 1;
        assert_eq!(decode(&bytes), Err(WireError::BadVersion(VERSION + 1)));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = try_encode(1, &Msg::Begin).unwrap();
        bytes[5] = 200;
        assert_eq!(decode(&bytes), Err(WireError::UnknownType(200)));
    }

    #[test]
    fn truncated_body_rejected() {
        for msg in all_messages() {
            let bytes = try_encode(5, &msg).unwrap();
            for cut in HEADER_BYTES..bytes.len() {
                let err = decode(&bytes[..cut]).expect_err("truncation must fail");
                assert!(
                    matches!(
                        err,
                        WireError::Truncated { .. } | WireError::Overlength { .. }
                    ),
                    "type {} cut at {cut}: {err}",
                    msg.type_byte()
                );
            }
        }
    }

    #[test]
    fn overlength_payload_field_rejected() {
        let mut bytes = try_encode(1, &sample_data()).unwrap();
        // Inflate the declared payload length past the datagram end.
        let len_at = bytes.len() - 904 - 2;
        bytes[len_at] = 0xFF;
        bytes[len_at + 1] = 0xFF;
        assert!(matches!(decode(&bytes), Err(WireError::Overlength { .. })));
    }

    #[test]
    fn zero_ldu_size_rejected_not_panicking() {
        let mut bytes = try_encode(1, &sample_data()).unwrap();
        // ldu_bytes sits just before the payload length field.
        let at = bytes.len() - 904 - 2 - 4;
        for b in &mut bytes[at..at + 4] {
            *b = 0;
        }
        assert_eq!(decode(&bytes), Err(WireError::BadValue("zero LDU size")));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = try_encode(1, &Msg::Begin).unwrap();
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn peek_type_classifies_and_ignores_aliens() {
        assert_eq!(peek_type(&try_encode(1, &sample_data()).unwrap()), Some(4));
        assert_eq!(peek_type(&try_encode(1, &Msg::Begin).unwrap()), Some(3));
        assert_eq!(peek_type(&[0u8; 4]), None);
        assert_eq!(peek_type(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn peek_data_labels_matches_the_full_decode() {
        let msg = sample_data();
        let bytes = try_encode(9, &msg).unwrap();
        let labels = peek_data_labels(&bytes).unwrap();
        let Msg::Data(data) = &msg else {
            unreachable!()
        };
        assert_eq!(labels.conn, 9);
        assert_eq!(labels.window, data.fragment.window);
        assert_eq!(usize::from(labels.frame), data.fragment.frame);
        assert_eq!(labels.frag, data.fragment.frag);
        assert_eq!(labels.retransmit, data.fragment.retransmit);
        assert_eq!(peek_conn(&bytes), Some(9));
        // Control datagrams and short/alien inputs peek to None.
        assert_eq!(peek_data_labels(&try_encode(9, &Msg::Begin).unwrap()), None);
        assert_eq!(peek_data_labels(&bytes[..20]), None);
        assert_eq!(peek_data_labels(b"alien"), None);
        assert_eq!(peek_conn(b"alien"), None);
    }

    #[test]
    fn error_display_names_each_class() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::ShortHeader { have: 3 }, "short header"),
            (WireError::BadMagic(7), "bad magic"),
            (WireError::BadVersion(9), "version"),
            (WireError::UnknownType(77), "unknown message type"),
            (WireError::Truncated { need: 8, have: 2 }, "truncated"),
            (
                WireError::Overlength {
                    declared: 900,
                    have: 3,
                },
                "overlength",
            ),
            (WireError::TrailingBytes(4), "trailing"),
            (WireError::BadValue("x"), "invalid field"),
            (
                WireError::Oversize {
                    field: "data.frame",
                    max: 65535,
                    actual: 65536,
                },
                "oversize data.frame",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    fn data_with_frame(frame: usize) -> Msg {
        Msg::Data(DataMsg {
            fragment: Fragment {
                window: 0,
                frame,
                frag: 0,
                frags_total: 1,
                layer: 0,
                layer_slot: 0,
                retransmit: false,
            },
            ldu: Ldu::new(1),
            payload_len: 0,
        })
    }

    /// The last legal frame index round-trips exactly; one past it is a
    /// typed refusal, never a silent wrap to frame 0.
    #[test]
    fn frame_index_boundary() {
        let msg = data_with_frame(MAX_FRAME_INDEX);
        let bytes = try_encode(1, &msg).expect("at the limit encodes");
        let (_, decoded) = decode(&bytes).expect("decodes");
        assert_eq!(decoded, msg);

        let err = try_encode(1, &data_with_frame(MAX_FRAME_INDEX + 1)).unwrap_err();
        assert_eq!(
            err,
            WireError::Oversize {
                field: "data.frame",
                max: MAX_FRAME_INDEX,
                actual: MAX_FRAME_INDEX + 1,
            }
        );
    }

    /// 255 layers fit; 256 are refused instead of dropping the last one.
    #[test]
    fn accept_layer_count_boundary() {
        let accept = |layers: usize| {
            Msg::Accept(Accept {
                nonce: 1,
                frames_per_window: 4,
                windows_total: 1,
                packet_bytes: 1024,
                fps: 24,
                layer_sizes: vec![1; layers],
                critical_frames: vec![0],
            })
        };
        let msg = accept(MAX_LAYERS);
        let bytes = try_encode(1, &msg).expect("255 layers encode");
        assert_eq!(decode(&bytes).expect("decodes").1, msg);

        let err = try_encode(1, &accept(MAX_LAYERS + 1)).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Oversize {
                    field: "accept.layer_sizes",
                    actual: 256,
                    ..
                }
            ),
            "{err}"
        );
    }

    /// Maximal critical-frame and NACK lists round-trip; one entry more
    /// is refused instead of shrinking the list on the wire.
    #[test]
    fn u16_counted_list_boundaries() {
        let full: Vec<u16> = (0..u16::MAX).collect(); // 65 535 entries
        let accept_full = Msg::Accept(Accept {
            nonce: 1,
            frames_per_window: u16::MAX,
            windows_total: 1,
            packet_bytes: 1024,
            fps: 24,
            layer_sizes: vec![u16::MAX],
            critical_frames: full.clone(),
        });
        let bytes = try_encode(1, &accept_full).expect("maximal critical list encodes");
        assert_eq!(decode(&bytes).expect("decodes").1, accept_full);

        let nack_full = Msg::CriticalNack(CriticalNackMsg {
            window: 0,
            missing: full.clone(),
        });
        let bytes = try_encode(1, &nack_full).expect("maximal NACK encodes");
        assert_eq!(decode(&bytes).expect("decodes").1, nack_full);

        let mut over = full;
        over.push(0);
        let err = try_encode(
            1,
            &Msg::CriticalNack(CriticalNackMsg {
                window: 0,
                missing: over.clone(),
            }),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Oversize {
                    field: "critical_nack.missing",
                    ..
                }
            ),
            "{err}"
        );
        let err = try_encode(
            1,
            &Msg::Accept(Accept {
                nonce: 1,
                frames_per_window: u16::MAX,
                windows_total: 1,
                packet_bytes: 1024,
                fps: 24,
                layer_sizes: vec![u16::MAX],
                critical_frames: over,
            }),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Oversize {
                    field: "accept.critical_frames",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// 255 parity members fit; 256 are refused instead of dropping one —
    /// a parity whose member list shrank silently would "recover" the
    /// wrong fragment.
    #[test]
    fn parity_member_boundary() {
        let parity = |n: usize| {
            Msg::Parity(ParityMsg {
                window: 1,
                group: 0,
                m: 1,
                parity_index: 0,
                shard_bytes: 8,
                members: vec![
                    ParityMember {
                        frame: 2,
                        frag: 0,
                        frags_total: 1,
                    };
                    n
                ],
            })
        };
        let msg = parity(MAX_PARITY_MEMBERS);
        let bytes = try_encode(1, &msg).expect("255 members encode");
        assert_eq!(decode(&bytes).expect("decodes").1, msg);
        assert_eq!(
            try_encode(1, &parity(MAX_PARITY_MEMBERS + 1)).unwrap_err(),
            WireError::Oversize {
                field: "parity.members",
                max: MAX_PARITY_MEMBERS,
                actual: MAX_PARITY_MEMBERS + 1,
            }
        );
    }

    /// Hostile parity datagrams are rejected with typed errors, never a
    /// panic or a bogus recovery: zero m, out-of-range parity index,
    /// empty groups, invalid member geometry, and payloads shorter than
    /// the declared shard size.
    #[test]
    fn hostile_parity_rejected() {
        let valid = match sample_parity() {
            Msg::Parity(p) => p,
            _ => unreachable!(),
        };
        let encode_raw = |p: &ParityMsg| try_encode(1, &Msg::Parity(p.clone())).unwrap();

        let mut zero_m = valid.clone();
        zero_m.m = 0;
        zero_m.parity_index = 0;
        assert_eq!(
            decode(&encode_raw(&zero_m)),
            Err(WireError::BadValue("zero parity count"))
        );

        let mut bad_index = valid.clone();
        bad_index.parity_index = bad_index.m;
        assert_eq!(
            decode(&encode_raw(&bad_index)),
            Err(WireError::BadValue("parity index out of range"))
        );

        let mut empty = valid.clone();
        empty.members.clear();
        assert_eq!(
            decode(&encode_raw(&empty)),
            Err(WireError::BadValue("empty parity group"))
        );

        let mut zero_frags = valid.clone();
        zero_frags.members[1].frags_total = 0;
        assert_eq!(
            decode(&encode_raw(&zero_frags)),
            Err(WireError::BadValue("zero fragment count"))
        );

        let mut frag_oob = valid.clone();
        frag_oob.members[1].frag = frag_oob.members[1].frags_total;
        assert_eq!(
            decode(&encode_raw(&frag_oob)),
            Err(WireError::BadValue("fragment index out of range"))
        );

        // Declared shard size larger than the bytes behind it.
        let mut bytes = encode_raw(&valid);
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            decode(&bytes),
            Err(WireError::Overlength { .. } | WireError::Truncated { .. })
        ));

        // A hostile member count with no member block behind it must be
        // length-checked before any allocation.
        let lean = ParityMsg {
            members: vec![valid.members[0]],
            shard_bytes: 0,
            ..valid
        };
        let mut bytes = try_encode(1, &Msg::Parity(lean)).unwrap();
        let count_at = bytes.len() - 6 - 1; // one 6-byte member behind the count
        bytes[count_at] = 255;
        assert!(matches!(decode(&bytes), Err(WireError::Truncated { .. })));
    }

    /// 255 burst entries fit a WindowAck; 256 are refused.
    #[test]
    fn window_ack_burst_boundary() {
        let ack = |n: usize| {
            Msg::WindowAck(WindowAckMsg {
                ack_seq: 1,
                window: 0,
                echo_us: 0,
                per_layer_burst: vec![7; n],
            })
        };
        let msg = ack(MAX_BURST_ENTRIES);
        let bytes = try_encode(1, &msg).expect("255 bursts encode");
        assert_eq!(decode(&bytes).expect("decodes").1, msg);
        assert!(matches!(
            try_encode(1, &ack(MAX_BURST_ENTRIES + 1)).unwrap_err(),
            WireError::Oversize {
                field: "window_ack.per_layer_burst",
                ..
            }
        ));
    }

    /// A reject reason at the u16 limit survives intact; past it the
    /// encoder refuses rather than cutting the text mid-way.
    #[test]
    fn reject_reason_boundary() {
        let msg = Msg::Reject(Reject {
            nonce: 1,
            reason: "x".repeat(MAX_REASON_BYTES),
        });
        let bytes = try_encode(1, &msg).expect("maximal reason encodes");
        assert_eq!(decode(&bytes).expect("decodes").1, msg);
        assert!(matches!(
            try_encode(
                1,
                &Msg::Reject(Reject {
                    nonce: 1,
                    reason: "x".repeat(MAX_REASON_BYTES + 1),
                })
            )
            .unwrap_err(),
            WireError::Oversize {
                field: "reject.reason",
                ..
            }
        ));
    }

    /// `decode_with` + `recycle` over one scratch matches the allocating
    /// decode exactly for every message type, across repeated laps (so
    /// recycled buffers demonstrably carry no stale state).
    #[test]
    fn decode_with_scratch_matches_decode() {
        let mut scratch = DecodeScratch::default();
        for _ in 0..3 {
            for msg in all_messages() {
                let bytes = try_encode(8, &msg).unwrap();
                let (conn, pooled) = decode_with(&bytes, &mut scratch).expect("decode_with");
                assert_eq!((conn, &pooled), (8, &msg), "type {}", msg.type_byte());
                assert_eq!(decode(&bytes).unwrap().1, pooled);
                scratch.recycle(pooled);
            }
        }
    }

    /// Recycle pools are bounded: a recycle storm never retains more than
    /// `MAX_POOLED` spare buffers per kind.
    #[test]
    fn recycle_pools_are_bounded() {
        let mut scratch = DecodeScratch::default();
        for _ in 0..100 {
            scratch.recycle(Msg::CriticalNack(CriticalNackMsg {
                window: 0,
                missing: vec![1, 2, 3],
            }));
            scratch.recycle(Msg::Reject(Reject {
                nonce: 0,
                reason: "no".into(),
            }));
            scratch.recycle(sample_parity());
        }
        assert!(scratch.u16s.len() <= DecodeScratch::MAX_POOLED);
        assert!(scratch.strings.len() <= DecodeScratch::MAX_POOLED);
        assert!(scratch.members.len() <= DecodeScratch::MAX_POOLED);
    }

    /// Appending every message into one scatter buffer yields ranges that
    /// each decode to the original message, and an oversize refusal
    /// truncates back to the batch's prior end.
    #[test]
    fn encode_append_batches_into_one_buffer() {
        let mut batch = Vec::new();
        let mut spans = Vec::new();
        for msg in all_messages() {
            spans.push(try_encode_append(6, &msg, &mut batch).expect("append"));
        }
        for (msg, span) in all_messages().into_iter().zip(spans) {
            let (conn, decoded) = decode(&batch[span]).expect("decode span");
            assert_eq!((conn, decoded), (6, msg));
        }
        let before = batch.len();
        let err = try_encode_append(6, &data_with_frame(MAX_FRAME_INDEX + 1), &mut batch);
        assert!(err.is_err());
        assert_eq!(batch.len(), before, "refusal leaves the batch intact");
    }

    /// One scratch buffer encodes every message type back-to-back,
    /// byte-identical to the allocating path, and comes back cleared
    /// (never half-written) after an oversize refusal.
    #[test]
    fn encode_into_reuses_one_buffer_across_messages() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            try_encode_into(3, &msg, &mut buf).expect("encode into");
            assert_eq!(buf, try_encode(3, &msg).unwrap());
            let (conn, decoded) = decode(&buf).expect("decode");
            assert_eq!(conn, 3);
            assert_eq!(decoded, msg);
        }
        let err = try_encode_into(1, &data_with_frame(MAX_FRAME_INDEX + 1), &mut buf);
        assert!(err.is_err());
        assert!(buf.is_empty());
    }
}
