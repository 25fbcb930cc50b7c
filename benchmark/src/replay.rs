//! Per-layer replay: re-runs a workload's windows through the public calls
//! its UDP code path makes, in one thread and without sockets, with a span
//! around each layer call and a `window` span as their parent.
//!
//! Per window, in the order the shipped stack does it: the server folds
//! the last ACK and plans (`Server::offer_ack` + `plan_window`), looks up
//! each layer's order (`calculate_permutation_cached`), encodes every
//! fragment, parity group and the `WindowEnd` into one scatter buffer
//! (`try_encode_append`, `Codec::encode_into`), the Gilbert–Elliott chain
//! decides each data and parity datagram (as the proxy does), and the
//! client decodes (`decode_with` + `recycle`), reassembles
//! (`NetWindow::accept`/`accept_parity`), repairs and closes the window
//! (`recover_with` + `missing_critical_into` + `close_into` + `reset`) and
//! scores it (`ContinuityMetrics::of`). The layer permutation itself
//! (`apply_into` + `unapply_into`) is timed too, although neither
//! transport calls it per window. NACK retransmission rounds are not
//! replayed.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use espread_core::{calculate_permutation_cached, LayeredOrder, SpreadChoice};
use espread_fec::Codec;
use espread_net::clientwin::{NetWindow, NetWindowOutcome, RecoverScratch};
use espread_net::wire::{self, DataMsg, DecodeScratch, Msg, ParityMember, ParityMsg, WindowEnd};
use espread_netsim::GilbertModel;
use espread_protocol::{negotiate, ClientCapabilities, FecScope, Fragment, Server, WindowFeedback};
use espread_qos::ContinuityMetrics;

use crate::trace::{Recorder, SpanId};
use crate::workload::{Shape, P_BAD, P_GOOD};

/// Connection id stamped on replayed datagrams.
const CONN: u32 = 1;

/// Counts a replay accumulates besides its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Windows replayed.
    pub windows: u64,
    /// Data datagrams encoded.
    pub data: u64,
    /// Parity datagrams encoded.
    pub parity: u64,
    /// Parity groups encoded.
    pub groups: u64,
    /// Bytes of every encoded datagram (control included).
    pub bytes: u64,
    /// Data and parity datagrams that crossed a lossy channel.
    pub stepped: u64,
    /// Of those, dropped.
    pub dropped: u64,
    /// Parity groups with at least one member dropped.
    pub groups_with_erasures: u64,
    /// Of those, groups whose erasures exceeded the surviving parity.
    pub groups_unrecoverable: u64,
    /// Summed per-window CLF.
    pub clf_sum: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Data,
    Parity,
    Control,
}

/// Server-side parity state for the window being encoded.
struct FecEncoder {
    codec: Codec,
    in_scope: Vec<bool>,
    members: Vec<ParityMember>,
    member_datagrams: Vec<usize>,
    shard_bytes: u16,
    data: Vec<Vec<u8>>,
    parity: Vec<Vec<u8>>,
    /// Datagram indices of each emitted group's members, flattened, with
    /// the end offset of every group.
    group_members: Vec<usize>,
    group_ends: Vec<usize>,
}

/// Replays `windows` windows of `shape`: whole sessions back to back,
/// session `k` on channel seed `seed + k` with a fresh planner.
pub fn replay(shape: &Shape, seed: u64, windows: usize, rec: &mut Recorder) -> ReplayStats {
    let source = &shape.source;
    let packet = shape.offer.packet_bytes;
    let agreed = negotiate(shape.offer.clone(), ClientCapabilities::desktop())
        .expect("every workload's offer negotiates");
    let narrow = |v: &[usize]| -> Vec<u16> {
        v.iter()
            .map(|&x| u16::try_from(x).expect("window fits the wire"))
            .collect()
    };
    let layer_sizes = narrow(&agreed.layer_sizes);
    let critical = narrow(&agreed.critical_frames);
    let frames = source.frames_per_window();
    let policy = shape.offer.fec;
    let mut fec = policy.enabled().then(|| FecEncoder {
        codec: Codec::new(usize::from(policy.group_k), usize::from(policy.parity_m))
            .expect("offer validated the FEC geometry"),
        in_scope: Vec::new(),
        members: Vec::new(),
        member_datagrams: Vec::new(),
        shard_bytes: 0,
        data: Vec::new(),
        parity: Vec::new(),
        group_members: Vec::new(),
        group_ends: Vec::new(),
    });

    let mut stats = ReplayStats::default();
    let mut batch: Vec<u8> = Vec::new();
    let mut datagrams: Vec<(Range<usize>, Kind)> = Vec::new();
    let mut delivered: Vec<bool> = Vec::new();
    let mut arrivals: Vec<usize> = Vec::new();
    let mut held: Vec<Msg> = Vec::with_capacity(DecodeScratch::MAX_POOLED);
    let mut scratch = DecodeScratch::default();
    let mut recover = RecoverScratch::default();
    let mut nack: Vec<u16> = Vec::new();
    let mut outcome = NetWindowOutcome::default();
    let mut netwin = NetWindow::new(0, frames, &layer_sizes, &critical);
    let mut choices: Vec<Arc<SpreadChoice>> = Vec::new();
    let items: Vec<usize> = (0..frames).collect();
    let mut sent: Vec<usize> = Vec::with_capacity(frames);
    let mut received: Vec<Option<usize>> = Vec::with_capacity(frames);
    let mut playout: Vec<Option<usize>> = Vec::with_capacity(frames);

    let mut session = 0u64;
    while (stats.windows as usize) < windows {
        let channel_seed = seed.wrapping_add(session);
        session += 1;
        let mut server = Server::new(&shape.protocol(channel_seed), &source.poset);
        let mut gilbert = shape
            .lossy
            .then(|| GilbertModel::new(P_GOOD, P_BAD, channel_seed));
        let mut feedback: Option<Vec<usize>> = None;
        let mut ack_seq = 0u64;
        for (w, ldus) in source.windows.iter().enumerate() {
            if stats.windows as usize >= windows {
                break;
            }
            let w64 = w as u64;
            let win = rec.open("window", SpanId::NONE);

            let plan = rec.time("protocol.plan_window", win, || {
                if let Some(bursts) = feedback.take() {
                    ack_seq += 1;
                    server.offer_ack(
                        ack_seq,
                        WindowFeedback {
                            window: w64 - 1,
                            per_layer_burst: bursts,
                        },
                    );
                }
                (server.plan_window(&source.poset), 1)
            });

            rec.time("core.order_lookup", win, || {
                choices.clear();
                for layer in plan.layers.iter().filter(|l| l.burst_bound > 0) {
                    choices.push(calculate_permutation_cached(
                        layer.frames.len(),
                        layer.burst_bound,
                    ));
                }
                ((), choices.len() as u64)
            });

            rec.time("core.permute", win, || {
                for choice in &choices {
                    let perm = &choice.permutation;
                    perm.apply_into(&items[..perm.len()], &mut sent);
                    received.clear();
                    received.extend(sent.iter().map(|&f| Some(f)));
                    perm.unapply_into(&received, &mut playout);
                }
                std::hint::black_box(&playout);
                ((), choices.len() as u64)
            });

            // Server: every fragment in schedule order, parity after each
            // full group, the tail group, then the WindowEnd.
            batch.clear();
            datagrams.clear();
            let encode = rec.open("net.wire.encode", win);
            if let Some(f) = &mut fec {
                f.in_scope.clear();
                f.in_scope
                    .resize(frames, matches!(policy.scope, FecScope::All));
                if matches!(policy.scope, FecScope::Critical) {
                    for frame in plan.critical_frames() {
                        f.in_scope[frame] = true;
                    }
                }
                f.group_members.clear();
                f.group_ends.clear();
            }
            let mut group = 0u32;
            for sched in &plan.schedule {
                let ldu = ldus[sched.frame];
                let frags_total = ldu.fragment_count(packet);
                for frag in 0..frags_total {
                    let payload_len = ldu.fragment_size(packet, frag) as u16;
                    let msg = Msg::Data(DataMsg {
                        fragment: Fragment {
                            window: w64,
                            frame: sched.frame,
                            frag,
                            frags_total,
                            layer: sched.layer,
                            layer_slot: sched.layer_slot,
                            retransmit: false,
                        },
                        ldu,
                        payload_len,
                    });
                    push(&mut batch, &mut datagrams, &msg, Kind::Data);
                    let Some(f) = &mut fec else { continue };
                    if !f.in_scope[sched.frame] {
                        continue;
                    }
                    f.members.push(ParityMember {
                        frame: sched.frame as u16,
                        frag,
                        frags_total,
                    });
                    f.member_datagrams.push(datagrams.len() - 1);
                    f.shard_bytes = f.shard_bytes.max(payload_len);
                    if f.members.len() == f.codec.k() {
                        emit_group(f, w64, group, &mut batch, &mut datagrams, rec, encode);
                        group += 1;
                    }
                }
            }
            if let Some(f) = &mut fec {
                if !f.members.is_empty() {
                    emit_group(f, w64, group, &mut batch, &mut datagrams, rec, encode);
                    group += 1;
                }
            }
            let end = Msg::WindowEnd(WindowEnd {
                window: w64,
                sent_at_us: 1,
                last: w + 1 == source.window_count(),
            });
            push(&mut batch, &mut datagrams, &end, Kind::Control);
            rec.close(encode, datagrams.len() as u64);
            stats.groups += u64::from(group);
            for (range, kind) in &datagrams {
                stats.bytes += range.len() as u64;
                match kind {
                    Kind::Data => stats.data += 1,
                    Kind::Parity => stats.parity += 1,
                    Kind::Control => {}
                }
            }

            delivered.clear();
            match &mut gilbert {
                Some(g) => rec.time("netsim.channel", win, || {
                    let mut stepped = 0;
                    for (_, kind) in &datagrams {
                        delivered.push(
                            *kind == Kind::Control || {
                                stepped += 1;
                                g.step_delivers()
                            },
                        );
                    }
                    ((), stepped)
                }),
                None => delivered.resize(datagrams.len(), true),
            }
            for ((_, kind), &ok) in datagrams.iter().zip(&delivered) {
                if *kind != Kind::Control && shape.lossy {
                    stats.stepped += 1;
                    stats.dropped += u64::from(!ok);
                }
            }

            // Client: decode, reassemble and recycle in chunks no larger
            // than the decode pool, so the replay stays as allocation-free
            // as the client's one-datagram-at-a-time loop.
            arrivals.clear();
            arrivals.extend((0..datagrams.len()).filter(|&i| delivered[i]));
            for chunk in arrivals.chunks(DecodeScratch::MAX_POOLED) {
                rec.time("net.wire.decode", win, || {
                    for &i in chunk {
                        let (_, msg) =
                            wire::decode_with(&batch[datagrams[i].0.clone()], &mut scratch)
                                .expect("replayed datagrams decode");
                        held.push(msg);
                    }
                    ((), chunk.len() as u64)
                });
                rec.time("net.clientwin.accept", win, || {
                    for msg in &held {
                        match msg {
                            Msg::Data(d) => {
                                netwin.accept(d);
                            }
                            Msg::Parity(p) => {
                                netwin.accept_parity(p);
                            }
                            _ => {}
                        }
                    }
                    ((), chunk.len() as u64)
                });
                rec.time("net.wire.decode", win, || {
                    for msg in held.drain(..) {
                        scratch.recycle(msg);
                    }
                    ((), 0)
                });
            }

            let close = rec.open("net.clientwin.close", win);
            let repaired = rec.time("fec.recover", close, || {
                (netwin.recover_with(&mut recover), 1)
            });
            netwin.missing_critical_into(&mut nack);
            netwin.close_into(&mut outcome);
            let next = if w + 1 == source.window_count() {
                0
            } else {
                w64 + 1
            };
            netwin.reset(next, frames, &layer_sizes, &critical);
            rec.close(close, 1);
            if let Some(f) = &fec {
                let mut start = 0;
                for &end in &f.group_ends {
                    if f.group_members[start..end].iter().any(|&i| !delivered[i]) {
                        stats.groups_with_erasures += 1;
                    }
                    start = end;
                }
            }
            stats.groups_unrecoverable += repaired.unrecoverable as u64;

            let metrics = rec.time("qos.metrics", win, || {
                (ContinuityMetrics::of(&outcome.pattern), 1)
            });
            stats.clf_sum += metrics.clf() as u64;
            feedback = Some(
                outcome
                    .per_layer_burst
                    .iter()
                    .map(|&b| usize::from(b))
                    .collect(),
            );
            stats.windows += 1;
            rec.close(win, 1);
        }
    }
    stats
}

fn push(batch: &mut Vec<u8>, datagrams: &mut Vec<(Range<usize>, Kind)>, msg: &Msg, kind: Kind) {
    let range =
        wire::try_encode_append(CONN, msg, batch).expect("the server's own datagrams fit the wire");
    datagrams.push((range, kind));
}

/// Encodes the open group's parity (a tail group with a codec of its own
/// size, as the server does) and its `m` parity datagrams.
fn emit_group(
    f: &mut FecEncoder,
    window: u64,
    group: u32,
    batch: &mut Vec<u8>,
    datagrams: &mut Vec<(Range<usize>, Kind)>,
    rec: &mut Recorder,
    parent: SpanId,
) {
    let k = f.members.len();
    let m = f.codec.m();
    let bytes = usize::from(f.shard_bytes);
    rec.time("fec.encode", parent, || {
        let tail;
        let codec = if k == f.codec.k() {
            &f.codec
        } else {
            tail = Codec::new(k, m).expect("a smaller group of the same code");
            &tail
        };
        f.data.resize_with(k, Vec::new);
        for shard in &mut f.data {
            shard.clear();
            shard.resize(bytes, 0);
        }
        f.parity.resize_with(m, Vec::new);
        codec
            .encode_into(&f.data[..k], &mut f.parity)
            .expect("group geometry matches its codec");
        ((), 1)
    });
    let mut msg = Msg::Parity(ParityMsg {
        window,
        group,
        m: m as u8,
        parity_index: 0,
        shard_bytes: f.shard_bytes,
        members: std::mem::take(&mut f.members),
    });
    for i in 0..m {
        if let Msg::Parity(p) = &mut msg {
            p.parity_index = i as u8;
        }
        push(batch, datagrams, &msg, Kind::Parity);
    }
    if let Msg::Parity(p) = msg {
        f.members = p.members;
        f.members.clear();
    }
    f.group_members.append(&mut f.member_datagrams);
    f.group_ends.push(f.group_members.len());
    f.shard_bytes = 0;
}

/// Data and parity datagrams one lossless session of `shape` sends — what
/// the client must count on a lossless workload.
pub fn session_datagrams(shape: &Shape) -> (u64, u64) {
    let lossless = Shape {
        lossy: false,
        ..shape.clone()
    };
    let stats = replay(
        &lossless,
        0,
        shape.source.window_count(),
        &mut Recorder::disabled(),
    );
    (stats.data, stats.parity)
}

/// Uncached layered-order construction for the workload's poset at the
/// planner's prior for its largest layer (half its length): the cost an
/// order-cache miss pays. Returns nanoseconds per build.
pub fn layered_build(shape: &Shape, builds: u32, rec: &mut Recorder) -> f64 {
    let poset = &shape.source.poset;
    let largest = poset
        .depth_decomposition()
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(1);
    let b = (largest / 2).max(1);
    let started = Instant::now();
    rec.time("core.layered_build", SpanId::NONE, || {
        for _ in 0..builds {
            std::hint::black_box(LayeredOrder::with_uniform_bound(poset, b));
        }
        ((), u64::from(builds))
    });
    started.elapsed().as_nanos() as f64 / f64::from(builds.max(1))
}

/// std `send_to` + `recv_from` of one `bytes`-long datagram over loopback:
/// the per-datagram floor syscall batching competes with. Returns
/// nanoseconds per round, or `None` when loopback sockets are unavailable.
pub fn sendrecv(bytes: usize, rounds: u32, rec: &mut Recorder) -> Option<f64> {
    let tx = std::net::UdpSocket::bind("127.0.0.1:0").ok()?;
    let rx = std::net::UdpSocket::bind("127.0.0.1:0").ok()?;
    rx.set_read_timeout(Some(std::time::Duration::from_secs(1)))
        .ok()?;
    let to = rx.local_addr().ok()?;
    let payload = vec![0u8; bytes];
    let mut buf = vec![0u8; bytes.max(1) + 1];
    let started = Instant::now();
    let ok = rec.time("udp.sendrecv", SpanId::NONE, || {
        let mut ok = true;
        for _ in 0..rounds {
            ok &= tx.send_to(&payload, to).is_ok() && rx.recv_from(&mut buf).is_ok();
        }
        (ok, u64::from(rounds))
    });
    ok.then(|| started.elapsed().as_nanos() as f64 / f64::from(rounds.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::time::Instant;

    #[test]
    fn replay_counts_match_the_shape() {
        let shape = Workload::UdpStream.shape();
        let (data, parity) = session_datagrams(&shape);
        let fragments: u64 = shape
            .source
            .windows
            .iter()
            .flatten()
            .map(|ldu| u64::from(ldu.fragment_count(shape.offer.packet_bytes)))
            .sum();
        assert_eq!(data, fragments);
        // RS(8, 2) over every fragment: two parity datagrams per started
        // group of eight, per window.
        let per_window: u64 = shape
            .source
            .windows
            .iter()
            .map(|w| {
                let n: u64 = w
                    .iter()
                    .map(|l| u64::from(l.fragment_count(shape.offer.packet_bytes)))
                    .sum();
                2 * n.div_ceil(8)
            })
            .sum();
        assert_eq!(parity, per_window);
    }

    #[test]
    fn lossless_replay_loses_nothing_and_spans_nest_under_windows() {
        let shape = Workload::UdpChurn.shape();
        let mut rec = Recorder::new(Instant::now(), 10_000);
        let stats = replay(&shape, 7, 3, &mut rec);
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.clf_sum, 0);
        assert_eq!(stats.stepped, 0);
        let totals = rec.totals();
        assert_eq!(totals["window"].spans, 3);
        assert!(totals["window"].self_ns <= totals["window"].ns);
        assert_eq!(totals["net.wire.encode"].ops, stats.data + stats.parity + 3);
    }

    #[test]
    fn lossy_replay_is_deterministic_per_seed() {
        let shape = Workload::UdpLossy.shape();
        let a = replay(&shape, 42, 8, &mut Recorder::disabled());
        let b = replay(&shape, 42, 8, &mut Recorder::disabled());
        assert_eq!(a, b);
        assert!(a.dropped > 0 && a.dropped < a.stepped);
    }
}
