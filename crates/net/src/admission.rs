//! The server's handshake as a sans-IO state object.
//!
//! [`Admission`] answers every `Hello`: it negotiates the client's
//! capabilities against the offer, refuses with a typed `Busy` at the
//! session cap, allocates a connection id no live session holds, and
//! builds the admitted session's [`SessionCore`]. A duplicate `Hello`
//! gets the cached reply back byte for byte. It remembers each live
//! session's peer, the address its `Hello` came from, so the shell
//! routes a session's datagrams from that address only.
//!
//! Like the other cores it does no I/O and reads no clock: it takes the
//! time from [`Ctx::now`] (µs on the server clock), queues its reply on
//! the out-queue and reports what it did as [`Effect`]s.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

use espread_protocol::{
    negotiate, AgreedSession, ClientCapabilities, ProtocolConfig, SessionOffer, StreamSource,
};

use crate::retry::RetryPolicy;
use crate::server::NetServerConfig;
use crate::session::{us, Ctx, Effect, SessionCore, SessionLimits};
use crate::wire::{self, Accept, Hello, Msg, Reject, CONN_NONE};

/// TTL + LRU cache of handshake replies, keyed by client nonce.
///
/// Entries expire `ttl` µs after they were cached, and the oldest entry
/// is evicted once `cap` is reached, so a hostile nonce flood holds at
/// most `cap` replies.
struct HandshakeCache {
    ttl: u64,
    cap: usize,
    map: HashMap<u64, (SocketAddr, Vec<u8>, u64)>,
    /// Insertion order with each entry's clock value; stale order entries
    /// (superseded by a re-insert) are skipped by clock mismatch.
    order: VecDeque<(u64, u64)>,
}

impl HandshakeCache {
    fn new(ttl: u64, cap: usize) -> Self {
        HandshakeCache {
            ttl,
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// A still-fresh cached reply for `nonce` and where it went, if any.
    fn get(&self, nonce: u64, now: u64) -> Option<(SocketAddr, &[u8])> {
        let (addr, reply, at) = self.map.get(&nonce)?;
        (now.saturating_sub(*at) < self.ttl).then_some((*addr, reply))
    }

    /// Caches a reply, then expires stale entries and evicts oldest-first
    /// past the cap. Returns how many entries were removed.
    fn insert(&mut self, nonce: u64, addr: SocketAddr, reply: Vec<u8>, now: u64) -> u64 {
        self.map.insert(nonce, (addr, reply, now));
        self.order.push_back((nonce, now));
        let mut evicted = 0;
        while let Some(&(n, at)) = self.order.front() {
            if now.saturating_sub(at) < self.ttl && self.map.len() <= self.cap {
                break;
            }
            self.order.pop_front();
            // Only drop the map entry if this order record is still its
            // newest (a re-insert leaves stale order records behind).
            if self.map.get(&n).is_some_and(|e| e.2 == at) {
                self.map.remove(&n);
                evicted += 1;
            }
        }
        evicted
    }
}

/// Picks the next free connection id: skips [`CONN_NONE`] and any id
/// still live, so a wrapped counter can never silently overwrite a live
/// session's route. `None` only when every one of the 2³²−1 ids is in
/// use.
fn alloc_conn_id(next: &mut u32, live: &HashMap<u32, SocketAddr>) -> Option<u32> {
    for _ in 0..u32::MAX {
        let id = *next;
        *next = next.wrapping_add(1).max(1);
        if id != CONN_NONE && !live.contains_key(&id) {
            return Some(id);
        }
    }
    None
}

/// Builds the wire `Accept`, refusing session shapes the wire's field
/// widths cannot carry.
fn accept_msg(nonce: u64, agreed: &AgreedSession, windows: usize) -> Result<Accept, String> {
    let narrow = |v: usize| -> Result<u16, String> {
        u16::try_from(v).map_err(|_| "session shape exceeds wire limits".to_string())
    };
    let narrow_all = |v: &[usize]| v.iter().map(|&x| narrow(x)).collect::<Result<_, _>>();
    if agreed.layer_sizes.len() > wire::MAX_LAYERS {
        return Err(format!("session has more than {} layers", wire::MAX_LAYERS));
    }
    Ok(Accept {
        nonce,
        frames_per_window: narrow(agreed.offer.frames_per_window())?,
        windows_total: u32::try_from(windows).map_err(|_| "too many windows".to_string())?,
        packet_bytes: agreed.offer.packet_bytes,
        fps: agreed.offer.fps,
        layer_sizes: narrow_all(&agreed.layer_sizes)?,
        critical_frames: narrow_all(&agreed.critical_frames)?,
    })
}

/// Everything a `Hello` is judged by, the replies it was given, and the
/// live sessions it opened.
pub(crate) struct Admission {
    protocol: ProtocolConfig,
    offer: SessionOffer,
    source: StreamSource,
    retry: RetryPolicy,
    pace: Duration,
    limits: SessionLimits,
    /// Most sessions live at once; `0` admits without limit.
    max_sessions: usize,
    busy_retry_after_ms: u32,
    handshakes: HandshakeCache,
    next_conn: u32,
    /// Each live session's peer: the address its `Hello` came from.
    peers: HashMap<u32, SocketAddr>,
}

impl Admission {
    /// Admission for a server configured by `config` (validated).
    pub(crate) fn new(config: NetServerConfig) -> Self {
        Admission {
            limits: SessionLimits {
                shed_lag: config.shed_lag,
                stale_retx_after: config.stale_retx_after,
                watchdog: config.watchdog,
            },
            busy_retry_after_ms: config.busy_retry_after.as_millis() as u32,
            handshakes: HandshakeCache::new(us(config.handshake_ttl), config.handshake_cap),
            protocol: config.protocol,
            offer: config.offer,
            source: config.source,
            retry: config.retry,
            pace: config.pace,
            max_sessions: config.max_sessions,
            next_conn: 1,
            peers: HashMap::new(),
        }
    }

    /// The peer of live session `conn`: the address its `Hello` came
    /// from. A datagram for `conn` from anywhere else is not the
    /// session's.
    pub(crate) fn peer(&self, conn: u32) -> Option<SocketAddr> {
        self.peers.get(&conn).copied()
    }

    /// Frees a reaped session's id for reuse.
    pub(crate) fn release(&mut self, conn: u32) {
        self.peers.remove(&conn);
    }

    /// Answers a `Hello` that came from `from` at `ctx.now`: queues the
    /// reply on `ctx.out` and returns where it goes. An accepted `Hello`
    /// first hands its new session to `open`; when `open` refuses it, the
    /// reply is a `Reject` and the id stays free. A duplicate `Hello`
    /// gets the cached reply, bound for where the first one went.
    pub(crate) fn on_hello(
        &mut self,
        from: SocketAddr,
        hello: &Hello,
        ctx: &mut Ctx<'_>,
        open: impl FnOnce(SessionCore) -> bool,
    ) -> SocketAddr {
        if let Some((to, reply)) = self.handshakes.get(hello.nonce, ctx.now) {
            ctx.out.push_encoded(reply);
            return to;
        }
        let caps = ClientCapabilities {
            buffer_bytes: hello.buffer_bytes,
            max_startup_delay_ms: hello.max_startup_delay_ms,
        };
        let reject = |reason: String| {
            Msg::Reject(Reject {
                nonce: hello.nonce,
                reason,
            })
        };
        let (conn, reply) = match negotiate(self.offer.clone(), caps)
            .map_err(|e| e.to_string())
            .and_then(|agreed| accept_msg(hello.nonce, &agreed, self.source.window_count()))
        {
            // Admission control outranks session spawning: at the cap
            // the refusal is a typed, retryable `Busy`, and the cache
            // gives duplicated Hellos the identical Busy back.
            Ok(_) if self.max_sessions != 0 && self.peers.len() >= self.max_sessions => {
                ctx.emit(Effect::Busy);
                let retry_after_ms = self.busy_retry_after_ms;
                (CONN_NONE, Msg::Busy { retry_after_ms })
            }
            Ok(accept) => match self.admit(from, hello, ctx.now, open) {
                Some(conn) => {
                    ctx.emit(Effect::Admitted);
                    (conn, Msg::Accept(accept))
                }
                None => (CONN_NONE, reject("server cannot spawn a session".into())),
            },
            Err(reason) => (CONN_NONE, reject(reason)),
        };
        let reply = wire::try_encode(conn, &reply).or_else(|_| {
            // A field too long for the wire: send a short typed refusal
            // instead of a silently cut reply. An admitted session left
            // without its Accept is reclaimed by the watchdog like any
            // ghost.
            ctx.emit(Effect::EncodeOversize);
            wire::try_encode(CONN_NONE, &reject("negotiation failed".into()))
        });
        let Ok(reply) = reply else {
            return from;
        };
        ctx.out.push_encoded(&reply);
        let evicted = self.handshakes.insert(hello.nonce, from, reply, ctx.now);
        if evicted > 0 {
            ctx.emit(Effect::HandshakeEvictions(evicted));
        }
        from
    }

    /// Builds the session for a new id and hands it to `open`; the id is
    /// live, with `from` as its peer, once `open` takes it. `None` when
    /// no id is free or `open` refused.
    fn admit(
        &mut self,
        from: SocketAddr,
        hello: &Hello,
        now: u64,
        open: impl FnOnce(SessionCore) -> bool,
    ) -> Option<u32> {
        let conn = alloc_conn_id(&mut self.next_conn, &self.peers)?;
        let core = SessionCore::new(
            conn,
            self.protocol.clone().with_ordering(hello.ordering),
            self.source.clone(),
            self.retry,
            self.pace,
            self.offer.fec,
            self.limits,
            now,
        );
        open(core).then(|| {
            self.peers.insert(conn, from);
            conn
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::server_config;
    use crate::session::OutQueue;
    use espread_protocol::{FecPolicy, Ordering};

    fn admission(max_sessions: usize) -> Admission {
        let mut config = server_config(2, 3, FecPolicy::off());
        config.max_sessions = max_sessions;
        Admission::new(config)
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// What one `Hello` came to.
    struct Answer {
        to: SocketAddr,
        reply: Vec<u8>,
        effects: Vec<Effect>,
        opened: Option<u32>,
    }

    /// Feeds a `Hello` with `nonce` from `from` at `now`; the shard takes
    /// the session when `take` says so.
    fn hello(adm: &mut Admission, nonce: u64, from: SocketAddr, now: u64, take: bool) -> Answer {
        let caps = ClientCapabilities::desktop();
        let hello = Hello {
            nonce,
            buffer_bytes: caps.buffer_bytes,
            max_startup_delay_ms: caps.max_startup_delay_ms,
            ordering: Ordering::spread(),
        };
        let mut out = OutQueue::default();
        let mut opened = None;
        let to = adm.on_hello(from, &hello, &mut Ctx { now, out: &mut out }, |core| {
            opened = Some(core.conn_id());
            take
        });
        let (mut replies, mut effects) = (Vec::new(), Vec::new());
        out.drain(|d| replies.push(d.to_vec()));
        out.drain_effects(|at, effect| {
            assert_eq!(at, now, "{effect:?} is stamped with its call's clock");
            effects.push(effect);
        });
        let [reply] = &replies[..] else {
            panic!("one reply per Hello: {replies:?}");
        };
        let reply = reply.clone();
        Answer {
            to,
            reply,
            effects,
            opened: opened.filter(|_| take),
        }
    }

    #[test]
    fn accept_msg_narrows_or_refuses() {
        let offer = server_config(2, 3, FecPolicy::off()).offer;
        let agreed = negotiate(offer, ClientCapabilities::desktop()).unwrap();
        let accept = accept_msg(7, &agreed, 20).unwrap();
        assert_eq!(accept.nonce, 7);
        assert_eq!(accept.frames_per_window, 24);
        assert_eq!(accept.windows_total, 20);
        assert_eq!(accept.layer_sizes, vec![2, 2, 2, 2, 16]);
        assert_eq!(accept.critical_frames.len(), 8);
    }

    /// A lost reply is answered again from the cache, byte for byte and
    /// to the first `Hello`'s address, and opens no second session.
    #[test]
    fn a_duplicate_hello_gets_the_cached_reply_and_opens_nothing() {
        let mut adm = admission(0);
        let first = hello(&mut adm, 1, addr(7), 10, true);
        let (conn, msg) = wire::decode(&first.reply).unwrap();
        assert!(matches!(msg, Msg::Accept(_)), "{msg:?}");
        assert_eq!((first.opened, conn), (Some(1), 1));
        assert_eq!(first.effects, [Effect::Admitted]);

        let again = hello(&mut adm, 1, addr(8), 20, true);
        assert_eq!(again.reply, first.reply, "the cached bytes");
        assert_eq!(again.to, addr(7), "bound where the first reply went");
        assert_eq!((again.opened, again.effects), (None, vec![]));
        assert_eq!(adm.peer(2), None, "no second session");
    }

    /// A session hears only its own peer: a datagram carrying its id
    /// from any other address is not routed, and a replayed `Hello` from
    /// elsewhere does not move the session.
    #[test]
    fn a_live_id_is_routed_only_from_its_hellos_address() {
        let mut adm = admission(0);
        let conn = hello(&mut adm, 1, addr(7), 10, true).opened.unwrap();
        assert_eq!(adm.peer(conn), Some(addr(7)));
        hello(&mut adm, 1, addr(9), 11, true);
        assert_eq!(adm.peer(conn), Some(addr(7)), "the peer stays put");
        assert_ne!(adm.peer(conn), Some(addr(9)), "a foreign source is dropped");
        adm.release(conn);
        assert_eq!(adm.peer(conn), None, "a reaped id routes nothing");
    }

    /// At the cap a fresh `Hello` is refused with `Busy`; a release
    /// frees the slot for the next one.
    #[test]
    fn busy_at_the_cap_until_a_session_is_released() {
        let mut adm = admission(1);
        let conn = hello(&mut adm, 1, addr(7), 10, true).opened.unwrap();
        let busy = hello(&mut adm, 2, addr(8), 10, true);
        let (_, msg) = wire::decode(&busy.reply).unwrap();
        assert!(
            matches!(
                msg,
                Msg::Busy {
                    retry_after_ms: 250
                }
            ),
            "{msg:?}"
        );
        assert_eq!((busy.opened, busy.effects), (None, vec![Effect::Busy]));
        adm.release(conn);
        let next = hello(&mut adm, 3, addr(8), 11, true);
        assert_eq!(next.opened, Some(2));
    }

    /// A hand-off the shard refuses answers `Reject` and leaves the id
    /// free.
    #[test]
    fn a_refused_hand_off_answers_reject() {
        let mut adm = admission(0);
        let refused = hello(&mut adm, 1, addr(7), 10, false);
        let (conn, msg) = wire::decode(&refused.reply).unwrap();
        assert!(matches!(msg, Msg::Reject(_)), "{msg:?}");
        assert_eq!((conn, refused.effects), (CONN_NONE, vec![]));
        assert_eq!(adm.peer(1), None);
    }

    /// Regression (nonce flood): the handshake cache holds at most `cap`
    /// entries however many distinct nonces arrive, and expiry frees
    /// slots without eviction pressure.
    #[test]
    fn handshake_cache_is_bounded_under_nonce_flood() {
        let t0 = 1_000;
        let mut cache = HandshakeCache::new(us(Duration::from_secs(30)), 16);
        let mut evicted = 0;
        for nonce in 0..10_000u64 {
            evicted += cache.insert(nonce, addr(9), vec![1, 2, 3], t0);
        }
        assert_eq!(cache.len(), 16, "cap bounds the cache under flood");
        assert_eq!(evicted, 10_000 - 16, "every overflow entry was evicted");
        // LRU: the newest survive, the oldest are gone.
        assert!(cache.get(9_999, t0).is_some());
        assert!(cache.get(0, t0).is_none());
    }

    #[test]
    fn handshake_cache_expires_by_ttl() {
        let t0 = 1_000;
        let ttl = us(Duration::from_millis(100));
        let mut cache = HandshakeCache::new(ttl, 1024);
        cache.insert(1, addr(9), vec![1], t0);
        assert!(cache.get(1, t0 + ttl - 1).is_some());
        assert!(cache.get(1, t0 + ttl).is_none(), "expired entries miss");
        // The next insert sweeps the expired entry out of the map.
        cache.insert(2, addr(9), vec![2], t0 + ttl);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn handshake_cache_reinsert_does_not_double_free() {
        let t0 = 1_000;
        let step = us(Duration::from_millis(10));
        let mut cache = HandshakeCache::new(us(Duration::from_secs(30)), 2);
        cache.insert(1, addr(9), vec![1], t0);
        cache.insert(1, addr(9), vec![2], t0 + step); // re-insert: newer clock
        cache.insert(2, addr(9), vec![3], t0 + step * 2);
        // Cap eviction pops nonce 1's *stale* order record first; the
        // clock check must skip it (not count it as freeing a slot) and
        // keep walking to a record that really maps to an entry.
        let evicted = cache.insert(3, addr(9), vec![4], t0 + step * 3);
        assert_eq!(evicted, 1, "exactly one live entry evicted");
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, t0 + step * 3).is_none(), "oldest entry gone");
        assert!(cache.get(2, t0 + step * 3).is_some());
        assert!(cache.get(3, t0 + step * 3).is_some());
    }

    /// Regression (wraparound collision): a wrapped conn-id counter must
    /// skip ids still live in the connection table instead of silently
    /// reassigning them.
    #[test]
    fn conn_id_allocation_skips_live_ids_at_wrap() {
        let live = |ids: &[u32]| -> HashMap<u32, SocketAddr> {
            ids.iter().map(|&id| (id, addr(9))).collect()
        };
        let mut table = live(&[u32::MAX, 1, 2]);
        let mut next = u32::MAX;
        // u32::MAX is live → skipped; 0 is CONN_NONE → never issued;
        // 1 and 2 are live → skipped; 3 is free.
        assert_eq!(alloc_conn_id(&mut next, &table), Some(3));
        assert_eq!(next, 4);
        // The old `wrapping_add(1).max(1)` would have yielded u32::MAX
        // (live!) here. Verify the very ids it collided on are refused.
        let mut next = 1;
        assert_eq!(alloc_conn_id(&mut next, &table), Some(3));
        table.insert(3, addr(9));
        let mut next = 3;
        assert_eq!(alloc_conn_id(&mut next, &table), Some(4));
    }

    #[test]
    fn conn_id_allocation_exhausts_to_none_on_a_full_table() {
        // A synthetic "everything is live" set is too big to build, so
        // check the boundary behaviour instead: with every id in a small
        // wrap region live, allocation walks past all of them.
        let live: HashMap<u32, SocketAddr> = (1..=64).map(|id| (id, addr(9))).collect();
        let mut next = 1;
        assert_eq!(alloc_conn_id(&mut next, &live), Some(65));
    }
}
