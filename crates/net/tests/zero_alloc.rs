//! Proves the transport's steady-state hot paths never touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator and two
//! phases run under it:
//!
//! 1. **Wire codec** — every message kind round-trips through
//!    [`try_encode_into`] → [`decode_with`] → [`DecodeScratch::recycle`].
//!    After warm-up laps fill the scratch pools, a measured lap over the
//!    whole message set must allocate nothing: decodes pop pooled
//!    buffers, recycles return them.
//! 2. **`ClientWindow` reassembly** — a warm-up window performs a *real*
//!    erasure decode (losing a fragment and recovering it from parity),
//!    which is allowed to allocate: it sizes the flag pools, the parity
//!    group pool, and the [`RecoverScratch`] shard tables. Every window
//!    after it — accept all fragments, accept parity, `recover_with`
//!    (nothing erased), `missing_critical_into`, `close_into`, `reset` —
//!    must be allocation-free.
//!
//! Exactly one `#[test]` lives in this binary: the allocation counter is
//! process-global, so a second test on a parallel thread would pollute
//! the measured delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use espread_net::clientwin::RecoverScratch;
use espread_net::wire::{
    self, Accept, ByeReason, CriticalNackMsg, DecodeScratch, Hello, Msg, Reject, WindowAckMsg,
    WindowEnd,
};
use espread_protocol::client::{ClientWindow, DataMsg, ParityMember, ParityMsg, WindowOutcome};
use espread_protocol::{Fragment, Ldu, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every message kind the transport speaks, built once outside the
/// measured region (several carry heap-backed fields).
fn message_set() -> Vec<Msg> {
    vec![
        Msg::Hello(Hello {
            nonce: 7,
            buffer_bytes: 64 * 1024,
            max_startup_delay_ms: 250,
            ordering: Ordering::Spread { adaptive: true },
        }),
        Msg::Accept(Accept {
            nonce: 7,
            frames_per_window: 12,
            windows_total: 40,
            packet_bytes: 1200,
            fps: 30,
            layer_sizes: vec![4, 8],
            critical_frames: vec![0, 3],
        }),
        Msg::Reject(Reject {
            nonce: 7,
            reason: "buffer too small".to_owned(),
        }),
        Msg::Begin,
        Msg::Data(DataMsg {
            fragment: Fragment {
                window: 3,
                frame: 5,
                frag: 1,
                frags_total: 2,
                layer: 1,
                layer_slot: 4,
                retransmit: false,
            },
            ldu: Ldu::new(2400),
            payload_len: 1200,
        }),
        Msg::WindowEnd(WindowEnd {
            window: 3,
            sent_at_us: 123_456,
            last: false,
        }),
        Msg::WindowAck(WindowAckMsg {
            ack_seq: 9,
            window: 3,
            echo_us: 123_456,
            per_layer_burst: vec![0, 2],
        }),
        Msg::CriticalNack(CriticalNackMsg {
            window: 3,
            missing: vec![0, 3],
        }),
        Msg::Parity(ParityMsg {
            window: 3,
            group: 1,
            m: 1,
            parity_index: 0,
            shard_bytes: 1200,
            members: vec![
                ParityMember {
                    frame: 4,
                    frag: 0,
                    frags_total: 1,
                },
                ParityMember {
                    frame: 5,
                    frag: 0,
                    frags_total: 2,
                },
            ],
        }),
        Msg::Busy { retry_after_ms: 40 },
        Msg::Bye(ByeReason::Complete),
        Msg::ByeAck,
    ]
}

/// One codec lap: encode, decode, verify, recycle — over the whole set.
fn wire_lap(msgs: &[Msg], buf: &mut Vec<u8>, scratch: &mut DecodeScratch) {
    for msg in msgs {
        wire::try_encode_into(42, msg, buf).expect("fits");
        let (conn, decoded) = wire::decode_with(buf, scratch).expect("roundtrip");
        assert_eq!(conn, 42);
        assert_eq!(&decoded, msg);
        scratch.recycle(decoded);
    }
}

/// A data fragment for the reassembly phase's fixed session shape:
/// 4 frames of 2 fragments, layers `[2, 2]`, critical frames `[0, 1]`.
fn data(window: u64, frame: usize, frag: u16) -> DataMsg {
    DataMsg {
        fragment: Fragment {
            window,
            frame,
            frag,
            frags_total: 2,
            layer: if frame < 2 { 0 } else { 1 },
            layer_slot: (frame % 2) as u16,
            retransmit: false,
        },
        ldu: Ldu::new(200),
        payload_len: 100,
    }
}

/// One steady-state reassembly lap: every fragment arrives, parity
/// arrives, recovery finds nothing erased, the window closes and the
/// tracker re-arms for the next.
fn window_lap(
    win: &mut ClientWindow,
    window: u64,
    parity: &mut ParityMsg,
    rs: &mut RecoverScratch,
    nack: &mut Vec<u16>,
    outcome: &mut WindowOutcome,
) {
    for frame in 0..4 {
        for frag in 0..2 {
            assert!(win.accept(&data(window, frame, frag)));
        }
    }
    parity.window = window;
    assert!(win.accept_parity(parity));
    let rec = win.recover_with(rs);
    assert_eq!((rec.recovered, rec.unrecoverable), (0, 0));
    win.missing_critical_into(nack);
    assert!(nack.is_empty());
    win.close_into(outcome);
    assert_eq!(outcome.window, window);
    assert_eq!(outcome.pattern.lost(), 0);
    win.reset(window + 1, 4, &[2, 2], &[0, 1]);
}

#[test]
fn steady_state_wire_and_reassembly_do_not_allocate() {
    // ---- Phase 1: wire codec ----
    let msgs = message_set();
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut scratch = DecodeScratch::default();

    for _ in 0..3 {
        wire_lap(&msgs, &mut buf, &mut scratch);
    }

    // Measure several rounds and take the *minimum* delta: the libtest
    // main thread may allocate concurrently right after spawning this
    // test's thread, so a single round can see ambient noise. A real
    // hot-path allocation would show up in every round.
    let mut wire_delta = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(AtomicOrdering::Relaxed);
        for _ in 0..1_000 {
            wire_lap(&msgs, &mut buf, &mut scratch);
        }
        wire_delta = wire_delta.min(ALLOCATIONS.load(AtomicOrdering::Relaxed) - before);
    }
    assert_eq!(
        wire_delta, 0,
        "steady-state encode/decode/recycle laps must not allocate, saw {wire_delta} in the quietest round"
    );

    // ---- Phase 2: ClientWindow reassembly ----
    let mut parity = ParityMsg {
        window: 0,
        group: 0,
        m: 1,
        parity_index: 0,
        shard_bytes: 100,
        members: vec![
            ParityMember {
                frame: 2,
                frag: 0,
                frags_total: 2,
            },
            ParityMember {
                frame: 2,
                frag: 1,
                frags_total: 2,
            },
        ],
    };
    let mut rs = RecoverScratch::default();
    let mut nack: Vec<u16> = Vec::with_capacity(4);
    let mut outcome = WindowOutcome::default();

    // Warm-up window 0: drop frame 2's second fragment and recover it
    // from parity — the one real decode, which may allocate (flag pools,
    // group pool, codec shard tables all size themselves here).
    let mut win = ClientWindow::new(0, 4, &[2, 2], &[0, 1]);
    for frame in 0..4 {
        for frag in 0..2 {
            if frame == 2 && frag == 1 {
                continue;
            }
            assert!(win.accept(&data(0, frame, frag)));
        }
    }
    assert!(win.accept_parity(&parity));
    assert!(!win.is_complete(2));
    let rec = win.recover_with(&mut rs);
    assert_eq!((rec.recovered, rec.unrecoverable), (1, 0));
    assert!(win.is_complete(2));
    win.missing_critical_into(&mut nack);
    win.close_into(&mut outcome);
    win.reset(1, 4, &[2, 2], &[0, 1]);

    // One more warm lap so every steady-state code path (complete
    // accepts included) has sized its buffers.
    window_lap(&mut win, 1, &mut parity, &mut rs, &mut nack, &mut outcome);

    let mut win_delta = u64::MAX;
    let mut w = 2u64;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(AtomicOrdering::Relaxed);
        for _ in 0..1_000 {
            window_lap(&mut win, w, &mut parity, &mut rs, &mut nack, &mut outcome);
            w += 1;
        }
        win_delta = win_delta.min(ALLOCATIONS.load(AtomicOrdering::Relaxed) - before);
    }
    assert_eq!(
        win_delta, 0,
        "steady-state reassembly windows must not allocate, saw {win_delta} in the quietest round"
    );
}
