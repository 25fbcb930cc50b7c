//! Microbenchmark of the steady-state hot path, gated in-process.
//!
//! ```sh
//! cargo run --release -p espread-bench --bin bench_hotpath
//! ```
//!
//! Measures five families against a floor operation each. Four are the
//! paths this repo's zero-alloc work keeps fast — k-CPO apply/invert
//! through the order cache, layered order construction, wire
//! encode/decode through the pooled scratch, and a complete steady-state
//! `NetWindow` reassembly lap — timed against one 1200-byte `memcpy`,
//! i.e. pure memory traffic with no bookkeeping at all. The fifth,
//! `obs_record`, is `FlightRecorder::record()` in its steady
//! (overwriting) regime, timed against the work `record()` cannot avoid:
//! one uncontended mutex lock, one monotonic clock read and one store.
//!
//! Each family's **ratio** to its floor is checked against the
//! `hotpath.<family>.ratio` rows of [`espread_bench::gate::GATES`]; the
//! binary exits non-zero when any family regresses more than 20% past
//! its pin. Absolute nanoseconds vary with the host, the ratios track
//! only how much work each path layers on top of its floor.

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use espread_bench::gate;
use espread_core::{calculate_permutation_cached, LayeredOrder};
use espread_net::clientwin::{NetWindow, NetWindowOutcome, RecoverScratch};
use espread_net::wire::{self, DataMsg, DecodeScratch, Msg, ParityMember, ParityMsg};
use espread_obs::{data_detail, EventKind, FlightRecorder, Role, DEFAULT_CAPACITY};
use espread_protocol::{Fragment, Ldu};
use espread_trace::GopPattern;

const ITERS: u32 = 100_000;
const TRIALS: usize = 7;

/// Best-of-`TRIALS` nanoseconds per call of `op` over `ITERS` calls.
fn measure(mut op: impl FnMut(u32)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let started = Instant::now();
        for i in 0..ITERS {
            op(i);
        }
        let ns = started.elapsed().as_nanos() as f64 / f64::from(ITERS);
        best = best.min(ns);
    }
    best
}

fn data_fragment(window: u64, frame: usize, frag: u16) -> DataMsg {
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

fn main() -> ExitCode {
    println!("bench_hotpath: steady-state families vs their floors\n");

    // Floor: pure memory traffic, the work no hot-path op can avoid.
    let src = vec![0xA5u8; 1200];
    let mut dst = vec![0u8; 1200];
    let floor_ns = measure(|i| {
        dst.copy_from_slice(std::hint::black_box(&src));
        dst[0] = i as u8;
    });
    std::hint::black_box(&dst);

    // Family 1: cached k-CPO lookup + table-driven scramble/descramble.
    let (n, b) = (17usize, 5usize);
    let items: Vec<u32> = (0..n as u32).collect();
    let mut sent: Vec<u32> = Vec::with_capacity(n);
    let mut playout: Vec<Option<u32>> = Vec::with_capacity(n);
    let mut received: Vec<Option<u32>> = Vec::with_capacity(n);
    let kcpo_ns = measure(|_| {
        let choice = calculate_permutation_cached(n, b);
        choice.permutation.apply_into(&items, &mut sent);
        received.clear();
        received.extend(sent.iter().map(|&x| Some(x)));
        choice.permutation.unapply_into(&received, &mut playout);
    });

    // Family 2: layered order construction (the cache-miss cost).
    let poset = GopPattern::gop12().dependency_poset(2, true);
    let layered_ns = measure(|_| {
        std::hint::black_box(LayeredOrder::with_uniform_bound(&poset, 4));
    });

    // Family 3: wire encode + decode of a Data datagram through the
    // pooled scratch.
    let msg = Msg::Data(data_fragment(3, 1, 0));
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut scratch = DecodeScratch::default();
    let wire_ns = measure(|_| {
        wire::try_encode_into(42, &msg, &mut buf).expect("fits");
        let (_, decoded) = wire::decode_with(&buf, &mut scratch).expect("roundtrip");
        scratch.recycle(decoded);
    });

    // Family 4: one complete steady-state reassembly window.
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
    let mut win = NetWindow::new(0, 4, &[2, 2], &[0, 1]);
    let mut rs = RecoverScratch::default();
    let mut nack: Vec<u16> = Vec::with_capacity(4);
    let mut outcome = NetWindowOutcome::default();
    let mut window = 0u64;
    let netwin_ns = measure(|_| {
        for frame in 0..4 {
            for f in 0..2 {
                win.accept(&data_fragment(window, frame, f));
            }
        }
        parity.window = window;
        win.accept_parity(&parity);
        win.recover_with(&mut rs);
        win.missing_critical_into(&mut nack);
        win.close_into(&mut outcome);
        window += 1;
        win.reset(window, 4, &[2, 2], &[0, 1]);
    });

    // Family 5: the flight recorder's record(), warmed past capacity so
    // every measured call is in the steady (overwriting) regime the
    // recorder runs in for long sessions.
    let recorder = FlightRecorder::new(Role::Server, DEFAULT_CAPACITY);
    for i in 0..(DEFAULT_CAPACITY as u32 + 1) {
        recorder.record(EventKind::Sent, 1, 0, i, 0);
    }
    let record_ns = measure(|i| {
        recorder.record(
            EventKind::Sent,
            1,
            u64::from(i >> 6),
            i,
            data_detail(0, false),
        );
    });
    assert!(
        recorder.dropped() > u64::from(ITERS) * TRIALS as u64 / 2,
        "measurement must have run in the overwriting regime"
    );
    // Its floor: uncontended lock + clock read + store.
    let epoch = Instant::now();
    let slot = Mutex::new(0u64);
    let lock_floor_ns = measure(|_| {
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = epoch.elapsed().as_micros() as u64;
    });
    std::hint::black_box(&slot);

    println!("  memcpy floor   {floor_ns:.1} ns/op (1200-byte memcpy)");
    println!("  lock floor     {lock_floor_ns:.1} ns/op (uncontended lock + clock read + store)");
    let families = [
        ("hotpath.kcpo_apply.ratio", kcpo_ns, floor_ns),
        ("hotpath.layered_build.ratio", layered_ns, floor_ns),
        ("hotpath.wire_codec.ratio", wire_ns, floor_ns),
        ("hotpath.reassembly.ratio", netwin_ns, floor_ns),
        ("hotpath.obs_record.ratio", record_ns, lock_floor_ns),
    ];
    for (metric, ns, _) in families {
        println!("  {metric:<28} {ns:.1} ns/op");
    }
    println!();
    if gate::check(&families.map(|(metric, ns, floor)| (metric, ns / floor))) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
