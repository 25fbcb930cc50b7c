//! Microbenchmark of the steady-state hot path, gated in-process.
//!
//! ```sh
//! cargo run --release -p espread-bench --bin bench_hotpath
//! ```
//!
//! Measures eight families against a floor operation each. Seven are the
//! paths this repo's zero-alloc work keeps fast — k-CPO apply/invert
//! through the order cache, layered order construction, wire
//! encode/decode through the pooled scratch, a complete steady-state
//! `ClientWindow` reassembly lap, one planning round (`offer_ack` of a
//! fresh ACK, the estimator update, and `plan_window` answered from the
//! server's last plan), one RS(8,2) parity round (`encode_into` of a
//! group's two parity shards, then the client window's `recover_with` of
//! two erasures through the byte decoder), and one simulated paper window
//! (25 × 2048-byte `send_data` over the §5.1 Gilbert link, then the
//! `poll_data` drain of the in-flight ring) — timed against one 1200-byte
//! `memcpy`, i.e. pure memory traffic with no bookkeeping at all. The
//! eighth, `obs_record`,
//! is `FlightRecorder::record()` in its steady (overwriting) regime,
//! timed against the work `record()` cannot avoid: one uncontended mutex
//! lock, one monotonic clock read and one store.
//!
//! Each family's trials alternate with trials of its floor, so a shift
//! in the shared CPU moves both halves of a ratio together, and the
//! **median** of the per-trial ratios is checked against the
//! `hotpath.<family>.ratio` rows of [`espread_bench::gate::GATES`]; the
//! binary exits non-zero when any family regresses more than 20% past
//! its pin. Absolute nanoseconds vary with the host, the ratios track
//! only how much work each path layers on top of its floor.

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use espread_bench::gate;
use espread_core::{calculate_permutation_cached, LayeredOrder};
use espread_fec::Codec;
use espread_net::clientwin::RecoverScratch;
use espread_net::wire::{self, DecodeScratch, Msg};
use espread_netsim::{DuplexChannel, GilbertModel, Link, SimDuration, SimTime};
use espread_obs::{data_detail, EventKind, FlightRecorder, Role, DEFAULT_CAPACITY};
use espread_protocol::client::{ClientWindow, DataMsg, ParityMember, ParityMsg, WindowOutcome};
use espread_protocol::{Fragment, Ldu, ProtocolConfig, Server, WindowFeedback};
use espread_trace::GopPattern;

const ITERS: u32 = 100_000;
const TRIALS: usize = 7;

/// Nanoseconds per call of `op` over `ITERS` calls.
fn time(op: &mut impl FnMut(u32)) -> f64 {
    let started = Instant::now();
    for i in 0..ITERS {
        op(i);
    }
    started.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

fn median(mut xs: [f64; TRIALS]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[TRIALS / 2]
}

/// One family's medians over `TRIALS` paired trials.
struct Timing {
    /// Median nanoseconds per family call.
    ns: f64,
    /// Median nanoseconds per floor call.
    floor_ns: f64,
    /// Median of the per-trial family/floor ratios (the gated value).
    ratio: f64,
}

/// Times `family` against `floor`, alternating one trial of each.
fn measure(floor: &mut impl FnMut(u32), mut family: impl FnMut(u32)) -> Timing {
    let (mut ns, mut floor_ns, mut ratio) = ([0.0; TRIALS], [0.0; TRIALS], [0.0; TRIALS]);
    for t in 0..TRIALS {
        floor_ns[t] = time(floor);
        ns[t] = time(&mut family);
        ratio[t] = ns[t] / floor_ns[t];
    }
    Timing {
        ns: median(ns),
        floor_ns: median(floor_ns),
        ratio: median(ratio),
    }
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
    let mut memcpy = |i: u32| {
        dst.copy_from_slice(std::hint::black_box(&src));
        dst[0] = i as u8;
    };

    // Family 1: cached k-CPO lookup + table-driven scramble/descramble.
    let (n, b) = (17usize, 5usize);
    let items: Vec<u32> = (0..n as u32).collect();
    let mut sent: Vec<u32> = Vec::with_capacity(n);
    let mut playout: Vec<Option<u32>> = Vec::with_capacity(n);
    let mut received: Vec<Option<u32>> = Vec::with_capacity(n);
    let kcpo = measure(&mut memcpy, |_| {
        let choice = calculate_permutation_cached(n, b);
        choice.permutation.apply_into(&items, &mut sent);
        received.clear();
        received.extend(sent.iter().map(|&x| Some(x)));
        choice.permutation.unapply_into(&received, &mut playout);
    });

    // Family 2: layered order construction (the cache-miss cost).
    let poset = GopPattern::gop12().dependency_poset(2, true);
    let layered = measure(&mut memcpy, |_| {
        std::hint::black_box(LayeredOrder::with_uniform_bound(&poset, 4));
    });

    // Family 3: wire encode + decode of a Data datagram through the
    // pooled scratch.
    let msg = Msg::Data(data_fragment(3, 1, 0));
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut scratch = DecodeScratch::default();
    let wire = measure(&mut memcpy, |_| {
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
    let mut win = ClientWindow::new(0, 4, &[2, 2], &[0, 1]);
    let mut rs = RecoverScratch::default();
    let mut nack: Vec<u16> = Vec::with_capacity(4);
    let mut outcome = WindowOutcome::default();
    let mut window = 0u64;
    let netwin = measure(&mut memcpy, |_| {
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

    // Family 5: one planning round. Every ACK reports the server's
    // current estimates (the priors, half of each layer), so the
    // estimator update leaves them in place and each `plan_window`
    // applies fresh feedback yet is answered from the server's last plan.
    let poset = GopPattern::gop12().dependency_poset(2, false);
    let mut server = Server::new(&ProtocolConfig::paper(0.6, 1), &poset);
    let steady = server.estimates();
    let mut seq = 0u64;
    let plan = measure(&mut memcpy, |_| {
        seq += 1;
        server.offer_ack(
            seq,
            WindowFeedback {
                window: seq,
                per_layer_burst: steady.clone(),
            },
        );
        std::hint::black_box(server.plan_window(&poset));
        std::hint::black_box(server.last_adaptation());
    });
    assert_eq!(
        server.estimates(),
        steady,
        "the ACKs must keep the estimates"
    );

    // Family 6: one RS(8,2) parity round at the UDP benchmark's 512-byte
    // shards — the sender's encode, then a window that lost two of the
    // eight members repairing them from both parities.
    let codec = Codec::new(8, 2).expect("RS(8,2) geometry");
    let shards = vec![vec![0u8; 512]; 8];
    let mut parities: Vec<Vec<u8>> = vec![Vec::new(); 2];
    parity.m = 2;
    parity.shard_bytes = 512;
    parity.members = (0..8)
        .map(|frame| ParityMember {
            frame,
            frag: 0,
            frags_total: 1,
        })
        .collect();
    let fec = measure(&mut memcpy, |_| {
        codec
            .encode_into(std::hint::black_box(&shards), &mut parities)
            .expect("encode");
        window += 1;
        win.reset(window, 8, &[8], &[]);
        for frame in 2..8 {
            let mut msg = data_fragment(window, frame, 0);
            msg.fragment.frags_total = 1;
            (msg.fragment.layer, msg.fragment.layer_slot) = (0, frame as u16);
            win.accept(&msg);
        }
        parity.window = window;
        for parity_index in 0..2 {
            parity.parity_index = parity_index;
            win.accept_parity(&parity);
        }
        win.recover_with(&mut rs);
    });
    assert_eq!(
        win.close().pattern.lost(),
        0,
        "parity repairs both erasures"
    );

    // Family 7: one simulated paper window — 25 frames offered at the
    // window start over the 1.2 Mbps, P_bad = 0.6 Gilbert link, then the
    // client's drain of everything that arrived by the deadline.
    let mut channel: DuplexChannel<u64, ()> = DuplexChannel::new(
        Link::new(
            1_200_000,
            SimDuration::from_micros(11_500),
            GilbertModel::paper(0.6, 42),
        ),
        Link::new(
            64_000,
            SimDuration::from_micros(11_500),
            GilbertModel::paper(0.6, 43),
        ),
    );
    let mut sim_window = 0u64;
    let netsim = measure(&mut memcpy, |_| {
        let start = SimTime::from_micros(sim_window * 1_000_000);
        for frame in 0..25 {
            channel.send_data(start, 2048, sim_window * 25 + frame);
        }
        sim_window += 1;
        let deadline = SimTime::from_micros(sim_window * 1_000_000 + 11_500);
        for d in channel.poll_data(deadline) {
            std::hint::black_box(d);
        }
    });
    assert_eq!(
        channel.data_quiescent_at(),
        None,
        "every window drains its arrivals"
    );
    std::hint::black_box(&dst);

    // Family 8: the flight recorder's record(), warmed past capacity so
    // every measured call is in the steady (overwriting) regime the
    // recorder runs in for long sessions. Its floor: uncontended lock +
    // clock read + store.
    let recorder = FlightRecorder::new(Role::Server, DEFAULT_CAPACITY);
    for i in 0..(DEFAULT_CAPACITY as u32 + 1) {
        recorder.record(EventKind::Sent, 1, 0, i, 0);
    }
    let epoch = Instant::now();
    let slot = Mutex::new(0u64);
    let mut lock_store = |_| {
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = epoch.elapsed().as_micros() as u64;
    };
    let record = measure(&mut lock_store, |i| {
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
    std::hint::black_box(&slot);

    let families = [
        ("hotpath.kcpo_apply.ratio", kcpo, "memcpy"),
        ("hotpath.layered_build.ratio", layered, "memcpy"),
        ("hotpath.wire_codec.ratio", wire, "memcpy"),
        ("hotpath.reassembly.ratio", netwin, "memcpy"),
        ("hotpath.plan.ratio", plan, "memcpy"),
        ("hotpath.fec.ratio", fec, "memcpy"),
        ("hotpath.netsim.ratio", netsim, "memcpy"),
        ("hotpath.obs_record.ratio", record, "lock+clock+store"),
    ];
    println!("  medians of {TRIALS} trials, each family trial paired with a floor trial");
    for (metric, t, floor) in &families {
        println!(
            "  {metric:<28} {:>9.1} ns/op  {floor} floor {:.1} ns/op",
            t.ns, t.floor_ns
        );
    }
    println!();
    if gate::check(&families.map(|(metric, t, _)| (metric, t.ratio))) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
