//! Exact session numbers for the recovery schemes and for two streams on
//! one channel, pinned.
//!
//! The figure tests check shapes; this checks the exact counters of nine
//! small sessions — three channel seeds for each of whole-stream XOR FEC,
//! critical-only XOR FEC and critical retransmission — on the Jurassic
//! Park source, and every window's CLF of the `conference` example's
//! audio + video session. A change to how the client window reassembles,
//! groups parity or repairs losses, or to how streams share the link,
//! that moves any of them is a behaviour change and must be explained,
//! not re-pinned silently.

use espread_protocol::{Ordering, ProtocolConfig, Recovery, Session, StreamSource};
use espread_trace::{AudioStream, Movie, MpegTrace};

/// Per seed 11, 22, 33: `[fec_recovered, retransmissions, critical_lost,
/// packets_offered, bytes_offered, sum of per-window CLF]`.
type Pins = [[u64; 6]; 3];

const FEC: Pins = [
    [11, 0, 27, 600, 273_982, 25],
    [17, 0, 27, 600, 273_982, 25],
    [8, 0, 28, 600, 273_982, 28],
];
const FEC_CRITICAL: Pins = [
    [5, 0, 24, 520, 246_145, 25],
    [5, 0, 24, 520, 246_145, 27],
    [1, 0, 34, 520, 246_145, 30],
];
const RETRANSMIT: Pins = [
    [0, 26, 14, 506, 220_028, 19],
    [0, 32, 13, 512, 224_786, 28],
    [0, 27, 13, 507, 217_425, 21],
];

#[test]
fn recovery_sessions_match_their_pins() {
    let source = StreamSource::mpeg(&MpegTrace::new(Movie::JurassicPark, 1), 2, 20, false);
    for (recovery, pins) in [
        (Recovery::Fec { group: 4 }, FEC),
        (Recovery::FecCritical { group: 4 }, FEC_CRITICAL),
        (Recovery::Retransmit, RETRANSMIT),
    ] {
        for (seed, pin) in [11u64, 22, 33].into_iter().zip(pins) {
            let config = ProtocolConfig::paper(0.7, seed).with_recovery(recovery);
            let r = Session::new(config, source.clone()).run();
            let clf_sum = r.series.clf_values().map(|c| c as u64).sum();
            let got = [
                r.fec_recovered,
                r.retransmissions,
                r.critical_lost,
                r.packets_offered,
                r.bytes_offered,
                clf_sum,
            ];
            assert_eq!(got, pin, "{recovery:?} seed {seed}");
        }
    }
}

/// Per-window CLF of seed 77 at P_bad 0.7 over 60 one-second cycles of
/// aligned SunAudio + Jurassic Park (W = 2): `[audio, video]`.
const CONFERENCE_SPREAD: [[usize; 60]; 2] = [
    [
        2, 2, 1, 2, 2, 1, 1, 2, 0, 1, 1, 1, 2, 2, 4, 2, 0, 1, 3, 2, 1, 0, 1, 2, 1, 2, 2, 2, 2, 1,
        0, 2, 2, 1, 0, 1, 1, 2, 2, 1, 2, 1, 1, 1, 1, 1, 2, 2, 1, 6, 8, 1, 1, 1, 1, 2, 2, 2, 1, 1,
    ],
    [
        1, 2, 3, 2, 2, 0, 2, 0, 3, 1, 6, 2, 1, 2, 4, 1, 1, 0, 1, 1, 1, 1, 2, 2, 0, 2, 1, 2, 1, 2,
        1, 1, 0, 1, 2, 11, 2, 2, 1, 2, 2, 2, 1, 2, 0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 0, 4, 1, 0, 1,
    ],
];
const CONFERENCE_IN_ORDER: [[usize; 60]; 2] = [
    [
        10, 5, 3, 4, 6, 3, 5, 6, 0, 6, 2, 2, 9, 3, 7, 6, 0, 1, 11, 2, 3, 0, 2, 4, 8, 4, 6, 3, 5, 7,
        0, 6, 2, 4, 0, 7, 3, 12, 3, 1, 4, 7, 2, 6, 4, 4, 4, 6, 6, 3, 9, 9, 1, 2, 3, 5, 5, 11, 2, 1,
    ],
    [
        2, 1, 7, 4, 2, 0, 2, 0, 3, 1, 8, 12, 3, 4, 4, 1, 2, 0, 1, 1, 4, 2, 3, 8, 0, 6, 1, 3, 1, 4,
        1, 4, 0, 4, 3, 16, 3, 2, 2, 7, 2, 5, 2, 4, 0, 0, 2, 1, 0, 3, 1, 0, 0, 1, 2, 0, 5, 2, 0, 2,
    ],
];

/// The `conference` example's channel: both media share one burst
/// process, so both orderings see 3241 packets offered and 684 (21.1%)
/// lost, and only the order of each stream differs.
#[test]
fn conference_sessions_match_their_pins() {
    // One second per cycle: 30 SunAudio LDUs and two 12-frame GOPs.
    let audio = StreamSource::audio(AudioStream::sun_audio(), 30, 60);
    let video = StreamSource::mpeg(&MpegTrace::new(Movie::JurassicPark, 1), 2, 60, false);
    for (ordering, pins) in [
        (Ordering::spread(), CONFERENCE_SPREAD),
        (Ordering::InOrder, CONFERENCE_IN_ORDER),
    ] {
        let config = ProtocolConfig::paper(0.7, 77).with_ordering(ordering);
        let reports = Session::new(config, audio.clone())
            .with_stream(video.clone())
            .run_streams();
        for (r, pin) in reports.iter().zip(pins) {
            let got: Vec<usize> = r.series.clf_values().collect();
            assert_eq!(got, pin, "{ordering:?}");
            assert_eq!(
                (r.packets_offered, r.packets_lost),
                (3241, 684),
                "{ordering:?}"
            );
        }
    }
}
