//! Exact session numbers for the recovery schemes, pinned.
//!
//! The figure tests check shapes; this checks the exact counters of nine
//! small sessions — three channel seeds for each of whole-stream XOR FEC,
//! critical-only XOR FEC and critical retransmission — on the Jurassic
//! Park source. A change to how the client window reassembles, groups
//! parity or repairs losses that moves any of them is a behaviour change
//! and must be explained, not re-pinned silently.

use espread_protocol::{ProtocolConfig, Recovery, Session, StreamSource};
use espread_trace::{Movie, MpegTrace};

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
