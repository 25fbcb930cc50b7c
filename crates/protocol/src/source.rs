//! Stream sources: sequences of buffer windows with a shared dependency
//! poset.

use std::sync::Arc;

use espread_poset::Poset;
use espread_trace::{AudioStream, MpegTrace};

use crate::packetize::Ldu;

/// A prepared stream: `windows` buffer windows of LDUs, all sharing the
/// same per-window dependency `poset` (fixed GOP pattern ⇒ fixed poset).
///
/// The poset and the windows sit behind `Arc`s, so a clone — one per
/// session, when many sessions stream one source — copies two pointers.
#[derive(Debug, Clone)]
pub struct StreamSource {
    /// Per-window dependency poset (`poset.len()` = frames per window).
    pub poset: Arc<Poset>,
    /// The LDUs of each window, in playout order.
    pub windows: Arc<Vec<Vec<Ldu>>>,
    /// Stream rate in LDUs per second (drives the buffer cycle time).
    pub fps: u32,
}

impl StreamSource {
    /// An MPEG source: `count` windows of `w` GOPs each from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn mpeg(trace: &MpegTrace, w: usize, count: usize, open_gop: bool) -> Self {
        assert!(w > 0, "buffer must hold at least one GOP");
        let poset = trace.pattern().dependency_poset(w, open_gop);
        let frames_per_window = poset.len();
        let all = trace.frames(frames_per_window * count);
        let windows = all
            .chunks_exact(frames_per_window)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|f| Ldu::new(f.size_bytes.max(1)))
                    .collect()
            })
            .collect();
        StreamSource {
            poset: Arc::new(poset),
            windows: Arc::new(windows),
            fps: trace.fps(),
        }
    }

    /// A dependency-free audio source: `count` windows of `n` LDUs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn audio(stream: AudioStream, n: usize, count: usize) -> Self {
        assert!(n > 0, "window must hold at least one LDU");
        let ldu = Ldu::new(stream.ldu_bytes());
        StreamSource {
            poset: Arc::new(stream.dependency_poset(n)),
            windows: Arc::new(vec![vec![ldu; n]; count]),
            fps: stream.ldus_per_second(),
        }
    }

    /// Frames (LDUs) per buffer window.
    pub fn frames_per_window(&self) -> usize {
        self.poset.len()
    }

    /// Number of windows.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_trace::Movie;

    #[test]
    fn mpeg_source_shapes() {
        let trace = MpegTrace::new(Movie::JurassicPark, 5);
        let src = StreamSource::mpeg(&trace, 2, 10, false);
        assert_eq!(src.frames_per_window(), 24);
        assert_eq!(src.window_count(), 10);
        assert_eq!(src.fps, 24);
        for w in src.windows.iter() {
            assert_eq!(w.len(), 24);
            assert!(w.iter().all(|l| l.size_bytes > 0));
        }
    }

    #[test]
    fn audio_source_shapes() {
        let src = StreamSource::audio(AudioStream::sun_audio(), 30, 5);
        assert_eq!(src.frames_per_window(), 30);
        assert_eq!(src.window_count(), 5);
        assert_eq!(src.fps, 30);
        assert_eq!(src.poset.height(), 1); // antichain
        assert_eq!(src.windows[0][0].size_bytes, 266);
    }

    #[test]
    #[should_panic(expected = "at least one GOP")]
    fn zero_gop_buffer_rejected() {
        let trace = MpegTrace::new(Movie::JurassicPark, 5);
        let _ = StreamSource::mpeg(&trace, 0, 1, false);
    }

    #[test]
    #[should_panic(expected = "at least one LDU")]
    fn zero_audio_window_rejected() {
        let _ = StreamSource::audio(AudioStream::sun_audio(), 0, 1);
    }
}
