//! Streaming-domain telemetry events.

use crate::json::Json;

/// One discrete occurrence worth logging alongside the numeric metrics.
///
/// Events capture the *adaptive* behaviour of the protocol — the things a
/// gauge cannot: which feedback triggered a re-permutation and how the
/// estimates moved.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The sender folded a window ACK into its per-layer burst estimators
    /// and re-planned — the paper's §4.2 adaptation step.
    Adaptation {
        /// The window being planned when the ACK was applied.
        window: u64,
        /// The window the triggering feedback described.
        feedback_window: u64,
        /// Per-layer burst observations carried by the feedback.
        observed_bursts: Vec<usize>,
        /// Raw per-layer estimates before folding the feedback in.
        old_estimates: Vec<f64>,
        /// Raw per-layer estimates after folding the feedback in.
        new_estimates: Vec<f64>,
    },
    /// Continuity metrics of one finished playout window.
    WindowMetrics {
        /// The window index.
        window: u64,
        /// Unit losses in the window (the ALF numerator).
        lost: usize,
        /// Window length in slots (the ALF denominator).
        window_len: usize,
        /// Longest run of consecutive losses (the CLF).
        clf: usize,
    },
}

impl Event {
    /// The event as one JSON object.
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("type", "event");
        match self {
            Event::Adaptation {
                window,
                feedback_window,
                observed_bursts,
                old_estimates,
                new_estimates,
            } => {
                let floats = |vs: &[f64]| Json::Array(vs.iter().map(|&v| Json::Float(v)).collect());
                obj.push("kind", "adaptation")
                    .push("window", *window)
                    .push("feedback_window", *feedback_window)
                    .push(
                        "observed_bursts",
                        Json::Array(observed_bursts.iter().map(|&b| Json::from(b)).collect()),
                    )
                    .push("old_estimates", floats(old_estimates))
                    .push("new_estimates", floats(new_estimates));
            }
            Event::WindowMetrics {
                window,
                lost,
                window_len,
                clf,
            } => {
                obj.push("kind", "window_metrics")
                    .push("window", *window)
                    .push("lost", *lost)
                    .push("window_len", *window_len)
                    .push("clf", *clf);
            }
        }
        obj
    }
}
