//! Group-of-pictures patterns and their dependency posets.
//!
//! A GOP is "a set of consecutive frames beginning with an I-frame
//! (inclusive) and ending with the next I-frame (exclusive)" (§3.2). The
//! paper assumes the common fixed anchor spacing, so every GOP in a stream
//! shares one display-order pattern such as `IBBPBBPBBPBB` (GOP 12).
//!
//! [`GopPattern::dependency_poset`] reproduces the paper's Fig. 2 structure
//! for a buffer of `w` GOPs: P-frames chain off the previous anchor,
//! B-frames depend on the surrounding anchors, and with **open** GOPs the
//! trailing B-frames of a GOP also depend on the next GOP's I-frame
//! (the dashed arrows of Fig. 2); with **closed** GOPs they do not.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use espread_poset::Poset;

use crate::frame::FrameType;

/// Error parsing a GOP pattern string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GopPatternError {
    /// The pattern was empty.
    Empty,
    /// The pattern did not start with an I-frame.
    MustStartWithI,
    /// The pattern contained a second I-frame (a GOP spans exactly one).
    InteriorI {
        /// Position of the extra I.
        position: usize,
    },
    /// An unknown character appeared.
    UnknownFrameType {
        /// Position of the bad character.
        position: usize,
        /// The offending character.
        character: char,
    },
}

impl fmt::Display for GopPatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GopPatternError::Empty => f.write_str("GOP pattern is empty"),
            GopPatternError::MustStartWithI => f.write_str("GOP pattern must start with 'I'"),
            GopPatternError::InteriorI { position } => {
                write!(f, "unexpected interior I-frame at position {position}")
            }
            GopPatternError::UnknownFrameType {
                position,
                character,
            } => write!(f, "unknown frame type '{character}' at position {position}"),
        }
    }
}

impl Error for GopPatternError {}

/// A display-order GOP pattern, e.g. `IBBPBBPBBPBB`.
///
/// # Example
///
/// ```
/// use espread_trace::{FrameType, GopPattern};
///
/// let gop: GopPattern = "IBBPBB".parse()?;
/// assert_eq!(gop.len(), 6);
/// assert_eq!(gop.frame_type(3), FrameType::P);
/// assert_eq!(gop.anchors().count(), 2);
/// # Ok::<(), espread_trace::GopPatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GopPattern {
    types: Vec<FrameType>,
}

impl GopPattern {
    /// The paper's evaluation pattern: GOP 12 (`IBBPBBPBBPBB`), 24 fps
    /// traces.
    pub fn gop12() -> Self {
        "IBBPBBPBBPBB".parse().expect("static pattern is valid")
    }

    /// The UMass traces' other pattern: GOP 15 (`IBBPBBPBBPBBPBB`), 30 fps.
    pub fn gop15() -> Self {
        "IBBPBBPBBPBBPBB".parse().expect("static pattern is valid")
    }

    /// An H.261-style pattern: one intra frame followed by a chain of
    /// inter (P) frames, no bidirectional prediction. §3.3 names H.261
    /// alongside MPEG as a *ranked* dependency structure; its poset is a
    /// pure chain, so every layer of the decomposition is a singleton and
    /// spreading operates across GOPs rather than within them.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn h261(len: usize) -> Self {
        assert!(len > 0, "GOP must hold at least the I frame");
        let mut s = String::with_capacity(len);
        s.push('I');
        for _ in 1..len {
            s.push('P');
        }
        s.parse().expect("constructed pattern is valid")
    }

    /// Number of frames per GOP.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Returns `true` for the (impossible after validation) empty pattern.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The frame type at display position `i` within the GOP.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ len()`.
    pub fn frame_type(&self, i: usize) -> FrameType {
        self.types[i]
    }

    /// The frame types in display order.
    pub fn types(&self) -> &[FrameType] {
        &self.types
    }

    /// Display positions of the anchor frames (I and P), ascending.
    pub fn anchors(&self) -> impl Iterator<Item = usize> + '_ {
        self.types
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.is_anchor().then_some(i))
    }

    /// Number of B-frames per GOP.
    pub fn b_frames(&self) -> usize {
        self.types.iter().filter(|t| **t == FrameType::B).count()
    }

    /// The frame types of `w` consecutive GOPs, in display order.
    pub fn repeat(&self, w: usize) -> Vec<FrameType> {
        let mut out = Vec::with_capacity(self.len() * w);
        for _ in 0..w {
            out.extend_from_slice(&self.types);
        }
        out
    }

    /// The dependency poset of a buffer of `w` consecutive GOPs (Fig. 2).
    ///
    /// Element `i` is the frame at display position `i`; `a < b` means *b
    /// depends on a*. Dependencies:
    ///
    /// * each P-frame depends on the previous anchor of its GOP;
    /// * each B-frame depends on the nearest anchor before it and (for
    ///   `open` GOPs) the nearest anchor after it — which for trailing
    ///   B-frames is the next GOP's I-frame; the final GOP's trailing
    ///   B-frames have no following anchor inside the buffer;
    /// * I-frames depend on nothing.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn dependency_poset(&self, w: usize, open: bool) -> Poset {
        assert!(w > 0, "buffer must hold at least one GOP");
        let types = self.repeat(w);
        let n = types.len();
        let mut builder = Poset::builder(n);

        // Previous-anchor chain for P frames.
        let mut prev_anchor: Option<usize> = None;
        for (i, t) in types.iter().enumerate() {
            match t {
                FrameType::I => {
                    prev_anchor = Some(i);
                }
                FrameType::P => {
                    let a = prev_anchor.expect("pattern starts with I");
                    builder.add_relation(a, i).expect("acyclic by position");
                    prev_anchor = Some(i);
                }
                FrameType::B => {}
            }
        }

        // B frames: nearest anchor before, and (open GOP) nearest after.
        for (i, t) in types.iter().enumerate() {
            if *t != FrameType::B {
                continue;
            }
            let before = (0..i).rev().find(|&j| types[j].is_anchor());
            if let Some(a) = before {
                builder.add_relation(a, i).expect("acyclic by position");
            }
            let after = (i + 1..n).find(|&j| types[j].is_anchor());
            if let Some(a) = after {
                // Within a GOP the following anchor is always a
                // dependency; across a GOP boundary only for open GOPs.
                let same_gop = a / self.len() == i / self.len();
                if same_gop || open {
                    builder
                        .add_relation(a, i)
                        .expect("B depends forward, no cycle");
                }
            }
        }

        builder.build().expect("frame dependencies are acyclic")
    }
}

impl FromStr for GopPattern {
    type Err = GopPatternError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(GopPatternError::Empty);
        }
        let mut types = Vec::with_capacity(s.len());
        for (position, c) in s.chars().enumerate() {
            let t = FrameType::from_char(c).ok_or(GopPatternError::UnknownFrameType {
                position,
                character: c,
            })?;
            if position == 0 && t != FrameType::I {
                return Err(GopPatternError::MustStartWithI);
            }
            if position > 0 && t == FrameType::I {
                return Err(GopPatternError::InteriorI { position });
            }
            types.push(t);
        }
        Ok(GopPattern { types })
    }
}

impl fmt::Display for GopPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.types {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let g: GopPattern = "IBBPBB".parse().unwrap();
        assert_eq!(g.to_string(), "IBBPBB");
        assert_eq!(g.len(), 6);
        assert_eq!(g.b_frames(), 4);
        assert_eq!(g.anchors().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "".parse::<GopPattern>().unwrap_err(),
            GopPatternError::Empty
        );
        assert_eq!(
            "BIP".parse::<GopPattern>().unwrap_err(),
            GopPatternError::MustStartWithI
        );
        assert_eq!(
            "IBI".parse::<GopPattern>().unwrap_err(),
            GopPatternError::InteriorI { position: 2 }
        );
        assert_eq!(
            "IBX".parse::<GopPattern>().unwrap_err(),
            GopPatternError::UnknownFrameType {
                position: 2,
                character: 'X'
            }
        );
    }

    #[test]
    fn standard_patterns() {
        assert_eq!(GopPattern::gop12().len(), 12);
        assert_eq!(GopPattern::gop12().b_frames(), 8);
        assert_eq!(GopPattern::gop15().len(), 15);
        assert_eq!(GopPattern::gop15().anchors().count(), 5);
    }

    #[test]
    fn repeat_tiles_pattern() {
        let g: GopPattern = "IBP".parse().unwrap();
        let tiled = g.repeat(2);
        assert_eq!(tiled.len(), 6);
        assert_eq!(tiled[0], FrameType::I);
        assert_eq!(tiled[3], FrameType::I);
    }

    #[test]
    fn closed_gop_poset_structure() {
        // IBBPBB × 1 closed: P(3) deps I(0); B(1),B(2) dep I(0),P(3);
        // B(4),B(5) dep P(3) only (no following anchor in buffer).
        let g: GopPattern = "IBBPBB".parse().unwrap();
        let p = g.dependency_poset(1, false);
        assert!(p.less_than(0, 3));
        assert!(p.less_than(0, 1));
        assert!(p.less_than(3, 1));
        assert!(p.less_than(3, 4));
        assert!(p.less_than(0, 4)); // transitively via P(3)
        assert_eq!(p.minimal_elements(), vec![0]);
        // B frames are maximal (nothing depends on them).
        let maximal = p.maximal_elements();
        for b in [1usize, 2, 4, 5] {
            assert!(maximal.contains(&b));
        }
    }

    #[test]
    fn open_gop_cross_dependency() {
        let g: GopPattern = "IBBPBB".parse().unwrap();
        let open = g.dependency_poset(2, true);
        let closed = g.dependency_poset(2, false);
        // Trailing B frames of GOP 0 (indices 4, 5) depend on GOP 1's I
        // (index 6) only in the open case.
        assert!(open.less_than(6, 4));
        assert!(open.less_than(6, 5));
        assert!(!closed.less_than(6, 4));
        assert!(!closed.less_than(6, 5));
    }

    #[test]
    fn gop12_poset_heights() {
        // GOP12 = I BB P BB P BB P BB: chain I<P1<P2<P3 plus B leaves →
        // height 5 (I, P1, P2, P3, B-after-P3).
        let p = GopPattern::gop12().dependency_poset(1, false);
        assert_eq!(p.height(), 5);
        let layers = p.depth_decomposition();
        assert_eq!(layers.len(), 5);
        // Deepest layer is the I frame; last layer holds every B frame.
        assert_eq!(layers[0], vec![0]);
        assert_eq!(layers[4].len(), 8);
    }

    #[test]
    fn gop15_layer_structure() {
        // GOP 15 = I BB P BB P BB P BB P BB: chain I<P1<P2<P3<P4 plus B's.
        let poset = GopPattern::gop15().dependency_poset(1, false);
        assert_eq!(poset.len(), 15);
        assert_eq!(poset.height(), 6);
        let layers = poset.depth_decomposition();
        assert_eq!(layers.len(), 6);
        assert_eq!(layers[0], vec![0]); // the I frame
        assert_eq!(layers[5].len(), 10); // all B frames
        assert_eq!(poset.width(), 10);
    }

    #[test]
    fn two_gop_buffer_layers_group_anchor_positions() {
        let p = GopPattern::gop12().dependency_poset(2, false);
        let layers = p.depth_decomposition();
        assert_eq!(layers.len(), 5);
        assert_eq!(layers[0], vec![0, 12]); // both I frames
        assert_eq!(layers[1], vec![3, 15]); // both P1 frames
        assert_eq!(layers[2], vec![6, 18]);
        assert_eq!(layers[3], vec![9, 21]);
        assert_eq!(layers[4].len(), 16); // all B frames
    }

    #[test]
    #[should_panic(expected = "at least one GOP")]
    fn zero_gops_rejected() {
        let _ = GopPattern::gop12().dependency_poset(0, false);
    }

    #[test]
    fn h261_pattern_is_a_chain() {
        let g = GopPattern::h261(6);
        assert_eq!(g.to_string(), "IPPPPP");
        assert_eq!(g.b_frames(), 0);
        let p = g.dependency_poset(1, false);
        assert_eq!(p.height(), 6); // pure chain
        assert!(p.less_than(0, 5));
        // Every depth layer is a singleton.
        assert!(p.depth_decomposition().iter().all(|l| l.len() == 1));
    }

    #[test]
    fn h261_multi_gop_layers_group_by_position() {
        // With two GOPs each layer pairs the frames at equal position —
        // the spreading happens across GOPs.
        let p = GopPattern::h261(4).dependency_poset(2, false);
        let layers = p.depth_decomposition();
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[0], vec![0, 4]);
        assert_eq!(layers[3], vec![3, 7]);
    }

    #[test]
    #[should_panic(expected = "at least the I frame")]
    fn empty_h261_rejected() {
        let _ = GopPattern::h261(0);
    }

    #[test]
    fn error_display() {
        assert!(GopPatternError::Empty.to_string().contains("empty"));
        assert!(GopPatternError::MustStartWithI
            .to_string()
            .contains("start"));
        assert!(GopPatternError::InteriorI { position: 2 }
            .to_string()
            .contains("interior"));
        assert!(GopPatternError::UnknownFrameType {
            position: 1,
            character: 'q'
        }
        .to_string()
        .contains("unknown"));
    }
}
