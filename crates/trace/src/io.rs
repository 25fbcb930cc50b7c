//! Reading and writing frame-size traces.
//!
//! The paper's workload was distributed as plain-text frame-size traces
//! (the UMass archive). This module reads and writes that style of file
//! so real traces can be dropped in for the synthetic generator:
//! one frame per line, `index type size_bytes`, `#` comments ignored.
//!
//! ```text
//! # Jurassic Park, GOP 12, 24 fps
//! 0 I 5890
//! 1 B 1206
//! 2 B 1192
//! 3 P 2211
//! ```

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use crate::frame::{Frame, FrameType};

/// Error parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl Error for TraceParseError {}

/// Writes frames as a text trace.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut writer: W, frames: &[Frame]) -> std::io::Result<()> {
    writeln!(writer, "# error-spreading trace: index type size_bytes")?;
    for f in frames {
        writeln!(writer, "{} {} {}", f.index, f.frame_type, f.size_bytes)?;
    }
    Ok(())
}

/// Reads a text trace (see the module docs for the format).
///
/// Frames must appear in ascending playout order starting at 0 (the usual
/// form of published traces); blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns a [`TraceParseError`] describing the first malformed line;
/// I/O errors are reported as a parse error on the failing line.
pub fn read_trace<R: BufRead>(reader: R) -> Result<Vec<Frame>, TraceParseError> {
    let mut frames = Vec::new();
    for (line_idx, line) in reader.lines().enumerate() {
        let line_no = line_idx + 1;
        let line = line.map_err(|e| TraceParseError {
            line: line_no,
            reason: format!("I/O error: {e}"),
        })?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let mut parts = text.split_whitespace();
        let err = |reason: String| TraceParseError {
            line: line_no,
            reason,
        };
        let index: usize = parts
            .next()
            .ok_or_else(|| err("missing index".into()))?
            .parse()
            .map_err(|e| err(format!("bad index: {e}")))?;
        let type_text = parts
            .next()
            .ok_or_else(|| err("missing frame type".into()))?;
        let frame_type = type_text
            .chars()
            .next()
            .and_then(FrameType::from_char)
            .filter(|_| type_text.len() == 1)
            .ok_or_else(|| err(format!("bad frame type '{type_text}'")))?;
        let size_bytes: u32 = parts
            .next()
            .ok_or_else(|| err("missing size".into()))?
            .parse()
            .map_err(|e| err(format!("bad size: {e}")))?;
        if parts.next().is_some() {
            return Err(err("trailing fields".into()));
        }
        if size_bytes == 0 {
            return Err(err("frame size must be positive".into()));
        }
        if index != frames.len() {
            return Err(err(format!(
                "expected index {}, found {index} (traces must be dense and in order)",
                frames.len()
            )));
        }
        frames.push(Frame {
            index,
            frame_type,
            size_bytes,
        });
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpeg::{Movie, MpegTrace};

    #[test]
    fn round_trip() {
        let frames = MpegTrace::new(Movie::JurassicPark, 3).gops(5);
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &frames).unwrap();
        let read = read_trace(buffer.as_slice()).unwrap();
        assert_eq!(read, frames);
    }

    #[test]
    fn trace_io_round_trips_every_movie() {
        for movie in Movie::ALL {
            let frames = MpegTrace::new(movie, 4).gops(3);
            let mut buf = Vec::new();
            write_trace(&mut buf, &frames).unwrap();
            assert_eq!(read_trace(buf.as_slice()).unwrap(), frames);
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n0 I 100\n  \n1 B 50\n# trailing\n";
        let frames = read_trace(text.as_bytes()).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].frame_type, FrameType::B);
    }

    #[test]
    fn malformed_lines_reported_with_position() {
        let cases = [
            ("0 I", "missing size"),
            ("0 X 100", "bad frame type"),
            ("zero I 100", "bad index"),
            ("0 I 100 extra", "trailing fields"),
            ("0 I 0", "positive"),
            ("5 I 100", "expected index 0"),
            ("0 IB 100", "bad frame type"),
        ];
        for (text, fragment) in cases {
            let err = read_trace(text.as_bytes()).unwrap_err();
            assert_eq!(err.line, 1, "{text}");
            assert!(
                err.reason.contains(fragment),
                "'{text}' → '{}' (wanted '{fragment}')",
                err.reason
            );
        }
    }

    #[test]
    fn error_line_numbers_count_comments() {
        let text = "# one\n0 I 100\nbroken\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert!(read_trace(&b""[..]).unwrap().is_empty());
    }
}
