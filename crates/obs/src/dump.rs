//! Versioned JSON-lines dumps of recordings, and their parser.
//!
//! A dump is self-describing: each recording opens with one `obs_meta`
//! line carrying the format version and the recording's metadata, then
//! one `obs` line per event, oldest first. Several recordings may be
//! concatenated in one file (a whole session's three roles, or a compare
//! cell's six); the parser splits them on the meta lines.
//!
//! ```text
//! {"type":"obs_meta","version":1,"role":"server","session":0,"shared_epoch":1,"capacity":16384,"dropped":0,"events":2}
//! {"type":"obs","t_us":12,"conn":1,"window":0,"frame":3,"kind":"sent","detail":0}
//! {"type":"obs","t_us":98,"conn":1,"window":0,"frame":3,"kind":"window_end_sent","detail":0}
//! ```
//!
//! The writer emits no escapes (roles and kinds come from fixed
//! vocabularies) and `window`/`frame` sentinels render as `null`, so the
//! parser is a small exact-format field scanner, not a general JSON
//! reader. Unknown *versions* are refused loudly; unknown *event kinds*
//! inside a known version are malformed lines.

use std::fmt;

use crate::event::{EventKind, ObsEvent, Role, FRAME_NONE, WINDOW_NONE};
use crate::recorder::Recording;

/// Version stamped on every `obs_meta` line. Bump when the line format
/// or the event vocabulary changes incompatibly.
pub const DUMP_VERSION: u64 = 1;

/// Why a dump could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum DumpError {
    /// The input contained no `obs_meta` line at all.
    MissingMeta,
    /// An `obs_meta` line declared a version this parser does not speak.
    BadVersion(u64),
    /// An event line arrived before any `obs_meta` line.
    EventBeforeMeta {
        /// 1-based line number.
        line: usize,
    },
    /// A line failed to parse (bad field, unknown kind, junk).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Which field or aspect was wrong.
        what: &'static str,
    },
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::MissingMeta => write!(f, "dump has no obs_meta line"),
            DumpError::BadVersion(v) => {
                write!(f, "dump version {v} is not the supported {DUMP_VERSION}")
            }
            DumpError::EventBeforeMeta { line } => {
                write!(f, "line {line}: event before any obs_meta line")
            }
            DumpError::Malformed { line, what } => write!(f, "line {line}: malformed {what}"),
        }
    }
}

impl std::error::Error for DumpError {}

/// Renders one recording as JSON lines (meta line + one line per event,
/// trailing newline included).
pub fn to_json_lines(recording: &Recording) -> String {
    use std::fmt::Write as _;
    // Preallocate roughly one 96-byte line per event.
    let mut out = String::with_capacity(128 + recording.events.len() * 96);
    let _ = writeln!(
        out,
        "{{\"type\":\"obs_meta\",\"version\":{DUMP_VERSION},\"role\":\"{}\",\"session\":{},\
         \"shared_epoch\":{},\"capacity\":{},\"dropped\":{},\"events\":{}}}",
        recording.role.as_str(),
        recording.session,
        u8::from(recording.shared_epoch),
        recording.capacity,
        recording.dropped,
        recording.events.len()
    );
    for e in &recording.events {
        out.push_str("{\"type\":\"obs\",\"t_us\":");
        let _ = write!(out, "{}", e.t_us);
        let _ = write!(out, ",\"conn\":{}", e.conn);
        out.push_str(",\"window\":");
        if e.window == WINDOW_NONE {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", e.window);
        }
        out.push_str(",\"frame\":");
        if e.frame == FRAME_NONE {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", e.frame);
        }
        let _ = writeln!(
            out,
            ",\"kind\":\"{}\",\"detail\":{}}}",
            e.kind.as_str(),
            e.detail
        );
    }
    out
}

/// Renders several recordings into one concatenated dump.
pub fn all_to_json_lines(recordings: &[Recording]) -> String {
    recordings.iter().map(to_json_lines).collect()
}

/// Parses a dump (one or more concatenated recordings). Blank lines are
/// skipped; anything else must be a well-formed `obs_meta` or `obs` line.
///
/// # Errors
///
/// A typed [`DumpError`] naming the first offending line.
pub fn parse_json_lines(text: &str) -> Result<Vec<Recording>, DumpError> {
    let mut recordings: Vec<Recording> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let malformed = |what| DumpError::Malformed {
            line: line_no,
            what,
        };
        match field(line, "type") {
            Some("\"obs_meta\"") => {
                let version = uint_field(line, "version").ok_or(malformed("version"))?;
                if version != DUMP_VERSION {
                    return Err(DumpError::BadVersion(version));
                }
                let role = str_field(line, "role")
                    .and_then(Role::parse)
                    .ok_or(malformed("role"))?;
                let session = uint_field(line, "session").ok_or(malformed("session"))? as u32;
                let shared_epoch =
                    uint_field(line, "shared_epoch").ok_or(malformed("shared_epoch"))? != 0;
                let capacity = uint_field(line, "capacity").ok_or(malformed("capacity"))? as usize;
                let dropped = uint_field(line, "dropped").ok_or(malformed("dropped"))?;
                recordings.push(Recording {
                    role,
                    session,
                    shared_epoch,
                    capacity,
                    dropped,
                    events: Vec::new(),
                });
            }
            Some("\"obs\"") => {
                let rec = recordings
                    .last_mut()
                    .ok_or(DumpError::EventBeforeMeta { line: line_no })?;
                let t_us = uint_field(line, "t_us").ok_or(malformed("t_us"))?;
                let conn = uint_field(line, "conn").ok_or(malformed("conn"))? as u32;
                let window = match field(line, "window") {
                    Some("null") => WINDOW_NONE,
                    Some(raw) => raw.parse().map_err(|_| malformed("window"))?,
                    None => return Err(malformed("window")),
                };
                let frame = match field(line, "frame") {
                    Some("null") => FRAME_NONE,
                    Some(raw) => raw.parse().map_err(|_| malformed("frame"))?,
                    None => return Err(malformed("frame")),
                };
                let kind = str_field(line, "kind")
                    .and_then(EventKind::parse)
                    .ok_or(malformed("kind"))?;
                let detail = uint_field(line, "detail").ok_or(malformed("detail"))? as u32;
                rec.events.push(ObsEvent {
                    t_us,
                    conn,
                    window,
                    frame,
                    kind,
                    detail,
                });
            }
            _ => return Err(malformed("type")),
        }
    }
    if recordings.is_empty() {
        return Err(DumpError::MissingMeta);
    }
    Ok(recordings)
}

/// Raw value token of `"key":` in a flat single-line object: everything
/// up to the next `,` or the closing `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    // Keys are unique in our fixed formats; values contain no commas or
    // braces (numbers, null, or unescaped strings from fixed sets).
    let mut needle = String::with_capacity(key.len() + 3);
    needle.push('"');
    needle.push_str(key);
    needle.push_str("\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn uint_field(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// The unquoted content of a string-valued field.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    field(line, key)?
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ALL_KINDS;
    use crate::recorder::FlightRecorder;

    fn sample() -> Recording {
        let rec = FlightRecorder::new(Role::Server, 32);
        rec.record(EventKind::Queued, 1, 0, 3, 7);
        rec.record(EventKind::Sent, 1, 0, 3, 0);
        rec.record(EventKind::DecodeError, 1, WINDOW_NONE, FRAME_NONE, 0);
        rec.recording()
    }

    /// The `obs_meta` and `obs` lines quoted in this module's docs are
    /// exactly what the writer emits for the recording they describe.
    #[test]
    fn module_doc_lines_are_the_writer_output() {
        let doc: String = include_str!("dump.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! {\"type\":"))
            .map(|rest| format!("{{\"type\":{rest}\n"))
            .collect();
        let event = |t_us, kind| ObsEvent {
            t_us,
            conn: 1,
            window: 0,
            frame: 3,
            kind,
            detail: 0,
        };
        let recording = Recording {
            role: Role::Server,
            session: 0,
            shared_epoch: true,
            capacity: 16_384,
            dropped: 0,
            events: vec![
                event(12, EventKind::Sent),
                event(98, EventKind::WindowEndSent),
            ],
        };
        assert_eq!(doc.lines().count(), 3);
        assert_eq!(to_json_lines(&recording), doc);
        assert_eq!(parse_json_lines(&doc), Ok(vec![recording]));
    }

    #[test]
    fn round_trips_exactly() {
        let original = sample();
        let text = to_json_lines(&original);
        let parsed = parse_json_lines(&text).unwrap();
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn every_kind_round_trips() {
        let rec = FlightRecorder::new(Role::Proxy, 64);
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            rec.record(kind, 9, i as u64, i as u32, i as u32);
        }
        let original = rec.recording();
        let parsed = parse_json_lines(&to_json_lines(&original)).unwrap();
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn concatenated_recordings_split_on_meta_lines() {
        let (server, proxy, client) = crate::recorder::trio(8, 2);
        server.record(EventKind::Sent, 1, 0, 0, 0);
        proxy.record(EventKind::ForwardedData, 1, 0, 0, 0);
        client.record(EventKind::Delivered, 1, 0, 0, 0);
        let all = vec![server.recording(), proxy.recording(), client.recording()];
        let text = all_to_json_lines(&all);
        let parsed = parse_json_lines(&text).unwrap();
        assert_eq!(parsed, all);
        assert_eq!(parsed[0].role, Role::Server);
        assert_eq!(parsed[2].role, Role::Client);
    }

    #[test]
    fn sentinels_render_as_null() {
        let text = to_json_lines(&sample());
        let last_event_line = text.lines().last().unwrap();
        assert!(last_event_line.contains("\"window\":null"));
        assert!(last_event_line.contains("\"frame\":null"));
    }

    #[test]
    fn version_mismatch_is_a_typed_refusal() {
        let text = to_json_lines(&sample()).replace("\"version\":1", "\"version\":9");
        assert_eq!(parse_json_lines(&text), Err(DumpError::BadVersion(9)));
    }

    #[test]
    fn junk_lines_name_their_line_number() {
        let mut text = to_json_lines(&sample());
        text.push_str("not json at all\n");
        let junk_line = text.lines().count();
        assert_eq!(
            parse_json_lines(&text),
            Err(DumpError::Malformed {
                line: junk_line,
                what: "type"
            })
        );
    }

    #[test]
    fn event_before_meta_and_empty_input_are_typed() {
        let orphan = "{\"type\":\"obs\",\"t_us\":1,\"conn\":1,\"window\":0,\"frame\":0,\
                      \"kind\":\"sent\",\"detail\":0}";
        assert_eq!(
            parse_json_lines(orphan),
            Err(DumpError::EventBeforeMeta { line: 1 })
        );
        assert_eq!(parse_json_lines(""), Err(DumpError::MissingMeta));
        assert_eq!(parse_json_lines("\n\n"), Err(DumpError::MissingMeta));
    }

    #[test]
    fn unknown_kind_is_malformed_not_skipped() {
        let text = to_json_lines(&sample()).replace("\"kind\":\"sent\"", "\"kind\":\"teleported\"");
        assert!(matches!(
            parse_json_lines(&text),
            Err(DumpError::Malformed { what: "kind", .. })
        ));
    }
}
