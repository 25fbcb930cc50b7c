//! Snapshot sinks: JSON-lines, Prometheus text exposition, in-memory.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};

use crate::json::Json;
use crate::registry::Snapshot;

/// Why an export failed. Every failure mode is a typed variant — no
/// panic is reachable from any [`Sink::export`] path in this module.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExportError {
    /// The sink's underlying writer failed.
    Io(io::Error),
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "snapshot export failed on the sink's writer: {e}"),
        }
    }
}

impl Error for ExportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExportError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for ExportError {
    fn from(e: io::Error) -> Self {
        ExportError::Io(e)
    }
}

/// Something that can receive a [`Snapshot`].
pub trait Sink {
    /// Exports one snapshot.
    ///
    /// # Errors
    ///
    /// A typed [`ExportError`]; sinks never panic on export.
    fn export(&mut self, snapshot: &Snapshot) -> Result<(), ExportError>;
}

/// Renders a snapshot as JSON lines — one self-describing object per line:
///
/// ```text
/// {"type":"counter","name":"windows.sent","value":3}
/// {"type":"gauge","name":"window.alf","value":0.25}
/// {"type":"histogram","name":"plan.ns","count":2,...}
/// {"type":"event","kind":"adaptation",...}
/// ```
pub fn to_json_lines(snapshot: &Snapshot) -> String {
    let metric = |kind: &str, name: &str| {
        let mut obj = Json::object();
        obj.push("type", kind).push("name", name);
        obj
    };
    let mut out = String::new();
    let mut emit = |obj: &Json| {
        out.push_str(&obj.render());
        out.push('\n');
    };
    for (name, v) in &snapshot.counters {
        emit(metric("counter", name).push("value", *v));
    }
    for (name, v) in &snapshot.gauges {
        emit(metric("gauge", name).push("value", *v));
    }
    for (name, h) in &snapshot.histograms {
        let buckets: Vec<Json> = h
            .buckets
            .iter()
            .map(|&(bound, n)| Json::Array(vec![bound.into(), n.into()]))
            .collect();
        emit(
            metric("histogram", name)
                .push("count", h.count)
                .push("sum", h.sum)
                .push("min", h.min)
                .push("max", h.max)
                .push("mean", h.mean())
                .push("buckets", buckets),
        );
    }
    for event in &snapshot.events {
        emit(&event.to_json());
    }
    if snapshot.events_dropped > 0 {
        emit(metric("counter", "telemetry.events_dropped").push("value", snapshot.events_dropped));
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4). Metric names are sanitised (`.` and other non-identifier
/// characters become `_`); histograms are exported as cumulative
/// `_bucket{le=...}` series plus `_sum` and `_count`.
pub fn to_prometheus_text(snapshot: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
    }
    for (name, v) in &snapshot.gauges {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
    }
    for (name, h) in &snapshot.histograms {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for &(bound, n) in &h.buckets {
            cumulative += n;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
    }
    out
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Writes each exported snapshot as JSON lines to an [`io::Write`].
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> Sink for JsonLinesSink<W> {
    fn export(&mut self, snapshot: &Snapshot) -> Result<(), ExportError> {
        self.writer.write_all(to_json_lines(snapshot).as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }
}

/// Writes each exported snapshot in Prometheus text format to an
/// [`io::Write`].
#[derive(Debug)]
pub struct PrometheusSink<W: Write> {
    writer: W,
}

impl<W: Write> PrometheusSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        PrometheusSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> Sink for PrometheusSink<W> {
    fn export(&mut self, snapshot: &Snapshot) -> Result<(), ExportError> {
        self.writer
            .write_all(to_prometheus_text(snapshot).as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }
}

/// Retains every exported snapshot in memory, for test assertions.
#[derive(Debug, Clone, Default)]
pub struct InMemorySink {
    snapshots: Vec<Snapshot>,
}

impl InMemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        InMemorySink::default()
    }

    /// All snapshots exported so far, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The most recently exported snapshot.
    pub fn last(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }
}

impl Sink for InMemorySink {
    fn export(&mut self, snapshot: &Snapshot) -> Result<(), ExportError> {
        self.snapshots.push(snapshot.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Registry};

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("windows.sent").add(3);
        r.gauge("window.alf").set(0.25);
        r.histogram("burst.len").record(2);
        r.histogram("burst.len").record(2);
        r.histogram("burst.len").record(40);
        r.emit(Event::WindowMetrics {
            window: 7,
            lost: 2,
            window_len: 64,
            clf: 1,
        });
        r.snapshot()
    }

    #[test]
    fn json_lines_one_object_per_line() {
        let text = to_json_lines(&sample_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"type\":\"counter\""));
        assert!(lines[0].contains("\"windows.sent\""));
        assert!(lines[1].contains("\"value\":0.25"));
        assert!(lines[2].contains("\"count\":3"));
        assert!(lines[3].contains("\"kind\":\"window_metrics\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn prometheus_text_sanitizes_and_accumulates() {
        let text = to_prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE windows_sent counter"));
        assert!(text.contains("windows_sent 3"));
        assert!(text.contains("window_alf 0.25"));
        assert!(text.contains("# TYPE burst_len histogram"));
        // Buckets are cumulative: the bucket holding 40 reports all 3.
        assert!(text.contains("burst_len_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("burst_len_sum 44"));
        assert!(text.contains("burst_len_count 3"));
    }

    #[test]
    fn json_lines_sink_writes_through() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.export(&sample_snapshot()).unwrap();
        let bytes = sink.into_inner();
        assert!(!bytes.is_empty());
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            to_json_lines(&sample_snapshot())
        );
    }

    #[test]
    fn export_failure_is_a_typed_io_error() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::new(FailingWriter);
        let err = sink.export(&sample_snapshot()).unwrap_err();
        assert!(matches!(err, ExportError::Io(_)));
        assert!(err.to_string().contains("snapshot export failed"));
        assert!(Error::source(&err).is_some(), "source chain preserved");
    }

    #[test]
    fn in_memory_sink_retains_snapshots() {
        let mut sink = InMemorySink::new();
        assert!(sink.last().is_none());
        sink.export(&sample_snapshot()).unwrap();
        sink.export(&sample_snapshot()).unwrap();
        assert_eq!(sink.snapshots().len(), 2);
        assert_eq!(sink.last().unwrap().counter("windows.sent"), Some(3));
    }
}
