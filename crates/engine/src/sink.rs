//! The result sink: where finished rows go.
//!
//! The engine always returns records in job-id order; a [`JsonlSink`]
//! writes them in that same order, so its output is byte-for-byte
//! reproducible regardless of worker count.
//!
//! Writes are fallible: a sink returns [`SinkError`] instead of
//! panicking, so `natoms sweep --jsonl | head` (a broken pipe) exits
//! cleanly and a real I/O failure (disk full) surfaces as a typed
//! error the CLI turns into a nonzero exit code.

use crate::record::RunRecord;
use std::error::Error;
use std::fmt;
use std::io::Write;

/// An I/O failure while emitting result rows.
#[derive(Debug)]
pub struct SinkError(std::io::Error);

impl SinkError {
    /// `true` when the consumer went away (`EPIPE`) — e.g. piping
    /// into `head`. Callers treat this as a clean early stop, not an
    /// error.
    pub fn is_broken_pipe(&self) -> bool {
        self.0.kind() == std::io::ErrorKind::BrokenPipe
    }
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "result sink I/O error: {}", self.0)
    }
}

impl Error for SinkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.0)
    }
}

impl From<std::io::Error> for SinkError {
    fn from(e: std::io::Error) -> Self {
        SinkError(e)
    }
}

/// Drains already-collected records into a sink, in order, and
/// flushes. The one sink-draining loop shared by the CLI's `--jsonl`
/// paths and `figures --jsonl`.
///
/// # Errors
///
/// The first [`SinkError`] encountered; remaining records are not
/// written.
pub fn write_records<W: Write>(
    records: &[RunRecord],
    sink: &mut JsonlSink<W>,
) -> Result<(), SinkError> {
    for record in records {
        sink.write_record(record)?;
    }
    sink.finish()
}

/// Writes one compact JSON object per line.
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// A sink over any writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Writes one row as a line of compact JSON.
    fn write_record(&mut self, record: &RunRecord) -> Result<(), SinkError> {
        // Chaos failpoint for the row-emission failure domain; the
        // injected error takes the same typed path a real I/O error
        // would.
        na_faults::point("engine.sink.write")
            .map_err(|fault| SinkError(std::io::Error::other(fault.to_string())))?;
        // Serialization itself is infallible (in-memory rendering of
        // plain data); only the write can fail.
        let line = serde_json::to_string(record).expect("record serializes");
        writeln!(self.writer, "{line}")?;
        Ok(())
    }

    /// Flushes buffered output.
    fn finish(&mut self) -> Result<(), SinkError> {
        self.writer.flush()?;
        Ok(())
    }
}

impl JsonlSink<std::io::Stdout> {
    /// A sink to standard output.
    pub fn stdout() -> Self {
        JsonlSink::new(std::io::stdout())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Outcome;
    use crate::spec::{ExperimentSpec, Task};
    use na_arch::Grid;
    use na_benchmarks::Benchmark;
    use na_core::CompilerConfig;

    fn record() -> RunRecord {
        let mut spec = ExperimentSpec::new("t", Grid::new(4, 4));
        spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(2.0), Task::Compile);
        RunRecord::new(
            &spec.jobs()[0],
            Outcome::Failed {
                unroutable: true,
                panicked: false,
                deadline: false,
                error: "x".into(),
            },
        )
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.write_record(&record()).unwrap();
        sink.write_record(&record()).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    /// A writer that fails with a chosen [`std::io::ErrorKind`].
    struct FailingWriter(std::io::ErrorKind);

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(self.0))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::from(self.0))
        }
    }

    #[test]
    fn broken_pipe_is_a_typed_recognizable_error() {
        let mut sink = JsonlSink::new(FailingWriter(std::io::ErrorKind::BrokenPipe));
        let err = sink.write_record(&record()).unwrap_err();
        assert!(err.is_broken_pipe());
        assert!(err.to_string().contains("result sink I/O error"));
    }

    #[test]
    fn disk_style_errors_are_not_broken_pipe() {
        let mut sink = JsonlSink::new(FailingWriter(std::io::ErrorKind::StorageFull));
        let err = sink.finish().unwrap_err();
        assert!(!err.is_broken_pipe());
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn write_records_stops_at_the_first_failure() {
        let records = vec![record(), record()];
        let mut sink = JsonlSink::new(FailingWriter(std::io::ErrorKind::StorageFull));
        assert!(write_records(&records, &mut sink).is_err());
    }
}
