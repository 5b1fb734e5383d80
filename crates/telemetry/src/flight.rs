//! Flight recorder: a bounded ring of recent observability events, dumped to
//! the artifact directory when something goes wrong.
//!
//! Normal telemetry in this repo is post-hoc (JSONL exports at end of run).
//! A live system needs the opposite on failure: *what happened just before*.
//! The recorder keeps the last `capacity` events — journal instants/spans,
//! trace summaries, detector verdicts, arbitrary annotations — in memory,
//! and [`FlightRecorder::dump`] writes them as `FLIGHT_<name>.jsonl` into
//! [`crate::artifact_dir`] ($NETCHAIN_ARTIFACT_DIR or the current directory,
//! created if missing). The
//! livectl gray-failure detector dumps on every anomaly; `failover_live`
//! dumps on smoke failure.
//!
//! Recording takes a `std::sync::Mutex` — the recorder is fed from control
//! and client threads at human-scale rates (anomalies, phase changes), never
//! from the per-packet path, so a plain mutex is the right tool.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::export::{write_artifact, Json};
use crate::journal::Journal;
use crate::trace::TraceSummary;

/// A bounded ring of recent events, shareable across threads.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Monotone sequence number of the next event (survives eviction, so a
    /// dump shows how much history was discarded).
    next_seq: u64,
    ring: VecDeque<Json>,
}

impl FlightRecorder {
    /// Creates a recorder retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Records one event of the given kind with arbitrary fields. The stored
    /// object carries `seq`, `at_ns` and `kind` alongside the fields.
    pub fn record(&self, at_ns: u64, kind: &str, fields: Vec<(&str, Json)>) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mut pairs = vec![
            ("seq", Json::U64(seq)),
            ("at_ns", Json::U64(at_ns)),
            ("kind", Json::str(kind)),
        ];
        pairs.extend(fields);
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        let obj = Json::obj(pairs);
        inner.ring.push_back(obj);
    }

    /// Records every instant and span of a journal as individual events
    /// (timestamped with their own journal clocks).
    pub fn record_journal(&self, journal: &Journal) {
        for i in journal.instants() {
            self.record(
                i.at_ns,
                "journal.instant",
                vec![("name", Json::str(&i.name))],
            );
        }
        for s in journal.spans() {
            self.record(
                s.start_ns,
                "journal.span",
                vec![
                    ("name", Json::str(&s.name)),
                    ("end_ns", s.end_ns.map(Json::U64).unwrap_or(Json::Null)),
                    (
                        "duration_ns",
                        s.duration_ns().map(Json::U64).unwrap_or(Json::Null),
                    ),
                ],
            );
        }
    }

    /// Records a trace summary (paths + per-hop latency) as one event.
    pub fn record_trace_summary(&self, at_ns: u64, summary: &TraceSummary) {
        self.record(
            at_ns,
            "trace.summary",
            vec![("summary", Json::from(summary))],
        );
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .ring
            .len()
    }

    /// True if nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .next_seq
    }

    /// Renders the retained events as JSON-lines text, oldest first.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        let mut out = String::new();
        for e in &inner.ring {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Dumps the retained events as `FLIGHT_<name>.jsonl` into the artifact
    /// directory (created if missing), returning the path. Errors are
    /// reported, not fatal — a failing dump must never take down the run it
    /// is documenting.
    pub fn dump(&self, name: &str) -> Option<PathBuf> {
        write_artifact(&format!("FLIGHT_{name}.jsonl"), &self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(i * 100, "tick", vec![("i", Json::U64(i))]);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.total_recorded(), 5);
        let text = fr.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Oldest retained is seq 2; newest is seq 4.
        assert!(lines[0].contains("\"seq\":2"));
        assert!(lines[2].contains("\"seq\":4"));
        assert!(lines[2].contains("\"kind\":\"tick\""));
    }

    #[test]
    fn journal_events_are_expanded() {
        let fr = FlightRecorder::new(16);
        let mut j = Journal::new();
        j.instant("kill", 10);
        j.span("repair", 20, 50);
        fr.record_journal(&j);
        let text = fr.to_jsonl();
        assert!(text.contains("\"kind\":\"journal.instant\""));
        assert!(text.contains("\"name\":\"kill\""));
        assert!(text.contains("\"duration_ns\":30"));
    }

    #[test]
    fn dump_writes_to_artifact_dir() {
        let _env = crate::export::tests::ARTIFACT_ENV
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let root =
            std::env::temp_dir().join(format!("netchain-flight-test-{}", std::process::id()));
        // The monitor dumps on the first anomaly of a run, before anything
        // else has had a reason to create the directory.
        let dir = root.join("not/yet");
        assert!(!dir.exists());
        std::env::set_var("NETCHAIN_ARTIFACT_DIR", &dir);
        let fr = FlightRecorder::new(4);
        fr.record(1, "anomaly", vec![("shard", Json::U64(2))]);
        let path = fr.dump("test");
        std::env::remove_var("NETCHAIN_ARTIFACT_DIR");
        let path = path.expect("the recorder creates its directory");
        assert!(path.starts_with(&dir));
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.contains("\"kind\":\"anomaly\""));
        assert!(read.contains("\"shard\":2"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
