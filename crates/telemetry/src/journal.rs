//! Control-plane event journal: a general phase/span recorder.
//!
//! `FailoverTimeline` in netchain-core hard-codes one specific sequence of
//! control-plane moments (kill → failover → repair). The journal generalises
//! that into named instants and spans so the controllers' one `Reactor`, the
//! live monitor, and any future orchestration can all record what happened
//! and when, and exporters can render the result uniformly.

/// A named instantaneous event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instant {
    /// Event name, e.g. `"kill 10.0.0.1"`.
    pub name: String,
    /// Time in nanoseconds (sim time or wall-clock since run start).
    pub at_ns: u64,
}

/// A named interval. Open spans (`end_ns == None`) are legal and mean the
/// phase had not finished when the journal was exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"repair:10.0.0.1"`.
    pub name: String,
    /// Start time in nanoseconds.
    pub start_ns: u64,
    /// End time in nanoseconds, if the span closed.
    pub end_ns: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds, if closed.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// An append-only record of control-plane instants and spans.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    instants: Vec<Instant>,
    spans: Vec<Span>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an instantaneous event.
    pub fn instant(&mut self, name: impl Into<String>, at_ns: u64) {
        self.instants.push(Instant {
            name: name.into(),
            at_ns,
        });
    }

    /// Opens a span; returns a handle used to close it. Spans may nest and
    /// interleave freely.
    pub fn begin(&mut self, name: impl Into<String>, at_ns: u64) -> SpanHandle {
        self.spans.push(Span {
            name: name.into(),
            start_ns: at_ns,
            end_ns: None,
        });
        SpanHandle(self.spans.len() - 1)
    }

    /// Closes the span behind `handle`.
    pub fn end(&mut self, handle: SpanHandle, at_ns: u64) {
        let span = &mut self.spans[handle.0];
        debug_assert!(span.end_ns.is_none(), "span {:?} closed twice", span.name);
        span.end_ns = Some(at_ns);
    }

    /// Records an already-known interval in one call.
    pub fn span(&mut self, name: impl Into<String>, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: Some(end_ns),
        });
    }

    /// All instants, in recording order.
    pub fn instants(&self) -> &[Instant] {
        &self.instants
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// First span with the given name, if any.
    pub fn find_span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// First instant with the given name, if any.
    pub fn find_instant(&self, name: &str) -> Option<&Instant> {
        self.instants.iter().find(|i| i.name == name)
    }

    /// Appends another journal's events (e.g. merging the sim controller's
    /// journal into the run-level one).
    pub fn extend(&mut self, other: &Journal) {
        self.instants.extend_from_slice(&other.instants);
        self.spans.extend_from_slice(&other.spans);
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.instants.is_empty() && self.spans.is_empty()
    }

    /// Renders a chronological human-readable listing, one event per line,
    /// times in milliseconds.
    pub fn to_table(&self) -> String {
        #[derive(Clone)]
        enum Row<'a> {
            I(&'a Instant),
            S(&'a Span),
        }
        let mut rows: Vec<(u64, Row)> = self
            .instants
            .iter()
            .map(|i| (i.at_ns, Row::I(i)))
            .chain(self.spans.iter().map(|s| (s.start_ns, Row::S(s))))
            .collect();
        rows.sort_by_key(|(at, _)| *at);
        let mut out = String::new();
        for (_, row) in rows {
            match row {
                Row::I(i) => {
                    out.push_str(&format!(
                        "  @{:>10.3}ms  {}\n",
                        i.at_ns as f64 / 1e6,
                        i.name
                    ));
                }
                Row::S(s) => match s.end_ns {
                    Some(end) => out.push_str(&format!(
                        "  @{:>10.3}ms  {} ({:.3}ms)\n",
                        s.start_ns as f64 / 1e6,
                        s.name,
                        (end.saturating_sub(s.start_ns)) as f64 / 1e6,
                    )),
                    None => out.push_str(&format!(
                        "  @{:>10.3}ms  {} (open)\n",
                        s.start_ns as f64 / 1e6,
                        s.name,
                    )),
                },
            }
        }
        out
    }
}

/// Handle returned by [`Journal::begin`], consumed by [`Journal::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_round_trip() {
        let mut j = Journal::new();
        j.instant("failure-detected", 1_000_000);
        let h = j.begin("fast-failover", 1_100_000);
        j.end(h, 1_600_000);
        j.span("chain-repair", 2_000_000, 9_000_000);

        assert_eq!(j.instants().len(), 1);
        assert_eq!(j.spans().len(), 2);
        assert_eq!(
            j.find_span("fast-failover").unwrap().duration_ns(),
            Some(500_000)
        );
        assert_eq!(j.find_instant("failure-detected").unwrap().at_ns, 1_000_000);
        assert!(j.find_span("nope").is_none());
    }

    #[test]
    fn open_span_has_no_duration() {
        let mut j = Journal::new();
        j.begin("still-running", 5);
        assert_eq!(j.spans()[0].duration_ns(), None);
        let table = j.to_table();
        assert!(table.contains("still-running (open)"));
    }

    #[test]
    fn extend_merges_journals() {
        let mut a = Journal::new();
        a.instant("x", 1);
        let mut b = Journal::new();
        b.span("y", 2, 3);
        a.extend(&b);
        assert_eq!(a.instants().len(), 1);
        assert_eq!(a.spans().len(), 1);
        assert!(!a.is_empty());
        assert!(Journal::new().is_empty());
    }

    #[test]
    fn table_is_chronological() {
        let mut j = Journal::new();
        j.span("later", 3_000_000, 4_000_000);
        j.instant("earlier", 1_000_000);
        let table = j.to_table();
        let e = table.find("earlier").unwrap();
        let l = table.find("later").unwrap();
        assert!(e < l);
    }
}
