//! Offline chain-consistency audit over exported run artifacts.
//!
//! `chain_audit <dir-or-file>` replays the consistency story of a finished
//! run from its JSON-lines artifacts alone: `"trace"` records (the in-band
//! evidence stamps clients and switches left on sampled queries) plus the
//! control-plane journal (`"spans"` records), fed through
//! [`netchain_telemetry::audit`]. A `FLIGHT_*.jsonl` dump is read exactly
//! like a `BENCH_*.jsonl` artifact: one schema, one reader. Every matching
//! file is audited **independently** — trace ids and key fingerprints are
//! only unique within one run, so merging files would manufacture
//! collisions. Within a file, records are further partitioned by their
//! optional `"run"` label (`fig10` emits one run per group count,
//! `net_scale` one per I/O mode — each with its own timebase and version
//! history) and each labelled run is audited against its own journal.
//!
//! Exit codes: `0` every audited file is clean, `1` at least one violation
//! (a structured report is also written as `FLIGHT_chain_audit.jsonl`), `2`
//! usage error or no traces found anywhere.

use netchain_telemetry::{
    audit, journal_from_json, trace_from_json, ArtifactWriter, AuditConfig, AuditReport, Journal,
    Json, PacketTrace, Violation,
};
use std::path::{Path, PathBuf};

/// What one artifact file contributed to the audit.
#[derive(Debug)]
pub struct FileAudit {
    /// The file that was audited.
    pub path: PathBuf,
    /// Decoded traces (evidence-bearing and bare alike).
    pub traces: usize,
    /// `"trace"` records rejected for a schema newer than this decoder —
    /// counted, never panicked over.
    pub rejected: usize,
    /// Lines that were not valid JSON objects.
    pub malformed: usize,
    /// The audit verdict of each labelled run over its own traces and
    /// journal, by label, with the operations the run completed (its
    /// `"sampling"` record; 0 without one). File totals derive from these.
    pub runs: Vec<(String, AuditReport, u64)>,
}

impl FileAudit {
    /// One counter of the per-run verdicts, summed over the file.
    fn total(&self, counter: impl Fn(&AuditReport) -> usize) -> usize {
        self.runs.iter().map(|(_, run, _)| counter(run)).sum()
    }

    /// Every run's violations, in label order.
    fn violations(&self) -> Vec<&Violation> {
        let runs = self.runs.iter();
        runs.flat_map(|(_, run, _)| &run.violations).collect()
    }
}

/// How much of a run the auditor judged: checked / suppressed / truncated as
/// shares of the acked operations it reconstructed, so "clean" says how much
/// it judged; and of the `ops` the run completed (if it says), the share
/// sampling left out.
fn coverage_line(report: &AuditReport, ops: u64) -> String {
    let acked = report.writes + report.reads;
    let share = |n: usize| 100.0 * n as f64 / acked.max(1) as f64;
    let mut line = format!(
        "checked {:.1}% suppressed {:.1}% truncated {:.1}% of {acked} acked ops",
        share(report.checked),
        share(report.suppressed),
        share(report.truncated),
    );
    if ops > 0 {
        let sampled_out = 100.0 * (1.0 - report.traces as f64 / ops as f64);
        line += &format!("; sampled out {sampled_out:.2}% of {ops} ops");
    }
    line
}

/// One run's worth of records inside an artifact file, keyed by the
/// optional `"run"` label (unlabelled records share the `""` run).
#[derive(Default)]
struct RunRecords {
    traces: Vec<PacketTrace>,
    journal: Journal,
    ops: u64,
}

/// Parses one JSONL artifact and audits each labelled run inside it against
/// that run's own journal.
pub fn audit_file(path: &Path, config: &AuditConfig) -> Result<FileAudit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: std::collections::BTreeMap<String, RunRecords> =
        std::collections::BTreeMap::new();
    let mut rejected = 0usize;
    let mut malformed = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(doc) = Json::parse(line) else {
            malformed += 1;
            continue;
        };
        let record = doc.get("record").and_then(Json::as_str).unwrap_or("");
        let label = doc.get("run").and_then(Json::as_str).unwrap_or("");
        if record == "trace" {
            match trace_from_json(&doc) {
                Ok(t) => runs.entry(label.to_string()).or_default().traces.push(t),
                Err(_) => rejected += 1,
            }
        } else if record == "sampling" {
            runs.entry(label.to_string()).or_default().ops =
                doc.get("ops").and_then(Json::as_u64).unwrap_or(0);
        } else if record == "spans" {
            if let Some(j) = doc.get("journal") {
                let journal = &mut runs.entry(label.to_string()).or_default().journal;
                journal.extend(&journal_from_json(j));
            }
        }
    }
    let traces = runs.values().map(|run| run.traces.len()).sum();
    let runs = runs
        .into_iter()
        .map(|(label, run)| (label, audit(&run.traces, &run.journal, config), run.ops))
        .collect();
    Ok(FileAudit {
        path: path.to_path_buf(),
        traces,
        rejected,
        malformed,
        runs,
    })
}

/// True for file names the auditor considers run artifacts.
fn is_artifact(name: &str) -> bool {
    (name.starts_with("BENCH_") || name.starts_with("FLIGHT_")) && name.ends_with(".jsonl")
}

/// Collects the artifact files under `target` (a directory scanned one level
/// deep, or a single file taken verbatim), sorted for stable output.
fn collect_files(target: &Path) -> Vec<PathBuf> {
    if target.is_file() {
        return vec![target.to_path_buf()];
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(target)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(is_artifact)
        })
        .collect();
    files.sort();
    files
}

/// The `chain_audit` command-line entry point. Returns the process exit
/// code: `0` clean, `1` violations found, `2` usage error / nothing to audit.
pub fn run_cli(args: &[String]) -> i32 {
    let target = match args.iter().find(|a| !a.starts_with("--")) {
        Some(t) => PathBuf::from(t),
        None => {
            eprintln!("usage: chain_audit <artifact-dir-or-file>");
            eprintln!("  audits BENCH_*.jsonl / FLIGHT_*.jsonl trace records for");
            eprintln!("  chain-consistency violations; exits 1 on any violation");
            return 2;
        }
    };
    let files = collect_files(&target);
    if files.is_empty() {
        eprintln!(
            "chain_audit: no BENCH_*.jsonl or FLIGHT_*.jsonl under {}",
            target.display()
        );
        return 2;
    }
    let config = AuditConfig::default();
    let mut audited_traces = 0usize;
    let mut all_violations = 0usize;
    let mut dump = ArtifactWriter::flight("chain_audit");
    for file in &files {
        let audit = match audit_file(file, &config) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("chain_audit: {e}");
                return 2;
            }
        };
        let name = audit
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?");
        let violations = audit.violations();
        println!(
            "{name}: {} traces ({} writes, {} reads), {} checked, {} suppressed, {} truncated, {} violations{}",
            audit.traces,
            audit.total(|r| r.writes),
            audit.total(|r| r.reads),
            audit.total(|r| r.checked),
            audit.total(|r| r.suppressed),
            audit.total(|r| r.truncated),
            violations.len(),
            if audit.rejected > 0 {
                format!(" [{} future-schema records skipped]", audit.rejected)
            } else {
                String::new()
            },
        );
        for (label, run, ops) in &audit.runs {
            println!("  run {label:?}: {}", coverage_line(run, *ops));
        }
        for violation in &violations {
            println!("  VIOLATION {}", violation.describe());
            dump.record(
                "violation",
                vec![
                    ("file", Json::str(name)),
                    ("violation", violation.to_json()),
                ],
            );
        }
        audited_traces += audit.traces;
        all_violations += violations.len();
    }
    if audited_traces == 0 {
        eprintln!(
            "chain_audit: {} file(s) scanned but none contained trace records",
            files.len()
        );
        return 2;
    }
    if all_violations > 0 {
        if let Some(path) = dump.write() {
            eprintln!(
                "chain_audit: {all_violations} violation(s) — structured report at {}",
                path.display()
            );
        } else {
            eprintln!("chain_audit: {all_violations} violation(s)");
        }
        return 1;
    }
    println!(
        "chain_audit: clean — {audited_traces} trace(s) over {} file(s)",
        files.len()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_telemetry::{
        trace_record_fields, Evidence, EvidenceOp, HopRole, HopStamp, ViolationKind, TRACE_SCHEMA,
    };

    fn ev(op: EvidenceOp, role: HopRole, ok: bool, fp: u32, seq: u64) -> Evidence {
        Evidence {
            op,
            role,
            ok,
            key_fp: fp,
            session: 0,
            seq,
        }
    }

    fn write_trace(id: u64, fp: u32, t: u64, pre: u64, next: u64) -> PacketTrace {
        PacketTrace {
            id,
            hops: vec![
                HopStamp {
                    hop_ip: 1,
                    at_ns: t,
                    evidence: Some(ev(EvidenceOp::Write, HopRole::ClientIssue, true, fp, 0)),
                },
                HopStamp {
                    hop_ip: 10,
                    at_ns: t + 10,
                    evidence: Some(ev(EvidenceOp::Write, HopRole::Head, pre > 0, fp, pre)),
                },
                HopStamp {
                    hop_ip: 11,
                    at_ns: t + 20,
                    evidence: Some(ev(EvidenceOp::Write, HopRole::Tail, pre > 0, fp, pre)),
                },
                HopStamp {
                    hop_ip: 1,
                    at_ns: t + 30,
                    evidence: Some(ev(EvidenceOp::Write, HopRole::ClientAck, true, fp, next)),
                },
            ],
        }
    }

    fn read_trace(id: u64, fp: u32, t: u64, seen: u64) -> PacketTrace {
        PacketTrace {
            id,
            hops: vec![
                HopStamp {
                    hop_ip: 1,
                    at_ns: t,
                    evidence: Some(ev(EvidenceOp::Read, HopRole::ClientIssue, true, fp, 0)),
                },
                HopStamp {
                    hop_ip: 11,
                    at_ns: t + 5,
                    evidence: Some(ev(EvidenceOp::Read, HopRole::Tail, true, fp, seen)),
                },
                HopStamp {
                    hop_ip: 1,
                    at_ns: t + 10,
                    evidence: Some(ev(EvidenceOp::Read, HopRole::ClientAck, true, fp, seen)),
                },
            ],
        }
    }

    fn record_line(kind: &str, fields: Vec<(&str, Json)>) -> String {
        let mut all = vec![("record", Json::str(kind))];
        all.extend(fields);
        Json::obj(all).render()
    }

    /// `NETCHAIN_ARTIFACT_DIR` is process-wide and tests run on parallel
    /// threads: every test that sets it holds this lock meanwhile.
    static ARTIFACT_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("netchain-chain-audit-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_artifact_audits_clean_and_dirty_artifact_trips() {
        let _env = ARTIFACT_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("clean");
        let mut lines = vec![record_line(
            "trace",
            trace_record_fields(&write_trace(1, 7, 1_000, 1, 2)),
        )];
        lines.push(record_line(
            "trace",
            trace_record_fields(&read_trace(2, 7, 3_000, 2)),
        ));
        let clean = dir.join("BENCH_clean.jsonl");
        std::fs::write(&clean, lines.join("\n") + "\n").unwrap();
        let audit = audit_file(&clean, &AuditConfig::default()).unwrap();
        assert_eq!(audit.traces, 2);
        assert_eq!(audit.violations(), Vec::<&Violation>::new());
        assert_eq!(run_cli(&[dir.to_string_lossy().into_owned()]), 0);

        // A read that returns the pre-write version after the ack: stale.
        lines.push(record_line(
            "trace",
            trace_record_fields(&read_trace(3, 7, 5_000, 1)),
        ));
        std::fs::write(&clean, lines.join("\n") + "\n").unwrap();
        let audit = audit_file(&clean, &AuditConfig::default()).unwrap();
        // The seeded fault trips the freshness check (and, because the same
        // tail register had already served version 2, the per-replica
        // monotonicity check too — both are real).
        assert!(audit
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::StaleRead));
        // Point the violation dump at the scratch dir, not the repo.
        std::env::set_var("NETCHAIN_ARTIFACT_DIR", &dir);
        let code = run_cli(&[dir.to_string_lossy().into_owned()]);
        std::env::remove_var("NETCHAIN_ARTIFACT_DIR");
        assert_eq!(code, 1);
        let report = std::fs::read_to_string(dir.join("FLIGHT_chain_audit.jsonl")).unwrap();
        assert!(report.lines().count() > 0);
        assert!(report
            .lines()
            .all(|l| l.starts_with(r#"{"record":"violation""#)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_spans_suppress_and_future_schemas_are_counted() {
        let dir = tmp_dir("journal");
        // Same stale read as above, but a repair span covering it: suppressed.
        let mut journal = Journal::new();
        journal.span("repair", 2_000, 6_000);
        let lines = [
            record_line(
                "trace",
                trace_record_fields(&write_trace(1, 7, 1_000, 1, 2)),
            ),
            record_line("trace", trace_record_fields(&read_trace(3, 7, 5_000, 1))),
            record_line("spans", vec![("journal", Json::from(&journal))]),
            // A future schema version: skipped and counted, never fatal.
            Json::obj(vec![
                ("record", Json::str("trace")),
                ("schema", Json::U64(TRACE_SCHEMA + 1)),
                ("id", Json::U64(9)),
                ("hops", Json::Arr(vec![])),
            ])
            .render(),
        ];
        let path = dir.join("BENCH_spans.jsonl");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let audit = audit_file(&path, &AuditConfig::default()).unwrap();
        assert_eq!(audit.violations(), Vec::<&Violation>::new());
        assert!(audit.total(|r| r.suppressed) > 0);
        assert_eq!(audit.rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flight_dump_is_audited_like_any_artifact() {
        let _env = ARTIFACT_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("flight");
        // The stale read of the tests above, with a repair span covering it,
        // written as a flight dump beside the monitor's own records.
        let mut journal = Journal::new();
        journal.span("repair", 2_000, 6_000);
        let mut dump = ArtifactWriter::flight("run");
        dump.record("spans", vec![("journal", Json::from(&journal))]);
        dump.record(
            "trace",
            trace_record_fields(&write_trace(1, 7, 1_000, 1, 2)),
        );
        dump.record("trace", trace_record_fields(&read_trace(3, 7, 5_000, 1)));
        let ops = Json::Arr(vec![Json::U64(40), Json::U64(0)]);
        dump.record("slice", vec![("at_ns", Json::U64(0)), ("ops", ops)]);
        dump.record("anomaly", vec![("detail", Json::str("gray failure"))]);
        std::env::set_var("NETCHAIN_ARTIFACT_DIR", &dir);
        let path = dump.write();
        std::env::remove_var("NETCHAIN_ARTIFACT_DIR");
        let path = path.expect("dump written");
        assert_eq!(path, dir.join("FLIGHT_run.jsonl"));
        let audit = audit_file(&path, &AuditConfig::default()).unwrap();
        assert_eq!((audit.malformed, audit.rejected, audit.traces), (0, 0, 2));
        // The journal's `spans` record was read back: it suppresses the read.
        assert_eq!(audit.violations(), Vec::<&Violation>::new());
        assert!(audit.total(|r| r.suppressed) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_labels_partition_one_file_into_independent_audits() {
        let dir = tmp_dir("runs");
        // Two runs in one artifact, as fig10 emits: each restarts
        // versions from scratch on the same keys and hop IPs. Mixed together
        // the second run's low versions look like regressions/stale reads;
        // partitioned by label both are clean.
        let mut labelled = Vec::new();
        for label in ["a", "b"] {
            for line in [
                trace_record_fields(&write_trace(1, 7, 1_000, 1, 2)),
                trace_record_fields(&read_trace(2, 7, 3_000, 2)),
            ] {
                let mut fields = line;
                fields.push(("run", Json::str(label)));
                labelled.push(record_line("trace", fields));
            }
        }
        // Run "b" also says what its two traces are a sample of.
        let sampling = vec![("run", Json::str("b")), ("ops", Json::U64(800))];
        labelled.push(record_line("sampling", sampling));
        let path = dir.join("BENCH_runs.jsonl");
        std::fs::write(&path, labelled.join("\n") + "\n").unwrap();
        let audit = audit_file(&path, &AuditConfig::default()).unwrap();
        assert_eq!(audit.traces, 4);
        assert_eq!(audit.violations(), Vec::<&Violation>::new());
        // Each run reports its own coverage: one write and one read, both
        // judged, nothing truncated.
        let lines: Vec<(&str, String)> = audit
            .runs
            .iter()
            .map(|(label, run, ops)| (label.as_str(), coverage_line(run, *ops)))
            .collect();
        let judged = "checked 100.0% suppressed 0.0% truncated 0.0% of 2 acked ops";
        let sampled = format!("{judged}; sampled out 99.75% of 800 ops");
        assert_eq!(lines, [("a", judged.to_string()), ("b", sampled)]);

        // The same records without labels collapse into one run and the
        // duplicated trace ids / restarted histories are (rightly) judged
        // as one inconsistent history — the partitioning is load-bearing.
        let unlabelled: Vec<String> = [
            trace_record_fields(&write_trace(1, 7, 1_000, 1, 2)),
            trace_record_fields(&read_trace(2, 7, 3_000, 2)),
            trace_record_fields(&write_trace(1, 7, 11_000, 0, 1)),
            trace_record_fields(&read_trace(2, 7, 13_000, 1)),
        ]
        .into_iter()
        .map(|fields| record_line("trace", fields))
        .collect();
        std::fs::write(&path, unlabelled.join("\n") + "\n").unwrap();
        let audit = audit_file(&path, &AuditConfig::default()).unwrap();
        assert!(!audit.violations().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_targets_exit_with_usage_code() {
        let dir = tmp_dir("empty");
        assert_eq!(run_cli(&[]), 2);
        assert_eq!(run_cli(&[dir.to_string_lossy().into_owned()]), 2);
        // Files with no trace records at all: also "nothing to audit".
        std::fs::write(dir.join("BENCH_x.jsonl"), "{\"record\":\"summary\"}\n").unwrap();
        assert_eq!(run_cli(&[dir.to_string_lossy().into_owned()]), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
