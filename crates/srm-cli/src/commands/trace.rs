//! `srm trace` — offline analysis of JSONL trace files.
//!
//! Five modes over the typed event stream the instrumented commands
//! write with `--trace-out`:
//!
//! * `srm trace summarize --file run.jsonl` — event counts, per-phase
//!   timings, and the convergence trajectory reconstructed from the
//!   streaming `diagnostic-checkpoint` events;
//! * `srm trace diff --a run1.jsonl --b run2.jsonl` — side-by-side
//!   event counts, phase timings, and final convergence state;
//! * `srm trace lint --file run.jsonl [--strict]` — schema validation:
//!   unknown event kinds, missing required fields, missing/invalid
//!   `ms` timestamps, missing/malformed `trace_id` correlation ids
//!   (schema v7), unparseable lines. `--strict` turns any issue into
//!   a non-zero exit;
//! * `srm trace profile --file run.jsonl [--top N]` — the hierarchical
//!   phase-time table from the trace's `profile` event (written by
//!   runs with `--profile --trace-out`);
//! * `srm trace grep --trace-id <hex> [--access-log F] [--trace-dir D]
//!   [--file F]` — stitch every line carrying one correlation id into
//!   a single causal timeline across the access log, per-job traces,
//!   and any extra trace file (DESIGN.md §17).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::args::{ArgError, Args};
use crate::obs::{render_profile_table, PROFILE_TABLE_TOP};
use srm_obs::json::{parse, Value};
use srm_obs::{
    aggregate, required_fields, AggregateDiagnostic, ChainCheckpoint, PhaseSnapshot, TraceId,
    EVENT_KINDS,
};

pub(super) const FLAGS: &[&str] = &[
    "file",
    "a",
    "b",
    "top",
    "trace-id",
    "access-log",
    "trace-dir",
];
pub(super) const SWITCHES: &[&str] = &["strict"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`ArgError`] on a missing/unknown mode, unreadable trace
/// files, or (for `lint --strict`) any schema violation.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let mode = raw.get(1).map(String::as_str).ok_or_else(|| {
        ArgError("usage: srm trace <summarize|diff|lint|profile|grep> [flags]".into())
    })?;
    let args = Args::parse(&raw[1..], FLAGS, SWITCHES)?;
    match mode {
        "summarize" => summarize(args.require("file")?),
        "diff" => diff(args.require("a")?, args.require("b")?),
        "lint" => lint(args.require("file")?, args.has_switch("strict")),
        "profile" => profile(
            args.require("file")?,
            args.get_parsed("top", PROFILE_TABLE_TOP)?,
        ),
        "grep" => grep(
            args.require("trace-id")?,
            args.get("access-log"),
            args.get("trace-dir"),
            args.get("file"),
        ),
        other => Err(ArgError(format!(
            "unknown trace mode `{other}` (summarize|diff|lint|profile|grep)"
        ))),
    }
}

fn read_lines(path: &str) -> Result<Vec<String>, ArgError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read trace `{path}`: {e}")))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect())
}

/// Parses every line of a trace, failing on the first malformed one
/// (lint mode tolerates and counts these instead).
fn read_events(path: &str) -> Result<Vec<Value>, ArgError> {
    read_lines(path)?
        .iter()
        .enumerate()
        .map(|(i, line)| {
            parse(line).map_err(|e| {
                ArgError(format!(
                    "`{path}` line {}: not valid JSON: {e} (run `srm trace lint`)",
                    i + 1
                ))
            })
        })
        .collect()
}

fn kind_of(event: &Value) -> Option<&str> {
    event.get("type").and_then(Value::as_str)
}

fn kind_counts(events: &[Value]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for event in events {
        let kind = kind_of(event).unwrap_or("<untyped>");
        *counts.entry(kind.to_owned()).or_insert(0) += 1;
    }
    counts
}

/// Cumulative wall time per phase, from `phase-end` events.
fn phase_timings(events: &[Value]) -> BTreeMap<String, f64> {
    let mut timings = BTreeMap::new();
    for event in events {
        if kind_of(event) != Some("phase-end") {
            continue;
        }
        if let (Some(phase), Some(ms)) = (
            event.get("phase").and_then(Value::as_str),
            event.get("wall_ms").and_then(Value::as_f64),
        ) {
            *timings.entry(phase.to_owned()).or_insert(0.0) += ms;
        }
    }
    timings
}

/// Checkpoints grouped by sweep index, one entry per chain within a
/// group (a later event for the same chain and sweep wins, matching
/// the live collector's last-write semantics).
fn checkpoints_by_sweep(events: &[Value]) -> BTreeMap<usize, BTreeMap<usize, ChainCheckpoint>> {
    let mut by_sweep: BTreeMap<usize, BTreeMap<usize, ChainCheckpoint>> = BTreeMap::new();
    for event in events {
        if kind_of(event) != Some("diagnostic-checkpoint") {
            continue;
        }
        if let Some(checkpoint) = ChainCheckpoint::from_value(event) {
            by_sweep
                .entry(checkpoint.sweep)
                .or_default()
                .insert(checkpoint.chain, checkpoint);
        }
    }
    by_sweep
}

/// The headline parameter for one-line trajectory output: `residual`
/// when present, otherwise the first parameter of the aggregate.
fn headline(diagnostics: &[AggregateDiagnostic]) -> Option<&AggregateDiagnostic> {
    diagnostics
        .iter()
        .find(|d| d.parameter == "residual")
        .or_else(|| diagnostics.first())
}

fn trajectory_section(events: &[Value]) -> String {
    let by_sweep = checkpoints_by_sweep(events);
    let mut out = String::from("convergence trajectory (streaming diagnostic checkpoints)\n");
    if by_sweep.is_empty() {
        out.push_str("  (no diagnostic-checkpoint events; rerun with --checkpoint-every K)\n");
        return out;
    }
    for (sweep, chains) in &by_sweep {
        let refs: Vec<&ChainCheckpoint> = chains.values().collect();
        let diagnostics = aggregate(&refs);
        let Some(d) = headline(&diagnostics) else {
            continue;
        };
        out.push_str(&format!(
            "  sweep {sweep:>6} ({} chains): {} R-hat {:>7.4}  split {:>7.4}  ESS {:>8.1}  MCSE {:.4}\n",
            refs.len(),
            d.parameter,
            d.rhat,
            d.split_rhat,
            d.ess,
            d.mcse
        ));
    }
    out
}

fn summarize(path: &str) -> Result<String, ArgError> {
    let events = read_events(path)?;
    let mut out = format!("trace summary — {path}\n");
    out.push_str(&format!("  events : {}\n", events.len()));

    out.push_str("\nevent counts\n");
    for (kind, count) in kind_counts(&events) {
        out.push_str(&format!("  {kind:22} {count:>8}\n"));
    }

    let timings = phase_timings(&events);
    if !timings.is_empty() {
        out.push_str("\nphase timings\n");
        for (phase, ms) in &timings {
            out.push_str(&format!("  {phase:22} {ms:>10.1} ms\n"));
        }
    }

    out.push('\n');
    out.push_str(&trajectory_section(&events));
    Ok(out)
}

/// The final (highest-sweep) checkpoint per chain, across the trace.
fn final_checkpoints(events: &[Value]) -> Vec<ChainCheckpoint> {
    let mut latest: BTreeMap<usize, ChainCheckpoint> = BTreeMap::new();
    for chains in checkpoints_by_sweep(events).into_values() {
        for (chain, checkpoint) in chains {
            latest.insert(chain, checkpoint);
        }
    }
    latest.into_values().collect()
}

fn diff(path_a: &str, path_b: &str) -> Result<String, ArgError> {
    let a = read_events(path_a)?;
    let b = read_events(path_b)?;
    let mut out = format!("trace diff — {path_a} vs {path_b}\n");

    let counts_a = kind_counts(&a);
    let counts_b = kind_counts(&b);
    let kinds: std::collections::BTreeSet<&String> =
        counts_a.keys().chain(counts_b.keys()).collect();
    out.push_str("\nevent counts (a / b)\n");
    for kind in kinds {
        let ca = counts_a.get(kind).copied().unwrap_or(0);
        let cb = counts_b.get(kind).copied().unwrap_or(0);
        let marker = if ca == cb { " " } else { "*" };
        out.push_str(&format!("{marker} {kind:22} {ca:>8} / {cb:<8}\n"));
    }

    let timings_a = phase_timings(&a);
    let timings_b = phase_timings(&b);
    if !timings_a.is_empty() || !timings_b.is_empty() {
        out.push_str("\nphase timings (ms, a / b)\n");
        let phases: std::collections::BTreeSet<&String> =
            timings_a.keys().chain(timings_b.keys()).collect();
        for phase in phases {
            let ta = timings_a.get(phase).copied().unwrap_or(0.0);
            let tb = timings_b.get(phase).copied().unwrap_or(0.0);
            out.push_str(&format!("  {phase:22} {ta:>10.1} / {tb:<10.1}\n"));
        }
    }

    out.push_str("\nfinal convergence (a / b)\n");
    for (label, events) in [("a", &a), ("b", &b)] {
        let finals = final_checkpoints(events);
        let refs: Vec<&ChainCheckpoint> = finals.iter().collect();
        let diagnostics = aggregate(&refs);
        match headline(&diagnostics) {
            Some(d) => out.push_str(&format!(
                "  {label}: {} R-hat {:.4}  split {:.4}  ESS {:.1}  MCSE {:.4}\n",
                d.parameter, d.rhat, d.split_rhat, d.ess, d.mcse
            )),
            None => out.push_str(&format!("  {label}: no diagnostic checkpoints\n")),
        }
    }
    Ok(out)
}

/// Renders the phase-time table from a trace's `profile` event. When
/// a trace holds several (e.g. a concatenated log), the last one wins
/// — it is the most complete picture of the run.
fn profile(path: &str, top: usize) -> Result<String, ArgError> {
    let events = read_events(path)?;
    let phases: Vec<PhaseSnapshot> = events
        .iter()
        .rev()
        .find(|e| kind_of(e) == Some("profile"))
        .and_then(|e| e.get("phases").and_then(Value::as_arr))
        .map(|arr| arr.iter().filter_map(PhaseSnapshot::from_value).collect())
        .ok_or_else(|| {
            ArgError(format!(
                "`{path}` has no profile event; rerun the command with --profile --trace-out"
            ))
        })?;
    let mut out = format!("phase-time profile — {path}\n");
    out.push_str(&render_profile_table(&phases, top));
    Ok(out)
}

/// One line of the stitched timeline: the sink's monotonic `ms` stamp,
/// the event kind, and every remaining field as compact `k=v` pairs
/// (the matched `trace_id` itself is elided — it is the section
/// header's job).
fn timeline_line(event: &Value) -> String {
    let ms = event
        .get("ms")
        .and_then(Value::as_f64)
        .map_or_else(|| "       ?".to_owned(), |ms| format!("{ms:>10.3}"));
    let kind = kind_of(event).unwrap_or("<untyped>");
    let mut detail = String::new();
    if let Some(pairs) = event.as_obj() {
        for (key, value) in pairs {
            if matches!(key.as_str(), "type" | "ms" | "trace_id") {
                continue;
            }
            let rendered = match value {
                Value::Str(s) => s.clone(),
                other => other.to_json(),
            };
            if !detail.is_empty() {
                detail.push(' ');
            }
            detail.push_str(&format!("{key}={rendered}"));
            if detail.len() > 120 {
                detail.truncate(120);
                detail.push('…');
                break;
            }
        }
    }
    format!("  {ms}  {kind:<22} {detail}\n")
}

/// Collects the lines of one source whose `trace_id` canonicalises to
/// `target`; lines that fail to parse or carry no id never match.
fn grep_source(path: &str, target: TraceId) -> Result<Vec<String>, ArgError> {
    let mut matches = Vec::new();
    for line in read_lines(path)? {
        let Ok(event) = parse(&line) else { continue };
        let id = event
            .get("trace_id")
            .and_then(Value::as_str)
            .and_then(TraceId::parse);
        if id == Some(target) {
            matches.push(timeline_line(&event));
        }
    }
    Ok(matches)
}

/// `*.jsonl` files under a trace directory, sorted by name so per-job
/// traces appear in a stable order.
fn trace_dir_files(dir: &str) -> Result<Vec<PathBuf>, ArgError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ArgError(format!("cannot read trace dir `{dir}`: {e}")))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().and_then(std::ffi::OsStr::to_str) == Some("jsonl"))
        .collect();
    files.sort();
    Ok(files)
}

fn grep(
    target: &str,
    access_log: Option<&str>,
    trace_dir: Option<&str>,
    file: Option<&str>,
) -> Result<String, ArgError> {
    let id = TraceId::parse(target).ok_or_else(|| {
        ArgError(format!(
            "invalid value `{target}` for `--trace-id` (want 1-32 hex digits)"
        ))
    })?;
    if access_log.is_none() && trace_dir.is_none() && file.is_none() {
        return Err(ArgError(
            "srm trace grep needs at least one source: --access-log, --trace-dir, or --file".into(),
        ));
    }
    // Access log first (the request's point of entry), then per-job
    // traces, then any explicit file; within a source, file order is
    // write order, so each section reads as a causal timeline.
    let mut sources: Vec<String> = Vec::new();
    if let Some(path) = access_log {
        sources.push(path.to_owned());
    }
    if let Some(dir) = trace_dir {
        for path in trace_dir_files(dir)? {
            sources.push(path.to_string_lossy().into_owned());
        }
    }
    if let Some(path) = file {
        sources.push(path.to_owned());
    }
    // Keep first occurrence when one path is named through several
    // flags (e.g. an access log living inside the trace dir).
    let mut seen = std::collections::BTreeSet::new();
    sources.retain(|p| seen.insert(p.clone()));

    let mut out = format!("trace grep — id {}\n", id.to_hex());
    let mut total = 0usize;
    let mut sources_with_matches = 0usize;
    for path in &sources {
        let matches = grep_source(path, id)?;
        if matches.is_empty() {
            continue;
        }
        total += matches.len();
        sources_with_matches += 1;
        out.push_str(&format!("\n{path} ({} line(s))\n", matches.len()));
        for line in matches {
            out.push_str(&line);
        }
    }
    out.push_str(&format!(
        "\ntotal: {total} line(s) across {sources_with_matches} of {} source(s)\n",
        sources.len()
    ));
    Ok(out)
}

fn lint(path: &str, strict: bool) -> Result<String, ArgError> {
    let lines = read_lines(path)?;
    let mut parse_errors = 0usize;
    let mut unknown_kinds = 0usize;
    let mut missing_fields = 0usize;
    let mut bad_ms = 0usize;
    let mut missing_trace_ids = 0usize;
    let mut examples: Vec<String> = Vec::new();
    let mut note = |counter: &mut usize, example: String| {
        *counter += 1;
        if examples.len() < 5 {
            examples.push(example);
        }
    };

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let Ok(event) = parse(line) else {
            note(&mut parse_errors, format!("line {lineno}: not valid JSON"));
            continue;
        };
        // Every JSONL record carries the sink's monotonic `ms` stamp.
        if event.get("ms").and_then(Value::as_f64).is_none() {
            note(
                &mut bad_ms,
                format!("line {lineno}: missing or non-numeric `ms`"),
            );
        }
        // Schema v7: every record carries its run's correlation id so
        // `srm trace grep --trace-id` can stitch it into a timeline.
        let id_ok = event
            .get("trace_id")
            .and_then(Value::as_str)
            .is_some_and(|id| TraceId::parse(id).is_some());
        if !id_ok {
            note(
                &mut missing_trace_ids,
                format!("line {lineno}: missing or malformed `trace_id`"),
            );
        }
        let Some(kind) = kind_of(&event).map(str::to_owned) else {
            note(
                &mut unknown_kinds,
                format!("line {lineno}: no `type` field"),
            );
            continue;
        };
        if !EVENT_KINDS.contains(&kind.as_str()) {
            note(
                &mut unknown_kinds,
                format!("line {lineno}: unknown kind `{kind}`"),
            );
            continue;
        }
        if let Some(required) = required_fields(&kind) {
            for field in required {
                if event.get(field).is_none() {
                    note(
                        &mut missing_fields,
                        format!("line {lineno}: `{kind}` missing field `{field}`"),
                    );
                }
            }
        }
    }

    let issues = parse_errors + unknown_kinds + missing_fields + bad_ms + missing_trace_ids;
    let mut out = format!("trace lint — {path}\n");
    out.push_str(&format!("  lines checked  : {}\n", lines.len()));
    out.push_str(&format!("  parse errors   : {parse_errors}\n"));
    out.push_str(&format!("  unknown kinds  : {unknown_kinds}\n"));
    out.push_str(&format!("  missing fields : {missing_fields}\n"));
    out.push_str(&format!("  bad ms stamps  : {bad_ms}\n"));
    out.push_str(&format!("  bad trace ids  : {missing_trace_ids}\n"));
    if !examples.is_empty() {
        out.push_str("  first issues:\n");
        for example in &examples {
            out.push_str(&format!("    {example}\n"));
        }
    }
    out.push_str(if issues == 0 {
        "  result: clean\n"
    } else {
        "  result: issues found\n"
    });
    if strict && issues > 0 {
        return Err(ArgError(format!(
            "trace lint failed: {issues} issue(s) in `{path}`\n{out}"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_obs::{Event, JsonlSink, Recorder as _};

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Writes a small but realistic trace through the production sink
    /// by running an actual checkpointed fit (the full pipeline, so
    /// the trace carries phase events and streaming checkpoints).
    fn write_fit_trace(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let data = srm_data::datasets::musa_cc96().truncated(30).unwrap();
        let config = srm_core::FitConfig {
            mcmc: srm_mcmc::runner::McmcConfig {
                chains: 2,
                burn_in: 60,
                samples: 140,
                thin: 1,
                seed: 31,
            },
            ..srm_core::FitConfig::default()
        };
        let options = srm_mcmc::runner::RunOptions {
            checkpoint_every: 50,
            ..srm_mcmc::runner::RunOptions::none()
        };
        let sink = JsonlSink::create(path.to_str().unwrap()).unwrap();
        srm_core::Fit::try_run_traced(
            srm_mcmc::gibbs::PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            srm_model::DetectionModel::Constant,
            &data,
            &config,
            &options,
            &sink,
        )
        .unwrap();
        sink.flush().unwrap();
        path
    }

    #[test]
    fn summarize_renders_counts_phases_and_trajectory() {
        let path = write_fit_trace("srm_trace_summarize.jsonl");
        let out = run(&raw(&[
            "trace",
            "summarize",
            "--file",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("event counts"), "{out}");
        assert!(out.contains("diagnostic-checkpoint"), "{out}");
        assert!(out.contains("phase timings"), "{out}");
        assert!(out.contains("sampling"), "{out}");
        assert!(out.contains("convergence trajectory"), "{out}");
        assert!(out.contains("residual R-hat"), "{out}");
        // 200 sweeps with K = 50: the burn-in (60 sweeps) keeps no
        // draws, so checkpoints land at sweeps 99, 149, and 199 (the
        // final sweep coincides with the cadence).
        for sweep in ["99", "149", "199"] {
            assert!(out.contains(&format!("sweep {sweep:>6}")), "{sweep}: {out}");
        }
        assert!(!out.contains("sweep     49"), "{out}");
    }

    #[test]
    fn lint_accepts_a_production_trace_strictly() {
        let path = write_fit_trace("srm_trace_lint_ok.jsonl");
        let out = run(&raw(&[
            "trace",
            "lint",
            "--file",
            path.to_str().unwrap(),
            "--strict",
        ]))
        .unwrap();
        assert!(out.contains("result: clean"), "{out}");
        assert!(out.contains("parse errors   : 0"), "{out}");
    }

    #[test]
    fn lint_counts_schema_violations_and_strict_fails() {
        let path = std::env::temp_dir().join("srm_trace_lint_bad.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"type\":\"phase-start\",\"trace_id\":\"beef\",\"ms\":1.0,\"phase\":\"sampling\"}\n",
                "{\"type\":\"made-up-kind\",\"ms\":2.0}\n",
                "{\"type\":\"phase-end\",\"ms\":3.0}\n",
                "{\"type\":\"retry\",\"chain\":0,\"sweep\":1,\"retries\":1}\n",
                "not json at all\n",
            ),
        )
        .unwrap();
        let out = lint(path.to_str().unwrap(), false).unwrap();
        assert!(out.contains("parse errors   : 1"), "{out}");
        assert!(out.contains("unknown kinds  : 1"), "{out}");
        // phase-end is missing both `phase` and `wall_ms`.
        assert!(out.contains("missing fields : 2"), "{out}");
        // The retry line has no `ms` stamp.
        assert!(out.contains("bad ms stamps  : 1"), "{out}");
        // Only the phase-start line carries a v7 correlation id; the
        // other three parseable lines don't.
        assert!(out.contains("bad trace ids  : 3"), "{out}");
        assert!(out.contains("result: issues found"), "{out}");

        let err = lint(path.to_str().unwrap(), true).unwrap_err();
        assert!(err.to_string().contains("trace lint failed"), "{err}");
    }

    #[test]
    fn diff_compares_two_traces() {
        let a = write_fit_trace("srm_trace_diff_a.jsonl");
        // Same run plus one extra line → one starred count line. The
        // line's kind is one an older schema wrote (`chain-done`, gone
        // since schema 9): diff and summarize still read such traces.
        let b_path = std::env::temp_dir().join("srm_trace_diff_b.jsonl");
        std::fs::copy(&a, &b_path).unwrap();
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&b_path)
                .unwrap();
            writeln!(
                f,
                "{{\"type\":\"chain-done\",\"trace_id\":\"beef\",\"ms\":1.0,\"chain\":0}}"
            )
            .unwrap();
        }
        let b = b_path.to_str().unwrap();
        let out = run(&raw(&[
            "trace",
            "diff",
            "--a",
            a.to_str().unwrap(),
            "--b",
            b,
        ]))
        .unwrap();
        assert!(out.contains("event counts (a / b)"), "{out}");
        assert!(out.contains("* chain-done"), "{out}");
        assert!(out.contains("final convergence (a / b)"), "{out}");
        assert!(out.contains("a: residual R-hat"), "{out}");
        assert!(out.contains("b: residual R-hat"), "{out}");
        let out = run(&raw(&["trace", "summarize", "--file", b])).unwrap();
        assert!(out.contains("chain-done"), "{out}");
        assert!(out.contains("residual R-hat"), "{out}");
    }

    fn snapshot(path: &str, count: u64, total_ns: u64, self_ns: u64) -> PhaseSnapshot {
        PhaseSnapshot {
            path: path.into(),
            count,
            total_ns,
            self_ns,
            min_ns: total_ns / count.max(1),
            max_ns: total_ns / count.max(1),
            buckets: vec![0; srm_obs::HIST_BUCKETS],
        }
    }

    #[test]
    fn profile_mode_renders_phase_table() {
        let path = std::env::temp_dir().join("srm_trace_profile.jsonl");
        let event = Event::Profile {
            phases: vec![
                snapshot("chain", 2, 5_000_000, 1_000_000),
                snapshot("chain/sweep", 400, 4_000_000, 4_000_000),
            ],
        };
        std::fs::write(&path, format!("{}\n", event.to_value().to_json())).unwrap();
        let out = run(&raw(&[
            "trace",
            "profile",
            "--file",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("chain/sweep"), "{out}");
        assert!(out.contains("self%"), "{out}");
        // --top 1 keeps the heaviest phase and reports the cut.
        let out = run(&raw(&[
            "trace",
            "profile",
            "--file",
            path.to_str().unwrap(),
            "--top",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("chain/sweep"), "{out}");
        assert!(out.contains("1 more phase"), "{out}");
    }

    #[test]
    fn profile_mode_requires_a_profile_event() {
        let path = write_fit_trace("srm_trace_profile_none.jsonl");
        let err = run(&raw(&[
            "trace",
            "profile",
            "--file",
            path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no profile event"), "{err}");
    }

    #[test]
    fn grep_stitches_sources_into_one_timeline() {
        let dir = std::env::temp_dir().join(format!("srm_trace_grep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pinned = "00000000000000000000000000000abc";

        // Access log outside the trace dir: one matching line (with a
        // short-form id that canonicalises to `pinned`), one not.
        let access = std::env::temp_dir().join(format!(
            "srm_trace_grep_access_{}.jsonl",
            std::process::id()
        ));
        std::fs::write(
            &access,
            concat!(
                "{\"type\":\"access\",\"trace_id\":\"abc\",\"ms\":1.5,\"method\":\"POST\",\
                 \"path\":\"/v1/jobs\",\"status\":202}\n",
                "{\"type\":\"access\",\"trace_id\":\"def\",\"ms\":2.5,\"method\":\"GET\",\
                 \"path\":\"/healthz\",\"status\":200}\n",
            ),
        )
        .unwrap();

        // Two per-job traces in the dir; only job-1 carries the id.
        let decoy = JsonlSink::create(dir.join("job-0.trace.jsonl").to_str().unwrap())
            .unwrap()
            .with_trace_id("dead");
        decoy.record(&Event::PhaseEnd {
            phase: "sampling",
            wall_ms: 1.0,
        });
        decoy.flush().unwrap();
        let sink = JsonlSink::create(dir.join("job-1.trace.jsonl").to_str().unwrap())
            .unwrap()
            .with_trace_id(pinned);
        sink.record(&Event::PhaseEnd {
            phase: "sampling",
            wall_ms: 3.0,
        });
        sink.record(&Event::PhaseEnd {
            phase: "report",
            wall_ms: 0.5,
        });
        sink.flush().unwrap();

        let out = run(&raw(&[
            "trace",
            "grep",
            "--trace-id",
            "abc",
            "--access-log",
            access.to_str().unwrap(),
            "--trace-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains(&format!("trace grep — id {pinned}")), "{out}");
        assert!(
            out.contains("access") && out.contains("(1 line(s))"),
            "{out}"
        );
        assert!(out.contains("method=POST"), "{out}");
        assert!(out.contains("path=/v1/jobs"), "{out}");
        assert!(!out.contains("method=GET"), "{out}");
        assert!(out.contains("job-1.trace.jsonl (2 line(s))"), "{out}");
        assert!(!out.contains("job-0.trace.jsonl"), "{out}");
        assert!(out.contains("phase=report"), "{out}");
        assert!(
            out.contains("total: 3 line(s) across 2 of 3 source(s)"),
            "{out}"
        );
        // The access-log section comes before the per-job trace.
        let access_at = out.find("method=POST").unwrap();
        let job_at = out.find("phase=report").unwrap();
        assert!(access_at < job_at, "{out}");

        let _ = std::fs::remove_file(&access);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grep_requires_a_source_and_a_well_formed_id() {
        let err = run(&raw(&["trace", "grep", "--trace-id", "abc"])).unwrap_err();
        assert!(err.to_string().contains("at least one source"), "{err}");
        let err = run(&raw(&[
            "trace",
            "grep",
            "--trace-id",
            "zz-not-hex",
            "--file",
            "whatever.jsonl",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--trace-id"), "{err}");
        assert!(run(&raw(&["trace", "grep", "--file", "x.jsonl"])).is_err());
    }

    #[test]
    fn bad_modes_and_missing_flags_error_cleanly() {
        assert!(run(&raw(&["trace"])).is_err());
        assert!(run(&raw(&["trace", "dance"])).is_err());
        assert!(run(&raw(&["trace", "summarize"])).is_err());
        assert!(run(&raw(&["trace", "diff", "--a", "x"])).is_err());
        let err = run(&raw(&["trace", "summarize", "--file", "/no/such.jsonl"])).unwrap_err();
        assert!(err.to_string().contains("cannot read trace"));
    }
}
