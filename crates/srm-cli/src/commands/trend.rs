//! `srm trend` — Laplace trend test and dataset summary.

use crate::args::ArgError;
use crate::commands::load_data;
use crate::obs::Observability;
use srm_data::analysis::{laplace_trend, running_laplace_trend, summarize, TrendVerdict};
use srm_obs::{RunManifest, Span};
use srm_report::ascii::{bar_chart, line_chart};

pub(super) const FLAGS: &[&str] = &["data", "dataset"];
pub(super) const SWITCHES: &[&str] = &["chart"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`ArgError`] on bad flags or unreadable data.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let args = super::parse_instrumented(raw)?;
    let data = load_data(&args)?;
    let obs = Observability::from_args(&args)?;
    obs.emit_run_start("trend", "-", "-", 0, &data);
    let span = Span::enter(obs.recorder(), "trend");
    let s = summarize(&data);

    let mut out = String::new();
    out.push_str(&format!(
        "days {} | bugs {} | mean/day {:.3} | dispersion {:.3} | zero days {:.0}%\n",
        s.days,
        s.total,
        s.mean_per_day,
        s.dispersion,
        s.zero_fraction * 100.0
    ));
    match laplace_trend(&data) {
        Some(t) => {
            let verdict = match t.verdict() {
                TrendVerdict::Growth => "reliability growth (fit a decaying-hazard model)",
                TrendVerdict::Stable => "no significant trend (model0 may suffice)",
                TrendVerdict::Decay => "reliability decay (use a time-aware model: model1/model2)",
            };
            out.push_str(&format!(
                "Laplace trend: u = {:.3}, p = {:.4} — {verdict}\n",
                t.statistic, t.p_value
            ));
        }
        None => out.push_str("Laplace trend: not enough data\n"),
    }

    if args.has_switch("chart") {
        out.push_str("\ndaily counts:\n");
        out.push_str(&bar_chart(data.counts(), 6));
        let running = running_laplace_trend(&data);
        if running.len() >= 2 {
            out.push_str("\nrunning Laplace statistic:\n");
            out.push_str(&line_chart(&running, 8));
        }
    }
    span.end();
    obs.finish_manifest(
        RunManifest {
            command: "trend".into(),
            model: "-".into(),
            prior: "-".into(),
            dataset_hash: srm_obs::dataset_hash(data.counts()),
            ..RunManifest::default()
        },
        0,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn trend_reports_verdict_and_charts() {
        let path = std::env::temp_dir().join("srm_cli_trend_test.csv");
        let mut f = std::fs::File::create(&path).unwrap();
        for (day, count) in srm_data::datasets::decaying_growth_60().iter() {
            writeln!(f, "{day},{count}").unwrap();
        }
        let raw: Vec<String> = ["trend", "--data", path.to_str().unwrap(), "--chart"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let out = run(&raw).unwrap();
        assert!(out.contains("Laplace trend"));
        assert!(out.contains("growth"));
        assert!(out.contains('#'));
    }
}
