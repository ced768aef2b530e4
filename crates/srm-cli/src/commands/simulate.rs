//! `srm simulate` — generate synthetic grouped bug-count data.

use crate::args::{ArgError, Args};
use crate::commands::parse_model;
use srm_core::limits::MAX_HORIZON;
use srm_data::DetectionSimulator;
use srm_model::DetectionModel;

pub(super) const FLAGS: &[&str] = &["bugs", "days", "p", "model", "params", "seed"];

/// Runs the subcommand. The schedule is either constant (`--p`) or a
/// detection model with comma-separated `--params`.
///
/// # Errors
///
/// Returns [`ArgError`] on bad flags.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(raw, FLAGS, &[])?;
    let bugs: u64 = args.get_parsed("bugs", 200u64)?;
    let days: usize = args.get_parsed("days", 60usize)?;
    let seed: u64 = args.get_parsed("seed", 1u64)?;
    if days == 0 {
        return Err(ArgError("`--days` must be positive".into()));
    }
    if days > MAX_HORIZON {
        return Err(ArgError(format!(
            "`--days` must be at most {MAX_HORIZON}, got {days}"
        )));
    }

    let schedule: Vec<f64> = if let Some(p) = args.get("p") {
        let p: f64 = p
            .parse()
            .map_err(|_| ArgError(format!("invalid probability `{p}`")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(ArgError("`--p` must be in [0, 1]".into()));
        }
        vec![p; days]
    } else {
        let model: DetectionModel = parse_model(&args)?;
        let params_raw = args.require("params")?;
        let zeta: Vec<f64> = params_raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("invalid parameter `{s}`")))
            })
            .collect::<Result<_, _>>()?;
        model
            .probs(&zeta, days)
            .map_err(|e| ArgError(format!("invalid parameters: {e}")))?
    };

    let project = DetectionSimulator::new(bugs, schedule).run(seed);
    let mut out = Vec::new();
    srm_data::csv::write_counts(&project.data, &mut out)
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    // The writer above only emits ASCII digits, commas, and newlines.
    let mut text = String::from_utf8(out).unwrap_or_else(|_| unreachable!());
    text.push_str(&format!(
        "# true initial bugs: {bugs}, residual after day {days}: {}\n",
        project.true_residual
    ));
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn constant_schedule_emits_csv() {
        let out = run(&raw(&[
            "simulate", "--bugs", "100", "--days", "10", "--p", "0.1", "--seed", "5",
        ]))
        .unwrap();
        assert!(out.starts_with("day,count\n"));
        assert_eq!(
            out.lines().filter(|l| !l.starts_with(['d', '#'])).count(),
            10
        );
        assert!(out.contains("# true initial bugs: 100"));
    }

    #[test]
    fn model_schedule_accepted() {
        let out = run(&raw(&[
            "simulate", "--bugs", "50", "--days", "8", "--model", "model1", "--params", "0.9,0.1",
        ]))
        .unwrap();
        assert!(out.contains("day,count"));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(run(&raw(&["simulate", "--days", "0"])).is_err());
        assert!(run(&raw(&["simulate", "--days", "100001", "--p", "0.1"])).is_err());
        assert!(run(&raw(&["simulate", "--p", "1.5"])).is_err());
        assert!(run(&raw(&["simulate", "--model", "model1"])).is_err()); // params missing
        assert!(run(&raw(&["simulate", "--model", "model1", "--params", "x"])).is_err());
    }

    #[test]
    fn output_round_trips_through_reader() {
        let out = run(&raw(&[
            "simulate", "--bugs", "80", "--days", "12", "--p", "0.07",
        ]))
        .unwrap();
        let data = srm_data::csv::read_counts(out.as_bytes()).unwrap();
        assert_eq!(data.len(), 12);
    }
}
