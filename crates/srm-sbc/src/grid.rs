//! Calibration-grid specification: which (prior, curve) cells to run.
//!
//! A grid is the cross product of prior families and detection
//! curves, plus the generative configuration every cell shares (the
//! testing horizon, the hyper-prior limits, the rank-histogram bin
//! count and the gate level). Cells carry a *canonical* identifier —
//! `prior_index × 5 + model_index` — that depends only on the cell's
//! identity, never on which subset of the grid is being run or in
//! what order, so per-cell RNG streams derived from it reproduce
//! bit-identically across subsets and permutations.

use srm_core::limits::MAX_HORIZON;
use srm_mcmc::gibbs::PriorSpec;
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::json::Value;

/// One (prior, detection-curve) calibration cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The prior family (with its hyper-prior limit) of this cell.
    pub prior: PriorSpec,
    /// The detection curve of this cell.
    pub model: DetectionModel,
}

impl Cell {
    /// Canonical cell identifier: `prior_index × 5 + model_index`,
    /// in `0..10`. Independent of grid subsetting and ordering.
    #[must_use]
    pub fn id(&self) -> u64 {
        let prior_idx = match self.prior {
            PriorSpec::Poisson { .. } => 0,
            PriorSpec::NegBinomial { .. } => 1,
        };
        prior_idx * DetectionModel::ALL.len() as u64 + self.model.id() as u64
    }

    /// Human-readable `prior/model` label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}", self.prior.label(), self.model.name())
    }
}

/// The full calibration-grid specification.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Testing horizon of every simulated project, in days.
    pub days: usize,
    /// Prior families to run (`poisson`, `negbinom` or both, any order).
    pub priors: Vec<PriorSpec>,
    /// Detection curves to run (subset of the five, any order).
    pub models: Vec<DetectionModel>,
    /// Upper limit of the uniform hyper-prior on `λ0` (Poisson cells).
    pub lambda_max: f64,
    /// Upper limit of the uniform hyper-prior on `α0` (NB cells).
    pub alpha_max: f64,
    /// Uniform-prior limits on the detection parameters `ζ`.
    pub zeta_bounds: ZetaBounds,
    /// Rank-histogram bin count (chi-square has `bins − 1` dof).
    pub bins: usize,
    /// Per-cell significance level of the uniformity gate.
    pub alpha: f64,
}

impl Default for GridSpec {
    /// The full battery: all 5 curves × both priors, 40-day horizon,
    /// modest hyper-prior limits so generative bug contents stay in
    /// the low hundreds (the sampler runs with the same limits, so
    /// calibration is exact).
    fn default() -> Self {
        Self {
            days: 40,
            priors: vec![
                PriorSpec::Poisson { lambda_max: 150.0 },
                PriorSpec::NegBinomial { alpha_max: 40.0 },
            ],
            models: DetectionModel::ALL.to_vec(),
            lambda_max: 150.0,
            alpha_max: 40.0,
            zeta_bounds: ZetaBounds::default(),
            bins: 10,
            alpha: 0.001,
        }
    }
}

impl GridSpec {
    /// The cells of this grid, priors outer, in the order listed.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.priors.len() * self.models.len());
        for &prior in &self.priors {
            for &model in &self.models {
                cells.push(Cell { prior, model });
            }
        }
        cells
    }

    /// Parses a grid-spec JSON document. Every field is optional and
    /// defaults to the full battery's value:
    ///
    /// ```json
    /// {
    ///   "days": 40,
    ///   "priors": ["poisson", "negbinom"],
    ///   "models": ["model0", "model3"],
    ///   "lambda_max": 150.0, "alpha_max": 40.0,
    ///   "theta_max": 10.0, "gamma_max": 10.0,
    ///   "bins": 10, "alpha": 0.001
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on unknown prior
    /// or model names, duplicates, or out-of-range numerics.
    pub fn from_value(doc: &Value) -> Result<Self, String> {
        let defaults = Self::default();
        let num = |field: &str, fallback: f64| -> Result<f64, String> {
            match doc.get(field) {
                None => Ok(fallback),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| format!("grid field `{field}` must be a number")),
            }
        };
        let days = num("days", defaults.days as f64)? as usize;
        let lambda_max = num("lambda_max", defaults.lambda_max)?;
        let alpha_max = num("alpha_max", defaults.alpha_max)?;
        let theta_max = num("theta_max", defaults.zeta_bounds.theta_max)?;
        let gamma_max = num("gamma_max", defaults.zeta_bounds.gamma_max)?;
        let bins = num("bins", defaults.bins as f64)? as usize;
        let alpha = num("alpha", defaults.alpha)?;

        let names = |field: &str| -> Result<Option<Vec<String>>, String> {
            match doc.get(field) {
                None => Ok(None),
                Some(v) => {
                    let arr = v
                        .as_arr()
                        .ok_or_else(|| format!("grid field `{field}` must be an array"))?;
                    let mut out = Vec::with_capacity(arr.len());
                    for item in arr {
                        out.push(
                            item.as_str()
                                .ok_or_else(|| format!("grid field `{field}` must hold strings"))?
                                .to_owned(),
                        );
                    }
                    Ok(Some(out))
                }
            }
        };

        let priors = match names("priors")? {
            None => vec![
                PriorSpec::Poisson { lambda_max },
                PriorSpec::NegBinomial { alpha_max },
            ],
            Some(labels) => {
                let mut priors = Vec::with_capacity(labels.len());
                for label in &labels {
                    priors.push(match label.as_str() {
                        "poisson" => PriorSpec::Poisson { lambda_max },
                        "negbinom" => PriorSpec::NegBinomial { alpha_max },
                        other => return Err(format!("unknown prior `{other}` in grid spec")),
                    });
                }
                priors
            }
        };
        let models = match names("models")? {
            None => DetectionModel::ALL.to_vec(),
            Some(labels) => {
                let mut models = Vec::with_capacity(labels.len());
                for label in &labels {
                    models.push(
                        DetectionModel::ALL
                            .into_iter()
                            .find(|m| m.name() == label.as_str())
                            .ok_or_else(|| format!("unknown model `{label}` in grid spec"))?,
                    );
                }
                models
            }
        };

        let spec = Self {
            days,
            priors,
            models,
            lambda_max,
            alpha_max,
            zeta_bounds: ZetaBounds {
                theta_max,
                gamma_max,
            },
            bins,
            alpha,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.days == 0 {
            return Err("grid `days` must be at least 1".into());
        }
        if self.days > MAX_HORIZON {
            return Err(format!(
                "grid `days` must be at most {MAX_HORIZON}, got {}",
                self.days
            ));
        }
        if self.bins < 2 {
            return Err("grid `bins` must be at least 2".into());
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err("grid `alpha` must be in (0, 1)".into());
        }
        for (name, v) in [
            ("lambda_max", self.lambda_max),
            ("alpha_max", self.alpha_max),
            ("theta_max", self.zeta_bounds.theta_max),
            ("gamma_max", self.zeta_bounds.gamma_max),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("grid `{name}` must be positive and finite"));
            }
        }
        if self.priors.is_empty() || self.models.is_empty() {
            return Err("grid needs at least one prior and one model".into());
        }
        let mut prior_labels: Vec<&str> = self.priors.iter().map(PriorSpec::label).collect();
        prior_labels.sort_unstable();
        prior_labels.dedup();
        if prior_labels.len() != self.priors.len() {
            return Err("grid `priors` holds duplicates".into());
        }
        let mut model_names: Vec<&str> = self.models.iter().map(DetectionModel::name).collect();
        model_names.sort_unstable();
        model_names.dedup();
        if model_names.len() != self.models.len() {
            return Err("grid `models` holds duplicates".into());
        }
        Ok(())
    }

    /// The grid echo embedded in the SBC report document.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("days", Value::Num(self.days as f64)),
            (
                "priors",
                Value::Arr(
                    self.priors
                        .iter()
                        .map(|p| Value::Str(p.label().to_owned()))
                        .collect(),
                ),
            ),
            (
                "models",
                Value::Arr(
                    self.models
                        .iter()
                        .map(|m| Value::Str(m.name().to_owned()))
                        .collect(),
                ),
            ),
            ("lambda_max", Value::Num(self.lambda_max)),
            ("alpha_max", Value::Num(self.alpha_max)),
            ("theta_max", Value::Num(self.zeta_bounds.theta_max)),
            ("gamma_max", Value::Num(self.zeta_bounds.gamma_max)),
            ("bins", Value::Num(self.bins as f64)),
            ("alpha", Value::Num(self.alpha)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_obs::json::parse;

    #[test]
    fn default_grid_has_ten_canonical_cells() {
        let cells = GridSpec::default().cells();
        assert_eq!(cells.len(), 10);
        let ids: Vec<u64> = cells.iter().map(Cell::id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn cell_ids_are_subset_and_order_independent() {
        let doc = parse(r#"{"models": ["model3"], "priors": ["negbinom"]}"#).unwrap();
        let spec = GridSpec::from_value(&doc).unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        // negbinom (index 1) × model3 → 1·5 + 3 = 8, exactly as in
        // the full grid.
        assert_eq!(cells[0].id(), 8);
        assert_eq!(cells[0].label(), "negbinom/model3");

        let reversed = parse(r#"{"models": ["model4", "model0"]}"#).unwrap();
        let spec = GridSpec::from_value(&reversed).unwrap();
        let ids: Vec<u64> = spec.cells().iter().map(Cell::id).collect();
        assert_eq!(ids, vec![4, 0, 9, 5]);
    }

    #[test]
    fn spec_round_trips_defaults() {
        let doc = parse("{}").unwrap();
        let spec = GridSpec::from_value(&doc).unwrap();
        assert_eq!(spec, GridSpec::default());
    }

    #[test]
    fn spec_rejects_bad_fields() {
        for bad in [
            r#"{"priors": ["cauchy"]}"#,
            r#"{"models": ["model9"]}"#,
            r#"{"models": ["model1", "model1"]}"#,
            r#"{"priors": ["poisson", "poisson"]}"#,
            r#"{"bins": 1}"#,
            r#"{"alpha": 0}"#,
            r#"{"days": 0}"#,
            r#"{"days": 1e12}"#,
            r#"{"lambda_max": -3}"#,
            r#"{"models": []}"#,
            r#"{"models": "model0"}"#,
            r#"{"days": "many"}"#,
        ] {
            let doc = parse(bad).unwrap();
            assert!(GridSpec::from_value(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn hyper_limits_flow_into_priors() {
        let doc = parse(r#"{"lambda_max": 80, "alpha_max": 12}"#).unwrap();
        let spec = GridSpec::from_value(&doc).unwrap();
        assert!(matches!(
            spec.priors[0],
            PriorSpec::Poisson { lambda_max } if lambda_max == 80.0
        ));
        assert!(matches!(
            spec.priors[1],
            PriorSpec::NegBinomial { alpha_max } if alpha_max == 12.0
        ));
    }

    #[test]
    fn grid_echo_is_parseable_json() {
        let spec = GridSpec::default();
        let text = spec.to_value().to_json();
        let doc = parse(&text).unwrap();
        let spec2 = GridSpec::from_value(&doc).unwrap();
        assert_eq!(spec, spec2);
    }
}
