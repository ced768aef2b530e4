//! Observation points and the paper's virtual-testing protocol.
//!
//! The paper evaluates at 50 %, 70 %, 90 % and 100 % of the testing
//! horizon, then keeps observing *zero* counts ("virtual testing")
//! at +10, +20, +30, +40 and +50 days past the end. Each observation
//! point therefore maps the full dataset to the series the models are
//! actually fitted on.

use crate::dataset::{BugCountData, DataError};

/// One observation point of the evaluation protocol.
///
/// `day` is the nominal testing day of the point; for days beyond the
/// dataset the gap is filled with zero counts (virtual testing).
///
/// # Examples
///
/// ```
/// use srm_data::{datasets, ObservationPoint};
///
/// let data = datasets::musa_cc96();
/// let point = ObservationPoint::new(106);
/// let window = point.window(&data).unwrap();
/// assert_eq!(window.len(), 106);
/// assert_eq!(window.total(), 136); // zero-count days add no bugs
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObservationPoint {
    day: usize,
}

impl ObservationPoint {
    /// Creates an observation point at the given (1-based) day.
    #[must_use]
    pub fn new(day: usize) -> Self {
        Self { day }
    }

    /// The observation day.
    #[must_use]
    pub fn day(&self) -> usize {
        self.day
    }

    /// The data window visible at this point: a truncation for points
    /// inside the data, the full data plus zero-count padding beyond.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DayOutOfRange`] for day 0.
    pub fn window(&self, data: &BugCountData) -> Result<BugCountData, DataError> {
        if self.day == 0 {
            return Err(DataError::DayOutOfRange {
                day: 0,
                len: data.len(),
            });
        }
        if self.day <= data.len() {
            data.truncated(self.day)
        } else {
            Ok(data.extended_with_zeros(self.day - data.len()))
        }
    }

    /// The true residual bug count at this point, assuming the
    /// dataset's grand total is the true initial content (the paper
    /// treats 136 as known for its legacy system).
    #[must_use]
    pub fn true_residual(&self, data: &BugCountData) -> u64 {
        let detected = data.detected_by(self.day.min(data.len()));
        data.total() - detected
    }
}

impl std::fmt::Display for ObservationPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}days", self.day)
    }
}

/// The full evaluation plan: which observation points to visit.
///
/// # Examples
///
/// ```
/// use srm_data::{datasets, ObservationPlan};
///
/// let plan = ObservationPlan::paper_default(&datasets::musa_cc96());
/// let days: Vec<usize> = plan.points().iter().map(|p| p.day()).collect();
/// assert_eq!(days, vec![48, 67, 86, 96, 106, 116, 126, 136, 146]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservationPlan {
    points: Vec<ObservationPoint>,
}

impl ObservationPlan {
    /// Builds a plan from explicit days.
    #[must_use]
    pub fn from_days(days: &[usize]) -> Self {
        Self {
            points: days.iter().map(|&d| ObservationPoint::new(d)).collect(),
        }
    }

    /// The paper's protocol for a dataset of length `k`: 50 %, 70 %,
    /// 90 % and 100 % of `k`, then `k + 10·j` for `j = 1..=5`.
    #[must_use]
    pub fn paper_default(data: &BugCountData) -> Self {
        let k = data.len();
        let mut days = vec![
            (k as f64 * 0.5).round() as usize,
            (k as f64 * 0.7).round() as usize,
            (k as f64 * 0.9).round() as usize,
            k,
        ];
        // The paper rounds 70% of 96 to 67 and 90% to 86 (floor+1
        // boundary handling); reproduce its exact days for k = 96.
        if k == 96 {
            days = vec![48, 67, 86, 96];
        }
        for j in 1..=5 {
            days.push(k + 10 * j);
        }
        Self::from_days(&days)
    }

    /// The observation points, in order.
    #[must_use]
    pub fn points(&self) -> &[ObservationPoint] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Materialises every `(point, window)` pair against `data`.
    ///
    /// # Errors
    ///
    /// Propagates [`DataError`] from invalid points (day 0).
    pub fn windows(
        &self,
        data: &BugCountData,
    ) -> Result<Vec<(ObservationPoint, BugCountData)>, DataError> {
        self.points
            .iter()
            .map(|p| p.window(data).map(|w| (*p, w)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn paper_plan_matches_table_rows() {
        let plan = ObservationPlan::paper_default(&datasets::musa_cc96());
        let days: Vec<usize> = plan.points().iter().map(ObservationPoint::day).collect();
        assert_eq!(days, vec![48, 67, 86, 96, 106, 116, 126, 136, 146]);
        assert_eq!(plan.len(), 9);
        assert!(!plan.is_empty());
    }

    #[test]
    fn windows_inside_data_truncate() {
        let data = datasets::musa_cc96();
        let w = ObservationPoint::new(48).window(&data).unwrap();
        assert_eq!(w.len(), 48);
        assert_eq!(w.total(), 42);
    }

    #[test]
    fn windows_beyond_data_zero_pad() {
        let data = datasets::musa_cc96();
        let p = ObservationPoint::new(146);
        let w = p.window(&data).unwrap();
        assert_eq!(w.len(), 146);
        assert_eq!(w.total(), 136);
        assert_eq!(w.count_on(146), 0);
    }

    #[test]
    fn window_at_exact_end_is_identity() {
        let data = datasets::musa_cc96();
        let w = ObservationPoint::new(96).window(&data).unwrap();
        assert_eq!(w, data);
    }

    #[test]
    fn day_zero_rejected() {
        let data = datasets::musa_cc96();
        assert!(ObservationPoint::new(0).window(&data).is_err());
    }

    #[test]
    fn true_residuals_match_paper_deltas() {
        // Tables II–IV imply residuals 94, 52, 4, 0, 0… at the paper
        // observation points.
        let data = datasets::musa_cc96();
        let expect = [
            (48usize, 94u64),
            (67, 52),
            (86, 4),
            (96, 0),
            (106, 0),
            (146, 0),
        ];
        for (day, res) in expect {
            assert_eq!(
                ObservationPoint::new(day).true_residual(&data),
                res,
                "day {day}"
            );
        }
    }

    #[test]
    fn display_matches_paper_row_labels() {
        assert_eq!(ObservationPoint::new(48).to_string(), "48days");
    }

    #[test]
    fn all_windows_materialise() {
        let data = datasets::musa_cc96();
        let plan = ObservationPlan::paper_default(&data);
        let windows = plan.windows(&data).unwrap();
        assert_eq!(windows.len(), 9);
        for (p, w) in &windows {
            assert_eq!(w.len(), p.day());
        }
    }

    #[test]
    fn generic_dataset_percentages() {
        let d = datasets::short_campaign_25();
        let plan = ObservationPlan::paper_default(&d);
        let days: Vec<usize> = plan.points().iter().map(ObservationPoint::day).collect();
        assert_eq!(days[..4], [13, 18, 23, 25]);
        assert_eq!(days[4..], [35, 45, 55, 65, 75]);
    }
}
