//! The grouped bug-count container.

/// Error raised when constructing or manipulating [`BugCountData`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// The daily count vector was empty.
    Empty,
    /// A requested observation day lies outside the data.
    DayOutOfRange {
        /// The requested day (1-based).
        day: usize,
        /// The number of days available.
        len: usize,
    },
    /// The cumulative count `s_i` exceeds `u64::MAX`.
    Overflow {
        /// The (1-based) day whose count overflowed the running sum.
        day: usize,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "dataset has no testing days"),
            Self::DayOutOfRange { day, len } => {
                write!(f, "day {day} outside dataset of {len} days")
            }
            Self::Overflow { day } => {
                write!(f, "cumulative bug count overflows u64 at day {day}")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// Grouped software bug-count data: `x_i` bugs detected on testing day
/// `i` (1-based, as in the paper).
///
/// The container owns the daily counts and precomputes the cumulative
/// series `s_i = Σ_{j ≤ i} x_j` that the likelihood (Eq. (2)) and the
/// posterior updates (Props. 1–2) consume.
///
/// # Examples
///
/// ```
/// use srm_data::BugCountData;
///
/// let data = BugCountData::new(vec![3, 0, 2, 1]).unwrap();
/// assert_eq!(data.total(), 6);
/// assert_eq!(data.cumulative(), &[3, 3, 5, 6]);
/// assert_eq!(data.detected_by(2), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugCountData {
    counts: Vec<u64>,
    cumulative: Vec<u64>,
}

impl BugCountData {
    /// Wraps a vector of daily counts.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] for an empty vector and
    /// [`DataError::Overflow`] when the cumulative sum exceeds
    /// `u64::MAX`.
    pub fn new(counts: Vec<u64>) -> Result<Self, DataError> {
        if counts.is_empty() {
            return Err(DataError::Empty);
        }
        let mut cumulative = Vec::with_capacity(counts.len());
        let mut running = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            running = running
                .checked_add(c)
                .ok_or(DataError::Overflow { day: i + 1 })?;
            cumulative.push(running);
        }
        Ok(Self { counts, cumulative })
    }

    /// Number of testing days `k`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the dataset is empty (never true for a constructed
    /// value; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Daily counts `x_1, …, x_k`.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts `s_1, …, s_k`.
    #[must_use]
    pub fn cumulative(&self) -> &[u64] {
        &self.cumulative
    }

    /// Total number of bugs detected, `s_k`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cumulative
            .last()
            .copied()
            .unwrap_or_else(|| unreachable!())
    }

    /// Count on day `day` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `day` is 0 or beyond the last day.
    #[must_use]
    pub fn count_on(&self, day: usize) -> u64 {
        assert!(day >= 1 && day <= self.len(), "day {day} out of range");
        self.counts[day - 1]
    }

    /// Cumulative bugs detected by the end of `day` (1-based);
    /// `detected_by(0)` is 0 (`s_0`).
    ///
    /// # Panics
    ///
    /// Panics if `day` exceeds the last day.
    #[must_use]
    pub fn detected_by(&self, day: usize) -> u64 {
        assert!(day <= self.len(), "day {day} out of range");
        if day == 0 {
            0
        } else {
            self.cumulative[day - 1]
        }
    }

    /// The data truncated to the first `day` days (an observation
    /// point in the paper's protocol).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DayOutOfRange`] if `day` is 0 or beyond
    /// the dataset.
    pub fn truncated(&self, day: usize) -> Result<Self, DataError> {
        if day == 0 || day > self.len() {
            return Err(DataError::DayOutOfRange {
                day,
                len: self.len(),
            });
        }
        Ok(Self {
            counts: self.counts[..day].to_vec(),
            cumulative: self.cumulative[..day].to_vec(),
        })
    }

    /// The data extended with `extra` zero-count days — the paper's
    /// *virtual testing* hypothesis that no bug is found after release
    /// (§5.1).
    #[must_use]
    pub fn extended_with_zeros(&self, extra: usize) -> Self {
        let mut counts = self.counts.clone();
        counts.extend(std::iter::repeat_n(0, extra));
        let mut cumulative = self.cumulative.clone();
        let last = self.total();
        cumulative.extend(std::iter::repeat_n(last, extra));
        Self { counts, cumulative }
    }

    /// Iterates over `(day, count)` pairs with 1-based days.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| (i + 1, c))
    }

    /// Re-groups the data into periods of `width` days (the paper's
    /// models work on any grouping — "calendar day or week"); a
    /// trailing partial period is kept.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn aggregated(&self, width: usize) -> Self {
        assert!(width > 0, "aggregation width must be positive");
        let counts: Vec<u64> = self.counts.chunks(width).map(|c| c.iter().sum()).collect();
        Self::new(counts).unwrap_or_else(|_| unreachable!())
    }

    /// Largest single-day count.
    #[must_use]
    pub fn max_daily(&self) -> u64 {
        self.counts
            .iter()
            .max()
            .copied()
            .unwrap_or_else(|| unreachable!())
    }
}

impl TryFrom<Vec<u64>> for BugCountData {
    type Error = DataError;

    fn try_from(counts: Vec<u64>) -> Result<Self, Self::Error> {
        Self::new(counts)
    }
}

impl std::fmt::Display for BugCountData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BugCountData({} bugs over {} days, peak {}/day)",
            self.total(),
            self.len(),
            self.max_daily()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BugCountData {
        BugCountData::new(vec![2, 0, 3, 1, 0, 4]).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(BugCountData::new(vec![]), Err(DataError::Empty));
    }

    #[test]
    fn rejects_cumulative_overflow() {
        let err = BugCountData::new(vec![1, u64::MAX]).unwrap_err();
        assert_eq!(err, DataError::Overflow { day: 2 });
        assert!(err.to_string().contains("overflows u64 at day 2"));
        // The boundary itself is fine.
        let d = BugCountData::new(vec![u64::MAX - 1, 1]).unwrap();
        assert_eq!(d.total(), u64::MAX);
    }

    #[test]
    fn cumulative_is_prefix_sum() {
        let d = sample();
        assert_eq!(d.cumulative(), &[2, 2, 5, 6, 6, 10]);
        assert_eq!(d.total(), 10);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn detected_by_day_zero_is_zero() {
        assert_eq!(sample().detected_by(0), 0);
        assert_eq!(sample().detected_by(3), 5);
        assert_eq!(sample().detected_by(6), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn detected_by_beyond_end_panics() {
        let _ = sample().detected_by(7);
    }

    #[test]
    fn truncation_preserves_prefix() {
        let d = sample();
        let t = d.truncated(3).unwrap();
        assert_eq!(t.counts(), &[2, 0, 3]);
        assert_eq!(t.total(), 5);
        assert_eq!(d.truncated(6).unwrap(), d);
    }

    #[test]
    fn truncation_out_of_range() {
        let d = sample();
        assert!(matches!(
            d.truncated(0),
            Err(DataError::DayOutOfRange { day: 0, .. })
        ));
        assert!(d.truncated(7).is_err());
    }

    #[test]
    fn zero_extension_models_virtual_testing() {
        let d = sample().extended_with_zeros(4);
        assert_eq!(d.len(), 10);
        assert_eq!(d.total(), 10);
        assert_eq!(d.detected_by(10), 10);
        assert_eq!(d.count_on(8), 0);
        // Extending by zero days is the identity.
        assert_eq!(sample().extended_with_zeros(0), sample());
    }

    #[test]
    fn iteration_is_one_based() {
        let pairs: Vec<(usize, u64)> = sample().iter().collect();
        assert_eq!(pairs[0], (1, 2));
        assert_eq!(pairs[5], (6, 4));
    }

    #[test]
    fn summary_statistics() {
        let d = sample();
        assert_eq!(d.max_daily(), 4);
        let shown = d.to_string();
        assert!(shown.contains("10 bugs") && shown.contains("6 days"));
    }

    #[test]
    fn aggregation_preserves_total() {
        let d = sample(); // 6 days
        let weekly = d.aggregated(7);
        assert_eq!(weekly.len(), 1);
        assert_eq!(weekly.total(), d.total());
        let pairs = d.aggregated(2);
        assert_eq!(pairs.counts(), &[2, 4, 4]);
        let with_tail = d.aggregated(4);
        assert_eq!(with_tail.counts(), &[6, 4]); // trailing partial kept
    }

    #[test]
    fn aggregation_by_one_is_identity() {
        let d = sample();
        assert_eq!(d.aggregated(1), d);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn aggregation_zero_width_panics() {
        let _ = sample().aggregated(0);
    }

    #[test]
    fn try_from_round_trip() {
        let d: BugCountData = vec![1, 2, 3].try_into().unwrap();
        assert_eq!(d.total(), 6);
        let err: Result<BugCountData, _> = Vec::<u64>::new().try_into();
        assert!(err.is_err());
    }
}
