//! Validation errors for distribution constructors.

/// Error returned when a distribution is constructed with invalid
/// parameters.
///
/// # Examples
///
/// ```
/// use srm_rand::{Gamma, DistributionError};
/// let err = Gamma::new(-1.0, 1.0).unwrap_err();
/// assert!(matches!(err, DistributionError::InvalidParameter { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionError {
    /// A parameter was outside its admissible range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value (as `f64` for uniform reporting).
        value: f64,
        /// Human-readable constraint, e.g. `"must be > 0"`.
        constraint: &'static str,
    },
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "parameter `{name}` = {value} {constraint}"),
        }
    }
}

impl std::error::Error for DistributionError {}

pub(crate) fn require(
    ok: bool,
    name: &'static str,
    value: f64,
    constraint: &'static str,
) -> Result<(), DistributionError> {
    if ok {
        Ok(())
    } else {
        Err(DistributionError::InvalidParameter {
            name,
            value,
            constraint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DistributionError::InvalidParameter {
            name: "shape",
            value: -2.0,
            constraint: "must be > 0",
        };
        let s = e.to_string();
        assert!(s.contains("shape") && s.contains("-2") && s.contains("> 0"));
    }

    #[test]
    fn require_passes_and_fails() {
        assert!(require(true, "x", 1.0, "ok").is_ok());
        assert!(require(false, "x", 1.0, "bad").is_err());
    }
}
