//! Chain storage.
//!
//! A [`Chain`] holds the kept draws of one MCMC run in parameter-major
//! layout (one contiguous `Vec<f64>` per parameter), which is the
//! access pattern of every diagnostic and summary.

/// The kept draws of a single MCMC chain.
///
/// # Examples
///
/// ```
/// use srm_mcmc::Chain;
///
/// let mut chain = Chain::new(&["x", "y"]);
/// chain.push(&[1.0, 10.0]);
/// chain.push(&[2.0, 20.0]);
/// assert_eq!(chain.draws("x").unwrap(), &[1.0, 2.0]);
/// assert_eq!(chain.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    names: Vec<String>,
    draws: Vec<Vec<f64>>,
}

impl Chain {
    /// Creates an empty chain with the given parameter names.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty or contains duplicates.
    #[must_use]
    pub fn new(names: &[&str]) -> Self {
        assert!(!names.is_empty(), "a chain needs at least one parameter");
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(seen.insert(*n), "duplicate parameter name `{n}`");
        }
        Self {
            names: names.iter().map(|s| (*s).to_owned()).collect(),
            draws: vec![Vec::new(); names.len()],
        }
    }

    /// Parameter names, in column order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of kept draws.
    #[must_use]
    pub fn len(&self) -> usize {
        self.draws[0].len()
    }

    /// Whether the chain has no draws yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one joint draw (one value per parameter).
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length.
    pub fn push(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.names.len(),
            "draw has {} values for {} parameters",
            values.len(),
            self.names.len()
        );
        for (col, &v) in self.draws.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// The draws of one parameter by name.
    #[must_use]
    pub fn draws(&self, name: &str) -> Option<&[f64]> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(&self.draws[idx])
    }

    /// Reserves capacity for `additional` more draws per parameter.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.draws {
            col.reserve(additional);
        }
    }

    /// Writes the chain as CSV (`draw,<param>,…` header, one row per
    /// kept draw) for analysis in external tools.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> std::io::Result<()> {
    /// let mut chain = srm_mcmc::Chain::new(&["x"]);
    /// chain.push(&[1.5]);
    /// let mut out = Vec::new();
    /// chain.write_csv(&mut out)?;
    /// assert_eq!(String::from_utf8(out).unwrap(), "draw,x\n0,1.5\n");
    /// # Ok(())
    /// # }
    /// ```
    pub fn write_csv<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        write!(writer, "draw")?;
        for name in &self.names {
            write!(writer, ",{name}")?;
        }
        writeln!(writer)?;
        for i in 0..self.len() {
            write!(writer, "{i}")?;
            for col in &self.draws {
                write!(writer, ",{}", col[i])?;
            }
            writeln!(writer)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut c = Chain::new(&["a", "b", "c"]);
        assert!(c.is_empty());
        c.push(&[1.0, 2.0, 3.0]);
        c.push(&[4.0, 5.0, 6.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.draws("b").unwrap(), &[2.0, 5.0]);
        assert_eq!(c.draws("c").unwrap(), &[3.0, 6.0]);
        assert!(c.draws("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_panic() {
        let _ = Chain::new(&["x", "x"]);
    }

    #[test]
    #[should_panic(expected = "at least one parameter")]
    fn empty_names_panic() {
        let _ = Chain::new(&[]);
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn wrong_arity_push_panics() {
        let mut c = Chain::new(&["x"]);
        c.push(&[1.0, 2.0]);
    }

    #[test]
    fn csv_export_layout() {
        let mut c = Chain::new(&["a", "b"]);
        c.push(&[1.0, 2.0]);
        c.push(&[3.5, -4.0]);
        let mut out = Vec::new();
        c.write_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "draw,a,b");
        assert_eq!(lines[1], "0,1,2");
        assert_eq!(lines[2], "1,3.5,-4");
    }

    #[test]
    fn reserve_does_not_change_contents() {
        let mut c = Chain::new(&["x"]);
        c.push(&[9.0]);
        c.reserve(1000);
        assert_eq!(c.draws("x").unwrap(), &[9.0]);
    }
}
