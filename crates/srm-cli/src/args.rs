//! Minimal, dependency-free argument parsing.
//!
//! Grammar: `srm <command> [--flag value]... [--switch]...`. Flags
//! take exactly one value; unknown flags are an error so typos fail
//! fast.

use std::collections::HashMap;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// `allowed_flags` / `allowed_switches` define the vocabulary for
    /// the chosen command.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a missing command, unknown flag,
    /// missing flag value, or stray positional argument.
    pub fn parse(
        raw: &[String],
        allowed_flags: &[&str],
        allowed_switches: &[&str],
    ) -> Result<Self, ArgError> {
        let mut iter = raw.iter();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing command".into()))?
            .clone();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument `{token}`"
                )));
            };
            if allowed_switches.contains(&name) {
                switches.push(name.to_owned());
            } else if allowed_flags.contains(&name) {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("flag `--{name}` needs a value")))?;
                flags.insert(name.to_owned(), value.clone());
            } else {
                return Err(ArgError(format!("unknown flag `--{name}`")));
            }
        }
        Ok(Self {
            command,
            flags,
            switches,
        })
    }

    /// String flag value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when absent.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError(format!("missing required flag `--{name}`")))
    }

    /// Parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a malformed value.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value `{v}` for `--{name}`"))),
        }
    }

    /// Whether a switch was given.
    #[must_use]
    pub fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// FNV-1a fingerprint of the parsed invocation: command, flags
    /// (sorted, so `HashMap` iteration order cannot leak in), and
    /// switches. Two invocations with the same effective arguments
    /// hash identically regardless of flag order on the command line;
    /// this seeds the content half of the CLI run's trace id
    /// (DESIGN.md §17).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        // Every field is followed by a 0x1f unit separator.
        const SEP: &[u8] = &[0x1f];
        let mut flags: Vec<(&String, &String)> = self.flags.iter().collect();
        flags.sort();
        let mut switches: Vec<&String> = self.switches.iter().collect();
        switches.sort();
        let fields = std::iter::once(&self.command)
            .chain(flags.into_iter().flat_map(|(k, v)| [k, v]))
            .chain(switches);
        srm_obs::fnv1a64(fields.flat_map(|f| [f.as_bytes(), SEP]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_command_flags_switches() {
        let args = Args::parse(
            &raw(&["fit", "--data", "x.csv", "--seed", "7", "--verbose"]),
            &["data", "seed"],
            &["verbose"],
        )
        .unwrap();
        assert_eq!(args.command, "fit");
        assert_eq!(args.get("data"), Some("x.csv"));
        assert_eq!(args.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert!(args.has_switch("verbose"));
        assert!(!args.has_switch("quiet"));
    }

    #[test]
    fn defaults_and_requirements() {
        let args = Args::parse(&raw(&["fit"]), &["data"], &[]).unwrap();
        assert_eq!(args.get_parsed::<usize>("chains", 4).unwrap(), 4);
        assert!(args.require("data").is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = Args::parse(&raw(&["fit", "--bogus", "1"]), &["data"], &[]).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn rejects_missing_value_and_positional() {
        assert!(Args::parse(&raw(&["fit", "--data"]), &["data"], &[]).is_err());
        assert!(Args::parse(&raw(&["fit", "stray"]), &["data"], &[]).is_err());
        assert!(Args::parse(&raw(&[]), &[], &[]).is_err());
    }

    #[test]
    fn rejects_malformed_number() {
        let args = Args::parse(&raw(&["fit", "--seed", "abc"]), &["seed"], &[]).unwrap();
        assert!(args.get_parsed::<u64>("seed", 0).is_err());
    }

    #[test]
    fn content_hash_is_order_insensitive_but_value_sensitive() {
        let flags = &["data", "seed"];
        let a = Args::parse(
            &raw(&["fit", "--data", "x.csv", "--seed", "7", "--verbose"]),
            flags,
            &["verbose"],
        )
        .unwrap();
        let b = Args::parse(
            &raw(&["fit", "--seed", "7", "--verbose", "--data", "x.csv"]),
            flags,
            &["verbose"],
        )
        .unwrap();
        assert_eq!(a.content_hash(), b.content_hash());

        let c = Args::parse(
            &raw(&["fit", "--data", "x.csv", "--seed", "8", "--verbose"]),
            flags,
            &["verbose"],
        )
        .unwrap();
        assert_ne!(a.content_hash(), c.content_hash());

        // Separators keep `--a bc` distinct from `--ab c`-style splits.
        let d = Args::parse(&raw(&["fit", "--data", "x.csvseed7"]), flags, &[]).unwrap();
        assert_ne!(a.content_hash(), d.content_hash());
    }
}
