//! A minimal command-line flag parser for the experiment binaries.
//!
//! The binaries only need a handful of flags (`--scale smoke|reduced|full`,
//! `--seed N`, `--out PATH`, plus a few boolean switches such as `--quick` or
//! `--smoke`), so a dependency-free parser keeps the harness self-contained.
//! Each binary names the flags it reads once, in [`CliArgs::from_env`].  Any
//! other flag, and a value that does not parse, is a usage error: the binary
//! prints it and exits 2 rather than running something other than what was
//! asked.

use crate::instances::Scale;
use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    flags: BTreeMap<String, Option<String>>,
}

impl CliArgs {
    /// Parses `std::env::args()` (skipping the program name) for a binary
    /// that reads the flags `known`; exits 2 naming any other flag.
    pub fn from_env(known: &[&str]) -> Self {
        let args = Self::parse(std::env::args().skip(1));
        args.only(known).unwrap_or_else(|e| usage_error(&e));
        args
    }

    /// An error naming a flag that was given but is not in `known`.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .keys()
            .find(|flag| !known.contains(&flag.as_str()))
        {
            None => Ok(()),
            Some(flag) => Err(format!(
                "--{flag}: unknown flag (known: --{})",
                known.join(", --")
            )),
        }
    }

    /// Parses an explicit argument list; `--key value` and `--key=value` are
    /// both accepted, and a `--key` followed by another flag (or nothing) is a
    /// boolean switch.
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut flags = BTreeMap::new();
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some((key, value)) = stripped.split_once('=') {
                    flags.insert(key.to_string(), Some(value.to_string()));
                } else if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    flags.insert(stripped.to_string(), Some(args[i + 1].clone()));
                    i += 1;
                } else {
                    flags.insert(stripped.to_string(), None);
                }
            }
            i += 1;
        }
        CliArgs { flags }
    }

    /// `true` if the boolean switch `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The value of `--name value`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// The value of `--name` parsed as `T`, `default` when the flag is
    /// absent, and an error naming the value when it does not parse.
    fn parse_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// The value of `--name` parsed as `u64`, or `default`; exits 2 on a
    /// value that does not parse.
    pub fn u64_or(&self, name: &str, default: u64) -> u64 {
        self.parse_or(name, default)
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// The value of `--name` parsed as `usize`, or `default`; exits 2 on a
    /// value that does not parse.
    pub fn usize_or(&self, name: &str, default: usize) -> usize {
        self.parse_or(name, default)
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// The experiment scale named by `--scale smoke|reduced|full` (smoke
    /// when absent), or an error naming any other value.
    fn try_scale(&self) -> Result<Scale, String> {
        match self.value("scale") {
            None | Some("smoke") => Ok(Scale::Smoke),
            Some("reduced") => Ok(Scale::Reduced),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "--scale: unknown value {other:?} (smoke, reduced or full)"
            )),
        }
    }

    /// The experiment scale selected with `--scale`; exits 2 on an unknown
    /// value.
    pub fn scale(&self) -> Scale {
        self.try_scale().unwrap_or_else(|e| usage_error(&e))
    }

    /// The RNG seed selected with `--seed N` (default 2024, the paper's
    /// year); exits 2 on a value that does not parse.
    pub fn seed(&self) -> u64 {
        self.u64_or("seed", 2024)
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_switches_values_and_equals_forms() {
        let args = CliArgs::parse(["--quick", "--seed", "7", "--scale=reduced"]);
        assert!(args.flag("quick"));
        assert!(!args.flag("smoke"));
        assert_eq!(args.seed(), 7);
        assert_eq!(args.scale(), Scale::Reduced);
    }

    #[test]
    fn defaults_apply_when_flags_are_missing() {
        let args = CliArgs::parse(Vec::<String>::new());
        assert_eq!(args.seed(), 2024);
        assert_eq!(args.scale(), Scale::Smoke);
        assert_eq!(args.usize_or("procs", 8), 8);
    }

    #[test]
    fn boolean_switch_before_another_flag_takes_no_value() {
        let args = CliArgs::parse(["--smoke", "--seed", "3"]);
        assert!(args.flag("smoke"));
        assert_eq!(args.value("smoke"), None);
        assert_eq!(args.seed(), 3);
    }

    #[test]
    fn an_unknown_scale_is_an_error_naming_the_value() {
        let err = CliArgs::parse(["--scale", "reduce"])
            .try_scale()
            .unwrap_err();
        assert!(err.contains("\"reduce\""), "{err}");
        let full = CliArgs::parse(["--scale", "full"]).try_scale();
        assert_eq!(full, Ok(Scale::Full));
    }

    #[test]
    fn an_unknown_flag_is_an_error_naming_it() {
        let known = ["smoke", "out"];
        let err = CliArgs::parse(["--smok", "--out", "x"])
            .only(&known)
            .unwrap_err();
        assert!(err.starts_with("--smok: unknown flag"), "{err}");
        assert_eq!(CliArgs::parse(["--smoke", "--out=x"]).only(&known), Ok(()));
        assert_eq!(CliArgs::parse(Vec::<String>::new()).only(&[]), Ok(()));
    }

    #[test]
    fn a_seed_that_does_not_parse_is_an_error_naming_the_value() {
        let args = CliArgs::parse(["--seed", "abc", "--reps", "-1"]);
        let err = args.parse_or("seed", 2024u64).unwrap_err();
        assert!(err.contains("--seed") && err.contains("\"abc\""), "{err}");
        assert!(args.parse_or("reps", 1usize).is_err());
        assert_eq!(args.parse_or("missing", 5u64), Ok(5));
    }
}
