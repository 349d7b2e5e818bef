//! One strict flag table for every binary's command line.
//!
//! A binary declares its flags as groups of [`Flag`]s; the shared groups
//! [`PIPELINE_FLAGS`] and [`TRACE_FLAGS`] are reused across binaries.
//! [`Flags::parse`] walks the arguments once:
//!
//! * an argument starting with `-` must be a declared flag, or the parse
//!   fails naming it and, when one is close, the nearest declared flag;
//! * a value flag takes the next argument as its value, whatever it looks
//!   like, and a repeated flag keeps its last value;
//! * every other word is kept as a positional argument.
//!
//! Values are parsed when read ([`Flags::get`], [`Flags::list`]), so a
//! malformed value is reported against its flag. [`from_args`] does the
//! whole job for a `main`: `--help` prints the usage line to stdout and
//! exits 0, a malformed command line prints the error and the usage line to
//! stderr and exits 2.
//!
//! ```
//! use db_pim::flags::{Flag, Flags};
//!
//! const SERVER: &[Flag] = &[Flag::value("--port", "<u16>"), Flag::switch("--fidelity")];
//! let args: Vec<String> = ["--port", "7531", "--fidelity"].map(String::from).to_vec();
//! let flags = Flags::parse(&[SERVER], &args)?;
//! assert_eq!(flags.get::<u16>("--port")?, Some(7531));
//! assert!(flags.switch("--fidelity"));
//! # Ok::<(), db_pim::flags::OptionsError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use dbpim_trace::{LogLevel, TraceSink};

/// One declared command-line flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--width`.
    name: &'static str,
    /// The value placeholder the usage line shows; `None` for a switch.
    placeholder: Option<&'static str>,
}

impl Flag {
    /// A flag that takes the next argument as its value.
    #[must_use]
    pub const fn value(name: &'static str, placeholder: &'static str) -> Self {
        Self { name, placeholder: Some(placeholder) }
    }

    /// A flag that takes no value.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Self { name, placeholder: None }
    }
}

/// Understood by every table: [`from_args`] answers it with the usage line.
const HELP: Flag = Flag::switch("--help");

/// The pipeline flags of the experiment, DSE, fleet and serving binaries.
pub const PIPELINE_FLAGS: &[Flag] = &[
    Flag::value("--width", "<f32>"),
    Flag::value("--seed", "<u64>"),
    Flag::value("--images", "<n>"),
    Flag::value("--cal", "<n>"),
    Flag::value("--classes", "<n>"),
    Flag::value("--operand-width", "<4|8|12|16>"),
];

/// The observability flags, applied by [`install_trace`].
pub const TRACE_FLAGS: &[Flag] =
    &[Flag::value("--trace-out", "<path>"), Flag::value("--log-level", "<error|warn|info|debug>")];

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsError {
    /// The flag (or stray argument) at fault, e.g. `--width`.
    pub flag: String,
    /// What was wrong with it.
    pub message: String,
}

impl OptionsError {
    /// An error attributed to `flag`.
    pub fn new(flag: impl Into<String>, message: impl Into<String>) -> Self {
        Self { flag: flag.into(), message: message.into() }
    }
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid value for `{}`: {}", self.flag, self.message)
    }
}

impl std::error::Error for OptionsError {}

/// A parsed command line: the last value of every flag given, and the
/// positional words.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<&'static str, String>,
    positionals: Vec<String>,
}

impl Flags {
    /// Parses `args` (without the program name) against the flags declared
    /// in `groups`.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] for an undeclared flag (with the nearest
    /// declared one as a hint) or a value flag with nothing after it.
    pub fn parse(groups: &[&[Flag]], args: &[String]) -> Result<Self, OptionsError> {
        let mut flags = Self::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                flags.positionals.push(arg.clone());
                continue;
            }
            let flag = declared(groups)
                .find(|flag| flag.name == arg)
                .ok_or_else(|| unknown_flag(arg, groups))?;
            let value = match flag.placeholder {
                Some(_) => args
                    .next()
                    .ok_or_else(|| OptionsError::new(flag.name, "missing value"))?
                    .clone(),
                None => String::new(),
            };
            flags.values.insert(flag.name, value);
        }
        Ok(flags)
    }

    /// The value of `name` parsed as `T`; `None` when the flag was not
    /// given.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the flag when the value does not
    /// parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, OptionsError>
    where
        T::Err: fmt::Display,
    {
        self.raw(name).map(|raw| typed(name, raw)).transpose()
    }

    /// The comma-separated value of `name` parsed element-wise, blank
    /// elements skipped; `None` when the flag was not given.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the flag and the first element that
    /// does not parse.
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, OptionsError>
    where
        T::Err: fmt::Display,
    {
        self.raw(name)
            .map(|raw| {
                raw.split(',')
                    .map(str::trim)
                    .filter(|part| !part.is_empty())
                    .map(|part| typed(name, part))
                    .collect()
            })
            .transpose()
    }

    /// `true` when the switch `name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The unparsed value of `name`, when given.
    #[must_use]
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The words that were not flags or flag values, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Rejects positional words, for the binaries that take none.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the first positional word.
    pub fn no_positionals(&self) -> Result<(), OptionsError> {
        match self.positionals.first() {
            Some(word) => Err(OptionsError::new(word.clone(), "unexpected argument")),
            None => Ok(()),
        }
    }
}

/// The one-line usage text of `program` with the flags in `groups`.
#[must_use]
pub fn usage(program: &str, groups: &[&[Flag]]) -> String {
    let mut line = format!("usage: {program}");
    for flag in declared(groups) {
        match flag.placeholder {
            Some(placeholder) => line.push_str(&format!(" [{} {placeholder}]", flag.name)),
            None => line.push_str(&format!(" [{}]", flag.name)),
        }
    }
    line
}

/// Parses the process arguments against `groups` and reads them with
/// `read`. `--help` prints the usage line to stdout and exits 0; a
/// malformed command line prints the error and the usage line to stderr
/// and exits 2.
pub fn from_args<T>(
    program: &str,
    groups: &[&[Flag]],
    read: impl FnOnce(&Flags) -> Result<T, OptionsError>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(groups, &args);
    if flags.as_ref().is_ok_and(|flags| flags.switch(HELP.name)) {
        println!("{}", usage(program, groups));
        std::process::exit(0);
    }
    flags.and_then(|flags| read(&flags)).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{}", usage(program, groups));
        std::process::exit(2);
    })
}

/// Applies [`TRACE_FLAGS`]: sets the stderr log level and, with
/// `--trace-out`, installs a [`TraceSink`] for the caller to finish after
/// its last report.
///
/// # Errors
///
/// Returns [`OptionsError`] for an unknown log level.
pub fn install_trace(flags: &Flags) -> Result<Option<TraceSink>, OptionsError> {
    if let Some(level) = flags.get::<LogLevel>("--log-level")? {
        dbpim_trace::set_log_level(level);
    }
    Ok(flags.raw("--trace-out").map(TraceSink::install))
}

/// Writes the trace of a sink from [`install_trace`], if any; a failed
/// write is reported on stderr and does not fail the run.
pub fn finish_trace(program: &str, sink: Option<TraceSink>) {
    if let Err(e) = sink.map_or(Ok(()), TraceSink::finish) {
        eprintln!("{program}: writing the trace failed: {e}");
    }
}

fn declared<'a>(groups: &'a [&'a [Flag]]) -> impl Iterator<Item = &'a Flag> {
    groups.iter().flat_map(|group| group.iter()).chain(std::iter::once(&HELP))
}

fn typed<T: FromStr>(flag: &str, raw: &str) -> Result<T, OptionsError>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e: T::Err| OptionsError::new(flag, format!("`{raw}` — {e}")))
}

/// The error for an undeclared flag, hinting at the declared flag that is
/// within two edits of it or that one of the two is a prefix of.
fn unknown_flag(arg: &str, groups: &[&[Flag]]) -> OptionsError {
    let nearest = declared(groups)
        .map(|flag| (edit_distance(arg, flag.name), flag.name))
        .filter(|&(distance, name)| {
            distance <= 2 || (arg.len() > 2 && name.starts_with(arg)) || arg.starts_with(name)
        })
        .min_by_key(|&(distance, _)| distance);
    match nearest {
        Some((_, name)) => OptionsError::new(arg, format!("unknown flag (did you mean `{name}`?)")),
        None => OptionsError::new(arg, "unknown flag"),
    }
}

/// Levenshtein distance over characters.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitution = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substitution.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVER: &[Flag] = &[
        Flag::value("--port", "<u16>"),
        Flag::value("--auth-token", "<secret>"),
        Flag::value("--endpoints", "host:port,..."),
        Flag::switch("--fidelity"),
    ];
    const TABLE: &[&[Flag]] = &[SERVER, TRACE_FLAGS];

    fn parse(raw: &[&str]) -> Result<Flags, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        Flags::parse(TABLE, &args)
    }

    #[test]
    fn the_last_value_wins_and_values_are_never_reread_as_flags() {
        let flags = parse(&["--port", "1", "--log-level", "debug", "--port", "2"]).unwrap();
        assert_eq!(flags.get::<u16>("--port").unwrap(), Some(2));
        // The scanners this replaces kept the first `--log-level`.
        let flags = parse(&["--log-level", "debug", "--log-level", "error"]).unwrap();
        assert_eq!(flags.get::<LogLevel>("--log-level").unwrap(), Some(LogLevel::Error));

        // A value that looks like a flag is still the value.
        let flags = parse(&["--auth-token", "--port", "run"]).unwrap();
        assert_eq!(flags.raw("--auth-token"), Some("--port"));
        assert_eq!(flags.get::<u16>("--port").unwrap(), None);
        assert_eq!(flags.positionals(), ["run"]);
        assert!(flags.no_positionals().unwrap_err().flag == "run");
        assert!(!flags.switch("--fidelity"));
        assert!(parse(&["--fidelity"]).unwrap().switch("--fidelity"));

        let err = parse(&["--port", "7531", "--auth-token"]).unwrap_err();
        assert_eq!(err, OptionsError::new("--auth-token", "missing value"));
        assert_eq!(err.to_string(), "invalid value for `--auth-token`: missing value");
        let err = parse(&["--port", "x"]).unwrap().get::<u16>("--port").unwrap_err();
        assert_eq!(err.flag, "--port");
        assert!(err.to_string().starts_with("invalid value for `--port`: `x` — "), "{err}");
    }

    #[test]
    fn unknown_flags_are_errors_with_a_hint_when_one_is_close() {
        for (typo, hint) in [
            ("--endpoint", "--endpoints"),
            ("--auth-tokn", "--auth-token"),
            ("--trace", "--trace-out"),
            ("--port-number", "--port"),
            ("--hlep", "--help"),
        ] {
            let err = parse(&["--port", "1", typo, "x"]).unwrap_err();
            assert_eq!(err.flag, typo);
            assert_eq!(err.message, format!("unknown flag (did you mean `{hint}`?)"));
        }
        for typo in ["--verbose", "-v", "--"] {
            let err = parse(&[typo]).unwrap_err();
            assert_eq!(err, OptionsError::new(typo, "unknown flag"));
        }
    }

    #[test]
    fn lists_skip_blanks_and_reject_a_bad_element() {
        let flags = parse(&["--endpoints", " a:1, ,b:2,", "--port", "1"]).unwrap();
        assert_eq!(
            flags.list::<String>("--endpoints").unwrap(),
            Some(vec!["a:1".into(), "b:2".into()])
        );
        assert_eq!(flags.list::<u16>("--auth-token").unwrap(), None);
        let flags = parse(&["--endpoints", " , "]).unwrap();
        assert_eq!(flags.list::<String>("--endpoints").unwrap(), Some(Vec::new()));

        let flags = parse(&["--endpoints", "1,x,3"]).unwrap();
        let err = flags.list::<u16>("--endpoints").unwrap_err();
        assert_eq!(err.flag, "--endpoints");
        assert!(err.message.starts_with("`x` — "), "{err}");
    }

    #[test]
    fn the_usage_line_lists_every_group_and_help() {
        assert_eq!(
            usage("served", TABLE),
            "usage: served [--port <u16>] [--auth-token <secret>] [--endpoints host:port,...] \
             [--fidelity] [--trace-out <path>] [--log-level <error|warn|info|debug>] [--help]"
        );
        assert!(parse(&["--help"]).unwrap().switch("--help"));
    }
}
