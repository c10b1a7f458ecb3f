//! Command-line flags as data. One [`Flag`] row carries a flag's
//! spelling, value kind, default, range and help text; [`parse`]
//! checks an argument list against a table of rows, [`usage`] prints
//! the same table, and [`replay`] / [`parse_replay`] are the two
//! directions of the one-line commands failure reports carry. Every
//! `lht-exp` subcommand is a table of these rows — this module is
//! the only argument parser in the workspace.

use std::fmt::Write as _;

/// The `lht-exp` invocation every replay line starts with.
const LHT_EXP: &str = "cargo run --release -p lht-bench --";

/// The flag tables of one command, concatenated.
pub type Flags = &'static [&'static [Flag]];

/// Every row of the tables, in order.
pub fn rows(flags: Flags) -> impl Iterator<Item = &'static Flag> {
    flags.iter().flat_map(|table| table.iter())
}

/// One command-line flag.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The spelling, dashes included.
    pub name: &'static str,
    /// One line for `--help`.
    pub help: &'static str,
    kind: Kind,
}

type Words = &'static [&'static str];
type Valid = fn(&[u64]) -> bool;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Switch,
    /// `(default, nonzero, lo, hi)`: absent without a default; `0`
    /// refused when `nonzero`; then clamped into `lo..=hi`.
    Uint(Option<u64>, bool, u64, u64),
    /// A probability in `[0, 1]`, default 0.
    Prob,
    /// One of these words; the first is the default.
    Choice(Words),
    /// `(shape, valid)`: comma-separated unsigned integers `valid`
    /// accepts; `shape` starts with the placeholder.
    List(&'static str, Valid),
}

impl Flag {
    const fn new(name: &'static str, help: &'static str, kind: Kind) -> Flag {
        Flag { name, help, kind }
    }

    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, help, Kind::Switch)
    }

    /// An unsigned integer with a default.
    pub const fn uint(name: &'static str, default: u64, help: &'static str) -> Flag {
        Flag::opt_uint(name, help).with_default(Some(default))
    }

    /// An unsigned integer that is absent unless given.
    pub const fn opt_uint(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, help, Kind::Uint(None, false, 0, u64::MAX))
    }

    const fn with_default(mut self, value: Option<u64>) -> Flag {
        if let Kind::Uint(default, ..) = &mut self.kind {
            *default = value;
        }
        self
    }

    /// Clamps a given integer into `min..=max`.
    pub const fn clamped(mut self, min: u64, max: u64) -> Flag {
        if let Kind::Uint(_, _, lo, hi) = &mut self.kind {
            (*lo, *hi) = (min, max);
        }
        self
    }

    /// Raises a given integer below `min` to `min`.
    pub const fn at_least(self, min: u64) -> Flag {
        self.clamped(min, u64::MAX)
    }

    /// Refuses `0` instead of clamping it.
    pub const fn positive(mut self) -> Flag {
        if let Kind::Uint(_, nonzero, ..) = &mut self.kind {
            *nonzero = true;
        }
        self
    }

    /// A probability in `[0, 1]` (default 0).
    pub const fn prob(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, help, Kind::Prob)
    }

    /// One word of `words`, the first being the default.
    pub const fn choice(name: &'static str, words: Words, help: &'static str) -> Flag {
        Flag::new(name, help, Kind::Choice(words))
    }

    /// Comma-separated unsigned integers that `valid` accepts,
    /// described by `shape` (placeholder first, as in `K,M with K < M`).
    pub const fn list(
        name: &'static str,
        shape: &'static str,
        valid: Valid,
        help: &'static str,
    ) -> Flag {
        Flag::new(name, help, Kind::List(shape, valid))
    }

    /// What the flag's value must be, for usage and error text.
    fn value(&self) -> String {
        match self.kind {
            Kind::Switch => String::new(),
            Kind::Uint(_, true, ..) => "a positive integer".into(),
            Kind::Uint(..) => "an unsigned integer".into(),
            Kind::Prob => "a probability in [0, 1]".into(),
            Kind::Choice(words) => words.join("|"),
            Kind::List(shape, _) => shape.into(),
        }
    }

    /// `--name VALUE` as a usage line shows it.
    pub fn synopsis(&self) -> String {
        let placeholder = match self.kind {
            Kind::Switch => return self.name.to_string(),
            Kind::Uint(..) => "N".to_string(),
            Kind::Prob => "P".to_string(),
            Kind::Choice(words) => words.join("|"),
            Kind::List(shape, _) => shape.split(' ').next().unwrap_or(shape).to_string(),
        };
        format!("{} {placeholder}", self.name)
    }

    /// The default and range, as `--help` appends them to the help.
    fn bounds(&self) -> String {
        let notes: Vec<String> = match self.kind {
            Kind::Uint(default, _, lo, hi) => [
                default.map(|d| format!("default {d}")),
                (lo > 0).then(|| format!("at least {lo}")),
                (hi < u64::MAX).then(|| format!("at most {hi}")),
            ]
            .into_iter()
            .flatten()
            .collect(),
            Kind::Prob => vec!["default 0".into()],
            Kind::Choice(words) => vec![format!("default {}", words[0])],
            Kind::Switch | Kind::List(..) => return String::new(),
        };
        if notes.is_empty() {
            return String::new();
        }
        format!(" ({})", notes.join(", "))
    }

    fn read(&self, raw: Option<&str>) -> Result<Value, String> {
        let needs = || format!("{} needs {}", self.name, self.value());
        let raw = raw.ok_or_else(needs)?;
        match self.kind {
            Kind::Switch => unreachable!("switches take no value"),
            Kind::Uint(_, nonzero, lo, hi) => match raw.parse::<u64>() {
                Ok(0) if nonzero => Err(needs()),
                Ok(n) => Ok(Value::Uint(n.clamp(lo, hi))),
                Err(_) => Err(needs()),
            },
            Kind::Prob => match raw.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => Ok(Value::Prob(p)),
                _ => Err(needs()),
            },
            Kind::Choice(words) => words
                .iter()
                .find(|w| **w == raw)
                .map(|w| Value::Word(w))
                .ok_or_else(needs),
            Kind::List(_, valid) => raw
                .split(',')
                .map(|s| s.trim().parse().ok())
                .collect::<Option<Vec<u64>>>()
                .filter(|items| valid(items))
                .map(Value::List)
                .ok_or_else(needs),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Value {
    On,
    Uint(u64),
    Prob(f64),
    Word(&'static str),
    List(Vec<u64>),
}

/// Why [`parse`] did not return arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stop {
    /// `--help` / `-h` was given.
    Help,
    /// Bad usage; the message names the offending flag.
    Bad(String),
}

/// An argument list checked against its flag tables. The accessors
/// answer with the given value or the row's default.
///
/// # Panics
///
/// Every accessor panics on a name that is not in the tables or whose
/// row is of another kind — a bug in the command, not in its input.
#[derive(Clone, Debug)]
pub struct Parsed {
    flags: Flags,
    given: Vec<(&'static str, Value)>,
}

impl Parsed {
    fn row(&self, name: &str) -> &'static Flag {
        rows(self.flags)
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} is not a flag of this command"))
    }

    fn given(&self, name: &str) -> Option<&Value> {
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether the switch was given.
    pub fn on(&self, name: &str) -> bool {
        assert!(matches!(self.row(name).kind, Kind::Switch), "{name}");
        self.given(name).is_some()
    }

    /// The integer, if given or defaulted.
    pub fn opt_uint(&self, name: &str) -> Option<u64> {
        let Kind::Uint(default, ..) = self.row(name).kind else {
            panic!("{name} is not an integer flag");
        };
        match self.given(name) {
            Some(Value::Uint(n)) => Some(*n),
            _ => default,
        }
    }

    /// The integer of a flag that has a default.
    pub fn uint(&self, name: &str) -> u64 {
        self.opt_uint(name)
            .unwrap_or_else(|| panic!("{name} has no default"))
    }

    /// [`uint`](Parsed::uint) as a `usize`.
    pub fn size(&self, name: &str) -> usize {
        self.uint(name) as usize
    }

    /// The probability (0 unless given).
    pub fn prob(&self, name: &str) -> f64 {
        assert!(matches!(self.row(name).kind, Kind::Prob), "{name}");
        match self.given(name) {
            Some(Value::Prob(p)) => *p,
            _ => 0.0,
        }
    }

    /// The chosen word.
    pub(crate) fn word(&self, name: &str) -> &'static str {
        let Kind::Choice(words) = self.row(name).kind else {
            panic!("{name} is not a choice flag");
        };
        match self.given(name) {
            Some(Value::Word(w)) => w,
            _ => words[0],
        }
    }

    /// The list, if given.
    pub fn list(&self, name: &str) -> Option<&[u64]> {
        assert!(matches!(self.row(name).kind, Kind::List(..)), "{name}");
        match self.given(name) {
            Some(Value::List(items)) => Some(items),
            _ => None,
        }
    }
}

/// Checks `args` against `flags`. A repeated flag keeps its last
/// value.
///
/// # Errors
///
/// [`Stop::Help`] on `--help` / `-h`; [`Stop::Bad`] on an unknown
/// flag, a missing value or a value outside the row's kind or range.
pub fn parse<S: AsRef<str>>(flags: Flags, args: &[S]) -> Result<Parsed, Stop> {
    let mut parsed = Parsed {
        flags,
        given: Vec::new(),
    };
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(Stop::Help);
        }
        let flag = rows(flags)
            .find(|f| f.name == arg)
            .ok_or_else(|| Stop::Bad(format!("unknown argument {arg:?}")))?;
        let value = match flag.kind {
            Kind::Switch => Value::On,
            _ => flag.read(args.next()).map_err(Stop::Bad)?,
        };
        parsed.given.retain(|(name, _)| *name != flag.name);
        parsed.given.push((flag.name, value));
    }
    Ok(parsed)
}

/// One line per flag: synopsis, help, default and range.
pub fn usage(flags: Flags) -> String {
    let width = rows(flags).map(|f| f.synopsis().len()).max().unwrap_or(0);
    let mut text = String::new();
    for f in rows(flags) {
        let _ = writeln!(text, "  {:<width$}  {}{}", f.synopsis(), f.help, f.bounds());
    }
    text
}

/// The one-line command that runs `command` with `flags`.
pub fn replay(command: &str, flags: &str) -> String {
    format!("{LHT_EXP} {command} {flags}")
}

/// The inverse of [`replay`]: checks that `line` invokes `command`
/// and parses what follows against `flags`.
///
/// # Errors
///
/// Describes the first thing about `line` that is not such a command.
pub fn parse_replay(line: &str, command: &str, flags: Flags) -> Result<Parsed, String> {
    let words: Vec<&str> = line
        .strip_prefix(LHT_EXP)
        .ok_or_else(|| format!("not an lht-exp command: {line}"))?
        .split_whitespace()
        .collect();
    match words.split_first() {
        Some((first, rest)) if *first == command => parse(flags, rest).map_err(|stop| match stop {
            Stop::Help => "--help in a replay line".to_string(),
            Stop::Bad(why) => why,
        }),
        _ => Err(format!("not an lht-exp {command} command: {line}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: Flags = &[&[
        Flag::switch("--full", "paper scale"),
        Flag::uint("--trials", 3, "datasets per point").positive(),
        Flag::uint("--depth", 24, "tree depth").clamped(2, 64),
        Flag::opt_uint("--cache", "cache capacity"),
        Flag::prob("--drop", "drop probability"),
        Flag::choice("--substrate", &["both", "direct", "chord"], "which DHT"),
        Flag::list(
            "--pair",
            "K,M with K < M",
            |v| v.len() == 2 && v[0] < v[1],
            "a pair",
        ),
    ]];

    fn bad(args: &[&str]) -> String {
        match parse(TABLE, args) {
            Err(Stop::Bad(why)) => why,
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn absent_flags_read_their_defaults() {
        let p = parse::<&str>(TABLE, &[]).unwrap();
        assert!(!p.on("--full"));
        assert_eq!(p.uint("--trials"), 3);
        assert_eq!(p.opt_uint("--cache"), None);
        assert_eq!(p.prob("--drop"), 0.0);
        assert_eq!(p.word("--substrate"), "both");
        assert_eq!(p.list("--pair"), None);
    }

    #[test]
    fn given_flags_are_read_clamped_and_last_wins() {
        let p = parse(
            TABLE,
            &[
                "--full",
                "--trials",
                "7",
                "--depth",
                "900",
                "--cache",
                "0",
                "--drop",
                "0.25",
                "--substrate",
                "chord",
                "--pair",
                "2, 5",
                "--trials",
                "9",
            ],
        )
        .unwrap();
        assert!(p.on("--full"));
        assert_eq!(p.uint("--trials"), 9);
        assert_eq!(p.uint("--depth"), 64);
        assert_eq!(p.opt_uint("--cache"), Some(0));
        assert_eq!(p.prob("--drop"), 0.25);
        assert_eq!(p.word("--substrate"), "chord");
        assert_eq!(p.list("--pair"), Some(&[2, 5][..]));
    }

    #[test]
    fn bad_usage_names_the_flag() {
        assert_eq!(bad(&["--fast"]), "unknown argument \"--fast\"");
        assert_eq!(bad(&["--trials"]), "--trials needs a positive integer");
        assert_eq!(bad(&["--trials", "0"]), "--trials needs a positive integer");
        assert_eq!(bad(&["--depth", "x"]), "--depth needs an unsigned integer");
        assert_eq!(
            bad(&["--drop", "1.5"]),
            "--drop needs a probability in [0, 1]"
        );
        assert_eq!(
            bad(&["--substrate", "kad"]),
            "--substrate needs both|direct|chord"
        );
        assert_eq!(bad(&["--pair", "5,2"]), "--pair needs K,M with K < M");
        assert_eq!(bad(&["--pair", "1,2,x"]), "--pair needs K,M with K < M");
        assert_eq!(parse(TABLE, &["--full", "-h"]).unwrap_err(), Stop::Help);
    }

    #[test]
    fn usage_lists_every_row_with_its_default_and_range() {
        let text = usage(TABLE);
        assert_eq!(text.lines().count(), TABLE[0].len());
        assert!(text.contains("--depth N"));
        assert!(text.contains("tree depth (default 24, at least 2, at most 64)"));
        assert!(text.contains("--substrate both|direct|chord  which DHT (default both)"));
        assert!(text.contains("--pair K,M"));
    }

    #[test]
    fn replay_lines_parse_back() {
        let line = replay("soak", "--trials 5 --full");
        let p = parse_replay(&line, "soak", TABLE).unwrap();
        assert_eq!(p.uint("--trials"), 5);
        assert!(p.on("--full"));
        assert!(parse_replay(&line, "sim", TABLE).is_err());
        assert!(parse_replay("cargo run --bin exp_soak -- --full", "soak", TABLE).is_err());
        assert!(parse_replay(&replay("soak", "--trials"), "soak", TABLE).is_err());
    }
}
