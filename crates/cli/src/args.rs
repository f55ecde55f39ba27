//! Minimal dependency-free argument parsing: `--key value` pairs and
//! boolean `--flag`s after a subcommand, checked against `MODES`, the
//! table of what each command mode reads.

use std::error::Error;
use std::fmt;

/// A user error in the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ArgError {}

/// One way to run a command: the mode as typed (the command, then the
/// option that selects the mode and, when one value of it does, that
/// value), and the names of the options and flags it reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mode(&'static str, &'static [&'static str]);

/// Every command mode and what it reads. A command's more specific modes
/// come first, since [`Args::mode`] takes the first that matches.
#[rustfmt::skip]
pub(crate) const MODES: &[Mode] = &[
    Mode("solve", &["flows", "textent-ms", "rattack-mbps", "kappa", "target-degradation"]),
    Mode("simulate", &["flows", "seed", "queue", "min-rto-ms", "testbed", "ecn", "textent-ms",
        "rattack-mbps", "window-s", "gamma", "trace-out", "bin-ms"]),
    Mode("sweep --fig roc", &["fig", "smoke", "jobs", "warm-start", "no-warm-start", "out"]),
    Mode("sweep --fig", &["fig", "smoke", "master-seed", "cc", "shards", "jobs", "warm-start",
        "no-warm-start", "out"]),
    Mode("sweep", &["flows", "seed", "queue", "min-rto-ms", "testbed", "ecn", "textent-ms",
        "rattack-mbps", "window-s", "points", "shards", "jobs", "warm-start", "no-warm-start"]),
    Mode("sync", &["flows", "seed", "queue", "min-rto-ms", "testbed", "ecn", "textent-ms",
        "rattack-mbps", "window-s", "period-s"]),
    Mode("detect", &["csv", "capacity-mbps", "bin-ms"]),
    Mode("serve --replay", &["replay", "capacity-mbps", "bin-ms", "out"]),
    Mode("serve", &["scenario", "bin-ms", "jobs", "out"]),
    Mode("metrics", &["scenario", "format", "jobs", "out"]),
    Mode("check", &["scenarios", "master-seed", "shards", "golden-dir", "cc", "jobs", "warm-start",
        "no-warm-start", "out", "bless"]),
    Mode("fuzz --replay", &["replay"]),
    Mode("fuzz", &["scenarios", "master-seed", "budget-secs", "fault", "shrink-budget", "repro-dir",
        "jobs", "out"]),
    Mode("bench", &["shards", "smoke", "profile", "out", "baseline"]),
];

/// The names that are `--flag`s wherever a mode reads them; every other
/// name is a `--key value` option. Every mode reads `--help`, which
/// prints the help text instead of running.
#[rustfmt::skip]
const FLAGS: &[&str] =
    &["help", "testbed", "ecn", "smoke", "warm-start", "no-warm-start", "bless", "profile"];

impl Mode {
    /// The mode as typed, e.g. `sweep --fig roc`.
    pub(crate) fn name(self) -> &'static str {
        self.0
    }

    /// The names of the options and flags the mode reads.
    pub(crate) fn reads(self) -> impl Iterator<Item = &'static str> {
        self.1.iter().copied()
    }

    /// Whether `args` selects this mode.
    fn selects(self, args: &Args) -> bool {
        let mut words = self.0.split(' ');
        if words.next() != Some(args.command.as_str()) {
            return false;
        }
        match words.next() {
            None => true,
            Some(option) => args
                .get(option.trim_start_matches("--"))
                .is_some_and(|given| words.next().is_none_or(|value| value == given)),
        }
    }
}

/// Parsed command line: a subcommand plus `--key value` options and
/// `--flag` booleans, each given at most once.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: Vec<(&'static str, String)>,
    flags: Vec<&'static str>,
}

impl Args {
    /// Parses `argv[1..]`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on missing values, names no mode reads, a
    /// repeated option or flag, or a missing subcommand.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
        let mut it = argv.into_iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand; try `pdos help`".into()))?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument '{tok}' (options are --key value)"
                )));
            };
            if let Some(&flag) = FLAGS.iter().find(|flag| **flag == key) {
                if args.flag(flag) {
                    return Err(ArgError(format!("--{flag} is given twice")));
                }
                args.flags.push(flag);
            } else if let Some(key) = MODES
                .iter()
                .flat_map(|m| m.reads())
                .find(|name| *name == key)
            {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("option --{key} needs a value")))?;
                if args.get(key).is_some() {
                    return Err(ArgError(format!("option --{key} is given twice")));
                }
                args.options.push((key, value));
            } else {
                let hint = match key {
                    "droptail" => "; a drop-tail bottleneck is --queue droptail",
                    _ => "",
                };
                return Err(ArgError(format!("unknown option --{key}{hint}")));
            }
        }
        Ok(args)
    }

    /// The mode this command line selects.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for an unknown command, or naming the mode and
    /// an option or flag given that the mode does not read.
    pub(crate) fn mode(&self) -> Result<&'static Mode, ArgError> {
        let mode = MODES.iter().find(|m| m.selects(self)).ok_or_else(|| {
            ArgError(format!(
                "unknown command '{}'; try `pdos help`",
                self.command
            ))
        })?;
        let given = self.options.iter().map(|(key, _)| *key);
        let unread = given
            .chain(self.flags.iter().copied())
            .find(|name| *name != "help" && !mode.reads().any(|read| read == *name));
        match unread {
            Some(name) => Err(ArgError(format!(
                "`{}` does not read --{name}; see `pdos help`",
                mode.name()
            ))),
            None => Ok(mode),
        }
    }

    /// Whether `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// A required numeric option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when missing or unparsable.
    pub fn require_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let v = self
            .get(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))?;
        v.parse()
            .map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("simulate --flows 15 --gamma 0.3 --ecn").unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.num::<usize>("flows", 0).unwrap(), 15);
        assert_eq!(a.num::<f64>("gamma", 0.0).unwrap(), 0.3);
        assert!(a.flag("ecn"));
        assert!(!a.flag("droptail"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("solve").unwrap();
        assert_eq!(a.num::<usize>("flows", 25).unwrap(), 25);
        assert_eq!(a.get("queue"), None);
    }

    #[test]
    fn missing_subcommand_rejected() {
        assert!(Args::parse(Vec::new()).is_err());
    }

    #[test]
    fn unknown_option_rejected() {
        let e = parse("solve --bogus 3").unwrap_err();
        assert!(e.to_string().contains("--bogus"));
    }

    #[test]
    fn missing_value_rejected() {
        let e = parse("solve --flows").unwrap_err();
        assert!(e.to_string().contains("needs a value"));
    }

    #[test]
    fn unparsable_value_rejected() {
        let a = parse("solve --flows abc").unwrap();
        assert!(a.num::<usize>("flows", 1).is_err());
        assert!(a.require_num::<usize>("flows").is_err());
    }

    #[test]
    fn positional_after_command_rejected() {
        assert!(parse("solve stray").is_err());
    }

    #[test]
    fn required_option_enforced() {
        let a = parse("detect").unwrap();
        assert!(a.require_num::<f64>("capacity-mbps").is_err());
    }

    #[test]
    fn sweep_figure_options_round_trip() {
        let a = parse(
            "sweep --fig fig06 --jobs 3 --smoke --master-seed 17 --cc cubic --out /tmp/r.json",
        )
        .unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.get("fig"), Some("fig06"));
        assert_eq!(a.get("cc"), Some("cubic"));
        assert_eq!(a.num::<usize>("jobs", 0).unwrap(), 3);
        assert!(a.flag("smoke"));
        assert_eq!(a.num::<u64>("master-seed", 0).unwrap(), 17);
        assert_eq!(a.get("out"), Some("/tmp/r.json"));
        // Absent flags and keys fall back cleanly.
        assert!(!a.flag("bless"));
        assert_eq!(a.num::<u64>("seed", 9).unwrap(), 9);
    }

    #[test]
    fn warm_start_flags_round_trip() {
        let a = parse("sweep --fig fig06 --no-warm-start").unwrap();
        assert!(a.flag("no-warm-start"));
        assert!(!a.flag("warm-start"));
        let b = parse("sweep --fig fig06 --warm-start").unwrap();
        assert!(b.flag("warm-start"));
        assert!(!b.flag("no-warm-start"));
    }

    #[test]
    fn fuzz_options_round_trip() {
        let a = parse(
            "fuzz --scenarios 300 --budget-secs 900 --master-seed 3 --jobs 2 \
             --out /tmp/f.json --repro-dir /tmp/repros --shrink-budget 16 --fault none",
        )
        .unwrap();
        assert_eq!(a.command, "fuzz");
        assert_eq!(a.num::<usize>("scenarios", 0).unwrap(), 300);
        assert_eq!(a.num::<u64>("budget-secs", 0).unwrap(), 900);
        assert_eq!(a.get("repro-dir"), Some("/tmp/repros"));
        assert_eq!(a.num::<usize>("shrink-budget", 0).unwrap(), 16);
        assert_eq!(a.get("fault"), Some("none"));
        let b = parse("fuzz --replay /tmp/repros/case.repro").unwrap();
        assert_eq!(b.get("replay"), Some("/tmp/repros/case.repro"));
    }

    #[test]
    fn check_options_round_trip() {
        let a = parse("check --scenarios 50 --golden-dir tests/golden --bless --jobs 2").unwrap();
        assert_eq!(a.command, "check");
        assert_eq!(a.num::<usize>("scenarios", 0).unwrap(), 50);
        assert_eq!(a.get("golden-dir"), Some("tests/golden"));
        assert!(a.flag("bless"));
        assert_eq!(a.num::<usize>("jobs", 0).unwrap(), 2);
    }

    #[test]
    fn droptail_flag_is_rejected_naming_the_queue_option() {
        let e = parse("simulate --flows 3 --window-s 2 --droptail").unwrap_err();
        assert!(e.to_string().contains("--droptail"), "{e}");
        assert!(e.to_string().contains("--queue droptail"), "{e}");
    }

    #[test]
    fn repeated_options_and_flags_rejected() {
        let e = parse("simulate --flows 3 --flows 40").unwrap_err();
        assert!(e.to_string().contains("--flows is given twice"), "{e}");
        let e = parse("sweep --ecn --points 2 --ecn").unwrap_err();
        assert!(e.to_string().contains("--ecn is given twice"), "{e}");
    }

    #[test]
    fn each_command_line_selects_one_mode() {
        for (line, mode) in [
            ("solve", "solve"),
            ("sweep --points 2", "sweep"),
            ("sweep --fig fig06 --smoke", "sweep --fig"),
            ("sweep --fig roc --smoke", "sweep --fig roc"),
            ("serve --scenario golden", "serve"),
            ("serve --replay t.txt --capacity-mbps 15", "serve --replay"),
            ("fuzz --scenarios 2", "fuzz"),
            ("fuzz --replay r.repro", "fuzz --replay"),
            ("simulate --help --flows 2", "simulate"),
        ] {
            assert_eq!(parse(line).unwrap().mode().unwrap().name(), mode, "{line}");
        }
        let e = parse("frobnicate").unwrap().mode().unwrap_err();
        assert!(e.to_string().contains("unknown command"), "{e}");
    }

    #[test]
    fn options_the_mode_does_not_read_are_rejected_naming_both() {
        for (line, mode, name) in [
            (
                "sweep --fig fig06 --smoke --flows 3",
                "sweep --fig",
                "--flows",
            ),
            (
                "sweep --flows 2 --points 2 --window-s 1 --gamma 0.9",
                "sweep",
                "--gamma",
            ),
            ("solve --jobs 9", "solve", "--jobs"),
            ("fuzz --scenarios 2 --shards 2", "fuzz", "--shards"),
            (
                "sweep --fig roc --smoke --cc cubic",
                "sweep --fig roc",
                "--cc",
            ),
            (
                "serve --replay t.txt --scenario golden",
                "serve --replay",
                "--scenario",
            ),
            (
                "fuzz --replay r.repro --scenarios 3",
                "fuzz --replay",
                "--scenarios",
            ),
            ("metrics --warm-start", "metrics", "--warm-start"),
            ("detect --csv t.txt --smoke", "detect", "--smoke"),
        ] {
            let e = parse(line).unwrap().mode().unwrap_err().to_string();
            assert!(e.contains(&format!("`{mode}`")), "{line}: {e}");
            assert!(e.contains(name), "{line}: {e}");
        }
    }

    /// Every name means one thing and is read somewhere: no mode reads a
    /// name twice, each mode reads the option that selects it, and some
    /// mode reads every flag. 40 names are settable, `--help` included.
    #[test]
    fn mode_table_is_consistent() {
        let is_flag = |name: &str| FLAGS.contains(&name);
        let mut names: Vec<&str> = FLAGS.to_vec();
        for mode in MODES {
            let mut own: Vec<&str> = mode.reads().collect();
            let listed = own.len();
            own.sort_unstable();
            own.dedup();
            assert_eq!(own.len(), listed, "{} reads a name twice", mode.name());
            if let Some(selector) = mode.name().split(' ').nth(1) {
                let selector = selector.trim_start_matches("--");
                assert!(
                    own.contains(&selector) && !is_flag(selector),
                    "{}",
                    mode.name()
                );
            }
            names.extend(own);
        }
        for &flag in FLAGS.iter().filter(|flag| **flag != "help") {
            let read = MODES
                .iter()
                .any(|mode| mode.reads().any(|name| name == flag));
            assert!(read, "no mode reads --{flag}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40, "{names:?}");
    }

    /// Every token the parser gives a meaning to, plus values and junk.
    fn token_pool() -> Vec<String> {
        let names = MODES.iter().flat_map(|mode| mode.reads());
        let mut pool: Vec<String> = names.map(|name| format!("--{name}")).collect();
        pool.extend(
            MODES
                .iter()
                .filter_map(|mode| mode.name().split(' ').next().map(String::from)),
        );
        pool.extend(
            [
                "--help",
                "help",
                "roc",
                "fig06",
                "nan",
                "inf",
                "-inf",
                "-0",
                "0",
                "7",
                "2.5",
                "1e308",
                "1e-300",
                "--",
                "-x",
                "",
                "--droptail",
                "--bogus",
            ]
            .map(String::from),
        );
        pool
    }

    /// `cmd --key value … --flag …`, the canonical spelling of `args`.
    fn render(args: &Args) -> Vec<String> {
        let mut argv = vec![args.command.clone()];
        for (key, value) in &args.options {
            argv.extend([format!("--{key}"), value.clone()]);
        }
        argv.extend(args.flags.iter().map(|flag| format!("--{flag}")));
        argv
    }

    /// Random token sequences never panic `Args::parse` or the mode
    /// check, and a line that parses parses to the same options once
    /// rendered canonically.
    #[test]
    fn random_token_sequences_never_panic_and_round_trip() {
        use proptest::prelude::Strategy;
        let pool = token_pool();
        let lines = proptest::collection::vec(0..pool.len(), 1..10);
        let mut parsed = 0;
        for case in 0..4000 {
            let mut rng = proptest::test_runner::TestRng::for_case(case);
            let argv: Vec<String> = lines
                .generate(&mut rng)
                .into_iter()
                .map(|i| pool[i].clone())
                .collect();
            let Ok(args) = Args::parse(argv.clone()) else {
                continue;
            };
            parsed += 1;
            let _ = args.mode();
            let again = Args::parse(render(&args)).expect("a rendered line parses");
            assert_eq!(
                (&again.command, &again.options, &again.flags),
                (&args.command, &args.options, &args.flags),
                "{argv:?}"
            );
        }
        assert!(parsed > 400, "only {parsed} of 4000 lines parsed");
    }
}
