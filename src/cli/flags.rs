//! The one flag parser of `tepic-cc` and `tepic-ccd`.
//!
//! A subcommand declares each flag once, as a [`Flag`]: its name, its
//! value placeholder, what a valid value is, how to parse and check it,
//! and which field of the options struct it sets. That table drives
//! parsing, the errors (`--jobs wants a positive integer`, `unknown
//! option --x`) and the usage line, so the three cannot drift. Flags
//! may come in any order and may repeat (the last one wins); a
//! subcommand with a positional argument (`<file.tink|->`) takes it
//! anywhere among the flags.

use std::str::FromStr;

/// Stores a flag's value into the options, or rejects it with `None`.
type Setter<T> = Box<dyn Fn(&mut T, &str) -> Option<()>>;

/// One declared flag of an options struct `T`.
pub(crate) struct Flag<T> {
    pub(super) name: &'static str,
    /// Placeholder in the usage line (`<N>`); empty for a switch.
    pub(super) value: &'static str,
    /// What a rejected value should have been: "a positive integer".
    pub(super) wants: String,
    pub(super) required: bool,
    set: Setter<T>,
}

/// What an unsigned 64-bit value wants.
pub(crate) const U64: &str = "an unsigned 64-bit integer";
/// What a [`positive`] value wants.
pub(crate) const POSITIVE: &str = "a positive integer";
/// What a path wants.
pub(crate) const PATH: &str = "a path";

impl<T: 'static> Flag<T> {
    /// A flag without a value: sets the bool `field` points at.
    pub(crate) fn switch(
        name: &'static str,
        field: impl Fn(&mut T) -> &mut bool + 'static,
    ) -> Flag<T> {
        let set: Setter<T> = Box::new(move |o, _| {
            *field(o) = true;
            Some(())
        });
        Flag::new(name, "", String::new(), set)
    }

    /// A flag whose value `parse` turns into `field`'s value; `None`
    /// rejects it.
    pub(crate) fn value<U: 'static>(
        name: &'static str,
        value: &'static str,
        wants: impl Into<String>,
        parse: fn(&str) -> Option<U>,
        field: impl Fn(&mut T) -> &mut U + 'static,
    ) -> Flag<T> {
        let set: Setter<T> = Box::new(move |o, v| {
            *field(o) = parse(v)?;
            Some(())
        });
        Flag::new(name, value, wants.into(), set)
    }

    /// [`Flag::value`] into an optional field.
    pub(crate) fn some<U: 'static>(
        name: &'static str,
        value: &'static str,
        wants: impl Into<String>,
        parse: fn(&str) -> Option<U>,
        field: impl Fn(&mut T) -> &mut Option<U> + 'static,
    ) -> Flag<T> {
        let set: Setter<T> = Box::new(move |o, v| {
            *field(o) = Some(parse(v)?);
            Some(())
        });
        Flag::new(name, value, wants.into(), set)
    }

    fn new(name: &'static str, value: &'static str, wants: String, set: Setter<T>) -> Flag<T> {
        Flag {
            name,
            value,
            wants,
            required: false,
            set,
        }
    }

    /// Makes the flag mandatory; the usage line shows it unbracketed.
    pub(crate) fn required(mut self) -> Flag<T> {
        self.required = true;
        self
    }
}

/// Parses any value with a [`FromStr`]: numbers, paths, strings.
pub(crate) fn parsed<U: FromStr>(v: &str) -> Option<U> {
    v.parse().ok()
}

/// Parses a count that must be at least 1.
pub(crate) fn positive(v: &str) -> Option<usize> {
    parsed(v).filter(|&n| n > 0)
}

/// A command line's grammar: its name, an optional positional argument
/// and its flags.
pub(crate) struct Command<T> {
    /// What the usage line calls it: `tepic-cc bench`.
    pub(crate) name: &'static str,
    /// The positional argument's placeholder, if it takes one.
    pub(crate) positional: Option<&'static str>,
    /// Every flag it accepts.
    pub(crate) flags: Vec<Flag<T>>,
}

impl<T: Default> Command<T> {
    /// Parses `args` (everything after the subcommand) into a fresh `T`
    /// and the positional argument. The error is the message to print
    /// after the command's name.
    pub(crate) fn parse(&self, args: &[String]) -> Result<(T, Option<String>), String> {
        let mut opts = T::default();
        let mut positional = None;
        let mut seen = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                match self.positional {
                    Some(_) if positional.is_none() => positional = Some(arg.clone()),
                    _ => return Err(format!("unexpected argument {arg}")),
                }
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown option {arg}"));
            };
            let value = if flag.value.is_empty() {
                Some("")
            } else {
                it.next().map(String::as_str)
            };
            if value.and_then(|v| (flag.set)(&mut opts, v)).is_none() {
                return Err(format!("{} wants {}", flag.name, flag.wants));
            }
            seen.push(flag.name);
        }
        let missing = self
            .flags
            .iter()
            .find(|f| f.required && !seen.contains(&f.name));
        if let Some(flag) = missing {
            return Err(format!("{} is required ({})", flag.name, flag.wants));
        }
        match (self.positional, &positional) {
            (Some(p), None) => Err(format!("missing {p}")),
            _ => Ok((opts, positional)),
        }
    }
}

impl<T> Command<T> {
    /// The usage line, wrapped under 80 columns:
    /// `tepic-cc bench [--jobs <N>] [--no-cache] ..`.
    pub(crate) fn usage(&self) -> String {
        let flags = self.flags.iter().map(|f| {
            let flag = match f.value {
                "" => f.name.to_string(),
                v => format!("{} {v}", f.name),
            };
            if f.required {
                flag
            } else {
                format!("[{flag}]")
            }
        });
        let words = self.positional.map(str::to_string).into_iter().chain(flags);
        // Continuation lines align under the first argument, or under
        // column 17 for a long subcommand list.
        let indent = " ".repeat(self.name.len().min(16));
        let mut out = self.name.to_string();
        let mut width = out.len();
        for word in words {
            if width + 1 + word.len() > 78 {
                out.push('\n');
                out.push_str(&indent);
                width = indent.len();
            }
            out.push(' ');
            out.push_str(&word);
            width += 1 + word.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Opts {
        seed: u64,
        quiet: bool,
        name: Option<String>,
    }

    fn cmd() -> Command<Opts> {
        Command {
            name: "tool demo",
            positional: Some("<file|->"),
            flags: vec![
                Flag::value("--seed", "<u64>", U64, parsed, |o: &mut Opts| &mut o.seed),
                Flag::switch("--quiet", |o: &mut Opts| &mut o.quiet),
            ],
        }
    }

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_may_come_before_or_after_the_positional() {
        for line in [
            &["f.tink", "--seed", "7", "--quiet"][..],
            &["--seed", "7", "f.tink", "--quiet"],
            &["--quiet", "--seed", "7", "f.tink"],
        ] {
            let (o, file) = cmd().parse(&args(line)).unwrap();
            assert_eq!(
                (o.seed, o.quiet, file.as_deref()),
                (7, true, Some("f.tink"))
            );
        }
        // `-` is stdin, not a flag; the last repeat of a flag wins.
        let (o, file) = cmd()
            .parse(&args(&["-", "--seed", "1", "--seed", "2"]))
            .unwrap();
        assert_eq!((o.seed, file.as_deref()), (2, Some("-")));
    }

    #[test]
    fn rejections_name_the_flag_and_what_it_wants() {
        let err = |a: &[&str]| cmd().parse(&args(a)).err().unwrap();
        assert_eq!(err(&["f", "--seed", "x"]), format!("--seed wants {U64}"));
        assert_eq!(err(&["f", "--seed"]), format!("--seed wants {U64}"));
        assert_eq!(err(&["f", "--loud"]), "unknown option --loud");
        assert_eq!(err(&["f", "g"]), "unexpected argument g");
        assert_eq!(err(&["--quiet"]), "missing <file|->");
    }

    #[test]
    fn required_flags_must_appear_and_print_unbracketed() {
        let mut c = cmd();
        c.positional = None;
        let name = Flag::some("--name", "<s>", "a name", parsed, |o: &mut Opts| {
            &mut o.name
        });
        c.flags.push(name.required());
        assert_eq!(
            c.parse(&args(&["--quiet"])).err().unwrap(),
            "--name is required (a name)"
        );
        let (o, _) = c.parse(&args(&["--name", "x"])).unwrap();
        assert_eq!(o.name.as_deref(), Some("x"));
        assert_eq!(c.usage(), "tool demo [--seed <u64>] [--quiet] --name <s>");
    }

    #[test]
    fn long_usage_lines_wrap_under_the_command_name() {
        let mut c = cmd();
        for _ in 0..6 {
            c.flags
                .push(Flag::switch("--a-long-switch-name", |o: &mut Opts| {
                    &mut o.quiet
                }));
        }
        let usage = c.usage();
        assert!(usage.lines().count() > 1, "{usage}");
        for line in usage.lines() {
            assert!(line.len() <= 78, "{line}");
        }
        assert!(usage.lines().skip(1).all(|l| l.starts_with("          [")));
    }

    #[test]
    fn positive_counts_reject_zero_and_junk() {
        assert_eq!(positive("3"), Some(3));
        assert_eq!(positive("0"), None);
        assert_eq!(positive("-1"), None);
        assert_eq!(positive("x"), None);
    }
}
