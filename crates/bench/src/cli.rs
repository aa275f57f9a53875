//! The one argument parser. Every binary of this crate declares its flags
//! as a table and parses the process arguments once; a flag that is not in
//! the table, a value that is missing or a value that does not fit its
//! kind is a usage error (one line on stderr, exit 2), never a default.

/// What a flag takes.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Present or absent.
    Switch,
    /// One free-form value; the string names it in the usage line.
    Text(&'static str),
    /// One whole number no larger than the bound.
    Num(u64),
    /// One whole number from 1 up to the bound: a count that must not be
    /// zero.
    Count(u64),
}

/// A declared flag: its spelling and what it takes.
pub type Flag = (&'static str, Kind);

/// The report-format switch every experiment and operator tool shares.
pub const JSON: Flag = ("--json", Kind::Switch);

/// The flags one invocation gave, already checked against their table.
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Check `argv` against `flags`; the error is the one-line fault.
    pub fn parse(flags: &[Flag], argv: &[String]) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(&(name, kind)) = flags.iter().find(|(name, _)| name == arg) else {
                return Err(format!("unknown argument {arg:?}"));
            };
            let mut value = String::new();
            if !matches!(kind, Kind::Switch) {
                match rest.next() {
                    Some(v) if !v.starts_with("--") => value.clone_from(v),
                    _ => return Err(format!("{name} needs a value")),
                }
            }
            if let Kind::Num(max) | Kind::Count(max) = kind {
                let count = matches!(kind, Kind::Count(_));
                let least = u64::from(count);
                if !value
                    .parse::<u64>()
                    .is_ok_and(|n| (least..=max).contains(&n))
                {
                    let floor = if count { "≥ 1 and " } else { "" };
                    return Err(format!(
                        "{name} wants a whole number {floor}≤ {max}, got {value:?}"
                    ));
                }
            }
            given.push((name, value));
        }
        Ok(Args { given })
    }

    /// The value given for a [`Kind::Text`] flag.
    pub fn text(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(n, _)| *n == name)?;
        Some(value)
    }

    /// Whether a [`Kind::Switch`] was given.
    pub fn flag(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value given for a [`Kind::Num`] or [`Kind::Count`] flag.
    pub fn num(&self, name: &str) -> Option<u64> {
        self.text(name)
            .map(|v| v.parse().expect("range-checked by Args::parse"))
    }
}

/// The process arguments after the program name. This is the crate's only
/// read of `std::env::args()`.
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Report a usage fault on one line, with the accepted flags, and exit 2.
pub fn usage_exit(tool: &str, flags: &[Flag], fault: &str) -> ! {
    let mut usage = format!("{tool}: {fault}; usage: {tool}");
    for (name, kind) in flags {
        usage += &match kind {
            Kind::Switch => format!(" [{name}]"),
            Kind::Text(what) => format!(" [{name} {what}]"),
            Kind::Num(_) | Kind::Count(_) => format!(" [{name} N]"),
        };
    }
    eprintln!("{usage}");
    std::process::exit(2)
}

/// [`Args::parse`], with a fault reported through [`usage_exit`].
pub fn parse_or_exit(tool: &str, flags: &[Flag], argv: &[String]) -> Args {
    Args::parse(flags, argv).unwrap_or_else(|fault| usage_exit(tool, flags, &fault))
}
