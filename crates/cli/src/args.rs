//! A small `--flag value` argument parser (no external dependencies).
//!
//! Every accessor records the flag it was asked for, so once a command
//! has run, [`ParsedArgs::reject_unread`] can name any flag the command
//! never looked at — a misspelling, a removed option, or a flag that does
//! not apply to the mode the other flags selected — instead of silently
//! running as if it were absent.

use std::cell::Cell;

/// One `--key value` pair plus whether a command has read it.
#[derive(Debug, Clone)]
struct Flag {
    key: String,
    value: String,
    read: Cell<bool>,
}

/// Parsed command line: a subcommand and its flags.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// `--key value` and bare `--switch` flags (the latter map to "true"),
    /// in command-line order; a repeated key keeps its first position and
    /// its last value.
    flags: Vec<Flag>,
}

impl ParsedArgs {
    /// Parses raw arguments.
    ///
    /// # Errors
    ///
    /// Returns a message for an empty command line, a flag before the
    /// subcommand, or a stray positional argument (no command takes one).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut parsed = ParsedArgs::default();
        let mut iter = argv.iter().peekable();
        match iter.next() {
            Some(cmd) if !cmd.starts_with("--") => parsed.command = cmd.clone(),
            Some(flag) => return Err(format!("expected a subcommand, got flag {flag}")),
            None => return Err("no subcommand given".to_string()),
        }
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {token:?} (flags are spelled --name value)"
                ));
            };
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().expect("peeked").clone(),
                _ => "true".to_string(),
            };
            match parsed.flags.iter_mut().find(|f| f.key == key) {
                Some(flag) => flag.value = value,
                None => {
                    parsed.flags.push(Flag { key: key.to_string(), value, read: Cell::new(false) })
                }
            }
        }
        Ok(parsed)
    }

    /// The value of `--key`, marking it read.
    fn get(&self, key: &str) -> Option<&str> {
        let flag = self.flags.iter().find(|f| f.key == key)?;
        flag.read.set(true);
        Some(&flag.value)
    }

    /// String flag with default.
    pub fn flag_str(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// Whether a bare switch was given.
    ///
    /// # Errors
    ///
    /// A switch followed by a bare token (`--csv extra`) fails naming
    /// both, instead of reading as "off"; only `true`/`false` values are
    /// accepted.
    pub fn switch(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            None | Some("false") => Ok(false),
            Some("true") => Ok(true),
            Some(v) => Err(format!("--{key} takes no value, got {v:?}")),
        }
    }

    /// Parsed numeric flag with default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn flag_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// Fails naming the first flag (in command-line order) that no
    /// accessor has read. The dispatcher calls this after a command
    /// succeeds; commands that run until stopped (`serve`, live `top`)
    /// call it themselves once they have read every flag they take.
    ///
    /// # Errors
    ///
    /// `"<command>: unknown or unused flag --<key>"`.
    pub fn reject_unread(&self) -> Result<(), String> {
        match self.flags.iter().find(|f| !f.read.get()) {
            Some(flag) => Err(format!("{}: unknown or unused flag --{}", self.command, flag.key)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        try_parse(tokens).unwrap()
    }

    fn try_parse(tokens: &[&str]) -> Result<ParsedArgs, String> {
        ParsedArgs::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["solve", "--n", "10", "--csv"]);
        assert_eq!(a.command, "solve");
        assert_eq!(a.flag_num("n", 1usize).unwrap(), 10);
        assert!(a.switch("csv").unwrap());
        assert!(!a.switch("quiet").unwrap());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["solve"]);
        assert_eq!(a.flag_str("protocol", "WO"), "WO");
        assert_eq!(a.flag_num("n", 4usize).unwrap(), 4);
    }

    #[test]
    fn rejects_empty() {
        assert!(ParsedArgs::parse(&[]).is_err());
    }

    #[test]
    fn rejects_leading_flag() {
        assert!(ParsedArgs::parse(&["--n".to_string()]).is_err());
    }

    #[test]
    fn rejects_positional_arguments() {
        let err = try_parse(&["table", "b"]).unwrap_err();
        assert!(err.contains("\"b\""), "{err}");
        // A flag takes at most one value; the next bare token is stray.
        let err = try_parse(&["solve", "--n", "4", "extra"]).unwrap_err();
        assert!(err.contains("\"extra\""), "{err}");
    }

    #[test]
    fn bad_number_is_reported() {
        let a = parse(&["solve", "--n", "ten"]);
        let err = a.flag_num("n", 1usize).unwrap_err();
        assert!(err.contains("--n"));
    }

    #[test]
    fn unread_flags_are_named_in_command_line_order() {
        let a = parse(&["solve", "--protcol", "dragon", "--n", "4", "--metrics-out", "f"]);
        assert_eq!(a.flag_num("n", 1usize).unwrap(), 4);
        assert_eq!(a.reject_unread().unwrap_err(), "solve: unknown or unused flag --protcol");
        assert_eq!(a.flag_str("protocol", "WO"), "WO");
        let _ = a.flag_str("protcol", "");
        assert_eq!(a.reject_unread().unwrap_err(), "solve: unknown or unused flag --metrics-out");
        let _ = a.flag_str("metrics-out", "");
        assert!(a.reject_unread().is_ok());
    }

    #[test]
    fn switch_followed_by_a_bare_token_is_an_error() {
        let a = parse(&["figure", "--csv", "extra", "--once", "false"]);
        assert_eq!(a.switch("csv").unwrap_err(), "--csv takes no value, got \"extra\"");
        assert!(!a.switch("once").unwrap());
    }

    #[test]
    fn repeated_flag_keeps_the_last_value() {
        let a = parse(&["sweep", "--n", "3", "--n", "5"]);
        assert_eq!(a.flag_num("n", 1usize).unwrap(), 5);
        assert!(a.reject_unread().is_ok());
    }
}
