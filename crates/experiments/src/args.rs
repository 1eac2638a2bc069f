//! The command line shared by the experiment drivers (`all`, `ablations`,
//! `controls`): `[--test-scale]`, plus `[--json <dir>]` for the drivers
//! that write JSON twins. Anything else is a usage error, so a misspelt
//! flag can never fall back to the paper-scale run.

use std::path::PathBuf;

use amnesiac_workloads::Scale;

/// A driver's parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverArgs {
    /// [`Scale::Test`] with `--test-scale`, else [`Scale::Paper`].
    pub scale: Scale,
    /// The directory given with `--json`, where the twins go.
    pub json_dir: Option<PathBuf>,
}

impl DriverArgs {
    /// Parses `args` (without the program name). `--json <dir>` is a flag
    /// only when `json` is set.
    ///
    /// # Errors
    ///
    /// Names the first unknown argument, a `--json` without a directory
    /// (end of line or another `--flag` in its place), or a repeated
    /// `--json`.
    fn parse(args: &[String], json: bool) -> Result<DriverArgs, String> {
        let mut parsed = DriverArgs {
            scale: Scale::Paper,
            json_dir: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test-scale" => parsed.scale = Scale::Test,
                "--json" if json => {
                    let dir = args
                        .next()
                        .filter(|dir| !dir.starts_with("--"))
                        .ok_or("--json needs a directory")?;
                    if parsed.json_dir.replace(PathBuf::from(dir)).is_some() {
                        return Err("--json given twice".into());
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments of the driver `name`; on an error,
    /// prints it with the driver's usage to stderr and exits with status 2.
    pub fn from_env(name: &str, json: bool) -> DriverArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        DriverArgs::parse(&args, json).unwrap_or_else(|e| {
            let json_flag = if json { " [--json <dir>]" } else { "" };
            eprintln!("error: {e}\n\nusage: {name} [--test-scale]{json_flag}");
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], json: bool) -> Result<DriverArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        DriverArgs::parse(&args, json)
    }

    #[test]
    fn known_flags_parse_in_any_order() {
        assert_eq!(
            parse(&[], true),
            Ok(DriverArgs {
                scale: Scale::Paper,
                json_dir: None
            })
        );
        assert_eq!(
            parse(&["--json", "out", "--test-scale"], true),
            Ok(DriverArgs {
                scale: Scale::Test,
                json_dir: Some(PathBuf::from("out"))
            })
        );
    }

    #[test]
    fn unknown_or_misspelt_flags_are_errors() {
        assert_eq!(
            parse(&["--test-scal"], true),
            Err("unknown argument `--test-scal`".into())
        );
        assert_eq!(
            parse(&["--test-scale", "--jsno", "d"], true),
            Err("unknown argument `--jsno`".into())
        );
        // a driver without twins takes no --json
        assert_eq!(
            parse(&["--json", "d"], false),
            Err("unknown argument `--json`".into())
        );
    }

    #[test]
    fn json_needs_one_directory() {
        let missing = Err("--json needs a directory".into());
        assert_eq!(parse(&["--test-scale", "--json"], true), missing);
        assert_eq!(parse(&["--json", "--test-scale"], true), missing);
        assert_eq!(
            parse(&["--json", "a", "--json", "b"], true),
            Err("--json given twice".into())
        );
    }
}
