//! The one table of `GARIBALDI_*` environment knobs and their typed
//! readers.
//!
//! Every `GARIBALDI_*` read in the simulator, the benches and the tests
//! goes through a [`Knob`] of [`TABLE`]: one row per variable with its
//! kind, its default and a one-line doc (the README's environment table
//! mirrors the rows, and a test keeps the two in step). Readers fail
//! loudly, naming the variable:
//!
//! - a [`Kind::Flag`] accepts exactly `1`, `true`, `0` or `false`;
//! - a [`Kind::Count`] is a positive integer, surrounding whitespace
//!   allowed;
//! - a [`Kind::Text`] is any non-empty UTF-8 string, validated by the
//!   code that consumes it (fault specs).
//!
//! A set `GARIBALDI_*` variable that is not a row of the table — a
//! retired knob or a typo — makes every knob read panic, naming it, so a
//! stale script never silently runs something other than it asked for.

/// How a knob's value is parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `1|true` or `0|false`; unset is false.
    Flag,
    /// A positive integer; unset is `None`.
    Count,
    /// A non-empty string; unset is `None`.
    Text,
}

impl Kind {
    /// Lower-case name, as the README's table prints it.
    pub fn label(self) -> &'static str {
        match self {
            Self::Flag => "flag",
            Self::Count => "count",
            Self::Text => "text",
        }
    }
}

/// One environment variable: a row of [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// Variable name, `GARIBALDI_*`.
    pub name: &'static str,
    /// How the value is parsed.
    pub kind: Kind,
    /// What applies when the variable is unset.
    pub default: &'static str,
    /// What the variable does, in one line.
    pub doc: &'static str,
}

/// Engine choice: the parallel engine's worker threads (see
/// `EngineChoice::from_env`).
pub const WORKERS: Knob = Knob {
    name: "GARIBALDI_WORKERS",
    kind: Kind::Count,
    default: "unset",
    doc: "selects the parallel engine with N worker threads; unset, the library, the benches and \
          the CLI without `--workers` (a `--replay` included) run serial; the bench job pool \
          divides by N",
};

/// Paper-scale switch (see `ExperimentScale::from_env`).
pub const FULL: Knob = Knob {
    name: "GARIBALDI_FULL",
    kind: Kind::Flag,
    default: "0",
    doc: "figure benches run the paper's 40-core Table 1 scale instead of the 8-core half scale",
};

/// Golden re-bless switch for the golden-file tests.
pub const BLESS: Knob = Knob {
    name: "GARIBALDI_BLESS",
    kind: Kind::Flag,
    default: "0",
    doc: "the fidelity and coherence golden tests rewrite their goldens instead of comparing",
};

/// Barrier watchdog timeout in seconds.
pub const BARRIER_TIMEOUT_S: Knob = Knob {
    name: "GARIBALDI_BARRIER_TIMEOUT_S",
    kind: Kind::Count,
    default: "unset",
    doc: "arms the barrier watchdog: a parallel section stuck N seconds ends the run in an \
          `EngineError`",
};

/// Fault-injection plan (see [`crate::fault`]).
pub const FAULTS: Knob = Knob {
    name: "GARIBALDI_FAULTS",
    kind: Kind::Text,
    default: "unset",
    doc: "installs a fault-injection plan such as `panic@epoch:3` (DSL in `garibaldi_sim::fault`)",
};

/// Every live knob. A set `GARIBALDI_*` variable outside this table is an
/// error at the first knob read.
pub const TABLE: [Knob; 5] = [WORKERS, FULL, BLESS, BARRIER_TIMEOUT_S, FAULTS];

impl Knob {
    /// Reads a [`Kind::Flag`] knob; unset is false.
    ///
    /// # Panics
    ///
    /// On any value but `1`, `true`, `0` or `false`, naming the variable,
    /// and on a set `GARIBALDI_*` variable that is not in [`TABLE`].
    pub fn flag(&self) -> bool {
        parse_flag(self.name, self.raw(Kind::Flag).as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reads a [`Kind::Count`] knob; `None` when unset.
    ///
    /// # Panics
    ///
    /// On zero, garbage or overflow, naming the variable, and on a set
    /// `GARIBALDI_*` variable that is not in [`TABLE`].
    pub fn count(&self) -> Option<usize> {
        crate::config::parse_positive(self.name, self.raw(Kind::Count).as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reads a [`Kind::Text`] knob; `None` when unset.
    ///
    /// # Panics
    ///
    /// On an empty value, naming the variable, and on a set `GARIBALDI_*`
    /// variable that is not in [`TABLE`].
    pub fn text(&self) -> Option<String> {
        let raw = self.raw(Kind::Text);
        parse_text(self.name, raw.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        raw
    }

    fn raw(&self, kind: Kind) -> Option<String> {
        assert_eq!(self.kind, kind, "{} is a {} knob", self.name, self.kind.label());
        let names = std::env::vars_os().filter_map(|(k, _)| k.into_string().ok());
        check_names(names).unwrap_or_else(|e| panic!("{e}"));
        match std::env::var(self.name) {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(v)) => {
                panic!("{} must be valid UTF-8, got {v:?}", self.name)
            }
        }
    }
}

/// Rejects any `GARIBALDI_*` name among `names` that is not a row of
/// [`TABLE`].
///
/// # Errors
///
/// Names the first such variable and lists the live ones.
fn check_names(names: impl IntoIterator<Item = String>) -> Result<(), String> {
    for name in names {
        if name.starts_with("GARIBALDI_") && !TABLE.iter().any(|k| k.name == name) {
            let live: Vec<&str> = TABLE.iter().map(|k| k.name).collect();
            return Err(format!(
                "{name} is set but is not a GARIBALDI_* knob (retired, or a typo); unset it. \
                 Live knobs: {}",
                live.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parses a flag value; unset is false.
///
/// # Errors
///
/// Rejects anything but exactly `1`, `true`, `0` or `false`, naming `var`.
fn parse_flag(var: &str, raw: Option<&str>) -> Result<bool, String> {
    match raw {
        None | Some("0" | "false") => Ok(false),
        Some("1" | "true") => Ok(true),
        Some(other) => Err(format!("{var} must be 1, true, 0 or false, got {other:?}")),
    }
}

/// Checks a text value: set values must not be blank.
///
/// # Errors
///
/// Rejects an empty or all-whitespace value, naming `var`.
fn parse_text(var: &str, raw: Option<&str>) -> Result<(), String> {
    match raw {
        Some(v) if v.trim().is_empty() => {
            Err(format!("{var} is set but empty (unset it to use the default)"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_unique_garibaldi_vars() {
        for (i, k) in TABLE.iter().enumerate() {
            assert!(k.name.starts_with("GARIBALDI_"), "{}", k.name);
            assert!(TABLE[..i].iter().all(|o| o.name != k.name), "{} listed twice", k.name);
            assert!(!k.doc.contains('|'), "{}: the doc is a markdown table cell", k.name);
        }
    }

    #[test]
    fn flags_accept_exactly_four_spellings() {
        assert!(!parse_flag("X", None).unwrap());
        assert!(parse_flag("X", Some("1")).unwrap());
        assert!(parse_flag("X", Some("true")).unwrap());
        assert!(!parse_flag("X", Some("0")).unwrap());
        assert!(!parse_flag("X", Some("false")).unwrap());
        for bad in ["", "yes", "TRUE", " 1", "2", "on"] {
            let err = parse_flag("GARIBALDI_FULL", Some(bad)).unwrap_err();
            assert!(err.contains("GARIBALDI_FULL"), "error names the variable: {err}");
            assert!(err.contains(&format!("{bad:?}")), "error shows the value: {err}");
        }
    }

    #[test]
    fn text_rejects_blank_values() {
        assert!(parse_text("X", None).is_ok());
        assert!(parse_text("X", Some("serial")).is_ok());
        for bad in ["", "  "] {
            let err = parse_text("GARIBALDI_FAULTS", Some(bad)).unwrap_err();
            assert!(err.contains("GARIBALDI_FAULTS"), "error names the variable: {err}");
        }
    }

    #[test]
    fn names_outside_the_table_are_rejected() {
        let ok = ["PATH", "GARIBALDI_WORKERS", "GARIBALDI_FAULTS"].map(String::from);
        assert!(check_names(ok).is_ok());
        for stale in ["GARIBALDI_EPOCH", "GARIBALDI_ESTIMATOR", "GARIBALDI_WORKER"] {
            let err = check_names(["HOME".to_string(), stale.to_string()]).unwrap_err();
            assert!(err.starts_with(stale), "error names the variable: {err}");
        }
    }
}
