//! Structured diagnostics shared by [`crate::validate`] and the
//! `graphene-analysis` crate.
//!
//! Every finding carries a stable machine-readable `code` (`GRA0xx`), a
//! [`Severity`], a human-readable message, and an optional *statement
//! path* locating the offending statement inside the kernel body
//! (e.g. `body > for ks2 (iteration 1) > if (...)`). Diagnostics render
//! both as plain text ([`fmt::Display`]) and as JSON
//! ([`Diagnostic::to_json`] / [`render_json`]) so tools and CI can
//! consume them.
//!
//! # Diagnostic codes
//!
//! | code   | severity | meaning |
//! |--------|----------|---------|
//! | GRA001 | error    | exec config needs more threads than the block has |
//! | GRA002 | error    | undecomposed spec matches no atomic spec |
//! | GRA003 | error    | binary pointwise operand element counts disagree |
//! | GRA004 | error    | move element counts irreconcilable |
//! | GRA005 | error    | shared-memory allocation exceeds the arch limit |
//! | GRA010 | error    | shared-memory race (missing/inadequate barrier) |
//! | GRA011 | warn     | redundant barrier (no shared access since last) |
//! | GRA012 | error    | operand memory space illegal for the atomic spec |
//! | GRA013 | error    | accumulator read before initialisation |
//! | GRA014 | warn/info| shared-memory bank conflicts (graded by factor) |

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never wrong.
    Info,
    /// Suspicious but not definitely incorrect (e.g. bank conflicts).
    Warn,
    /// The kernel is incorrect or un-lowerable.
    Error,
}

impl Severity {
    /// Lower-case name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured finding about a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `"GRA010"`.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Human-readable description of the problem.
    pub message: String,
    /// Statement path from the kernel body to the offending statement
    /// (outermost first). Empty when the finding is kernel-wide.
    pub path: Vec<String>,
}

impl Diagnostic {
    /// An [`Severity::Error`] diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: Severity::Error, message: message.into(), path: Vec::new() }
    }

    /// A [`Severity::Warn`] diagnostic.
    pub fn warn(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: Severity::Warn, message: message.into(), path: Vec::new() }
    }

    /// An [`Severity::Info`] diagnostic.
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: Severity::Info, message: message.into(), path: Vec::new() }
    }

    /// Attaches a statement path.
    pub fn at(mut self, path: Vec<String>) -> Self {
        self.path = path;
        self
    }

    /// The path rendered as `a > b > c` (empty string for kernel-wide
    /// diagnostics).
    pub fn path_string(&self) -> String {
        self.path.join(" > ")
    }

    /// Renders the diagnostic as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"code\":\"{}\",", self.code));
        s.push_str(&format!("\"severity\":\"{}\",", self.severity));
        s.push_str(&format!("\"message\":\"{}\"", json_escape(&self.message)));
        if !self.path.is_empty() {
            s.push_str(&format!(",\"path\":\"{}\"", json_escape(&self.path_string())));
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.path.is_empty() {
            write!(f, "\n  at {}", self.path_string())?;
        }
        Ok(())
    }
}

/// Renders a diagnostic list as a JSON document:
/// `{"kernel": ..., "diagnostics": [...], "errors": N}`.
pub fn render_json(kernel_name: &str, diags: &[Diagnostic]) -> String {
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!(
        "{{\"kernel\":\"{}\",\"errors\":{},\"diagnostics\":[{}]}}",
        json_escape(kernel_name),
        errors,
        items.join(",")
    )
}

/// Escapes a string for embedding in a JSON document — the one JSON
/// string escaper every crate's writer uses.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_seriousness() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }

    #[test]
    fn display_includes_code_and_path() {
        let d = Diagnostic::error("GRA010", "race on %As")
            .at(vec!["body".into(), "for ks (iteration 0)".into()]);
        let s = d.to_string();
        assert!(s.contains("error[GRA010]: race on %As"));
        assert!(s.contains("at body > for ks (iteration 0)"));
    }

    #[test]
    fn json_escapes_and_counts_errors() {
        let diags = vec![
            Diagnostic::error("GRA010", "race on \"As\"\nsecond line"),
            Diagnostic::warn("GRA011", "redundant"),
        ];
        let j = render_json("k", &diags);
        assert!(j.contains("\"errors\":1"), "{j}");
        assert!(j.contains("\\\"As\\\"\\nsecond line"), "{j}");
        assert!(j.contains("\"severity\":\"warn\""));
        // The document must be structurally sound enough for a JSON
        // parser: balanced braces/brackets, no raw control characters.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn kernel_wide_diagnostics_omit_path() {
        let d = Diagnostic::warn("GRA014", "conflicts");
        assert!(!d.to_json().contains("path"));
        assert!(!d.to_string().contains("at "));
    }
}
