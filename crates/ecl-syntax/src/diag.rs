//! Structured diagnostics.
//!
//! All phases of the compiler report problems through a [`DiagSink`]
//! rather than panicking or returning early, so a single run can surface
//! every issue it finds. Errors are fatal for the phase that produced
//! them; warnings and notes are informational.

use crate::source::{SourceFile, Span};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Additional context attached to a prior diagnostic.
    Note,
    /// Suspicious but accepted construct.
    Warning,
    /// Construct that the compiler cannot accept.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// A single diagnostic message with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Human-readable message (lowercase, no trailing period).
    pub message: String,
    /// Source range the message refers to.
    pub span: Span,
}

impl Diagnostic {
    /// Build an error diagnostic.
    pub fn error(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
        }
    }

    /// Build a warning diagnostic.
    pub fn warning(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
        }
    }

    /// Build a note diagnostic.
    pub fn note(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Note,
            message: message.into(),
            span,
        }
    }

    /// Render with file/line/column resolved against `file`.
    pub fn render(&self, file: &SourceFile) -> String {
        let lc = file.span_start(self.span);
        format!(
            "{}:{}: {}: {}",
            file.name(),
            lc,
            self.severity,
            self.message
        )
    }
}

/// Accumulates diagnostics across a compilation phase.
#[derive(Debug, Clone, Default)]
pub struct DiagSink {
    diags: Vec<Diagnostic>,
}

impl DiagSink {
    /// Create an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Record an error.
    pub fn error(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(message, span));
    }

    /// Record a warning.
    pub fn warning(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::warning(message, span));
    }

    /// Record a note.
    pub fn note(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::note(message, span));
    }

    /// Whether any error-severity diagnostic has been recorded.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// All recorded diagnostics in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Number of recorded diagnostics (all severities).
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether no diagnostics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }
}

impl fmt::Display for DiagSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{}: {} (at {})", d.severity, d.message, d.span)?;
        }
        Ok(())
    }
}

impl IntoIterator for DiagSink {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

/// The compilation stage that produced a diagnostic.
///
/// This is the shared vocabulary for the whole workspace: every crate
/// reports failures as an [`EclError`] tagged with the stage that
/// detected the problem, so drivers (examples, the fleet, benches) can
/// render and group diagnostics uniformly without knowing each
/// crate's private error types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Preprocessing, lexing and parsing (`ecl-syntax`).
    Parse,
    /// Module inlining and renaming (`ecl-core::elab`).
    Elaborate,
    /// Reactive/data separation (`ecl-core::split`).
    Split,
    /// Esterel IR construction and structural checks (`esterel::ir`).
    Ir,
    /// EFSM generation and validation (`esterel::compile`, `efsm`).
    Efsm,
    /// Back-end emission (`codegen`).
    Codegen,
    /// Data-runtime construction and evaluation (`ecl-core::rt`).
    Runtime,
    /// Simulation (`sim`).
    Sim,
    /// Observer synthesis and monitor checking (`ecl-observe`).
    Observe,
}

impl Stage {
    /// Stable lowercase name (used in rendered diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Elaborate => "elaborate",
            Stage::Split => "split",
            Stage::Ir => "ir",
            Stage::Efsm => "efsm",
            Stage::Codegen => "codegen",
            Stage::Runtime => "runtime",
            Stage::Sim => "sim",
            Stage::Observe => "observe",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stage-tagged diagnostics accumulated along a compilation pipeline.
///
/// Unlike [`DiagSink`] (which lives inside one phase), `Diagnostics`
/// travels *across* stages: each pipeline stage appends what it found
/// and hands the collection forward, so the final artifact can report
/// every warning from parse to codegen with its origin.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    entries: Vec<(Stage, Diagnostic)>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one diagnostic under `stage`.
    pub fn push(&mut self, stage: Stage, d: Diagnostic) {
        self.entries.push((stage, d));
    }

    /// Record an error under `stage`.
    pub fn error(&mut self, stage: Stage, message: impl Into<String>, span: Span) {
        self.push(stage, Diagnostic::error(message, span));
    }

    /// Record a warning under `stage`.
    pub fn warning(&mut self, stage: Stage, message: impl Into<String>, span: Span) {
        self.push(stage, Diagnostic::warning(message, span));
    }

    /// Record a note under `stage`.
    pub fn note(&mut self, stage: Stage, message: impl Into<String>, span: Span) {
        self.push(stage, Diagnostic::note(message, span));
    }

    /// Absorb a phase-local [`DiagSink`], tagging everything with `stage`.
    pub fn absorb_sink(&mut self, stage: Stage, sink: DiagSink) {
        for d in sink {
            self.push(stage, d);
        }
    }

    /// Append all entries of `other`.
    pub fn merge(&mut self, other: Diagnostics) {
        self.entries.extend(other.entries);
    }

    /// Whether any error-severity diagnostic has been recorded.
    pub fn has_errors(&self) -> bool {
        self.entries
            .iter()
            .any(|(_, d)| d.severity == Severity::Error)
    }

    /// All entries in emission order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, &Diagnostic)> {
        self.entries.iter().map(|(s, d)| (*s, d))
    }

    /// Number of recorded diagnostics (all severities, all stages).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (stage, d) in self.iter() {
            writeln!(f, "[{stage}] {}: {} (at {})", d.severity, d.message, d.span)?;
        }
        Ok(())
    }
}

impl IntoIterator for Diagnostics {
    type Item = (Stage, Diagnostic);
    type IntoIter = std::vec::IntoIter<(Stage, Diagnostic)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// The unified workspace error: span-annotated diagnostics plus the
/// stage that failed.
///
/// Every fallible operation along the compilation pipeline — parsing,
/// elaboration, splitting, EFSM generation, codegen, runtime
/// construction, simulation — converges on this type, so callers only
/// handle one error shape regardless of how deep the failure occurred.
#[derive(Debug, Clone)]
pub struct EclError {
    stage: Stage,
    diags: Diagnostics,
}

impl EclError {
    /// Wrap already-collected diagnostics.
    pub fn new(stage: Stage, diags: Diagnostics) -> Self {
        EclError { stage, diags }
    }

    /// Single-message constructor.
    pub fn msg(stage: Stage, message: impl Into<String>, span: Span) -> Self {
        let mut diags = Diagnostics::new();
        diags.error(stage, message, span);
        EclError { stage, diags }
    }

    /// The stage that failed.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The diagnostics carried by this error.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// Prepend earlier-stage context (e.g. warnings accumulated before
    /// the failure) to the error's diagnostics.
    pub fn with_context(mut self, mut earlier: Diagnostics) -> Self {
        earlier.merge(std::mem::take(&mut self.diags));
        self.diags = earlier;
        self
    }

    /// The first error-severity message, if any (convenience for tests
    /// and log lines).
    pub fn first_message(&self) -> Option<&str> {
        self.diags
            .iter()
            .find(|(_, d)| d.severity == Severity::Error)
            .map(|(_, d)| d.message.as_str())
    }
}

impl fmt::Display for EclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} stage failed", self.stage)?;
        if self.diags.is_empty() {
            return Ok(());
        }
        writeln!(f, ":")?;
        for (stage, d) in self.diags.iter() {
            writeln!(
                f,
                "  [{stage}] {}: {} (at {})",
                d.severity, d.message, d.span
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for EclError {}

impl From<DiagSink> for EclError {
    fn from(sink: DiagSink) -> Self {
        let mut diags = Diagnostics::new();
        diags.absorb_sink(Stage::Parse, sink);
        EclError::new(Stage::Parse, diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_tracks_errors() {
        let mut sink = DiagSink::new();
        assert!(!sink.has_errors());
        sink.warning("looks odd", Span::new(0, 1));
        assert!(!sink.has_errors());
        assert_eq!(sink.len(), 1);
        sink.error("broken", Span::new(1, 2));
        assert!(sink.has_errors());
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn diagnostic_renders_location() {
        let f = SourceFile::new("m.ecl", "abc\ndef");
        let d = Diagnostic::error("bad token", Span::new(4, 5));
        assert_eq!(d.render(&f), "m.ecl:2:1: error: bad token");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}
