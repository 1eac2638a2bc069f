#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-telemetry
//!
//! Machine-readable observability for the amnesiac stack, with zero
//! external dependencies: a tiny JSON value model ([`Json`]), a
//! deterministic pretty-printing writer, a strict parser (for round-trip
//! tests and baseline comparison), the [`ToJson`] conversion trait that
//! every stats-bearing crate implements, and the [`JsonSink`] artifact
//! writer that every `--json <dir>` flag funnels through.
//!
//! The JSON schema conventions used across the workspace:
//!
//! * objects preserve insertion order (deterministic output, stable diffs);
//! * all energy values are nanojoules (`*_nj`), times are cycles or
//!   milliseconds (`*_ms`), gains are percentages (`*_pct`);
//! * non-finite floats serialize as `null` (JSON has no NaN/inf) — readers
//!   must treat `null` metrics as "not measurable".

mod json;
mod sink;

pub use json::{parse, Json, ParseError};
pub use sink::{write_json_file, JsonSink};

/// Conversion into the telemetry JSON value model.
///
/// Implemented by every stats-bearing struct in the workspace
/// (`AmnesicStats`, `RunResult`, `HierarchyStats`, `CompileReport`, …) so
/// experiment drivers can emit machine-readable twins of their ASCII
/// tables.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
