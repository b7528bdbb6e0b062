//! Error type for the refinement engine.

use qr_milp::MilpError;
use qr_relation::RelationError;
use std::fmt;

/// Result alias using [`CoreError`].
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised by the refinement engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Error from the relational substrate.
    Relation(RelationError),
    /// Error from the MILP substrate.
    Milp(MilpError),
    /// The constraint set is structurally invalid (empty, zero bound, group
    /// attribute missing from the data, ...).
    InvalidConstraint(String),
    /// The problem input is invalid (e.g. an ε that is negative, NaN or
    /// infinite, k* larger than the data).
    InvalidInput(String),
    /// A textual label (distance measure, algorithm mode, ...) failed to parse.
    Parse(String),
    /// A [`SessionResume`](crate::session::SessionResume) was presented to a
    /// session whose snapshot has moved on (a mutation was applied after the
    /// interrupted solve): the suspended search is pinned to the old database
    /// version, so continuing it would answer against stale data.
    StaleResume {
        /// Snapshot version the resume state was captured against.
        resume_version: u64,
        /// The session's current snapshot version.
        session_version: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relation(e) => write!(f, "relation error: {e}"),
            CoreError::Milp(e) => write!(f, "MILP error: {e}"),
            CoreError::InvalidConstraint(msg) => write!(f, "invalid constraint: {msg}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CoreError::Parse(msg) => write!(f, "parse error: {msg}"),
            CoreError::StaleResume {
                resume_version,
                session_version,
            } => write!(
                f,
                "stale resume state: captured at snapshot version {resume_version}, \
                 but the session is now at version {session_version}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relation(e) => Some(e),
            CoreError::Milp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        CoreError::Relation(e)
    }
}

impl From<MilpError> for CoreError {
    fn from(e: MilpError) -> Self {
        CoreError::Milp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = RelationError::UnknownRelation("t".into()).into();
        assert!(e.to_string().contains("unknown relation"));
        let e: CoreError = MilpError::UnknownVariable(3).into();
        assert!(e.to_string().contains("variable"));
        let e = CoreError::InvalidInput("epsilon must be >= 0".into());
        assert!(e.to_string().contains("epsilon"));
    }
}
