//! Errors for motif construction and search configuration.

use std::fmt;

/// Errors raised when building a [`crate::Motif`] or configuring a search.
#[derive(Debug, Clone, PartialEq)]
pub enum MotifError {
    /// The walk has fewer than two vertices (a motif needs ≥ 1 edge).
    WalkTooShort,
    /// The walk contains a self-loop step `u -> u`.
    SelfLoopStep {
        /// Index of the offending step.
        step: usize,
    },
    /// The same directed pair appears twice in the walk; motif edges carry
    /// unique labels, so a pair cannot be traversed twice (Def. 3.1).
    RepeatedEdge {
        /// Index of the second traversal.
        step: usize,
    },
    /// Motif vertex labels must be dense `0..n` in order of first
    /// appearance.
    NonCanonicalLabels {
        /// The label found.
        found: u8,
        /// The label expected at that position.
        expected: u8,
    },
    /// A motif name could not be parsed (see [`crate::catalog`]).
    UnknownMotifName(String),
    /// `δ` must be non-negative.
    NegativeDelta(i64),
    /// `ϕ` must be non-negative and finite.
    InvalidPhi(f64),
    /// A census size outside `1..=MAX_CENSUS_EDGES` (see
    /// [`crate::census`]).
    CensusSize(usize),
}

impl fmt::Display for MotifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MotifError::WalkTooShort => write!(f, "motif walk needs at least two vertices"),
            MotifError::SelfLoopStep { step } => {
                write!(f, "walk step {step} is a self-loop; motif edges connect distinct vertices")
            }
            MotifError::RepeatedEdge { step } => write!(
                f,
                "walk step {step} repeats a directed pair; motif edge labels are unique (Def. 3.1)"
            ),
            MotifError::NonCanonicalLabels { found, expected } => write!(
                f,
                "walk labels must be dense in order of first appearance; found {found}, expected {expected}"
            ),
            MotifError::UnknownMotifName(s) => write!(f, "unknown motif name `{s}`"),
            MotifError::NegativeDelta(d) => write!(f, "duration constraint δ must be >= 0, got {d}"),
            MotifError::InvalidPhi(p) => write!(f, "flow constraint ϕ must be finite and >= 0, got {p}"),
            MotifError::CensusSize(n) => write!(
                f,
                "census motif size must be 1..={} edges, got {n}",
                crate::census::MAX_CENSUS_EDGES
            ),
        }
    }
}

impl std::error::Error for MotifError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_definition() {
        assert!(MotifError::RepeatedEdge { step: 2 }.to_string().contains("Def. 3.1"));
        assert!(MotifError::UnknownMotifName("M(9,9)".into()).to_string().contains("M(9,9)"));
    }
}
