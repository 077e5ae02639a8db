//! Error type for hydraulic network construction and solving.

use rcs_numeric::NumericError;

/// One rung of the [`solve_with_ladder`] retry ladder that failed to
/// converge, recorded for the post-mortem.
///
/// [`solve_with_ladder`]: crate::HydraulicNetwork::solve_with_ladder
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttempt {
    /// Under-relaxation factor used by this attempt.
    pub relax: f64,
    /// Iteration budget of this attempt.
    pub max_iter: usize,
    /// Final worst continuity residual of this attempt, m³/s.
    pub residual: f64,
}

/// Structured post-mortem of a network the whole retry ladder could not
/// solve: which rungs were tried and where the residual concentrated,
/// by name, so a faulted configuration reports *what* is unsolvable
/// instead of an opaque iteration count.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceDiagnostics {
    /// Every ladder rung tried, in order.
    pub attempts: Vec<SolveAttempt>,
    /// Junction with the worst continuity residual on the last attempt.
    pub worst_junction: String,
    /// Branch with the worst head-closure error on the last attempt.
    pub worst_branch: String,
    /// Final worst continuity residual, m³/s.
    pub residual: f64,
}

impl core::fmt::Display for ConvergenceDiagnostics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ladder attempt(s) exhausted; residual {:.3e} m³/s, worst continuity at junction '{}', worst head closure on branch '{}'",
            self.attempts.len(),
            self.residual,
            self.worst_junction,
            self.worst_branch,
        )
    }
}

/// Error returned by hydraulic network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HydraulicError {
    /// A junction id does not belong to this network.
    UnknownJunction {
        /// Offending index.
        index: usize,
    },
    /// A branch id does not belong to this network.
    UnknownBranch {
        /// Offending index.
        index: usize,
    },
    /// A branch connects a junction to itself.
    SelfLoop {
        /// The junction in question.
        index: usize,
    },
    /// A geometric or physical parameter was not positive.
    NonPositiveParameter {
        /// Name of the parameter.
        parameter: &'static str,
    },
    /// A branch was built with no elements.
    EmptyBranch,
    /// Every rung of the retry ladder failed; the diagnostics name the
    /// offending junction and branch.
    Unsolvable {
        /// Structured post-mortem of the failed ladder.
        diagnostics: ConvergenceDiagnostics,
    },
    /// A balancing-valve trim met a loop with no valve to set (a plan
    /// built with `balancing_valves: false`).
    MissingValve {
        /// Rack index of the first loop without a valve.
        loop_index: usize,
    },
    /// An underlying numeric kernel failed.
    Numeric(NumericError),
}

impl core::fmt::Display for HydraulicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownJunction { index } => write!(f, "unknown junction index {index}"),
            Self::UnknownBranch { index } => write!(f, "unknown branch index {index}"),
            Self::SelfLoop { index } => write!(f, "branch connects junction {index} to itself"),
            Self::NonPositiveParameter { parameter } => write!(f, "non-positive {parameter}"),
            Self::EmptyBranch => write!(f, "branch has no elements"),
            Self::Unsolvable { diagnostics } => {
                write!(f, "flow network unsolvable: {diagnostics}")
            }
            Self::MissingValve { loop_index } => {
                write!(f, "module loop {loop_index} has no balancing valve to trim")
            }
            Self::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl std::error::Error for HydraulicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for HydraulicError {
    fn from(e: NumericError) -> Self {
        Self::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsolvable_display_names_the_offenders() {
        let e = HydraulicError::Unsolvable {
            diagnostics: ConvergenceDiagnostics {
                attempts: vec![SolveAttempt {
                    relax: 0.7,
                    max_iter: 200,
                    residual: 1e-3,
                }],
                worst_junction: "bath inlet".into(),
                worst_branch: "pump 1".into(),
                residual: 1e-3,
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("bath inlet"), "{msg}");
        assert!(msg.contains("pump 1"), "{msg}");
        assert!(msg.contains("1 ladder attempt"), "{msg}");
        assert!(msg.contains("m³/s"), "{msg}");
    }
}
