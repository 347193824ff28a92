//! [`TrainError`]: the error type of the recovery subsystem and of the
//! files a run writes.
//!
//! Checkpoint I/O, restore-time validation, supervisor outcomes and failed
//! output writes all surface through one typed error instead of `unwrap()`
//! calls, so the bench binaries (and any embedding program) can report
//! failures and decide whether to retry.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors produced while checkpointing, restoring or supervising training,
/// or writing a run's output files.
#[derive(Debug)]
pub enum TrainError {
    /// Filesystem or wire-format failure (checkpoint read/write/parse).
    Io(io::Error),
    /// An output file (a CSV, a run record, a trace) could not be written.
    Write {
        /// The file that was being written.
        path: PathBuf,
        /// Why it failed.
        source: io::Error,
    },
    /// A checkpoint parsed fine but does not match the run it is being
    /// restored into (missing section, wrong length, wrong worker count…).
    Checkpoint(String),
    /// The health monitor declared divergence and no recovery was possible.
    Diverged {
        /// Iteration the divergence was detected at.
        iter: u64,
        /// Stable verdict label (see `md_nn::HealthVerdict::as_str`).
        reason: String,
    },
    /// The supervisor exhausted its retry budget.
    RetriesExhausted {
        /// Rollbacks attempted before giving up.
        attempts: u32,
        /// The last failure.
        last: String,
    },
    /// A run was asked for something that does not exist (an unknown
    /// strategy name, say). Reported before any set-up.
    Config(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            TrainError::Write { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
            TrainError::Checkpoint(msg) => write!(f, "checkpoint mismatch: {msg}"),
            TrainError::Diverged { iter, reason } => {
                write!(f, "training diverged at iteration {iter}: {reason}")
            }
            TrainError::RetriesExhausted { attempts, last } => {
                write!(f, "recovery gave up after {attempts} rollbacks: {last}")
            }
            TrainError::Config(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Io(e) | TrainError::Write { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl TrainError {
    /// For `.map_err`: turns the failure to write `path` into
    /// [`TrainError::Write`].
    pub fn writing(path: impl Into<PathBuf>) -> impl FnOnce(io::Error) -> TrainError {
        let path = path.into();
        move |source| TrainError::Write { path, source }
    }
}

impl From<io::Error> for TrainError {
    fn from(e: io::Error) -> Self {
        TrainError::Io(e)
    }
}

/// A section lookup that failed during restore: the file parsed, so this
/// is a mismatch with the run, not an I/O failure.
pub(crate) fn ckerr(e: io::Error) -> TrainError {
    TrainError::Checkpoint(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TrainError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("gone"));
        let e = TrainError::writing("results/fig5_mnist.csv")(io::Error::other("read-only"));
        assert_eq!(
            e.to_string(),
            "cannot write results/fig5_mnist.csv: read-only"
        );
        let e = TrainError::Checkpoint("disc_3 missing".into());
        assert!(e.to_string().contains("disc_3"));
        let e = TrainError::Diverged {
            iter: 42,
            reason: "non_finite_loss".into(),
        };
        assert!(e.to_string().contains("42") && e.to_string().contains("non_finite_loss"));
        let e = TrainError::RetriesExhausted {
            attempts: 3,
            last: "still NaN".into(),
        };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error as _;
        let e = TrainError::from(io::Error::other("disk"));
        assert!(e.source().is_some());
        assert!(TrainError::writing("x")(io::Error::other("disk"))
            .source()
            .is_some());
        assert!(TrainError::Checkpoint("x".into()).source().is_none());
    }
}
