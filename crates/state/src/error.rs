//! Typed failures of the durable state plane.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Every way the durable state plane can fail.
///
/// The torn-tail case is deliberately *not* here: a truncated or
/// CRC-failing frame at the end of a WAL segment is the expected shape of
/// a crash and is silently discarded by recovery (the valid prefix wins).
/// Errors are reserved for conditions that must stop the process —
/// environment failures and evidence of corruption that discarding cannot
/// explain.
#[derive(Debug)]
pub enum StateError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A file is structurally invalid in a way a torn tail cannot
    /// produce: wrong magic, or a CRC-verified frame whose content does
    /// not decode.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// Byte offset of the first invalid content.
        offset: u64,
        /// What was wrong.
        message: String,
    },
    /// A CRC-valid WAL frame carries an epoch that does not continue the
    /// lineage (equal to or below its predecessor, or skipping ahead).
    /// Applying it silently would fork history, so recovery refuses.
    EpochRegression {
        /// The offending segment.
        file: PathBuf,
        /// The epoch the lineage required next.
        expected: u64,
        /// The epoch the frame carried.
        found: u64,
    },
    /// The fault-injection harness exhausted its byte budget: the write
    /// (or rename) this error aborted is the injected crash point. Only
    /// produced by stores armed with a crashing
    /// [`Failpoint`](crate::Failpoint).
    InjectedCrash,
    /// A checkpoint of another format version, which is not read (version 1
    /// stored every worker's edge list beside the partitioner's survivors).
    UnsupportedVersion {
        /// The offending checkpoint.
        file: PathBuf,
        /// The version byte the file carries.
        found: u8,
    },
    /// The store was driven outside its contract (e.g. a checkpoint for
    /// an epoch older than one already on disk).
    InvalidState {
        /// What the caller did wrong.
        message: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io(err) => write!(f, "durable state I/O failed: {err}"),
            StateError::Corrupt {
                file,
                offset,
                message,
            } => write!(
                f,
                "corrupt durable state in {} at byte {offset}: {message}",
                file.display()
            ),
            StateError::EpochRegression {
                file,
                expected,
                found,
            } => write!(
                f,
                "epoch regression in {}: lineage requires epoch {expected}, frame carries \
                 {found}",
                file.display()
            ),
            StateError::UnsupportedVersion { file, found } => write!(
                f,
                "unsupported checkpoint format version {found} in {}",
                file.display()
            ),
            StateError::InjectedCrash => write!(f, "injected crash (failpoint budget exhausted)"),
            StateError::InvalidState { message } => {
                write!(f, "invalid durable-state use: {message}")
            }
        }
    }
}

impl std::error::Error for StateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for StateError {
    fn from(err: io::Error) -> Self {
        StateError::Io(err)
    }
}

impl From<StateError> for io::Error {
    /// The [`DurabilityHook`](ebv_bsp::DurabilityHook) seam speaks
    /// `io::Error`; wrap everything that is not already one.
    fn from(err: StateError) -> Self {
        match err {
            StateError::Io(err) => err,
            other => io::Error::other(other),
        }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StateError>;

/// Why [`RecoveredState::resume`](crate::RecoveredState::resume) stopped.
#[derive(Debug)]
pub enum ResumeError<E> {
    /// The recovered state does not rebuild, restore or replay.
    State(StateError),
    /// The caller's `on_epoch` failed; its error, unchanged.
    Epoch(E),
}

impl<E: fmt::Display> fmt::Display for ResumeError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::State(err) => err.fmt(f),
            ResumeError::Epoch(err) => write!(f, "replayed epoch failed: {err}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for ResumeError<E> {}

impl<E> From<StateError> for ResumeError<E> {
    fn from(err: StateError) -> Self {
        ResumeError::State(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StateError>();
        let err = StateError::EpochRegression {
            file: PathBuf::from("wal-3.log"),
            expected: 4,
            found: 3,
        };
        let text = err.to_string();
        assert!(text.contains("wal-3.log") && text.contains('4') && text.contains('3'));
    }

    #[test]
    fn io_round_trip_preserves_the_injected_crash_marker() {
        let io_err: io::Error = StateError::InjectedCrash.into();
        assert!(io_err.to_string().contains("injected crash"));
    }
}
