//! Error type for the evolving-graph subsystem.

use std::error::Error as StdError;
use std::fmt;

use ebv_bsp::BspError;
use ebv_graph::GraphError;
use ebv_partition::PartitionError;

/// Errors produced while generating, windowing or applying mutation
/// streams.
#[derive(Debug)]
pub enum DynamicError {
    /// An event source or pipeline was configured inconsistently.
    InvalidParameter {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the constraint that was violated.
        message: String,
    },
    /// An error bubbled up from the underlying edge stream.
    Stream(GraphError),
    /// An error bubbled up from the partition-maintenance layer (for
    /// example a deletion of an edge with no live copy).
    Partition(PartitionError),
    /// An error bubbled up from the distribution layer.
    Bsp(BspError),
    /// The durable state plane failed to persist a batch or checkpoint.
    /// Durability failures are fatal by design: continuing would let the
    /// in-memory lineage silently outrun what a restart can recover.
    Durability(std::io::Error),
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicError::InvalidParameter { parameter, message } => {
                write!(f, "invalid parameter `{parameter}`: {message}")
            }
            DynamicError::Stream(err) => write!(f, "stream error: {err}"),
            DynamicError::Partition(err) => write!(f, "partition error: {err}"),
            DynamicError::Bsp(err) => write!(f, "bsp error: {err}"),
            DynamicError::Durability(err) => write!(f, "durability error: {err}"),
        }
    }
}

impl StdError for DynamicError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            DynamicError::Stream(err) => Some(err),
            DynamicError::Partition(err) => Some(err),
            DynamicError::Bsp(err) => Some(err),
            DynamicError::Durability(err) => Some(err),
            DynamicError::InvalidParameter { .. } => None,
        }
    }
}

impl From<GraphError> for DynamicError {
    fn from(err: GraphError) -> Self {
        DynamicError::Stream(err)
    }
}

impl From<PartitionError> for DynamicError {
    fn from(err: PartitionError) -> Self {
        DynamicError::Partition(err)
    }
}

impl From<BspError> for DynamicError {
    fn from(err: BspError) -> Self {
        DynamicError::Bsp(err)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DynamicError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = DynamicError::InvalidParameter {
            parameter: "window",
            message: "zero capacity".to_string(),
        };
        assert!(e.to_string().contains("window"));
        assert!(e.source().is_none());

        let e = DynamicError::from(PartitionError::EdgeNotPresent {
            message: "gone".to_string(),
        });
        assert!(e.to_string().contains("gone"));
        assert!(e.source().is_some());

        let e = DynamicError::from(BspError::PartitionMismatch {
            message: "p".to_string(),
        });
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DynamicError>();
    }
}
