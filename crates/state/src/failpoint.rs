//! Byte-budget fault injection for the durable writers.
//!
//! Every byte the durable state plane persists — WAL frames, checkpoint
//! bodies — and every atomic rename flows through a [`Failpoint`]. A
//! disarmed failpoint only counts; an armed one admits exactly `budget`
//! units and then fails the write **after truncating it at the budget
//! boundary**, which is byte-for-byte the on-disk state a process crash at
//! that point would leave. The crash-at-any-point property test first runs
//! disarmed to learn the total unit count, then replays with every budget
//! in `[0, total)`.
//!
//! Renames charge one unit, so "crashed before the atomic rename" and
//! "crashed after" are distinct injectable states.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::error::{Result, StateError};

#[derive(Debug)]
struct FailpointState {
    /// Units admitted so far (bytes written + renames performed).
    used: u64,
    /// Remaining budget; `None` = disarmed (never crashes).
    remaining: Option<u64>,
}

/// A shared crash budget; see the [module documentation](self).
///
/// Cloning shares the budget — hand the same failpoint to every writer
/// whose combined output should crash at a single global byte offset.
#[derive(Debug, Clone)]
pub struct Failpoint {
    state: Arc<Mutex<FailpointState>>,
}

impl Failpoint {
    /// A failpoint that never crashes but still counts units.
    pub fn disarmed() -> Self {
        Failpoint {
            state: Arc::new(Mutex::new(FailpointState {
                used: 0,
                remaining: None,
            })),
        }
    }

    /// A failpoint that admits exactly `budget` units, then crashes every
    /// subsequent durable operation.
    pub fn crash_after(budget: u64) -> Self {
        Failpoint {
            state: Arc::new(Mutex::new(FailpointState {
                used: 0,
                remaining: Some(budget),
            })),
        }
    }

    /// Units admitted so far (bytes + renames). On a disarmed reference
    /// run this is the exclusive upper bound of injectable crash points.
    pub fn units_used(&self) -> u64 {
        self.state.lock().expect("failpoint lock").used
    }

    /// Whether the budget is exhausted (always `false` when disarmed).
    pub fn crashed(&self) -> bool {
        matches!(
            self.state.lock().expect("failpoint lock").remaining,
            Some(0)
        )
    }

    /// Admits up to `want` units, returning how many were granted.
    fn admit(&self, want: u64) -> u64 {
        let mut state = self.state.lock().expect("failpoint lock");
        let allowed = match state.remaining.as_mut() {
            None => want,
            Some(remaining) => {
                let allowed = want.min(*remaining);
                *remaining -= allowed;
                allowed
            }
        };
        state.used += allowed;
        allowed
    }

    /// Writes `bytes` through the budget: the admitted prefix reaches
    /// `writer` (and is flushed), and if anything was cut off the call
    /// fails with [`StateError::InjectedCrash`] — the on-disk state is
    /// exactly what a crash mid-write would leave.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] from the writer, or
    /// [`StateError::InjectedCrash`] at budget exhaustion.
    pub fn write_all<W: Write>(&self, writer: &mut W, bytes: &[u8]) -> Result<()> {
        let allowed = self.admit(bytes.len() as u64) as usize;
        writer.write_all(&bytes[..allowed])?;
        writer.flush()?;
        if allowed < bytes.len() {
            return Err(StateError::InjectedCrash);
        }
        Ok(())
    }

    /// Performs an atomic rename, charging one unit. A crash lands
    /// *before* the rename (the destination never appears).
    ///
    /// # Errors
    ///
    /// [`StateError::InjectedCrash`] at budget exhaustion,
    /// [`StateError::Io`] from the filesystem.
    pub(crate) fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        if self.admit(1) == 0 {
            return Err(StateError::InjectedCrash);
        }
        fs::rename(from, to)?;
        Ok(())
    }
}

impl Default for Failpoint {
    fn default() -> Self {
        Failpoint::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_counts_without_crashing() {
        let fp = Failpoint::disarmed();
        let mut out = Vec::new();
        fp.write_all(&mut out, b"hello").unwrap();
        fp.write_all(&mut out, b" world").unwrap();
        assert_eq!(out, b"hello world");
        assert_eq!(fp.units_used(), 11);
        assert!(!fp.crashed());
    }

    #[test]
    fn armed_truncates_at_the_budget_boundary() {
        let fp = Failpoint::crash_after(7);
        let mut out = Vec::new();
        fp.write_all(&mut out, b"hello").unwrap();
        let err = fp.write_all(&mut out, b" world").unwrap_err();
        assert!(matches!(err, StateError::InjectedCrash));
        assert_eq!(out, b"hello w", "prefix up to the budget reaches disk");
        assert!(fp.crashed());
        // Once crashed, everything fails, nothing further lands.
        let err = fp.write_all(&mut out, b"more").unwrap_err();
        assert!(matches!(err, StateError::InjectedCrash));
        assert_eq!(out, b"hello w");
    }

    #[test]
    fn rename_charges_one_unit() {
        let dir = std::env::temp_dir().join(format!(
            "ebv-state-fp-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let from = dir.join("a.tmp");
        let to = dir.join("a");
        std::fs::write(&from, b"x").unwrap();

        let fp = Failpoint::crash_after(0);
        assert!(matches!(
            fp.rename(&from, &to).unwrap_err(),
            StateError::InjectedCrash
        ));
        assert!(from.exists() && !to.exists(), "crash lands before rename");

        let fp = Failpoint::crash_after(1);
        fp.rename(&from, &to).unwrap();
        assert!(!from.exists() && to.exists());
        assert_eq!(fp.units_used(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
