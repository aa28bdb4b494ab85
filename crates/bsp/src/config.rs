//! Process configuration from the `EBV_*` environment variables.
//!
//! [`EnvConfig`] is the one place the six variables (`EBV_MODE`,
//! `EBV_OBS_ADDR`, `EBV_TRACE`, `EBV_METRICS`, `EBV_STATE_DIR`,
//! `EBV_CHECKPOINT_EVERY`) are read, by the binary that wants them — no
//! library code reads the environment — with one policy: a malformed or
//! non-UTF-8 value is a typed [`ConfigError`], never a silent default — a
//! misspelt mode or pool size must not fake a measurement.
//!
//! The parsers are pure functions over strings (see
//! [`EnvConfig::from_lookup`]), so the malformed-value behaviour is unit
//! tested without touching the process environment.

use std::fmt;
use std::path::PathBuf;

use crate::engine::{host_parallelism, BspEngine, ExecutionMode};

/// The environment variable selecting the [`ExecutionMode`].
pub const ENV_MODE: &str = "EBV_MODE";
/// The environment variable binding the live observability server.
pub const ENV_OBS_ADDR: &str = "EBV_OBS_ADDR";
/// The environment variable naming the Chrome-trace output file.
pub const ENV_TRACE: &str = "EBV_TRACE";
/// The environment variable naming the Prometheus-text output file.
pub const ENV_METRICS: &str = "EBV_METRICS";
/// The environment variable naming the durable-state directory (WAL +
/// checkpoints). Unset means durability is off.
pub const ENV_STATE_DIR: &str = "EBV_STATE_DIR";
/// The environment variable setting the checkpoint cadence in applied
/// epochs (default 8 when durability is on).
pub const ENV_CHECKPOINT_EVERY: &str = "EBV_CHECKPOINT_EVERY";

/// Default checkpoint cadence when `EBV_CHECKPOINT_EVERY` is unset.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 8;

/// A malformed `EBV_*` environment value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `EBV_MODE` is not one of the recognised mode spellings.
    InvalidMode {
        /// The rejected value.
        value: String,
    },
    /// The `<n>` of `EBV_MODE=pooled:<n>` is not a positive integer.
    InvalidPoolSize {
        /// The rejected value.
        value: String,
    },
    /// `EBV_CHECKPOINT_EVERY` is not a positive integer.
    InvalidCheckpointEvery {
        /// The rejected value.
        value: String,
    },
    /// The variable is set but is not valid UTF-8.
    NotUnicode {
        /// The variable's name.
        name: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidMode { value } => write!(
                f,
                "{ENV_MODE} must be `sequential`, `threaded` or `pooled:<n>`, got {value:?}"
            ),
            ConfigError::InvalidPoolSize { value } => {
                write!(
                    f,
                    "{ENV_MODE} `pooled:<n>` needs a positive integer, got {value:?}"
                )
            }
            ConfigError::InvalidCheckpointEvery { value } => {
                write!(
                    f,
                    "{ENV_CHECKPOINT_EVERY} must be a positive integer, got {value:?}"
                )
            }
            ConfigError::NotUnicode { name } => write!(f, "{name} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The consolidated `EBV_*` environment configuration.
///
/// # Examples
///
/// ```
/// use ebv_bsp::config::EnvConfig;
/// use ebv_bsp::ExecutionMode;
///
/// let config = EnvConfig::from_lookup(|name| match name {
///     "EBV_MODE" => Some("threaded".to_string()),
///     "EBV_OBS_ADDR" => Some("127.0.0.1:9808".to_string()),
///     _ => None,
/// })
/// .unwrap();
/// // `threaded` is `pooled:<host parallelism>`.
/// assert!(matches!(config.mode, ExecutionMode::Pooled(n) if n >= 1));
/// assert_eq!(config.obs_addr.as_deref(), Some("127.0.0.1:9808"));
/// assert_eq!(config.engine().mode(), config.mode);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfig {
    /// Execution mode from `EBV_MODE` (default `threaded`, i.e.
    /// [`ExecutionMode::Pooled`] over the host's available parallelism —
    /// the mode every end-to-end driver has defaulted to since PR 5).
    pub mode: ExecutionMode,
    /// Live observability bind address from `EBV_OBS_ADDR`.
    pub obs_addr: Option<String>,
    /// Chrome-trace output path from `EBV_TRACE`.
    pub trace_out: Option<PathBuf>,
    /// Prometheus-text output path from `EBV_METRICS`.
    pub metrics_out: Option<PathBuf>,
    /// Durable-state directory from `EBV_STATE_DIR`; `None` disables the
    /// WAL/checkpoint plane entirely.
    pub state_dir: Option<PathBuf>,
    /// Checkpoint cadence in applied epochs from `EBV_CHECKPOINT_EVERY`
    /// (used only when `state_dir` is set; default 8).
    pub checkpoint_every: usize,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            mode: ExecutionMode::Pooled(host_parallelism()),
            obs_addr: None,
            trace_out: None,
            metrics_out: None,
            state_dir: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

impl EnvConfig {
    /// Reads the `EBV_*` variables from the process environment.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotUnicode`] for a variable set to a
    /// non-UTF-8 value (paths included: a mangled path must not be used),
    /// otherwise the first malformed value among the set variables; unset
    /// variables take their defaults.
    pub fn from_env() -> Result<EnvConfig, ConfigError> {
        for name in [
            ENV_MODE,
            ENV_OBS_ADDR,
            ENV_TRACE,
            ENV_METRICS,
            ENV_STATE_DIR,
            ENV_CHECKPOINT_EVERY,
        ] {
            if let Err(std::env::VarError::NotUnicode(_)) = std::env::var(name) {
                return Err(ConfigError::NotUnicode { name });
            }
        }
        EnvConfig::from_lookup(|name| std::env::var(name).ok())
    }

    /// Parses the configuration from any `name -> value` lookup — the
    /// testable core of [`from_env`](Self::from_env).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for the first malformed value.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<EnvConfig, ConfigError> {
        let mut config = EnvConfig::default();
        if let Some(value) = lookup(ENV_MODE) {
            config.mode = parse_mode(&value)?;
        }
        config.obs_addr = lookup(ENV_OBS_ADDR);
        config.trace_out = lookup(ENV_TRACE).map(PathBuf::from);
        config.metrics_out = lookup(ENV_METRICS).map(PathBuf::from);
        config.state_dir = lookup(ENV_STATE_DIR).map(PathBuf::from);
        if let Some(value) = lookup(ENV_CHECKPOINT_EVERY) {
            config.checkpoint_every = parse_checkpoint_every(&value)?;
        }
        Ok(config)
    }

    /// A new [`BspEngine`] in the configured execution mode. It spawns
    /// nothing: a pooled engine opens its lanes for each run.
    pub fn engine(&self) -> BspEngine {
        match self.mode {
            ExecutionMode::Sequential => BspEngine::sequential(),
            ExecutionMode::Pooled(n) => BspEngine::pooled(n),
        }
    }
}

/// Parses an `EBV_MODE` value: `sequential`, `pooled:<n>` (each run on
/// `min(n, workers)` scoped lanes, the calling thread first) or
/// `threaded`, which is `pooled:<n>` with `n` the host's available
/// parallelism.
///
/// # Errors
///
/// Returns [`ConfigError::InvalidMode`] for any other spelling, and
/// [`ConfigError::InvalidPoolSize`] for a malformed `pooled:` suffix.
pub fn parse_mode(value: &str) -> Result<ExecutionMode, ConfigError> {
    match value.trim() {
        "sequential" => Ok(ExecutionMode::Sequential),
        "threaded" => Ok(ExecutionMode::Pooled(host_parallelism())),
        trimmed => match trimmed.strip_prefix("pooled:") {
            Some(threads) => Ok(ExecutionMode::Pooled(parse_pool_size(threads)?)),
            None => Err(ConfigError::InvalidMode {
                value: value.to_string(),
            }),
        },
    }
}

/// Parses the `<n>` of `pooled:<n>`: a positive integer, else
/// [`ConfigError::InvalidPoolSize`].
fn parse_pool_size(value: &str) -> Result<usize, ConfigError> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| ConfigError::InvalidPoolSize {
            value: value.to_string(),
        })
}

/// Parses an `EBV_CHECKPOINT_EVERY` value: a positive integer number of
/// applied epochs between checkpoints.
///
/// # Errors
///
/// Returns [`ConfigError::InvalidCheckpointEvery`] for zero, negative,
/// non-numeric or empty input.
pub fn parse_checkpoint_every(value: &str) -> Result<usize, ConfigError> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| ConfigError::InvalidCheckpointEvery {
            value: value.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_environment_defaults_to_threaded_and_no_outputs() {
        let config = EnvConfig::from_lookup(|_| None).unwrap();
        assert_eq!(config, EnvConfig::default());
        assert_eq!(config.mode, ExecutionMode::Pooled(host_parallelism()));
        assert_eq!(config.engine().mode(), config.mode);

        // `pooled:<n>` says everything the retired pool-size variable did:
        // that variable is no longer read, however it is set.
        let retired = ["EBV", "POOL", "SIZE"].join("_");
        let lookup = |name: &str| (name == retired).then(|| "many".to_string());
        assert_eq!(EnvConfig::from_lookup(lookup).unwrap(), config);
    }

    #[test]
    fn every_mode_spelling_parses() {
        assert_eq!(parse_mode("sequential").unwrap(), ExecutionMode::Sequential);
        let threaded = ExecutionMode::Pooled(host_parallelism());
        assert_eq!(parse_mode("threaded").unwrap(), threaded);
        assert_eq!(parse_mode("pooled:3").unwrap(), ExecutionMode::Pooled(3));
        assert_eq!(
            parse_mode(" threaded ").unwrap(),
            threaded,
            "surrounding whitespace is tolerated"
        );
    }

    #[test]
    fn malformed_modes_are_typed_errors_not_silent_fallbacks() {
        for bad in ["Threaded", "thread", "parallel", "", "pooled", "pooled:"] {
            let err = parse_mode(bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::InvalidMode { .. } | ConfigError::InvalidPoolSize { .. }
                ),
                "{bad:?} -> {err:?}"
            );
        }
        assert_eq!(
            parse_mode("pooled:0").unwrap_err(),
            ConfigError::InvalidPoolSize {
                value: "0".to_string()
            }
        );
        // The retired bench-floor mode is rejected like any other misspelling.
        assert_eq!(
            parse_mode("spawn-per-step").unwrap_err(),
            ConfigError::InvalidMode {
                value: "spawn-per-step".to_string()
            }
        );
    }

    #[test]
    fn pool_sizes_must_be_positive_integers() {
        assert_eq!(parse_pool_size("4").unwrap(), 4);
        assert_eq!(parse_pool_size(" 16 ").unwrap(), 16);
        for bad in ["0", "-1", "4.5", "four", "", "0x4"] {
            assert_eq!(
                parse_pool_size(bad).unwrap_err(),
                ConfigError::InvalidPoolSize {
                    value: bad.to_string()
                },
                "{bad:?}"
            );
        }
    }

    #[test]
    fn full_lookup_round_trips_all_five_variables() {
        let config = EnvConfig::from_lookup(lookup_of(&[
            (ENV_MODE, "pooled:2"),
            (ENV_OBS_ADDR, "127.0.0.1:0"),
            (ENV_TRACE, "trace.json"),
            (ENV_METRICS, "metrics.prom"),
            (ENV_STATE_DIR, "state"),
        ]))
        .unwrap();
        assert_eq!(config.mode, ExecutionMode::Pooled(2));
        assert_eq!(config.state_dir, Some(PathBuf::from("state")));
        assert_eq!(config.obs_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.trace_out, Some(PathBuf::from("trace.json")));
        assert_eq!(config.metrics_out, Some(PathBuf::from("metrics.prom")));
        assert_eq!(config.engine().mode(), ExecutionMode::Pooled(2));
    }

    #[test]
    fn durability_knobs_parse_and_default_off() {
        let config = EnvConfig::from_lookup(|_| None).unwrap();
        assert_eq!(config.state_dir, None, "durability is opt-in");
        assert_eq!(config.checkpoint_every, DEFAULT_CHECKPOINT_EVERY);

        let config = EnvConfig::from_lookup(lookup_of(&[
            (ENV_STATE_DIR, "/tmp/ebv-state"),
            (ENV_CHECKPOINT_EVERY, "4"),
        ]))
        .unwrap();
        assert_eq!(config.state_dir, Some(PathBuf::from("/tmp/ebv-state")));
        assert_eq!(config.checkpoint_every, 4);
    }

    #[test]
    fn malformed_checkpoint_cadence_is_a_typed_error() {
        for bad in ["0", "-3", "often", "", "2.5"] {
            let err =
                EnvConfig::from_lookup(lookup_of(&[(ENV_CHECKPOINT_EVERY, bad)])).unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvalidCheckpointEvery {
                    value: bad.to_string()
                },
                "{bad:?}"
            );
            assert!(err.to_string().contains("EBV_CHECKPOINT_EVERY"));
        }
    }

    #[test]
    fn a_malformed_variable_fails_the_whole_parse() {
        let err = EnvConfig::from_lookup(lookup_of(&[
            (ENV_OBS_ADDR, "127.0.0.1:0"),
            (ENV_MODE, "pooled:many"),
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidPoolSize {
                value: "many".to_string()
            }
        );
        assert!(err.to_string().contains("EBV_MODE"));
        assert!(EnvConfig::from_lookup(lookup_of(&[(ENV_MODE, "turbo")]))
            .unwrap_err()
            .to_string()
            .contains("EBV_MODE"));
    }

    /// A non-UTF-8 path must be refused, not mangled into a directory the
    /// run would then create and use. The only test in this crate touching
    /// the process environment, and on a variable no other test reads.
    #[cfg(unix)]
    #[test]
    fn non_unicode_values_are_typed_errors_even_for_paths() {
        use std::os::unix::ffi::OsStringExt;
        let mangled = std::ffi::OsString::from_vec(b"/tmp/ebv-\xff-state".to_vec());
        std::env::set_var(ENV_STATE_DIR, mangled);
        let outcome = EnvConfig::from_env();
        std::env::remove_var(ENV_STATE_DIR);
        let err = outcome.unwrap_err();
        assert_eq!(
            err,
            ConfigError::NotUnicode {
                name: ENV_STATE_DIR
            }
        );
        assert!(err.to_string().contains("EBV_STATE_DIR"));
    }
}
