//! The dataset registry: synthetic substitutes for the paper's evaluation
//! graphs (Table I).
//!
//! The original datasets (USARoad, LiveJournal, Twitter, Friendster) range
//! from 58 million to 1.8 billion edges and cannot be redistributed here.
//! Each substitute reproduces the property the paper's analysis actually
//! depends on — the degree-distribution skew η and the directed/undirected
//! character — at a scale that runs in seconds on a laptop. The relative
//! sizes (road ≪ lj < twitter/friendster) and the worker counts used per
//! graph (12/12/32/32) mirror the paper.

use ebv_graph::generators::{
    BarabasiAlbertGenerator, ConfigurationModelGenerator, GraphGenerator, GridGenerator,
    RmatGenerator,
};
use ebv_graph::{Graph, GraphError};

/// The environment variable selecting the [`Scale`].
const ENV_SCALE: &str = "EBV_SCALE";

/// How large the synthetic substitutes should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Fast sizes for CI and the default runs (tens of thousands of edges).
    #[default]
    Small,
    /// Larger sizes for benchmark runs (hundreds of thousands of edges).
    Full,
}

impl Scale {
    /// Reads the scale from the `EBV_SCALE` environment variable.
    ///
    /// # Errors
    ///
    /// See [`from_lookup`](Self::from_lookup); a non-UTF-8 value is
    /// rejected too.
    pub fn from_env() -> Result<Self, String> {
        Scale::from_lookup(|name| {
            std::env::var_os(name).map(|value| value.to_string_lossy().into_owned())
        })
    }

    /// Parses the scale from any `name -> value` lookup, the testable core
    /// of [`from_env`](Self::from_env): unset or `small` selects
    /// [`Scale::Small`], `full` selects [`Scale::Full`] (both
    /// case-insensitive).
    ///
    /// # Errors
    ///
    /// Any other value is an error naming the variable and the value, never
    /// a silent fallback: a misspelt `full` must not run the small datasets.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        match lookup(ENV_SCALE) {
            None => Ok(Scale::Small),
            Some(value) if value.eq_ignore_ascii_case("small") => Ok(Scale::Small),
            Some(value) if value.eq_ignore_ascii_case("full") => Ok(Scale::Full),
            Some(value) => Err(format!(
                "{ENV_SCALE} must be `small` or `full`, got {value:?}"
            )),
        }
    }
}

/// One synthetic evaluation dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dataset {
    /// Name used in reports ("usaroad-like", "livejournal-like", ...).
    pub name: &'static str,
    /// The paper graph this dataset substitutes for.
    pub substitutes_for: &'static str,
    /// Number of workers the paper uses for this graph in Tables III–V.
    pub table_workers: usize,
    /// Worker sweep the paper uses for this graph in Figures 2–3.
    pub figure_workers: &'static [usize],
    /// Whether the paper treats this graph as power-law.
    pub power_law: bool,
    kind: DatasetKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DatasetKind {
    Road,
    LiveJournalLike,
    TwitterLike,
    FriendsterLike,
}

impl Dataset {
    /// The non-power-law control graph (substitute for USARoad).
    pub(crate) const ROAD: Dataset = Dataset {
        name: "usaroad-like",
        substitutes_for: "USARoad",
        table_workers: 12,
        figure_workers: &[4, 8, 12, 16, 20, 24],
        power_law: false,
        kind: DatasetKind::Road,
    };

    /// Moderately skewed directed power-law graph (substitute for
    /// LiveJournal, η ≈ 2.6).
    pub(crate) const LIVEJOURNAL: Dataset = Dataset {
        name: "livejournal-like",
        substitutes_for: "LiveJournal",
        table_workers: 12,
        figure_workers: &[4, 8, 12, 16, 20, 24],
        power_law: true,
        kind: DatasetKind::LiveJournalLike,
    };

    /// Heavily skewed directed power-law graph (substitute for Twitter,
    /// η ≈ 1.9).
    pub(crate) const TWITTER: Dataset = Dataset {
        name: "twitter-like",
        substitutes_for: "Twitter",
        table_workers: 32,
        figure_workers: &[24, 32, 40, 48],
        power_law: true,
        kind: DatasetKind::TwitterLike,
    };

    /// Large undirected power-law graph (substitute for Friendster,
    /// η ≈ 2.4).
    pub(crate) const FRIENDSTER: Dataset = Dataset {
        name: "friendster-like",
        substitutes_for: "Friendster",
        table_workers: 32,
        figure_workers: &[24, 32, 40, 48],
        power_law: true,
        kind: DatasetKind::FriendsterLike,
    };

    /// All four datasets in the order of Table I (by descending η).
    pub(crate) const ALL: [Dataset; 4] = [
        Self::ROAD,
        Self::LIVEJOURNAL,
        Self::FRIENDSTER,
        Self::TWITTER,
    ];

    /// The three power-law datasets used by Figures 2 and 5.
    pub(crate) const POWER_LAW: [Dataset; 3] = [Self::LIVEJOURNAL, Self::TWITTER, Self::FRIENDSTER];

    /// Generates the dataset at the requested scale. Deterministic: the same
    /// scale always produces the same graph.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (which only occur for invalid
    /// configurations and therefore indicate a bug in this registry).
    pub(crate) fn generate(&self, scale: Scale) -> Result<Graph, GraphError> {
        let full = scale == Scale::Full;
        match self.kind {
            DatasetKind::Road => {
                let (rows, cols) = if full { (320, 300) } else { (80, 75) };
                GridGenerator::new(rows, cols)
                    .with_deletion_probability(0.05)
                    .with_seed(42)
                    .generate()
            }
            DatasetKind::LiveJournalLike => {
                let vertices = if full { 60_000 } else { 6_000 };
                BarabasiAlbertGenerator::new(vertices, 7)
                    .with_seed(7)
                    .generate()
            }
            DatasetKind::TwitterLike => {
                let (rmat_scale, edge_factor) = if full { (16, 18) } else { (13, 16) };
                RmatGenerator::new(rmat_scale, edge_factor)
                    .with_probabilities(0.62, 0.18, 0.15)
                    .with_seed(11)
                    .generate()
            }
            DatasetKind::FriendsterLike => {
                let (vertices, min_degree) = if full { (80_000, 7) } else { (10_000, 6) };
                ConfigurationModelGenerator::new(vertices, 2.4)
                    .with_min_degree(min_degree)
                    .with_seed(13)
                    .generate()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_graph::estimate_graph_eta;

    #[test]
    fn registry_covers_the_four_paper_graphs() {
        let all = Dataset::ALL;
        assert_eq!(all.len(), 4);
        let names: Vec<&str> = all.iter().map(|d| d.substitutes_for).collect();
        assert_eq!(
            names,
            vec!["USARoad", "LiveJournal", "Friendster", "Twitter"]
        );
        assert_eq!(Dataset::POWER_LAW.len(), 3);
    }

    #[test]
    fn small_datasets_generate_and_match_their_skew_class() {
        for dataset in Dataset::ALL {
            let graph = dataset.generate(Scale::Small).unwrap();
            assert!(graph.num_edges() > 1_000, "{}", dataset.name);
            let eta = estimate_graph_eta(&graph).unwrap();
            assert_eq!(
                eta.is_power_law(),
                dataset.power_law,
                "{}: eta {}",
                dataset.name,
                eta.eta
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::TWITTER.generate(Scale::Small).unwrap();
        let b = Dataset::TWITTER.generate(Scale::Small).unwrap();
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn scale_from_env_defaults_to_small() {
        // The environment variable is unset in the test harness.
        assert_eq!(Scale::from_env(), Ok(Scale::Small));
        assert_eq!(Scale::default(), Scale::Small);
    }

    #[test]
    fn scale_accepts_small_and_full_and_rejects_anything_else() {
        let scale = |value: Option<&str>| {
            Scale::from_lookup(|name| {
                assert_eq!(name, "EBV_SCALE");
                value.map(str::to_string)
            })
        };
        assert_eq!(scale(None), Ok(Scale::Small));
        assert_eq!(scale(Some("small")), Ok(Scale::Small));
        assert_eq!(scale(Some("FULL")), Ok(Scale::Full));
        for value in ["ful", "full ", "large", ""] {
            let error = scale(Some(value)).unwrap_err();
            assert!(error.contains("EBV_SCALE"), "{error}");
            assert!(error.contains(&format!("{value:?}")), "{error}");
        }
    }

    #[test]
    fn worker_counts_match_the_paper() {
        assert_eq!(Dataset::ROAD.table_workers, 12);
        assert_eq!(Dataset::LIVEJOURNAL.table_workers, 12);
        assert_eq!(Dataset::TWITTER.table_workers, 32);
        assert_eq!(Dataset::FRIENDSTER.table_workers, 32);
        assert_eq!(Dataset::ROAD.figure_workers, &[4, 8, 12, 16, 20, 24]);
        assert_eq!(Dataset::TWITTER.figure_workers, &[24, 32, 40, 48]);
    }
}
