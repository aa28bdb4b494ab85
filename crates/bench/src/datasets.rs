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

/// How large the synthetic substitutes should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Fast sizes for CI and the default binary runs (tens of thousands of
    /// edges).
    #[default]
    Small,
    /// Larger sizes for benchmark runs (hundreds of thousands of edges).
    Full,
}

impl Scale {
    /// Reads the scale from the `EBV_SCALE` environment variable
    /// (`"full"` selects [`Scale::Full`]; anything else, or an unset
    /// variable, selects [`Scale::Small`]).
    pub fn from_env() -> Self {
        match std::env::var("EBV_SCALE") {
            Ok(v) if v.eq_ignore_ascii_case("full") => Scale::Full,
            _ => Scale::Small,
        }
    }
}

/// One synthetic evaluation dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dataset {
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
    pub fn road() -> Self {
        Dataset {
            name: "usaroad-like",
            substitutes_for: "USARoad",
            table_workers: 12,
            figure_workers: &[4, 8, 12, 16, 20, 24],
            power_law: false,
            kind: DatasetKind::Road,
        }
    }

    /// Moderately skewed directed power-law graph (substitute for
    /// LiveJournal, η ≈ 2.6).
    pub fn livejournal_like() -> Self {
        Dataset {
            name: "livejournal-like",
            substitutes_for: "LiveJournal",
            table_workers: 12,
            figure_workers: &[4, 8, 12, 16, 20, 24],
            power_law: true,
            kind: DatasetKind::LiveJournalLike,
        }
    }

    /// Heavily skewed directed power-law graph (substitute for Twitter,
    /// η ≈ 1.9).
    pub fn twitter_like() -> Self {
        Dataset {
            name: "twitter-like",
            substitutes_for: "Twitter",
            table_workers: 32,
            figure_workers: &[24, 32, 40, 48],
            power_law: true,
            kind: DatasetKind::TwitterLike,
        }
    }

    /// Large undirected power-law graph (substitute for Friendster,
    /// η ≈ 2.4).
    pub fn friendster_like() -> Self {
        Dataset {
            name: "friendster-like",
            substitutes_for: "Friendster",
            table_workers: 32,
            figure_workers: &[24, 32, 40, 48],
            power_law: true,
            kind: DatasetKind::FriendsterLike,
        }
    }

    /// All four datasets in the order of Table I (by descending η).
    pub fn all() -> Vec<Dataset> {
        vec![
            Dataset::road(),
            Dataset::livejournal_like(),
            Dataset::friendster_like(),
            Dataset::twitter_like(),
        ]
    }

    /// The three power-law datasets used by Figures 2 and 5.
    pub fn power_law_sets() -> Vec<Dataset> {
        vec![
            Dataset::livejournal_like(),
            Dataset::twitter_like(),
            Dataset::friendster_like(),
        ]
    }

    /// Generates the dataset at the requested scale. Deterministic: the same
    /// scale always produces the same graph.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (which only occur for invalid
    /// configurations and therefore indicate a bug in this registry).
    pub fn generate(&self, scale: Scale) -> Result<Graph, GraphError> {
        match (self.kind, scale) {
            (DatasetKind::Road, Scale::Small) => GridGenerator::new(80, 75)
                .with_deletion_probability(0.05)
                .with_seed(42)
                .generate(),
            (DatasetKind::Road, Scale::Full) => GridGenerator::new(320, 300)
                .with_deletion_probability(0.05)
                .with_seed(42)
                .generate(),
            (DatasetKind::LiveJournalLike, Scale::Small) => BarabasiAlbertGenerator::new(6_000, 7)
                .with_seed(7)
                .generate(),
            (DatasetKind::LiveJournalLike, Scale::Full) => BarabasiAlbertGenerator::new(60_000, 7)
                .with_seed(7)
                .generate(),
            (DatasetKind::TwitterLike, Scale::Small) => RmatGenerator::new(13, 16)
                .with_probabilities(0.62, 0.18, 0.15)
                .with_seed(11)
                .generate(),
            (DatasetKind::TwitterLike, Scale::Full) => RmatGenerator::new(16, 18)
                .with_probabilities(0.62, 0.18, 0.15)
                .with_seed(11)
                .generate(),
            (DatasetKind::FriendsterLike, Scale::Small) => {
                ConfigurationModelGenerator::new(10_000, 2.4)
                    .with_min_degree(6)
                    .with_seed(13)
                    .generate()
            }
            (DatasetKind::FriendsterLike, Scale::Full) => {
                ConfigurationModelGenerator::new(80_000, 2.4)
                    .with_min_degree(7)
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
        let all = Dataset::all();
        assert_eq!(all.len(), 4);
        let names: Vec<&str> = all.iter().map(|d| d.substitutes_for).collect();
        assert_eq!(
            names,
            vec!["USARoad", "LiveJournal", "Friendster", "Twitter"]
        );
        assert_eq!(Dataset::power_law_sets().len(), 3);
    }

    #[test]
    fn small_datasets_generate_and_match_their_skew_class() {
        for dataset in Dataset::all() {
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
        let a = Dataset::twitter_like().generate(Scale::Small).unwrap();
        let b = Dataset::twitter_like().generate(Scale::Small).unwrap();
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn scale_from_env_defaults_to_small() {
        // The environment variable is unset in the test harness.
        assert_eq!(Scale::from_env(), Scale::Small);
        assert_eq!(Scale::default(), Scale::Small);
    }

    #[test]
    fn worker_counts_match_the_paper() {
        assert_eq!(Dataset::road().table_workers, 12);
        assert_eq!(Dataset::livejournal_like().table_workers, 12);
        assert_eq!(Dataset::twitter_like().table_workers, 32);
        assert_eq!(Dataset::friendster_like().table_workers, 32);
        assert_eq!(Dataset::road().figure_workers, &[4, 8, 12, 16, 20, 24]);
        assert_eq!(Dataset::twitter_like().figure_workers, &[24, 32, 40, 48]);
    }
}
