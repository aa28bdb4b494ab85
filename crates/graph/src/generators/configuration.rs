//! Configuration-model generator with an exact power-law degree sequence.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::{GraphError, Result};
use crate::generators::GraphGenerator;
use crate::graph::Graph;
use crate::GraphBuilder;

/// Generator that samples a power-law degree sequence with a chosen exponent
/// η and wires it up with the configuration model (random stub matching).
///
/// Unlike [`RmatGenerator`](crate::generators::RmatGenerator) and
/// [`BarabasiAlbertGenerator`](crate::generators::BarabasiAlbertGenerator),
/// whose exponents are an emergent property, the configuration model lets
/// experiments dial η directly — which is exactly the knob the paper's
/// analysis varies across Table III ("as η decreases, the partition results of
/// NE and METIS are more imbalanced").
///
/// # Examples
///
/// ```
/// use ebv_graph::generators::{ConfigurationModelGenerator, GraphGenerator};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let graph = ConfigurationModelGenerator::new(2_000, 2.1)
///     .with_seed(9)
///     .generate()?;
/// assert_eq!(graph.num_vertices(), 2_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurationModelGenerator {
    num_vertices: usize,
    eta: f64,
    min_degree: usize,
    seed: u64,
}

impl ConfigurationModelGenerator {
    /// Creates a generator for `num_vertices` vertices whose degree sequence
    /// follows `P(d) ∝ d^-eta`.
    pub fn new(num_vertices: usize, eta: f64) -> Self {
        ConfigurationModelGenerator {
            num_vertices,
            eta,
            min_degree: 1,
            seed: 0,
        }
    }

    /// Sets the random seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the minimum degree of the sampled sequence (default 1).
    pub fn with_min_degree(mut self, d: usize) -> Self {
        self.min_degree = d;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.num_vertices < 4 {
            return Err(GraphError::InvalidParameter {
                parameter: "num_vertices",
                message: "configuration model needs at least 4 vertices".to_string(),
            });
        }
        if self.eta <= 1.0 {
            return Err(GraphError::InvalidParameter {
                parameter: "eta",
                message: format!("power-law exponent must exceed 1, got {}", self.eta),
            });
        }
        if self.min_degree == 0 {
            return Err(GraphError::InvalidParameter {
                parameter: "min_degree",
                message: "minimum degree must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    fn sample_degree(&self, rng: &mut StdRng, max_degree: usize) -> usize {
        // Inverse-transform sampling of the (continuous approximation of the)
        // discrete power law, truncated at max_degree.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let d = (self.min_degree as f64 - 0.5) * u.powf(-1.0 / (self.eta - 1.0)) + 0.5;
        (d.floor() as usize).clamp(self.min_degree, max_degree)
    }
}

impl GraphGenerator for ConfigurationModelGenerator {
    fn generate(&self) -> Result<Graph> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let structural_cutoff =
            ((self.num_vertices * self.min_degree) as f64).sqrt().ceil() as usize;
        let max_degree = structural_cutoff.max(self.min_degree + 1);

        let mut degrees: Vec<usize> = (0..self.num_vertices)
            .map(|_| self.sample_degree(&mut rng, max_degree))
            .collect();
        // The stub count must be even for a perfect matching.
        if degrees.iter().sum::<usize>() % 2 == 1 {
            degrees[0] += 1;
        }

        let mut stubs: Vec<u64> = Vec::with_capacity(degrees.iter().sum());
        for (v, &d) in degrees.iter().enumerate() {
            stubs.extend(std::iter::repeat_n(v as u64, d));
        }
        stubs.shuffle(&mut rng);

        let mut builder = GraphBuilder::undirected();
        builder.num_vertices(self.num_vertices);
        for pair in stubs.chunks_exact(2) {
            // Self loops are dropped by the builder, so skip them to keep a
            // simple graph; the resulting degree error is negligible.
            if pair[0] != pair[1] {
                builder.add_edge_ids(pair[0], pair[1]);
            }
        }
        builder.build()
    }

    fn describe(&self) -> String {
        format!(
            "ConfigurationModel(n={}, eta={}, d_min={}, seed={})",
            self.num_vertices, self.eta, self.min_degree, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerlaw::estimate_graph_eta;

    #[test]
    fn produces_requested_vertices() {
        let g = ConfigurationModelGenerator::new(1_000, 2.3)
            .with_seed(1)
            .generate()
            .unwrap();
        assert_eq!(g.num_vertices(), 1_000);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn lower_eta_gives_more_skew() {
        let skewed = ConfigurationModelGenerator::new(20_000, 1.9)
            .with_min_degree(2)
            .with_seed(3)
            .generate()
            .unwrap();
        let milder = ConfigurationModelGenerator::new(20_000, 3.0)
            .with_min_degree(2)
            .with_seed(3)
            .generate()
            .unwrap();
        // Compare skew through the hub concentration: the lower-eta graph
        // concentrates a much larger share of edge endpoints on its top 1%
        // of vertices. (Direct eta-vs-eta comparisons are unreliable here
        // because the structural cutoff truncates both tails.)
        let skew_share = crate::DegreeDistribution::of(&skewed).endpoint_share_of_top(0.01);
        let mild_share = crate::DegreeDistribution::of(&milder).endpoint_share_of_top(0.01);
        assert!(
            skew_share > mild_share,
            "expected top-1% share {skew_share} > {mild_share}"
        );
        assert!(skewed.max_degree() >= milder.max_degree());
        // Both fits must still be finite and recognisably heavy-tailed.
        assert!(estimate_graph_eta(&skewed).unwrap().eta.is_finite());
        assert!(estimate_graph_eta(&milder).unwrap().eta.is_finite());
    }

    #[test]
    fn respects_min_degree_mostly() {
        let g = ConfigurationModelGenerator::new(2_000, 2.5)
            .with_min_degree(3)
            .with_seed(5)
            .generate()
            .unwrap();
        // Self-loop removal may shave a stub or two off a few vertices, but
        // the overwhelming majority must reach the requested minimum
        // (total degree = 2 * undirected min degree).
        let satisfied = g.vertices().filter(|&v| g.degree(v) >= 2 * 3 - 2).count();
        assert!(satisfied as f64 > 0.95 * g.num_vertices() as f64);
    }

    #[test]
    fn max_degree_cap_is_respected() {
        let g = ConfigurationModelGenerator::new(5_000, 1.8)
            .with_min_degree(2)
            .with_seed(5)
            .generate()
            .unwrap();
        // The cap is the structural cut-off `sqrt(n·min)` = 100, plus one
        // stub the parity fix-up may add; total degree counts both
        // directions, so it doubles.
        assert!(g.max_degree() <= 2 * 101);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ConfigurationModelGenerator::new(2, 2.0).generate().is_err());
        assert!(ConfigurationModelGenerator::new(100, 0.9)
            .generate()
            .is_err());
        assert!(ConfigurationModelGenerator::new(100, 2.0)
            .with_min_degree(0)
            .generate()
            .is_err());
    }

    #[test]
    fn describe_mentions_eta() {
        let d = ConfigurationModelGenerator::new(100, 2.5).describe();
        assert!(d.contains("eta=2.5"));
    }
}
