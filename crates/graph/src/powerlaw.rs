//! Estimation of the power-law degree exponent η.
//!
//! The paper (Section III-A) characterizes its evaluation graphs by the
//! exponent of the degree distribution `P(degree = d) ∝ d^-η`: the lower η,
//! the more skewed the graph. Table I reports η for each graph, and the
//! analysis of Table III orders graphs by η. This module provides the
//! discrete maximum-likelihood estimator of Clauset, Shalizi & Newman, which
//! is the standard way to obtain such exponents from empirical degree data.

use crate::degree::DegreeDistribution;
use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// Result of a power-law fit over a degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent η of `P(degree = d) ∝ d^-η`.
    pub eta: f64,
    /// The minimum degree `d_min` from which the tail was fitted.
    pub d_min: usize,
    /// Number of vertices with degree ≥ `d_min` used by the fit.
    pub tail_vertices: usize,
}

impl PowerLawFit {
    /// Whether the fitted exponent indicates a heavily skewed (power-law)
    /// graph. The paper treats its social graphs (η ≤ ~2.7) as power-law and
    /// the road network (η ≈ 6.3) as non-power-law; we use η < 4 as the
    /// dividing line.
    pub fn is_power_law(&self) -> bool {
        self.eta < 4.0
    }
}

/// Estimates the exponent η using the discrete MLE
/// `η ≈ 1 + n · [Σ ln(d_i / (d_min − 1/2))]^-1` over the degree tail
/// `d_i ≥ d_min`.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] when the distribution has no vertex of
/// degree ≥ `d_min`, and [`GraphError::InvalidParameter`] when `d_min` is 0.
///
/// # Examples
///
/// ```
/// use ebv_graph::{estimate_eta_with_dmin, DegreeDistribution};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// // A perfectly uniform low-degree distribution has a very large exponent.
/// let road_like = DegreeDistribution::from_degrees(vec![2; 1000]);
/// let fit = estimate_eta_with_dmin(&road_like, 2)?;
/// assert!(fit.eta > 4.0);
/// # Ok(())
/// # }
/// ```
pub fn estimate_eta_with_dmin(dist: &DegreeDistribution, d_min: usize) -> Result<PowerLawFit> {
    if d_min == 0 {
        return Err(GraphError::InvalidParameter {
            parameter: "d_min",
            message: "minimum degree for the power-law fit must be at least 1".to_string(),
        });
    }
    let mut n = 0usize;
    let mut log_sum = 0.0f64;
    let shift = d_min as f64 - 0.5;
    for (degree, count) in dist.iter() {
        if degree < d_min {
            continue;
        }
        n += count;
        log_sum += count as f64 * (degree as f64 / shift).ln();
    }
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    // A degenerate tail (all degrees equal to d_min) has log_sum == 0; report
    // a large finite exponent rather than infinity so that downstream tables
    // stay printable.
    let eta = if log_sum <= f64::EPSILON {
        f64::MAX.log10() // ~308, clearly "not a power law"
    } else {
        1.0 + n as f64 / log_sum
    };
    Ok(PowerLawFit {
        eta,
        d_min,
        tail_vertices: n,
    })
}

/// Estimates η by scanning candidate `d_min` values and keeping the fit whose
/// tail still covers at least `min_tail_fraction` of the vertices. Scanning
/// avoids the strong bias that the low-degree head introduces in real and
/// synthetic graphs.
///
/// # Errors
///
/// Propagates errors from [`estimate_eta_with_dmin`]; in particular an empty
/// distribution yields [`GraphError::EmptyGraph`].
pub(crate) fn estimate_eta(dist: &DegreeDistribution) -> Result<PowerLawFit> {
    let max_degree = dist.max_degree().ok_or(GraphError::EmptyGraph)?;
    let min_degree = dist.min_degree().unwrap_or(1).max(1);
    let min_tail = (dist.num_vertices() / 100).max(10);

    let mut best: Option<PowerLawFit> = None;
    let mut d_min = min_degree;
    while d_min <= max_degree {
        if dist.count_with_degree_at_least(d_min) < min_tail {
            break;
        }
        let fit = estimate_eta_with_dmin(dist, d_min)?;
        // Prefer the fit with the larger d_min that still covers enough of
        // the tail: this mirrors the usual "pick d_min past the head" advice
        // while staying deterministic and cheap.
        best = Some(fit);
        d_min = (d_min * 2).max(d_min + 1);
    }
    match best {
        Some(fit) => Ok(fit),
        None => estimate_eta_with_dmin(dist, min_degree),
    }
}

/// Convenience wrapper: estimates η directly from a graph's total-degree
/// distribution.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] for graphs without edges.
pub fn estimate_graph_eta(graph: &Graph) -> Result<PowerLawFit> {
    let dist = DegreeDistribution::of(graph);
    estimate_eta(&dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Draws `n` samples from a discrete power law with exponent `eta` using
    /// inverse-transform sampling on the continuous approximation.
    fn sample_power_law(n: usize, eta: f64, d_min: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let x = (d_min as f64 - 0.5) * u.powf(-1.0 / (eta - 1.0)) + 0.5;
                x.floor() as usize
            })
            .collect()
    }

    #[test]
    fn mle_recovers_known_exponent() {
        for &eta in &[1.9f64, 2.4, 3.0] {
            let degrees = sample_power_law(200_000, eta, 2, 7);
            let dist = DegreeDistribution::from_degrees(degrees);
            let fit = estimate_eta_with_dmin(&dist, 2).unwrap();
            // The continuous-approximation sampler is slightly biased for
            // larger exponents, so allow a quarter-unit tolerance.
            assert!(
                (fit.eta - eta).abs() < 0.25,
                "eta {eta}: estimated {}",
                fit.eta
            );
            assert!(fit.is_power_law());
        }
    }

    #[test]
    fn uniform_degrees_are_not_power_law() {
        let dist = DegreeDistribution::from_degrees(vec![2; 10_000]);
        let fit = estimate_eta(&dist).unwrap();
        assert!(!fit.is_power_law(), "eta was {}", fit.eta);
    }

    #[test]
    fn zero_dmin_is_rejected() {
        let dist = DegreeDistribution::from_degrees(vec![1, 2, 3]);
        assert!(matches!(
            estimate_eta_with_dmin(&dist, 0),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_tail_is_rejected() {
        let dist = DegreeDistribution::from_degrees(vec![1, 2, 3]);
        assert!(matches!(
            estimate_eta_with_dmin(&dist, 100),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn empty_distribution_is_rejected() {
        let dist = DegreeDistribution::from_degrees(Vec::new());
        assert!(matches!(estimate_eta(&dist), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn estimate_eta_handles_small_graphs() {
        let dist = DegreeDistribution::from_degrees(vec![1, 1, 2, 3, 5, 8]);
        let fit = estimate_eta(&dist).unwrap();
        assert!(fit.eta.is_finite());
        assert!(fit.tail_vertices > 0);
    }

    #[test]
    fn graph_eta_wrapper_works() {
        let graph = crate::GraphBuilder::undirected()
            .extend_edges((1..=40u64).map(|i| (0, i)))
            .extend_edges((1..=39u64).map(|i| (i, i + 1)))
            .build()
            .unwrap();
        let fit = estimate_graph_eta(&graph).unwrap();
        assert!(fit.eta.is_finite());
    }
}
