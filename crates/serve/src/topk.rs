//! Top-k over one published series: a single pass in vertex order that
//! compares integers only and keeps a buffer sized from `min(k, n)`.
//!
//! Every candidate is packed into one `u128` whose ascending order *is*
//! the served ranking: the high word is the value's `total_cmp` order as
//! an unsigned integer (complemented for a descending query), the low word
//! the vertex id, so ties go to the lower id for free. A candidate is
//! admitted only if it beats the *bar* — the k-th best seen so far — and
//! the admitted buffer is compacted back to its best `k` with
//! `select_nth_unstable` whenever it fills.
//!
//! The bar is seeded before the pass from a few dozen probes — evenly
//! strided ones plus the series' last vertices: their k-th best is no
//! better than the series' true k-th best, so nothing that belongs in the
//! answer is ever turned away. Without the seed a series that improves
//! with the vertex id would admit every vertex — the `cc` labels of
//! isolated vertices are their own ids, and R-MAT puts its isolated
//! vertices at the high ids, so a descending top-k of `cc` is exactly that
//! case.

use crate::store::{QueryValue, SeriesData};

/// Evenly strided probes taken to seed the bar.
const STRIDED: usize = 32;

/// The series' last vertices, probed to seed it too.
const TAIL: usize = 32;

/// Admissions buffered beyond the kept `k` before a compaction, at least;
/// a larger `k` buffers `k` more.
const MIN_SLACK: usize = 64;

/// The `k` best vertices of `data` as `(vertex, value)` pairs: largest
/// first when `descending`, smallest first otherwise, ranked by the
/// values' `total_cmp` order (a `u64` value ranks as its `f64` rounding,
/// as it always has); ties go to the lower vertex id; absent vertices are
/// skipped. Any `k` is accepted — nothing is sized from `k` alone.
pub(crate) fn topk(data: &SeriesData, k: usize, descending: bool) -> Vec<(u64, QueryValue)> {
    let flip = if descending { u64::MAX } else { 0 };
    let ranked = match data {
        SeriesData::U64 {
            values,
            absent: None,
        } => best(values, k, |v| Some(total_order(v as f64) ^ flip)),
        SeriesData::U64 {
            values,
            absent: Some(absent),
        } => best(values, k, |v| {
            (v != *absent).then(|| total_order(v as f64) ^ flip)
        }),
        SeriesData::F64(values) => best(values, k, |v| Some(total_order(v) ^ flip)),
    };
    ranked
        .into_iter()
        .map(|packed| {
            let vertex = packed as u64;
            (vertex, data.get(vertex as usize))
        })
        .collect()
}

/// `x`'s position in `f64::total_cmp` order as an unsigned integer:
/// negative values have every bit flipped, the rest only the sign bit.
fn total_order(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The packed candidates of the `min(k, n)` lowest-ranked vertices,
/// ascending. `rank` gives a value's ranking key, `None` for an absent one.
fn best<T: Copy>(values: &[T], k: usize, rank: impl Fn(T) -> Option<u64>) -> Vec<u128> {
    let n = values.len();
    let keep = k.min(n);
    if keep == 0 {
        return Vec::new();
    }
    // An absent vertex packs to u128::MAX, above every present candidate
    // (no vertex id reaches u64::MAX) and so never below the bar.
    let pack = |vertex: usize, value: T| match rank(value) {
        Some(key) => (key as u128) << 64 | vertex as u128,
        None => u128::MAX,
    };
    let capacity = (keep + keep.max(MIN_SLACK)).min(n);
    // Candidates strictly below the bar are admitted.
    let mut bar = u128::MAX;
    if n > capacity {
        // Strided probes over the whole series, then the series' last
        // vertices. The forward pass tightens its own bar when the best
        // vertices come early; the tail covers the case where they come
        // last. The stride is odd: R-MAT ids that are multiples of a power
        // of two are mostly hubs, so an aligned stride would probe one kind
        // of vertex only.
        let stride = (n / STRIDED) | 1;
        let strided = (0..STRIDED).map(|probe| probe * stride % n);
        let mut probes = [0u128; STRIDED + TAIL];
        for (slot, vertex) in probes.iter_mut().zip(strided.chain(n - TAIL..n)) {
            *slot = pack(vertex, values[vertex]);
        }
        probes.sort_unstable();
        // The k-th best distinct probe (a vertex probed twice counts once),
        // if it is present.
        let kth = (0..probes.len())
            .filter(|&i| i == 0 || probes[i] != probes[i - 1])
            .nth(keep - 1)
            .map(|i| probes[i])
            .filter(|&kth| kth != u128::MAX);
        if let Some(kth) = kth {
            bar = kth + 1;
        }
    }
    let mut kept = Vec::with_capacity(capacity);
    for (vertex, &value) in values.iter().enumerate() {
        let packed = pack(vertex, value);
        if packed < bar {
            kept.push(packed);
            if kept.len() == capacity {
                kept.select_nth_unstable(keep - 1);
                kept.truncate(keep);
                bar = kept[keep - 1];
            }
        }
    }
    if kept.len() > keep {
        kept.select_nth_unstable(keep - 1);
        kept.truncate(keep);
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The select-and-sort top-k this kernel replaced: every present
    /// vertex collected as `(f64 key, vertex)`, the best `k` selected,
    /// then sorted.
    fn select_and_sort(data: &SeriesData, k: usize, descending: bool) -> Vec<(u64, QueryValue)> {
        let mut ranked: Vec<(f64, u64)> = match data {
            SeriesData::U64 { values, absent } => values
                .iter()
                .enumerate()
                .filter(|(_, v)| Some(**v) != *absent)
                .map(|(i, &v)| (v as f64, i as u64))
                .collect(),
            SeriesData::F64(values) => values
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u64))
                .collect(),
        };
        let better = |a: &(f64, u64), b: &(f64, u64)| {
            let by_value = if descending {
                b.0.total_cmp(&a.0)
            } else {
                a.0.total_cmp(&b.0)
            };
            by_value.then_with(|| a.1.cmp(&b.1))
        };
        if ranked.len() > k && k > 0 {
            ranked.select_nth_unstable_by(k - 1, better);
        }
        ranked.truncate(k);
        ranked.sort_unstable_by(better);
        ranked
            .into_iter()
            .map(|(_, vertex)| (vertex, data.get(vertex as usize)))
            .collect()
    }

    /// An answer with its values as bit patterns, so NaNs compare equal.
    fn bits(answer: &[(u64, QueryValue)]) -> Vec<(u64, Option<u64>)> {
        answer
            .iter()
            .map(|&(vertex, value)| {
                let bits = match value {
                    QueryValue::U64(v) => Some(v),
                    QueryValue::F64(v) => Some(v.to_bits()),
                    QueryValue::Null => None,
                };
                (vertex, bits)
            })
            .collect()
    }

    fn assert_matches_oracle(data: &SeriesData, context: &str) {
        let n = data.len();
        for k in [0, 1, 2, 10, n.saturating_sub(1), n, n + 1, usize::MAX] {
            for descending in [true, false] {
                assert_eq!(
                    bits(&topk(data, k, descending)),
                    bits(&select_and_sort(data, k, descending)),
                    "{context}, n = {n}, k = {k}, descending = {descending}"
                );
            }
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 11
    }

    /// Piecewise-monotone `u64` values: runs of random length, each rising
    /// or falling by a random step, some steps zero (a run of ties).
    fn monotone_runs(n: usize, rng: &mut u64) -> Vec<u64> {
        let mut values = Vec::with_capacity(n);
        let mut value = 1u64 << 40;
        while values.len() < n {
            let run = 1 + (lcg(rng) % 400) as usize;
            let rising = lcg(rng).is_multiple_of(2);
            let step = lcg(rng) % 3;
            for _ in 0..run.min(n - values.len()) {
                value = if rising { value + step } else { value - step };
                values.push(value);
            }
        }
        values
    }

    /// The `F64` specials: both zeros, both infinities, NaNs of both signs
    /// and two payloads, and a few ordinary values that tie heavily.
    const SPECIALS: [f64; 12] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff0_0000_0000_0001),
        1.5,
        -1.5,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];

    /// Series `shape` over `n` vertices from `seed`.
    fn series(shape: u8, n: usize, seed: u64) -> SeriesData {
        let mut rng = seed;
        match shape {
            // Wide u64s: small heavily tied values next to huge ones whose
            // f64 roundings collide.
            0 | 1 => {
                let values: Vec<u64> = (0..n)
                    .map(|_| match lcg(&mut rng) % 4 {
                        0 => lcg(&mut rng) % 5,
                        1 => u64::MAX - lcg(&mut rng) % 4096,
                        2 => (1 << 53) + lcg(&mut rng) % 8,
                        _ => lcg(&mut rng),
                    })
                    .collect();
                // Shape 1 marks one of its own values absent, often.
                let absent = (shape == 1).then(|| match lcg(&mut rng) % 3 {
                    0 => u64::MAX,
                    _ => lcg(&mut rng) % 5,
                });
                SeriesData::U64 { values, absent }
            }
            2 => SeriesData::F64(
                (0..n)
                    .map(|_| SPECIALS[(lcg(&mut rng) % SPECIALS.len() as u64) as usize])
                    .collect(),
            ),
            // Monotone runs, as u64 (with and without an absent value)
            // and as f64.
            3 | 4 => {
                let values = monotone_runs(n, &mut rng);
                let absent = (shape == 4).then(|| values.get(n / 2).copied().unwrap_or(0));
                SeriesData::U64 { values, absent }
            }
            5 => SeriesData::F64(
                monotone_runs(n, &mut rng)
                    .into_iter()
                    .map(|v| (v as f64 - (1u64 << 40) as f64) / 3.0)
                    .collect(),
            ),
            // Strictly monotone over the whole series, both directions:
            // `cc` labels of isolated vertices, and their mirror image.
            6 => SeriesData::U64 {
                values: (0..n as u64).collect(),
                absent: None,
            },
            _ => SeriesData::U64 {
                values: (0..n as u64).rev().collect(),
                absent: Some(n as u64 / 3),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn kernel_equals_select_and_sort(
            shape in 0u8..8,
            n in 0usize..2_001,
            seed in any::<u64>(),
        ) {
            assert_matches_oracle(&series(shape, n, seed), &format!("shape {shape}, seed {seed}"));
        }
    }

    #[test]
    fn total_order_is_total_cmp() {
        for a in SPECIALS {
            for b in SPECIALS {
                assert_eq!(
                    total_order(a).cmp(&total_order(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn cc_labels_of_a_benchmark_sized_series_match_in_both_orders() {
        // A giant component labelled 0 beside isolated vertices labelled
        // with their own ids: the series the probe seed exists for.
        let mut rng = 29u64;
        let values: Vec<u64> = (0..65_536u64)
            .map(|v| {
                if lcg(&mut rng).is_multiple_of(3) {
                    v
                } else {
                    0
                }
            })
            .collect();
        let data = SeriesData::U64 {
            values,
            absent: None,
        };
        assert_matches_oracle(&data, "cc");
        let top = topk(&data, 3, true);
        assert_eq!(top.len(), 3);
        assert!(top.windows(2).all(|w| w[0].0 > w[1].0));
    }
}
