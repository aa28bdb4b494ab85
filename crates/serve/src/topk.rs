//! Top-k over one published series: a single pass in vertex order over
//! the chunks a zone map cannot rule out, comparing integers only and
//! keeping a buffer sized from `min(k, n)`.
//!
//! Every candidate is packed into one `u128` whose ascending order *is*
//! the served ranking: the high word is the value's `total_cmp` order as
//! an unsigned integer (complemented for a descending query), the low word
//! the vertex id, so ties go to the lower id for free. A candidate is
//! admitted only if it beats the *bar* — the k-th best seen so far — and
//! the admitted buffer is compacted back to its best `k` with
//! `select_nth_unstable` whenever it fills, and before a chunk is scanned
//! once it holds `k` candidates more than it keeps.
//!
//! The bar is seeded before the pass from a few dozen probes — evenly
//! strided ones plus the series' last vertices: their k-th best is no
//! better than the series' true k-th best, so nothing that belongs in the
//! answer is ever turned away. Without the seed a series that improves
//! with the vertex id would admit every vertex — the `cc` labels of
//! isolated vertices are their own ids, and R-MAT puts its isolated
//! vertices at the high ids, so a descending top-k of `cc` is exactly that
//! case.
//!
//! The pass reads only the chunks that could hold an answer. A [`ZoneMap`]
//! summarises every run of [`CHUNK`] vertices by the least and greatest
//! *present* value it holds, as the ascending word the pass ranks by (the
//! absent sentinel is left out, and a chunk with no present value is
//! marked empty). The store builds it once per staged series, when the
//! series is committed: a `u64` chunk is folded on the values themselves
//! and only its two extremes are converted, which the conversion's
//! monotonicity allows. Before a chunk is scanned the pass packs the
//! chunk's best word with the chunk's *first* vertex id and compares that
//! with the bar: the gate knows about ids. Before the bar's vertex a chunk
//! whose best equals the bar's value can
//! still win, on the lower id; from the bar's vertex on it needs a
//! strictly better value. The ascending queries tie with the bar across
//! most of a series — the `cc` giant component is all label 0 — so a gate
//! on values alone would scan nearly every chunk of them. Leaving the
//! absent sentinel out matters the same way: an unreachable `sssp` vertex
//! carries `u64::MAX`, which would put every such chunk past a descending
//! bar.

#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::store::{QueryValue, SeriesData};

/// Vertices summarised by one zone-map entry.
pub(crate) const CHUNK: usize = 64;

/// One chunk's least and greatest present ranking word (before a
/// descending query's complement); `lo > hi` marks a chunk with no present
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Zone {
    lo: u64,
    hi: u64,
}

/// The summary of a chunk with no present value (the identity of the fold).
const EMPTY: Zone = Zone {
    lo: u64::MAX,
    hi: 0,
};

/// Per-chunk min/max summary of one series, built once when the series is
/// committed and shared with it by pointer afterwards (see the module
/// docs). 16 bytes per [`CHUNK`] vertices.
#[derive(Debug, Default)]
pub(crate) struct ZoneMap {
    zones: Vec<Zone>,
    /// Chunks the queries against this map have scanned — what the tests
    /// measure the gate by.
    #[cfg(test)]
    scanned: AtomicUsize,
}

#[cfg(test)]
impl PartialEq for ZoneMap {
    fn eq(&self, other: &ZoneMap) -> bool {
        self.zones == other.zones
    }
}

impl ZoneMap {
    /// Summarises `data`, one [`Zone`] per [`CHUNK`] vertices.
    pub(crate) fn build(data: &SeriesData) -> ZoneMap {
        let ranked = |lo: u64, hi: u64| Zone {
            lo: u64_order(lo),
            hi: u64_order(hi),
        };
        let zones = match data {
            SeriesData::U64 {
                values,
                absent: None,
            } => summarise(values, |v| v, |v| v, |_, lo, hi| ranked(lo, hi)),
            // The sentinel the algorithms publish (`UNREACHABLE`) is the
            // top of the range: it is the identity of `min` already, and
            // shifting every value up by one wraps it to the identity of
            // `max` — no per-value test.
            SeriesData::U64 {
                values,
                absent: Some(u64::MAX),
            } => summarise(
                values,
                |v| v,
                |v| v.wrapping_add(1),
                |_, lo, above| match above {
                    0 => EMPTY,
                    _ => ranked(lo, above - 1),
                },
            ),
            SeriesData::U64 {
                values,
                absent: Some(absent),
            } => summarise(
                values,
                |v| if v == *absent { EMPTY.lo } else { v },
                |v| if v == *absent { EMPTY.hi } else { v },
                |_, lo, hi| if lo > hi { EMPTY } else { ranked(lo, hi) },
            ),
            // Without a sign bit in the chunk — PageRank's ranks, say —
            // `total_order` is the bit pattern with the sign bit set, which
            // is monotone in the pattern, so only the extremes are
            // converted; a chunk holding a sign bit is folded again on
            // `total_order` words.
            SeriesData::F64(values) => {
                summarise(values, f64::to_bits, f64::to_bits, |chunk, lo, hi| {
                    if hi >> 63 == 0 {
                        return Zone {
                            lo: total_order(f64::from_bits(lo)),
                            hi: total_order(f64::from_bits(hi)),
                        };
                    }
                    let (lo, hi) = fold(chunk, total_order, total_order);
                    Zone { lo, hi }
                })
            }
        };
        ZoneMap {
            zones,
            #[cfg(test)]
            scanned: AtomicUsize::new(0),
        }
    }
}

/// One [`Zone`] per chunk of `values`: `finish` turns the chunk and the
/// least `low` and greatest `high` image of its values (see [`fold`]) into
/// the chunk's summary.
fn summarise<T: Copy>(
    values: &[T],
    low: impl Fn(T) -> u64,
    high: impl Fn(T) -> u64,
    finish: impl Fn(&[T], u64, u64) -> Zone,
) -> Vec<Zone> {
    values
        .chunks(CHUNK)
        .map(|chunk| {
            let (lo, hi) = fold(chunk, &low, &high);
            finish(chunk, lo, hi)
        })
        .collect()
}

/// The least `low(v)` and the greatest `high(v)` over `values` (`u64::MAX`
/// and 0 when empty). Four interleaved accumulators per extreme keep the
/// compare-and-select chains independent, which is most of the build's
/// speed.
fn fold<T: Copy>(values: &[T], low: impl Fn(T) -> u64, high: impl Fn(T) -> u64) -> (u64, u64) {
    let (mut lo, mut hi) = ([EMPTY.lo; 4], [EMPTY.hi; 4]);
    let (quads, rest) = values.as_chunks::<4>();
    for quad in quads {
        for lane in 0..4 {
            lo[lane] = lo[lane].min(low(quad[lane]));
            hi[lane] = hi[lane].max(high(quad[lane]));
        }
    }
    for &last in rest {
        lo[0] = lo[0].min(low(last));
        hi[0] = hi[0].max(high(last));
    }
    (
        lo[0].min(lo[1]).min(lo[2].min(lo[3])),
        hi[0].max(hi[1]).max(hi[2].max(hi[3])),
    )
}

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
/// `zones` is `data`'s [`ZoneMap`].
pub(crate) fn topk(
    data: &SeriesData,
    zones: &ZoneMap,
    k: usize,
    descending: bool,
) -> Vec<(u64, QueryValue)> {
    let flip = if descending { u64::MAX } else { 0 };
    let ranked = match data {
        SeriesData::U64 {
            values,
            absent: None,
        } => best(values, zones, k, flip, |v| Some(u64_order(v) ^ flip)),
        SeriesData::U64 {
            values,
            absent: Some(absent),
        } => best(values, zones, k, flip, |v| {
            (v != *absent).then(|| u64_order(v) ^ flip)
        }),
        SeriesData::F64(values) => best(values, zones, k, flip, |v| Some(total_order(v) ^ flip)),
    };
    ranked
        .into_iter()
        .map(|packed| {
            let vertex = packed as u64;
            (vertex, data.get(vertex as usize))
        })
        .collect()
}

/// Cuts `kept` down to its `keep` lowest candidates and returns the
/// highest of them: the bar the rest of the pass must get under.
fn compact(kept: &mut Vec<u128>, keep: usize) -> u128 {
    kept.select_nth_unstable(keep - 1);
    kept.truncate(keep);
    kept[keep - 1]
}

/// A `u64` value's ranking word: that of its `f64` rounding.
fn u64_order(v: u64) -> u64 {
    total_order(v as f64)
}

/// `x`'s position in `f64::total_cmp` order as an unsigned integer:
/// negative values have every bit flipped, the rest only the sign bit.
fn total_order(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The packed candidates of the `min(k, n)` lowest-ranked vertices,
/// ascending. `rank` gives a value's ranking key — its word XOR `flip` —
/// and `None` for an absent one; `zones` is `values`' [`ZoneMap`].
fn best<T: Copy>(
    values: &[T],
    zones: &ZoneMap,
    k: usize,
    flip: u64,
    rank: impl Fn(T) -> Option<u64>,
) -> Vec<u128> {
    debug_assert_eq!(zones.zones.len(), values.len().div_ceil(CHUNK));
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
    for (index, (chunk, zone)) in values.chunks(CHUNK).zip(&zones.zones).enumerate() {
        let start = index * CHUNK;
        if zone.lo > zone.hi {
            continue;
        }
        // The best candidate the chunk could hold: its best key at its
        // first vertex. Not below the bar means no vertex of it is.
        let key = if flip == 0 { zone.lo } else { zone.hi ^ flip };
        let chunk_best = (key as u128) << 64 | start as u128;
        if chunk_best >= bar {
            continue;
        }
        // A chunk the bar lets in is first checked against the bar the
        // buffer already proves, once the buffer holds `keep` candidates
        // beyond the kept ones (so a compaction discards at least as many
        // candidates as it keeps). Where the best values are rare and
        // spread out — the far tail of a descending `sssp` — the bar then
        // tightens every `keep` admissions instead of every
        // `capacity − keep`.
        if kept.len() >= 2 * keep {
            bar = compact(&mut kept, keep);
            if chunk_best >= bar {
                continue;
            }
        }
        #[cfg(test)]
        zones.scanned.fetch_add(1, Ordering::Relaxed);
        for (offset, &value) in chunk.iter().enumerate() {
            let packed = pack(start + offset, value);
            if packed < bar {
                kept.push(packed);
                if kept.len() == capacity {
                    bar = compact(&mut kept, keep);
                }
            }
        }
    }
    if kept.len() > keep {
        compact(&mut kept, keep);
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

    /// The kernel's answer, through a zone map built as a commit builds it.
    fn kernel(data: &SeriesData, k: usize, descending: bool) -> Vec<(u64, QueryValue)> {
        topk(data, &ZoneMap::build(data), k, descending)
    }

    fn assert_matches_oracle(data: &SeriesData, context: &str) {
        let n = data.len();
        let zones = ZoneMap::build(data);
        for k in [0, 1, 2, 10, n.saturating_sub(1), n, n + 1, usize::MAX] {
            for descending in [true, false] {
                assert_eq!(
                    bits(&topk(data, &zones, k, descending)),
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
        let top = kernel(&data, 3, true);
        assert_eq!(top.len(), 3);
        assert!(top.windows(2).all(|w| w[0].0 > w[1].0));
    }

    #[test]
    fn chunk_borders_match_the_oracle() {
        for n in [63, 64, 65, 128, 4_097] {
            for shape in 0..8 {
                for seed in [1, 2, 3] {
                    let context = format!("shape {shape}, seed {seed}");
                    assert_matches_oracle(&series(shape, n, seed), &context);
                }
            }
        }
    }

    #[test]
    fn one_present_chunk_among_absent_ones_matches_the_oracle() {
        let absent = u64::MAX;
        for present in [0, 7, 15] {
            let mut values = vec![absent; 16 * CHUNK];
            for (i, slot) in values[present * CHUNK..(present + 1) * CHUNK]
                .iter_mut()
                .enumerate()
            {
                *slot = (i as u64 * 37) % 11;
            }
            let data = SeriesData::U64 {
                values,
                absent: Some(absent),
            };
            let zones = ZoneMap::build(&data);
            let empty = zones.zones.iter().filter(|z| z.lo > z.hi).count();
            assert_eq!(empty, 15, "every other chunk is marked empty");
            let (lo, hi) = (u64_order(0), u64_order(10));
            assert_eq!(zones.zones[present], Zone { lo, hi });
            assert_matches_oracle(&data, &format!("present chunk {present}"));
        }
    }

    #[test]
    fn tie_runs_straddling_chunk_borders_match_the_oracle() {
        // Runs of one value that start a few vertices before a border and
        // end a few after it, over a background the runs beat in one order
        // and lose to in the other.
        let n = 12 * CHUNK;
        for (run_value, background) in [(5u64, 9u64), (9, 5)] {
            let mut values = vec![background; n];
            for border in [CHUNK, 4 * CHUNK, 9 * CHUNK] {
                values[border - 3..border + 5].fill(run_value);
            }
            values[2 * CHUNK + 1] = run_value;
            let data = SeriesData::U64 {
                values: values.clone(),
                absent: None,
            };
            assert_matches_oracle(&data, &format!("u64 runs of {run_value}"));
            let data = SeriesData::F64(values.iter().map(|&v| v as f64 / 4.0).collect());
            assert_matches_oracle(&data, &format!("f64 runs of {run_value}"));
        }
    }

    #[test]
    fn zone_maps_leave_the_absent_sentinel_out() {
        let data = SeriesData::U64 {
            values: vec![3, u64::MAX, 8, u64::MAX, u64::MAX, u64::MAX],
            absent: Some(u64::MAX),
        };
        let (lo, hi) = (u64_order(3), u64_order(8));
        assert_eq!(ZoneMap::build(&data).zones, vec![Zone { lo, hi }]);
        let data = SeriesData::F64(vec![-1.0, 2.5, f64::NAN]);
        let zones = ZoneMap::build(&data).zones;
        assert_eq!(
            zones,
            vec![Zone {
                lo: total_order(-1.0),
                hi: total_order(f64::NAN)
            }]
        );
        assert!(ZoneMap::build(&SeriesData::F64(Vec::new()))
            .zones
            .is_empty());
    }

    #[test]
    fn zone_maps_equal_a_per_vertex_fold() {
        for n in [0, 1, 63, 64, 65, 200, 4_097] {
            for shape in 0..8 {
                let data = series(shape, n, 11 + n as u64);
                // Each chunk's present ranking words, least and greatest.
                let naive: Vec<Zone> = (0..n.div_ceil(CHUNK))
                    .map(|chunk| {
                        let words =
                            (chunk * CHUNK..n.min((chunk + 1) * CHUNK)).filter_map(|vertex| {
                                match data.get(vertex) {
                                    QueryValue::U64(v) => Some(u64_order(v)),
                                    QueryValue::F64(v) => Some(total_order(v)),
                                    QueryValue::Null => None,
                                }
                            });
                        words.fold(EMPTY, |zone, word| Zone {
                            lo: zone.lo.min(word),
                            hi: zone.hi.max(word),
                        })
                    })
                    .collect();
                assert_eq!(ZoneMap::build(&data).zones, naive, "shape {shape}, n = {n}");
            }
        }
    }

    /// The most chunks any benchmark-sized query may scan: 2% of them.
    const SCAN_BUDGET: usize = 65_536 / CHUNK / 50;

    /// Runs every `k` in `ks` in both orders against `data` through one
    /// zone map, checking each answer against the oracle and each query's
    /// chunk count against [`SCAN_BUDGET`].
    fn assert_scans_within_budget(data: &SeriesData, ks: &[usize], context: &str) {
        let zones = ZoneMap::build(data);
        for &k in ks {
            for descending in [true, false] {
                zones.scanned.store(0, Ordering::Relaxed);
                let answer = topk(data, &zones, k, descending);
                let scanned = zones.scanned.load(Ordering::Relaxed);
                let context = format!("{context}, k = {k}, descending = {descending}");
                assert_eq!(
                    bits(&answer),
                    bits(&select_and_sort(data, k, descending)),
                    "{context}"
                );
                assert!(
                    scanned <= SCAN_BUDGET,
                    "{context}: scanned {scanned} of {} chunks",
                    zones.zones.len()
                );
            }
        }
    }

    #[test]
    fn benchmark_shaped_series_scan_at_most_two_percent_of_their_chunks() {
        let n = 65_536u64;
        let mut rng = 30u64;
        // `cc`: a giant component labelled 0 beside isolated vertices
        // labelled with their own ids, which R-MAT leaves mostly at the
        // high ids.
        let cc: Vec<u64> = (0..n)
            .map(|v| {
                let isolated = lcg(&mut rng) % n < v / 2 + v.count_ones() as u64 * 600;
                if isolated {
                    v
                } else {
                    0
                }
            })
            .collect();
        let data = SeriesData::U64 {
            values: cc,
            absent: None,
        };
        assert_scans_within_budget(&data, &[1, 10], "cc");

        // `sssp`: hop distances from a hub in the proportions seed 42's
        // series has — 6% at one hop, 38% at two, 7% at three, a tenth of
        // a percent at four and a single vertex at five — and 40% of the
        // vertices unreachable.
        let unreachable = u64::MAX;
        let mut sssp: Vec<u64> = (0..n)
            .map(|_| match lcg(&mut rng) % 10_000 {
                0..4_000 => unreachable,
                4_000..4_600 => 1,
                4_600..8_600 => 2,
                8_600..9_985 => 3,
                _ => 4,
            })
            .collect();
        sssp[0] = 0;
        sssp[37_558] = 5;
        let absent = sssp.iter().filter(|&&d| d == unreachable).count() as f64;
        assert!((0.35..0.45).contains(&(absent / n as f64)), "{absent}");
        let data = SeriesData::U64 {
            values: sssp,
            absent: Some(unreachable),
        };
        assert_scans_within_budget(&data, &[1, 10], "sssp");
    }
}
