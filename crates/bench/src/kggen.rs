//! Deterministic synthetic KG generator for the `scale_bench` suite and the
//! repository benchmark's `sparql_join` workload.
//!
//! The affinity/linking benchmarks use [`kgqan_benchmarks::kg::GeneratedKg`],
//! which produces small, richly-typed KGs shaped like the paper's evaluation
//! graphs.  The morsel-parallel executor needs something different: a KG big
//! enough (millions of triples) that a single BGP scan dominates query time,
//! with the *skewed* degree distribution real KGs exhibit — a few hub
//! entities own a large share of the edges, so equal-width partitions carry
//! very unequal work and morsel stealing actually matters.
//!
//! Everything is seeded and hand-rolled (splitmix64 + an inverse-CDF Zipf
//! sampler), so two runs — or two machines — build byte-identical stores.

use std::sync::Arc;

use kgqan_rdf::{LiveStore, Store, StoreSnapshot, Term, Triple};

/// IRI of the high-volume edge predicate (`?a links ?b`): the driver scan of
/// every multi-hop benchmark query.
pub const LINKS: &str = "http://kggen.invalid/p/links";

/// IRI of the sparse classification predicate (`?b category ?c`).
pub const CATEGORY: &str = "http://kggen.invalid/p/category";

/// Shape of a generated KG: sizes, skew, and the RNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfKgConfig {
    /// Seed for the splitmix64 stream; same seed → identical store.
    pub seed: u64,
    /// Number of distinct entities.
    pub entities: usize,
    /// Target triple count (distinct triples actually inserted).
    pub triples: usize,
    /// Zipf exponent for the subject/object degree distribution.  Higher
    /// values concentrate more edges on fewer hub entities; real KGs sit
    /// around 1.0–1.3 (use something != 1.0, the sampler's closed form
    /// divides by `1 - exponent`).
    pub exponent: f64,
    /// Number of distinct `category` objects.
    pub categories: usize,
}

impl ZipfKgConfig {
    /// The full-scale config `scale_bench` runs against:
    /// two million triples over 200k entities.
    pub fn scale_full() -> Self {
        ZipfKgConfig {
            seed: 0x5eed_cafe_f00d_0001,
            entities: 200_000,
            triples: 2_000_000,
            exponent: 1.1,
            categories: 64,
        }
    }

    /// A shrunk config for `KGQAN_BENCH_SMOKE` runs and unit tests: same
    /// shape and skew, ~60k triples, builds in well under a second.
    pub fn scale_smoke() -> Self {
        ZipfKgConfig {
            entities: 8_000,
            triples: 60_000,
            ..ZipfKgConfig::scale_full()
        }
    }
}

/// A generated KG, published as a shared snapshot so benchmarks can hand it
/// to `Planner::for_shared_snapshot` (the parallel-eligible planner entry).
pub struct ZipfKg {
    /// The immutable snapshot the benchmarks query.
    pub snapshot: Arc<StoreSnapshot>,
    /// The config the KG was generated from.
    pub config: ZipfKgConfig,
}

impl ZipfKg {
    /// Generate the KG described by `config`.
    ///
    /// ~85% of triples are `links` edges with Zipf-skewed endpoints, the
    /// rest classify entities into one of `config.categories` categories.
    /// Duplicate draws are re-rolled, so the store holds exactly
    /// `config.triples` distinct triples.
    pub fn generate(config: ZipfKgConfig) -> ZipfKg {
        let mut rng = SplitMix64::new(config.seed);
        let zipf = Zipf::new(config.entities, config.exponent);

        let entities: Vec<Term> = (0..config.entities)
            .map(|i| Term::iri(format!("http://kggen.invalid/e/{i}")))
            .collect();
        let categories: Vec<Term> = (0..config.categories.max(1))
            .map(|i| Term::iri(format!("http://kggen.invalid/c/{i}")))
            .collect();
        let links = Term::iri(LINKS);
        let category = Term::iri(CATEGORY);

        let link_target = (config.triples * 85) / 100;
        let mut store = Store::new();
        while store.len() < link_target {
            // Decorrelate subject and object hubs with distinct strides so
            // hub→hub edges exist but don't dominate.
            let s = zipf.sample(rng.next_f64()) * 0x9e37 % config.entities;
            let o = zipf.sample(rng.next_f64()) * 0x85eb % config.entities;
            store.insert(Triple::new(
                entities[s].clone(),
                links.clone(),
                entities[o].clone(),
            ));
        }
        while store.len() < config.triples {
            let s = zipf.sample(rng.next_f64()) % config.entities;
            let c = (rng.next() as usize) % categories.len();
            store.insert(Triple::new(
                entities[s].clone(),
                category.clone(),
                categories[c].clone(),
            ));
        }
        store.compact();

        ZipfKg {
            snapshot: LiveStore::new(store).snapshot(),
            config,
        }
    }
}

/// The splitmix64 PRNG: tiny, fast, and fully deterministic from its seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
///
/// For exponent `s != 1` the Zipf CDF is approximated by the integral
/// `H(k) ≈ (k^(1-s) - 1) / (1-s)`, which inverts in closed form — good
/// enough for benchmark skew and orders of magnitude cheaper than exact
/// rejection sampling at millions of draws.
struct Zipf {
    n: usize,
    one_minus_s: f64,
    h_n: f64,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        let one_minus_s = 1.0 - exponent;
        Zipf {
            n,
            one_minus_s,
            h_n: ((n as f64).powf(one_minus_s) - 1.0) / one_minus_s,
        }
    }

    /// Map a uniform draw in `[0, 1)` to a rank in `0..n` (rank 0 hottest).
    fn sample(&self, u: f64) -> usize {
        let k = (1.0 + u * self.h_n * self.one_minus_s).powf(1.0 / self.one_minus_s);
        (k as usize).clamp(1, self.n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_rdf::TriplePattern;

    #[test]
    fn same_seed_generates_identical_stores() {
        let config = ZipfKgConfig {
            triples: 4_000,
            entities: 600,
            ..ZipfKgConfig::scale_smoke()
        };
        let a = ZipfKg::generate(config);
        let b = ZipfKg::generate(config);
        assert_eq!(a.snapshot.len(), config.triples);
        let triples_a: Vec<_> = a.snapshot.iter().collect();
        let triples_b: Vec<_> = b.snapshot.iter().collect();
        assert_eq!(triples_a, triples_b);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let config = ZipfKgConfig {
            triples: 8_000,
            entities: 2_000,
            ..ZipfKgConfig::scale_smoke()
        };
        let kg = ZipfKg::generate(config);
        let links = kg
            .snapshot
            .count_matching(&TriplePattern::any().with_predicate(Term::iri(LINKS)));
        assert!(links >= (config.triples * 8) / 10);

        // The hottest subject should own far more edges than a uniform
        // distribution would give it (~4 for 6.8k links over 2k entities).
        let mut best = 0;
        for i in 0..config.entities {
            let out = kg.snapshot.count_matching(
                &TriplePattern::any()
                    .with_subject(Term::iri(format!("http://kggen.invalid/e/{i}")))
                    .with_predicate(Term::iri(LINKS)),
            );
            best = best.max(out);
        }
        assert!(best > 40, "expected a hub entity, max out-degree {best}");
    }
}
