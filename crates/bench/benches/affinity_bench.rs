//! Criterion micro-benchmarks for the semantic-affinity models (Equation 1):
//! fine-grained word-pair affinity vs the coarse-grained sentence-embedding
//! variant — the design choice ablated in Table 4 — and the linker's real
//! shape: one node label against the 400 descriptions a
//! `potentialRelevantVertices` probe fetches (§5.1).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgqan::{CoarseGrainedAffinity, FineGrainedAffinity, SemanticAffinity};

fn affinity(c: &mut Criterion) {
    let fg = FineGrainedAffinity::new();
    let cg = CoarseGrainedAffinity::new();
    let pairs = [
        ("city on the shore", "nearest city"),
        ("wife", "spouse"),
        ("flow", "outflow"),
        ("author of the paper", "authored by"),
        ("2279569217", "creator"),
    ];

    let mut group = c.benchmark_group("semantic_affinity");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("fine_grained_eq1", |b| {
        b.iter(|| pairs.iter().map(|(a, x)| fg.score(a, x)).sum::<f32>())
    });
    group.bench_function("coarse_grained_sentence", |b| {
        b.iter(|| pairs.iter().map(|(a, x)| cg.score(a, x)).sum::<f32>())
    });

    // Algorithm 1 at the paper's *Max Fetched Vertices*.  The batch is what
    // the linker calls; the single calls are what a model (or a decorator)
    // that implements only `score` costs through the provided default.
    let label = "deep learning for image recognition";
    let warm = descriptions("");
    let warm: Vec<&str> = warm.iter().map(String::as_str).collect();
    group.bench_function("fg_one_phrase_vs_400_descriptions", |b| {
        b.iter(|| fg.score_many(black_box(label), black_box(&warm)))
    });
    // The median batch of the hot workload (five descriptions, few repeated
    // words), and 400 descriptions in which no token repeats: the per-batch
    // token table's worst case, every token a new row.
    group.bench_function("fg_one_phrase_vs_5_descriptions", |b| {
        b.iter(|| fg.score_many(black_box(label), black_box(&warm[..5])))
    });
    let distinct = distinct_descriptions();
    let distinct: Vec<&str> = distinct.iter().map(String::as_str).collect();
    group.bench_function("fg_one_phrase_vs_400_distinct_descriptions", |b| {
        b.iter(|| fg.score_many(black_box(label), black_box(&distinct)))
    });
    group.bench_function("fg_400_single_calls", |b| {
        b.iter(|| {
            warm.iter()
                .map(|d| fg.score(black_box(label), d))
                .sum::<f32>()
        })
    });
    // Cold memo: every description word is new to the process, so each is
    // derived and inserted inside the timed call, and shards that reach
    // their cap are emptied.  Building the 400 strings is timed too (a few
    // percent).
    let mut round = 0usize;
    group.bench_function("fg_one_phrase_vs_400_descriptions_cold_memo", |b| {
        b.iter(|| {
            round += 1;
            let fresh = descriptions(&round.to_string());
            let fresh: Vec<&str> = fresh.iter().map(String::as_str).collect();
            fg.score_many(black_box(label), &fresh)
        })
    });
    group.finish();
}

/// 400 paper-title-like descriptions of 2–5 words over a 40-word vocabulary
/// with a numeric id in every fifth one; `tag` is appended to every word.
fn descriptions(tag: &str) -> Vec<String> {
    const WORDS: [&str; 40] = [
        "deep",
        "learning",
        "image",
        "recognition",
        "graph",
        "neural",
        "network",
        "query",
        "knowledge",
        "semantic",
        "parsing",
        "question",
        "answering",
        "linking",
        "entity",
        "relation",
        "embedding",
        "survey",
        "efficient",
        "scalable",
        "distributed",
        "index",
        "join",
        "optimization",
        "model",
        "language",
        "transformer",
        "retrieval",
        "benchmark",
        "evaluation",
        "robust",
        "adaptive",
        "probabilistic",
        "inference",
        "representation",
        "university",
        "journal",
        "conference",
        "Kaliningrad",
        "Straits",
    ];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    (0..400)
        .map(|i| {
            let mut words: Vec<String> = (0..2 + next(4))
                .map(|_| format!("{}{tag}", WORDS[next(WORDS.len())]))
                .collect();
            if i % 5 == 0 {
                words.push(format!("{}{tag}", 2_279_569_217u64 + i));
            }
            words.join(" ")
        })
        .collect()
}

/// [`descriptions`] with an alphabetic suffix on every word that makes it
/// unique in the batch (`deepbc`, `learningbd`, …): the same word counts,
/// and the same models (a suffixed word is still alphabetic), but no token
/// repeats.
fn distinct_descriptions() -> Vec<String> {
    let mut words = 0usize;
    let mut suffix = || {
        words += 1;
        let (mut n, mut letters) = (words, String::new());
        while n > 0 {
            letters.push(char::from(b'a' + (n % 26) as u8));
            n /= 26;
        }
        letters
    };
    descriptions("")
        .iter()
        .map(|description| {
            description
                .split(' ')
                .map(|word| format!("{word}{}", suffix()))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

criterion_group!(benches, affinity);
criterion_main!(benches);
