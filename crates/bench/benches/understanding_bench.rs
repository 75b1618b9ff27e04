//! Criterion micro-benchmarks for question understanding (§4): one
//! question through the trained triple-pattern generator and answer-type
//! classifier, and the one-off training that precedes deployment (Figure 5).
//! Every `ask_hot` request pays the first line in full; every process that
//! serves questions pays the last once.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan::QuestionUnderstanding;
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_benchmarks::questions::questions_for;

/// The first generated question of a flavor that understanding accepts.
fn first_understood(understanding: &QuestionUnderstanding, flavor: KgFlavor) -> String {
    let kg = GeneratedKg::generate(flavor, KgScale::tiny());
    questions_for(&kg, 16)
        .questions
        .into_iter()
        .map(|q| q.text)
        .find(|q| understanding.understand(q).is_ok())
        .expect("a generated question is understood")
}

fn understanding(c: &mut Criterion) {
    let understanding = QuestionUnderstanding::train_default();
    let dbpedia = first_understood(&understanding, KgFlavor::Dbpedia10);
    let mag = first_understood(&understanding, KgFlavor::Mag);

    let mut group = c.benchmark_group("understanding");
    group.bench_function("understand_dbpedia_question", |b| {
        b.iter(|| understanding.understand(&dbpedia).unwrap())
    });
    group.bench_function("understand_mag_question", |b| {
        b.iter(|| understanding.understand(&mag).unwrap())
    });
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("train_default", |b| {
        b.iter(QuestionUnderstanding::train_default)
    });
    group.finish();
}

criterion_group!(benches, understanding);
criterion_main!(benches);
