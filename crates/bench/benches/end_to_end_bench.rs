//! Criterion benchmark for the full KGQAn pipeline (question in, filtered
//! answers out) — the per-question latency whose breakdown Figure 7 reports.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan::{Budget, KgqanConfig, Pipeline, QuestionUnderstanding, StageContext};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;

fn end_to_end(c: &mut Criterion) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let endpoint = InProcessEndpoint::new("DBpedia", kg.store.clone());
    let config = KgqanConfig::default();
    let pipeline = Pipeline::kgqan(
        Arc::new(QuestionUnderstanding::train_default()),
        Arc::from(config.affinity.build()),
    );
    let answer = |question: &str| {
        let budget = Budget::unbounded();
        pipeline
            .run(question, &StageContext::new(&endpoint, &budget, &config))
            .unwrap()
    };
    let person = &kg.facts.people[3];
    let country = &kg.facts.countries[2];
    let single = format!("Who is the spouse of {}?", person.name);
    let typed = format!("Which city is the capital of {}?", country.name);

    let mut group = c.benchmark_group("kgqan_end_to_end");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("single_fact_question", |b| b.iter(|| answer(&single)));
    group.bench_function("fact_with_type_question", |b| b.iter(|| answer(&typed)));
    group.finish();
}

criterion_group!(benches, end_to_end);
criterion_main!(benches);
