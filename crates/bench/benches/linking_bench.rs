//! Criterion micro-benchmarks for the JIT linker (Algorithms 1 and 2): the
//! cost of entity and relation linking against an in-process endpoint, per
//! PGP — the just-in-time cost that replaces the baselines' pre-processing.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan::pgp::PhraseGraphPattern;
use kgqan::{Budget, FineGrainedAffinity, JitLinker, LinkerConfig, QuestionUnderstanding};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_benchmarks::questions::questions_for;
use kgqan_endpoint::InProcessEndpoint;
use kgqan_nlp::PhraseTriplePattern;

fn jit_linking(c: &mut Criterion) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let endpoint = InProcessEndpoint::new("DBpedia", kg.store.clone());
    let affinity = FineGrainedAffinity::new();
    let linker = JitLinker::new(&affinity, LinkerConfig::default());

    let person = &kg.facts.people[7];
    let single = PhraseGraphPattern::from_triples(&[PhraseTriplePattern::unknown_to_entity(
        "wife",
        person.name.clone(),
    )]);
    let water = &kg.facts.waters[1];
    let city = &kg.facts.cities[kg.facts.waters[0].nearest_city];
    let multi = PhraseGraphPattern::from_triples(&[
        PhraseTriplePattern::unknown_to_entity("flows", water.name.clone()),
        PhraseTriplePattern::unknown_to_entity("city on the shore", city.name.clone()),
    ]);

    let budget = Budget::unbounded();
    let mut group = c.benchmark_group("jit_linking");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("single_fact_pgp", |b| {
        b.iter(|| linker.link(&single, &endpoint, &budget).unwrap())
    });
    group.bench_function("multi_fact_pgp", |b| {
        b.iter(|| linker.link(&multi, &endpoint, &budget).unwrap())
    });

    // The `ask_cold` workload's link phase on its own: the first generated
    // MAG-Bench question the understanding phase accepts, its PGP linked
    // against the MAG stand-in at benchmark scale through an endpoint with
    // no cache, so every probe runs and every fetched description is scored.
    let mag = GeneratedKg::generate(KgFlavor::Mag, KgScale::benchmark(KgFlavor::Mag));
    let mag_endpoint = InProcessEndpoint::new("MAG", mag.store.clone());
    let understanding = QuestionUnderstanding::train_default();
    let question = questions_for(&mag, 16)
        .questions
        .iter()
        .find_map(|q| understanding.understand(&q.text).ok())
        .expect("a generated MAG question is understood");
    group.bench_function("mag_question_pgp", |b| {
        b.iter(|| linker.link(&question.pgp, &mag_endpoint, &budget).unwrap())
    });
    group.finish();
}

criterion_group!(benches, jit_linking);
criterion_main!(benches);
