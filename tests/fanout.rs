//! The batch fan-out, seen from outside: a question is understood once
//! however many KGs it is asked of, and nothing in a response says which
//! thread ran which leg — on a one-worker service, on an idle service whose
//! helpers take legs, or on a service with no capacity to spare.  And the
//! one bounded pool behind it all serves legs and the morsels of the
//! parallel queries those legs coordinate without ever waiting on itself.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Duration;

use kgqan::pipeline::{JitLinkStage, Link, LinkedQuestion, Pipeline, StageContext, Understand};
use kgqan::{
    AffinityModel, AnswerRequest, KgqanError, QaService, QuestionUnderstanding, SemanticAffinity,
    Understanding,
};
use kgqan_endpoint::{
    EndpointError, EngineDialect, InProcessEndpoint, RequestStats, SparqlEndpoint,
};
use kgqan_federate::{FederatedEndpoint, FederatedRequest, FederatedResponse, KgStatus};
use kgqan_rdf::{vocab, Store, Term, Triple};
use kgqan_server::wire::federated_response_to_json;
use kgqan_sparql::{ParallelConfig, QueryResults};

const QUESTION: &str = "Who is the wife of Barack Obama?";
const KGS: [&str; 3] = ["A", "B", "C"];

fn understanding() -> Arc<QuestionUnderstanding> {
    static MODEL: OnceLock<Arc<QuestionUnderstanding>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| Arc::new(QuestionUnderstanding::train_default())))
}

/// Barack Obama with one spouse per KG, plus one all three agree on.
fn spouse_store(own: &str) -> Store {
    let mut store = Store::new();
    let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
    let label = Term::iri(vocab::RDFS_LABEL);
    store.insert(Triple::new(
        obama.clone(),
        label.clone(),
        Term::literal_str("Barack Obama"),
    ));
    for name in ["Michelle_Obama", own] {
        let spouse = Term::iri(format!("http://dbpedia.org/resource/{name}"));
        store.insert(Triple::new(
            spouse.clone(),
            label.clone(),
            Term::literal_str(name.replace('_', " ")),
        ));
        store.insert(Triple::new(
            obama.clone(),
            Term::iri("http://dbpedia.org/ontology/spouse"),
            spouse,
        ));
    }
    store
}

/// The understanding stage, counting its calls.
struct CountingUnderstand {
    inner: Arc<QuestionUnderstanding>,
    calls: Arc<AtomicUsize>,
}

impl Understand for CountingUnderstand {
    fn understand(&self, question: &str) -> Result<Understanding, KgqanError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.understand(question)
    }
}

/// The linking stage, recording the thread each leg ran on.
struct RecordingLink {
    inner: JitLinkStage,
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl Link for RecordingLink {
    fn link(
        &self,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> Result<LinkedQuestion, KgqanError> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.link(understanding, ctx)
    }
}

/// What the instrumented stages of one service saw.
#[derive(Default)]
struct Probes {
    understand_calls: Arc<AtomicUsize>,
    link_threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl Probes {
    fn understand_calls(&self) -> usize {
        self.understand_calls.swap(0, Ordering::SeqCst)
    }

    fn link_threads(&self) -> Vec<ThreadId> {
        std::mem::take(&mut self.link_threads.lock().unwrap())
    }
}

/// A service over the three spouse KGs (each answering `latency` per
/// endpoint call) plus `extra`, its pipeline instrumented with `Probes`.
fn probed_service(
    workers: usize,
    latency: Duration,
    extra: Option<Arc<dyn SparqlEndpoint>>,
) -> (QaService, Probes) {
    let probes = Probes::default();
    let affinity: Arc<dyn SemanticAffinity> = Arc::from(AffinityModel::FineGrained.build());
    let pipeline = Pipeline::kgqan(understanding(), Arc::clone(&affinity))
        .with_understand(Arc::new(CountingUnderstand {
            inner: understanding(),
            calls: Arc::clone(&probes.understand_calls),
        }))
        .with_link(Arc::new(RecordingLink {
            inner: JitLinkStage::new(affinity),
            threads: Arc::clone(&probes.link_threads),
        }));
    let mut builder = QaService::builder()
        .shared_understanding(understanding())
        .pipeline(pipeline)
        .workers(workers);
    for kg in KGS {
        builder = builder.endpoint(Arc::new(
            InProcessEndpoint::new(kg, spouse_store(&format!("Spouse_{kg}"))).with_latency(latency),
        ));
    }
    if let Some(endpoint) = extra {
        builder = builder.endpoint(endpoint);
    }
    (builder.build().unwrap(), probes)
}

#[test]
fn understanding_runs_once_per_distinct_question() {
    let (service, probes) = probed_service(4, Duration::ZERO, None);
    let federated = FederatedEndpoint::new(service.clone());

    // One federated question, three KGs, one understanding.
    let response = federated
        .ask(FederatedRequest::new(QUESTION).on_kgs(KGS))
        .unwrap();
    assert!(!response.is_partial());
    assert_eq!(response.answers[0].kgs, KGS);
    assert_eq!(probes.understand_calls(), 1);

    // k requests asking the same text: one understanding; exactly one leg
    // reports the time it took, the rest reused it.
    let same: Vec<AnswerRequest> = [KGS, KGS]
        .concat()
        .into_iter()
        .map(|kg| AnswerRequest::new(QUESTION).on_kg(kg))
        .collect();
    let responses = service.answer_batch(&same);
    assert_eq!(probes.understand_calls(), 1);
    let understood_here = responses
        .iter()
        .filter(|r| r.as_ref().unwrap().trace.timings.understand > Duration::ZERO)
        .count();
    assert_eq!(understood_here, 1);

    // N distinct questions: N understandings, each leg answering its own.
    let distinct: Vec<AnswerRequest> = ["wife", "spouse", "partner", "wife"]
        .into_iter()
        .map(|relation| {
            AnswerRequest::new(format!("Who is the {relation} of Barack Obama?")).on_kg("A")
        })
        .collect();
    let responses = service.answer_batch(&distinct);
    assert_eq!(probes.understand_calls(), 3);
    for (request, response) in distinct.iter().zip(&responses) {
        let response = response.as_ref().unwrap();
        assert_eq!(response.question, request.question);
        assert_eq!(response.trace.understanding.question, request.question);
    }

    // A question nobody can understand fails every leg asking it the way
    // it always did — per-KG `Failed` reports, `Partial` overall — after
    // one attempt, not three.
    let response = federated
        .ask(FederatedRequest::new("").on_kgs(KGS))
        .unwrap();
    assert_eq!(probes.understand_calls(), 1);
    assert!(response.is_partial());
    assert!(response.answers.is_empty());
    let message = KgqanError::UnderstandingFailed {
        question: String::new(),
    }
    .to_string();
    assert_eq!(response.reports.len(), 3);
    for (report, kg) in response.reports.iter().zip(KGS) {
        assert_eq!(report.kg, kg);
        assert_eq!(
            report.status,
            KgStatus::Failed {
                message: message.clone()
            }
        );
    }
}

/// An endpoint whose first query blocks until the test releases it, so the
/// pipeline asking it is provably in flight meanwhile.
struct LatchedEndpoint {
    inner: InProcessEndpoint,
    latched: AtomicBool,
    entered: Barrier,
    release: Barrier,
}

impl SparqlEndpoint for LatchedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dialect(&self) -> EngineDialect {
        self.inner.dialect()
    }

    fn query(&self, sparql: &str) -> Result<QueryResults, EndpointError> {
        if !self.latched.swap(true, Ordering::SeqCst) {
            self.entered.wait();
            self.release.wait();
        }
        self.inner.query(sparql)
    }

    fn stats(&self) -> RequestStats {
        self.inner.stats()
    }
}

/// Everything of a federated response that must not depend on thread
/// placement (timings do, and are left out).
fn visible(response: &FederatedResponse) -> String {
    let json = federated_response_to_json(response);
    let from = json.find("\"answers\"").unwrap();
    let to = json.find("\"kgs\":[{").unwrap();
    let reports: Vec<_> = response
        .reports
        .iter()
        .map(|r| (&r.kg, &r.status, r.answers))
        .collect();
    let sources: Vec<_> = response
        .sources
        .iter()
        .map(|s| (&s.kg, s.epoch, s.plan_rows))
        .collect();
    format!(
        "{:?} {:?} {:?} {reports:?} {sources:?} {}",
        response.answers,
        response.boolean,
        response.verdict,
        &json[from..to]
    )
}

#[test]
fn thread_placement_never_shows() {
    let ask = |service: &QaService| {
        FederatedEndpoint::new(service.clone())
            .ask(FederatedRequest::new(QUESTION).on_kgs(KGS).with_id("q"))
            .unwrap()
    };
    let here = std::thread::current().id();
    let latency = Duration::from_millis(5);

    // (a) One worker is the caller itself — spare capacity 0: every leg on
    // the caller.
    let (service_a, probes) = probed_service(1, latency, None);
    let alone = ask(&service_a);
    assert_eq!(probes.link_threads(), vec![here; 3]);

    // (b) An idle service with workers to spare: while the caller waits on
    // its first KG, helpers take the other two legs.
    let (service_b, probes) = probed_service(4, latency, None);
    let idle = ask(&service_b);
    let threads = probes.link_threads();
    assert_eq!(threads.len(), 3);
    assert!(threads.iter().any(|thread| *thread != here), "{threads:?}");

    // (c) No capacity: the one spare worker is occupied by a pipeline held
    // in flight inside its endpoint, so again every leg runs on the caller.
    let latched = Arc::new(LatchedEndpoint {
        inner: InProcessEndpoint::new("Latched", spouse_store("Spouse_L")),
        latched: AtomicBool::new(false),
        entered: Barrier::new(2),
        release: Barrier::new(2),
    });
    let (service_c, probes) = probed_service(2, latency, Some(latched.clone()));
    let saturated = std::thread::scope(|scope| {
        let held = scope.spawn(|| service_c.answer(AnswerRequest::new(QUESTION).on_kg("Latched")));
        latched.entered.wait();
        probes.link_threads();
        let saturated = ask(&service_c);
        assert_eq!(probes.link_threads(), vec![here; 3]);
        latched.release.wait();
        assert!(!held.join().unwrap().unwrap().answers().is_empty());
        saturated
    });

    assert_eq!(alone.answers.len(), 4, "{alone:?}");
    assert_eq!(visible(&alone), visible(&idle));
    assert_eq!(visible(&saturated), visible(&idle));
}

#[test]
fn legs_run_one_after_another_stay_inside_the_split_budget() {
    // The worst case `Budget::split` was designed for: one worker, so both
    // legs run on the caller, one after the other.  Each KG needs more
    // round-trips than its share of the deadline buys.  A leg looks at its
    // budget between probes — after the entity probe, then after each
    // vertex's pair of predicate probes — so a share of three round-trips
    // cuts it right there, and the second leg still gets its whole turn.
    let round_trip = Duration::from_millis(25);
    let deadline = 6 * round_trip;
    let (service, probes) = probed_service(1, round_trip, None);
    let response = FederatedEndpoint::new(service.clone())
        .ask(
            FederatedRequest::new(QUESTION)
                .on_kgs(["A", "B"])
                .with_deadline(deadline),
        )
        .unwrap();

    assert_eq!(probes.link_threads(), vec![std::thread::current().id(); 2]);
    assert!(response.is_partial());
    for report in &response.reports {
        assert_eq!(report.status, KgStatus::Partial, "{report:?}");
        assert!(report.elapsed >= deadline / 2, "{report:?}");
        // Every engine request sleeps one round trip, so a leg that stops
        // once its share is spent sends at most the requests that share
        // buys, however slowly the scheduler runs it; a leg that ran past
        // its share would send more.
        let requests = service
            .registry()
            .get_uncached(&report.kg)
            .unwrap()
            .stats()
            .total_requests;
        let share = (deadline / 2).as_nanos() / round_trip.as_nanos();
        assert!(
            requests as u128 <= share,
            "{requests} engine requests on {}: {report:?}",
            report.kg
        );
    }
}

/// Nested fan-out on the one bounded pool: legs running on pool threads
/// coordinate parallel queries whose morsel helpers queue on the same
/// bounded pool, behind more legs.  Nothing waits for a queued helper, so
/// every batch finishes — checked under a wall-clock guard, because the
/// failure would be a hang.
#[test]
fn one_bounded_pool_serves_legs_and_the_morsels_they_coordinate() {
    // Parallel from 16 driver rows up, and Barack Obama has 65 spouses.
    let eager = ParallelConfig {
        max_dop: 8,
        rows_per_worker: 8.0,
        morsels_per_worker: 2,
    };
    let mut builder = QaService::builder()
        .shared_understanding(understanding())
        .workers(8)
        .no_cache();
    for kg in KGS {
        let mut store = spouse_store(&format!("Spouse_{kg}"));
        let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
        for i in 0..64 {
            store.insert(Triple::new(
                obama.clone(),
                Term::iri("http://dbpedia.org/ontology/spouse"),
                Term::iri(format!("http://dbpedia.org/resource/Spouse_{kg}_{i}")),
            ));
        }
        builder = builder.endpoint(Arc::new(
            InProcessEndpoint::new(kg, store).with_parallelism(eager),
        ));
    }
    let service = builder.build().unwrap();
    let requests: Vec<AnswerRequest> = [KGS, KGS]
        .concat()
        .into_iter()
        .map(|kg| AnswerRequest::new(QUESTION).on_kg(kg))
        .collect();
    let sequential: Vec<Vec<Term>> = requests
        .iter()
        .map(|request| service.answer(request.clone()).unwrap().answers().to_vec())
        .collect();
    assert!(sequential.iter().all(|answers| answers.len() > 60));

    const CALLERS: usize = 4;
    const ROUNDS: usize = 3;
    let parallel_before = kgqan_sparql::exec::parallel_queries_total();
    let (done, finished) = std::sync::mpsc::channel();
    let guarded = std::thread::spawn(move || {
        let batches: Vec<Vec<Vec<Term>>> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        (0..ROUNDS)
                            .map(|_| {
                                service
                                    .answer_batch(&requests)
                                    .into_iter()
                                    .map(|leg| leg.unwrap().answers().to_vec())
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|caller| caller.join().unwrap())
                .collect()
        });
        let _ = done.send(batches);
    });
    let batches = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("batches sharing one pool with their own morsel helpers hung");
    guarded.join().unwrap();

    assert_eq!(batches.len(), CALLERS * ROUNDS);
    for batch in &batches {
        assert_eq!(batch, &sequential);
    }
    // Every leg did coordinate at least one parallel query.
    let legs = (CALLERS * ROUNDS * sequential.len()) as u64;
    let parallel_runs = kgqan_sparql::exec::parallel_queries_total() - parallel_before;
    assert!(
        parallel_runs >= legs,
        "{parallel_runs} parallel runs, {legs} legs"
    );
}
