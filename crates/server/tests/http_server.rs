//! End-to-end tests of the HTTP front-end over real TCP sockets.
//!
//! Each test binds an ephemeral-port server around a [`QaService`] built on
//! the paper's running-example KG fragment (the 7-triple DBpedia miniature
//! of Figure 4) and drives it with the crate's own [`HttpClient`].

use std::sync::{Arc, Mutex};
use std::time::Duration;

use kgqan::{AnswerRequest, KgqanError, QaService, Understand, Understanding};
use kgqan_endpoint::json::Json;
use kgqan_endpoint::{
    EndpointError, EngineDialect, InProcessEndpoint, RequestStats, SparqlEndpoint,
};
use kgqan_rdf::{vocab, Store, Term, Triple};
use kgqan_server::{serve, wire, HttpClient, RateLimit, ServerConfig, ServerHandle};
use kgqan_sparql::{ParallelConfig, Query, QueryResults};

const QUESTION: &str = "Name the sea into which Danish Straits flows and has \
                        Kaliningrad as one of the city on the shore";

/// The running-example KG fragment (Figure 4 of the paper).
fn quickstart_store() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
    let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
    let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
    let yantar = Term::iri("http://dbpedia.org/resource/Yantar,_Kaliningrad");
    store.insert_all([
        Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
        Triple::new(
            straits.clone(),
            label.clone(),
            Term::literal_str("Danish Straits"),
        ),
        Triple::new(
            kali.clone(),
            label.clone(),
            Term::literal_str("Kaliningrad"),
        ),
        Triple::new(yantar, label, Term::literal_str("Yantar, Kaliningrad")),
        Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/property/outflow"),
            straits,
        ),
        Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/ontology/nearestCity"),
            kali,
        ),
        Triple::new(
            sea,
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/Sea"),
        ),
    ]);
    store
}

/// A second tiny KG so multi-KG routing is exercised.
fn spouse_store() -> Store {
    let mut store = Store::new();
    let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
    let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
    store.insert_all([
        Triple::new(
            obama.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Barack Obama"),
        ),
        Triple::new(
            michelle.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Michelle Obama"),
        ),
        Triple::new(
            obama,
            Term::iri("http://dbpedia.org/ontology/spouse"),
            michelle,
        ),
    ]);
    store
}

fn two_kg_service(workers: Option<usize>) -> QaService {
    let mut builder = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            quickstart_store(),
        )))
        .endpoint(Arc::new(InProcessEndpoint::new("Celebs", spouse_store())));
    if let Some(workers) = workers {
        builder = builder.workers(workers);
    }
    builder.build().expect("service builds")
}

fn start(service: QaService, config: ServerConfig) -> ServerHandle {
    serve(service, "127.0.0.1:0", config).expect("server binds an ephemeral port")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

#[test]
fn running_example_over_tcp_is_byte_identical_to_in_process() {
    let service = two_kg_service(Some(2));
    let handle = start(service.clone(), test_config());
    let mut client = HttpClient::connect(handle.addr());

    let body = format!("{{\"question\": \"{QUESTION}\", \"id\": \"rex\"}}");
    let response = client
        .post("/kg/DBpedia/ask", "application/json", &body)
        .expect("ask over TCP");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let text = response.text();

    // The same request answered in-process, serialized through the same
    // wire writer: the answer payload must be byte-identical on the wire.
    let in_process = service
        .answer(AnswerRequest::new(QUESTION).on_kg("DBpedia").with_id("rex"))
        .expect("in-process answer");
    let expected = wire::answer_response_to_json(&in_process);
    let answers_of = |json: &str| {
        let start = json.find("\"answers\":").expect("answers field");
        let end = json[start..].find("],").expect("answers array end") + start + 1;
        json[start..end].to_string()
    };
    assert_eq!(answers_of(&text), answers_of(&expected));
    assert!(
        answers_of(&text).contains("http://dbpedia.org/resource/Baltic_Sea"),
        "gold answer missing: {text}"
    );

    // The structured fields agree too.
    let parsed = Json::parse(&text).unwrap();
    assert_eq!(parsed.get("id").and_then(Json::as_str), Some("rex"));
    assert_eq!(parsed.get("kg").and_then(Json::as_str), Some("DBpedia"));
    assert_eq!(parsed.get("partial").and_then(Json::as_bool), Some(false));
}

#[test]
fn sixteen_clients_two_kgs_match_in_process_answers() {
    let service = two_kg_service(Some(4));
    let handle = start(service.clone(), test_config());
    let addr = handle.addr();

    let expected_sea = service
        .answer(AnswerRequest::new(QUESTION).on_kg("DBpedia"))
        .unwrap()
        .trace
        .filtered
        .answers;
    let expected_spouse = service
        .answer(AnswerRequest::new("Who is the wife of Barack Obama?").on_kg("Celebs"))
        .unwrap()
        .trace
        .filtered
        .answers;

    let threads: Vec<_> = (0..16)
        .map(|i| {
            let expected = if i % 2 == 0 {
                expected_sea.clone()
            } else {
                expected_spouse.clone()
            };
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr);
                let (kg, question) = if i % 2 == 0 {
                    ("DBpedia", QUESTION)
                } else {
                    ("Celebs", "Who is the wife of Barack Obama?")
                };
                let body = format!("{{\"question\": \"{question}\"}}");
                let response = client
                    .post(&format!("/kg/{kg}/ask"), "application/json", &body)
                    .expect("concurrent ask");
                assert_eq!(response.status, 200, "body: {}", response.text());
                let parsed = Json::parse(&response.text()).unwrap();
                let answers = parsed
                    .get("answers")
                    .and_then(Json::as_array)
                    .unwrap()
                    .len();
                assert_eq!(answers, expected.len(), "client {i} got {parsed:?}");
                let first = parsed.get("answers").and_then(Json::as_array).unwrap()[0]
                    .get("value")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string();
                assert_eq!(
                    Some(first.as_str()),
                    expected[0].as_iri(),
                    "client {i} answer mismatch"
                );
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no client panicked");
    }
}

#[test]
fn burst_past_queue_bound_sheds_with_503_and_never_hangs() {
    // One slow worker, shed threshold 2: a 16-request burst
    // must complete (nothing hangs) with a mix of 200s and 503s.
    let slow_kg = || {
        QaService::builder().endpoint(Arc::new(
            InProcessEndpoint::new("DBpedia", quickstart_store())
                .with_latency(Duration::from_millis(25)),
        ))
    };
    burst_sheds(slow_kg().workers(1).build().unwrap());
    // Built without a worker count: the default four permits plus two waiters
    // are still fewer than the eight handlers the burst occupies.
    burst_sheds(slow_kg().build().unwrap());
}

fn burst_sheds(service: QaService) {
    let handle = start(
        service,
        ServerConfig {
            handler_threads: 8,
            shed_queue_depth: 2,
            ..test_config()
        },
    );
    let addr = handle.addr();

    let threads: Vec<_> = (0..16)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).with_timeout(Duration::from_secs(30));
                let body = format!("{{\"question\": \"{QUESTION}\"}}");
                let response = client
                    .post("/kg/DBpedia/ask", "application/json", &body)
                    .expect("every burst request gets a response");
                (response.status, response.header("retry-after").is_some())
            })
        })
        .collect();
    let outcomes: Vec<(u16, bool)> = threads
        .into_iter()
        .map(|t| t.join().expect("no client hangs or panics"))
        .collect();

    assert!(
        outcomes.iter().all(|(s, _)| *s == 200 || *s == 503),
        "only 200/503 expected, got {outcomes:?}"
    );
    assert!(
        outcomes.iter().any(|(s, _)| *s == 200),
        "some requests must be served: {outcomes:?}"
    );
    let shed: Vec<_> = outcomes.iter().filter(|(s, _)| *s == 503).collect();
    assert!(
        !shed.is_empty(),
        "burst past the bound must shed: {outcomes:?}"
    );
    assert!(
        shed.iter().all(|(_, retry)| *retry),
        "503s carry Retry-After"
    );
    let metrics = handle.metrics();
    assert!(
        metrics.load_shed.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "shedding is counted"
    );
}

#[test]
fn near_deadline_requests_degrade_to_partial() {
    let service = two_kg_service(Some(2));
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    let body = format!("{{\"question\": \"{QUESTION}\", \"deadline_ms\": 0}}");
    let response = client
        .post("/kg/DBpedia/ask", "application/json", &body)
        .expect("near-deadline ask");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(
        parsed.get("partial").and_then(Json::as_bool),
        Some(true),
        "zero deadline must degrade to a partial answer: {parsed:?}"
    );
}

#[test]
fn keep_alive_reuses_one_connection_across_requests() {
    let service = two_kg_service(None);
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    for _ in 0..5 {
        let response = client.get("/healthz").expect("healthz");
        assert_eq!(response.status, 200);
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    let accepted = handle
        .metrics()
        .connections_accepted
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(accepted, 1, "five requests over one connection");
}

#[test]
fn sparql_protocol_get_and_post() {
    let service = two_kg_service(None);
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    let query = "SELECT ?sea WHERE { ?sea <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://dbpedia.org/ontology/Sea> }";
    let encoded = kgqan_server::http::percent_encode(query);
    let response = client
        .get(&format!("/kg/DBpedia/sparql?query={encoded}"))
        .expect("GET sparql");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    let bindings = parsed
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .expect("SELECT results shape");
    assert_eq!(bindings.len(), 1);
    assert_eq!(
        bindings[0]
            .get("sea")
            .and_then(|b| b.get("value"))
            .and_then(Json::as_str),
        Some("http://dbpedia.org/resource/Baltic_Sea")
    );

    // POST with a raw SPARQL body, ASK form.
    let ask = "ASK { <http://dbpedia.org/resource/Baltic_Sea> ?p ?o }";
    let response = client
        .post("/kg/DBpedia/sparql", "application/sparql-query", ask)
        .expect("POST sparql");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(parsed.get("boolean").and_then(Json::as_bool), Some(true));

    // POST with a form-encoded body.
    let form = format!("query={encoded}");
    let response = client
        .post(
            "/kg/DBpedia/sparql",
            "application/x-www-form-urlencoded",
            &form,
        )
        .expect("POST form sparql");
    assert_eq!(response.status, 200);

    // A parse error is the client's fault.
    let response = client
        .post(
            "/kg/DBpedia/sparql",
            "application/sparql-query",
            "SELEC nope",
        )
        .expect("bad sparql");
    assert_eq!(response.status, 400);
}

#[test]
fn ingest_publishes_new_triples_to_later_queries() {
    let service = two_kg_service(None);
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    let ntriples = "<http://dbpedia.org/resource/North_Sea> \
                    <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                    <http://dbpedia.org/ontology/Sea> .\n";
    let response = client
        .post("/kg/DBpedia/ingest", "application/n-triples", ntriples)
        .expect("ingest");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(parsed.get("added").and_then(Json::as_u64), Some(1));
    assert!(parsed.get("epoch").and_then(Json::as_u64).is_some());

    let query = kgqan_server::http::percent_encode(
        "SELECT ?sea WHERE { ?sea <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
         <http://dbpedia.org/ontology/Sea> }",
    );
    let response = client
        .get(&format!("/kg/DBpedia/sparql?query={query}"))
        .expect("post-ingest query");
    let parsed = Json::parse(&response.text()).unwrap();
    let bindings = parsed
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(bindings.len(), 2, "the ingested sea is visible");

    // Malformed N-Triples is a 400, not a panic.
    let response = client
        .post("/kg/DBpedia/ingest", "application/n-triples", "not triples")
        .expect("bad ingest");
    assert_eq!(response.status, 400);
}

#[test]
fn healthz_and_metrics_report_service_state() {
    let service = two_kg_service(Some(2));
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    let response = client.get("/healthz").expect("healthz");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    let kgs: Vec<&str> = parsed
        .get("kgs")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(kgs.contains(&"DBpedia") && kgs.contains(&"Celebs"));

    let _ = client.post(
        "/kg/DBpedia/ask",
        "application/json",
        &format!("{{\"question\": \"{QUESTION}\"}}"),
    );
    let response = client.get("/metrics").expect("metrics");
    assert_eq!(response.status, 200);
    let text = response.text();
    assert!(
        text.contains("http_requests_total{route=\"ask\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("http_requests_total{route=\"healthz\"} 1"),
        "{text}"
    );
    assert!(text.contains("pipeline_queue_depth 0"), "{text}");
    assert!(text.contains("pipeline_workers 2"), "{text}");
    assert!(text.contains("connections_accepted_total 1"), "{text}");
    assert!(text.contains("executor_parallel_queries_total "), "{text}");
    assert!(text.contains("executor_active_workers "), "{text}");
}

/// One parsed sample line of the Prometheus text exposition format.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: u64,
}

/// Parse one exposition line strictly: `name value` or
/// `name{label="escaped value",…} value`.
fn parse_sample(line: &str) -> Option<Sample> {
    let ident_len = |text: &str| {
        text.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(text.len())
    };
    let name_len = ident_len(line);
    let (name, mut rest) = line.split_at(name_len);
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let mut labels = Vec::new();
    if let Some(inner) = rest.strip_prefix('{') {
        rest = inner;
        loop {
            let (label, after) = rest.split_at(ident_len(rest));
            let mut chars = after.strip_prefix("=\"")?.chars();
            let mut value = String::new();
            loop {
                match chars.next()? {
                    '"' => break,
                    '\\' => value.push(match chars.next()? {
                        '\\' => '\\',
                        '"' => '"',
                        'n' => '\n',
                        _ => return None,
                    }),
                    '\n' => return None,
                    c => value.push(c),
                }
            }
            if label.is_empty() {
                return None;
            }
            labels.push((label.to_string(), value));
            rest = chars.as_str();
            if let Some(after) = rest.strip_prefix(',') {
                rest = after;
            } else {
                rest = rest.strip_prefix('}')?;
                break;
            }
        }
    }
    Some(Sample {
        name: name.to_string(),
        labels,
        value: rest.strip_prefix(' ')?.parse().ok()?,
    })
}

#[test]
fn metrics_page_round_trips_through_an_exposition_parser() {
    // KG names a scraper must see quoted and escaped to parse the page.
    let names = ["we\"ird}", "a b", "back\\slash"];
    let mut builder = QaService::builder();
    for name in names {
        builder = builder.endpoint(Arc::new(InProcessEndpoint::new(name, spouse_store())));
    }
    let handle = start(builder.build().expect("service builds"), test_config());
    let mut client = HttpClient::connect(handle.addr());
    let response = client
        .post(
            "/federate/ask",
            "application/json",
            r#"{"question": "Who is the wife of Barack Obama?", "kgs": "*"}"#,
        )
        .expect("federated ask");
    assert_eq!(response.status, 200);

    let text = client.get("/metrics").expect("metrics").text();
    let samples: Vec<Sample> = text
        .lines()
        .map(|line| parse_sample(line).unwrap_or_else(|| panic!("unparseable line: {line}")))
        .collect();
    for name in names {
        let label = [("kg".to_string(), name.to_string())];
        for metric in [
            "kg_requests_total",
            "cache_hits_total",
            "cache_misses_total",
            "cache_resident_bytes",
        ] {
            assert!(
                samples
                    .iter()
                    .any(|sample| sample.name == metric && sample.labels == label),
                "{metric} for {name:?} missing in:\n{text}"
            );
        }
    }
    // Every leg cached its probes, and the gauge counts their bytes.
    assert!(samples
        .iter()
        .filter(|sample| sample.name == "cache_resident_bytes")
        .all(|sample| sample.value > 0));
    let fanout = samples
        .iter()
        .find(|sample| sample.name == "federated_fanout_total");
    assert_eq!(fanout.map(|sample| sample.value), Some(3));
}

#[test]
fn error_statuses_follow_the_single_mapping() {
    let service = two_kg_service(Some(2));
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    // Unknown KG → 404 from EndpointError::http_status.
    let response = client
        .post(
            "/kg/YAGO/ask",
            "application/json",
            "{\"question\": \"Who?\"}",
        )
        .expect("unknown KG");
    assert_eq!(response.status, 404);
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("status"))
            .and_then(Json::as_u64),
        Some(404)
    );

    // Unknown route → 404; wrong method → 405; bad JSON → 400.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/kg/DBpedia/ask").unwrap().status, 405);
    let response = client
        .post("/kg/DBpedia/ask", "application/json", "{broken")
        .unwrap();
    assert_eq!(response.status, 400);
}

#[test]
fn per_client_rate_limit_returns_429() {
    let service = two_kg_service(None);
    let handle = start(
        service,
        ServerConfig {
            rate_limit: Some(RateLimit::per_second(1.0).with_burst(2.0)),
            ..test_config()
        },
    );

    let mut greedy = HttpClient::connect(handle.addr()).with_header("x-client-id", "greedy");
    let statuses: Vec<u16> = (0..4)
        .map(|_| greedy.get("/kg/DBpedia/sparql?query=x").unwrap().status)
        .collect();
    assert!(
        statuses.iter().filter(|s| **s == 429).count() >= 2,
        "a burst of 4 at burst-capacity 2 must see 429s: {statuses:?}"
    );

    // A different client id is unaffected.
    let mut polite = HttpClient::connect(handle.addr()).with_header("x-client-id", "polite");
    let response = polite.get("/healthz").unwrap();
    assert_eq!(response.status, 200, "healthz is never throttled");
    let response = polite
        .post(
            "/kg/DBpedia/sparql",
            "application/sparql-query",
            "ASK { ?s ?p ?o }",
        )
        .unwrap();
    assert_eq!(response.status, 200, "fresh client has its own bucket");

    let limited = handle
        .metrics()
        .rate_limited
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(limited >= 2, "throttling is counted: {limited}");
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let service = QaService::builder()
        .endpoint(Arc::new(
            InProcessEndpoint::new("DBpedia", quickstart_store())
                .with_latency(Duration::from_millis(10)),
        ))
        .workers(2)
        .build()
        .unwrap();
    let mut handle = start(service, test_config());
    let addr = handle.addr();

    // A request racing the shutdown must either complete with a real
    // response or be refused at the socket — never hang.
    let in_flight = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).with_timeout(Duration::from_secs(10));
        let body = format!("{{\"question\": \"{QUESTION}\"}}");
        client.post("/kg/DBpedia/ask", "application/json", &body)
    });
    std::thread::sleep(Duration::from_millis(20));
    handle.shutdown();
    // An Err means the request was refused at the socket: acceptable
    // during shutdown. A reply must be a real answer or a clean shed.
    if let Ok(response) = in_flight.join().expect("client thread survives") {
        assert!(
            response.status == 200 || response.status == 503,
            "unexpected status {}",
            response.status
        );
    }

    // After shutdown nothing answers.
    let mut late = HttpClient::connect(addr).with_timeout(Duration::from_millis(300));
    assert!(
        late.get("/healthz").is_err(),
        "server is down after shutdown"
    );

    // Shutdown is idempotent (and Drop will run it again harmlessly).
    handle.shutdown();
}

#[test]
fn full_connection_queue_refuses_on_the_socket_and_serves_the_queued() {
    let handle = start(
        two_kg_service(None),
        ServerConfig {
            handler_threads: 1,
            conn_queue_bound: 1,
            ..test_config()
        },
    );
    // The only handler is held by an open keep-alive connection…
    let mut holder = HttpClient::connect(handle.addr());
    assert_eq!(holder.get("/healthz").unwrap().status, 200);
    // …so the next connection waits in the queue (its request is answered
    // once the handler is free) and the one after finds the queue full.
    let queued = std::thread::spawn({
        let addr = handle.addr();
        move || {
            HttpClient::connect(addr)
                .with_timeout(Duration::from_secs(10))
                .get("/healthz")
        }
    });
    while handle
        .metrics()
        .connections_accepted
        .load(std::sync::atomic::Ordering::Relaxed)
        < 2
    {
        std::thread::yield_now();
    }
    let refused = HttpClient::connect(handle.addr())
        .get("/healthz")
        .expect("refusal is a real response");
    assert_eq!(refused.status, 503);
    assert!(refused.header("retry-after").is_some());
    assert_eq!(
        handle
            .metrics()
            .connections_refused
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    drop(holder);
    assert_eq!(
        queued.join().unwrap().expect("queued is served").status,
        200
    );
}

/// An understanding stage that notes which thread ran it.
struct ThreadNoting {
    inner: Arc<kgqan::QuestionUnderstanding>,
    seen: Arc<Mutex<Vec<String>>>,
}

impl Understand for ThreadNoting {
    fn understand(&self, question: &str) -> Result<Understanding, KgqanError> {
        let name = std::thread::current().name().unwrap_or("").to_string();
        self.seen.lock().unwrap().push(name);
        self.inner.understand(question)
    }
}

#[test]
fn ask_runs_its_pipeline_on_the_handler_thread() {
    let trained = two_kg_service(None);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let pipeline = trained
        .pipeline()
        .clone()
        .with_understand(Arc::new(ThreadNoting {
            inner: Arc::clone(trained.understanding()),
            seen: Arc::clone(&seen),
        }));
    let service = QaService::builder()
        .shared_understanding(Arc::clone(trained.understanding()))
        .pipeline(pipeline)
        .endpoint(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            quickstart_store(),
        )))
        .workers(2)
        .build()
        .unwrap();
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    let body = format!("{{\"question\": \"{QUESTION}\"}}");
    let response = client
        .post("/kg/DBpedia/ask", "application/json", &body)
        .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.text());
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1);
    assert!(
        seen[0].starts_with("kgqan-http-") && seen[0] != "kgqan-http-acceptor",
        "understanding ran on {:?}, not on the thread that read the request",
        seen[0]
    );
}

/// An endpoint whose engine has a bug: every query panics.
struct Boom;

impl SparqlEndpoint for Boom {
    fn name(&self) -> &str {
        "Boom"
    }
    fn dialect(&self) -> EngineDialect {
        EngineDialect::Virtuoso
    }
    fn query(&self, _: &str) -> Result<QueryResults, EndpointError> {
        panic!("engine bug")
    }
    fn query_parsed(&self, _: &Query) -> Result<QueryResults, EndpointError> {
        panic!("engine bug")
    }
    fn stats(&self) -> RequestStats {
        RequestStats::default()
    }
}

#[test]
fn a_panicking_endpoint_is_a_500_and_the_only_handler_survives() {
    let trained = two_kg_service(None);
    let service = QaService::builder()
        .shared_understanding(Arc::clone(trained.understanding()))
        .endpoint(Arc::new(Boom))
        .build()
        .unwrap();
    let handle = start(
        service,
        ServerConfig {
            handler_threads: 1,
            ..test_config()
        },
    );

    let mut client = HttpClient::connect(handle.addr()).with_timeout(Duration::from_secs(10));
    let response = client
        .post(
            "/kg/Boom/sparql",
            "application/sparql-query",
            "ASK { ?s ?p ?o }",
        )
        .expect("a panicking route still answers");
    assert_eq!(response.status, 500, "body: {}", response.text());
    // A question that panics mid-pipeline returns its permit as well.
    let response = client
        .post(
            "/kg/Boom/ask",
            "application/json",
            &format!("{{\"question\": \"{QUESTION}\"}}"),
        )
        .expect("a panicking pipeline still answers");
    assert_eq!(response.status, 500, "body: {}", response.text());
    drop(client);

    let mut fresh = HttpClient::connect(handle.addr()).with_timeout(Duration::from_secs(10));
    assert_eq!(fresh.get("/healthz").expect("handler is alive").status, 200);
    let text = fresh.get("/metrics").unwrap().text();
    assert!(text.contains("pipeline_running 0"), "{text}");
}

#[test]
fn unknown_kg_names_cannot_grow_or_forge_metrics() {
    let handle = start(two_kg_service(None), test_config());
    let mut client = HttpClient::connect(handle.addr());
    let ask = "{\"question\": \"Who?\"}";

    for i in 0..1000 {
        let response = client
            .post(&format!("/kg/bogus-{i}/ask"), "application/json", ask)
            .unwrap();
        assert_eq!(response.status, 404);
    }
    // A percent-encoded newline in the name must not become a metrics line.
    let response = client
        .post("/kg/x%0Ainjected_total%201/ask", "application/json", ask)
        .unwrap();
    assert_eq!(response.status, 404);
    // Federated selections name KGs too.
    let response = client
        .post(
            "/federate/ask",
            "application/json",
            "{\"question\": \"Who is the wife of Barack Obama?\", \"kgs\": [\"Celebs\", \"y\\nforged_total 1\"]}",
        )
        .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.text());

    let text = client.get("/metrics").unwrap().text();
    let kg_lines: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("kg_requests_total{"))
        .collect();
    assert_eq!(
        kg_lines,
        vec![
            "kg_requests_total{kg=\"Celebs\"} 1",
            "kg_requests_total{kg=\"unknown\"} 1002"
        ],
        "{text}"
    );
    assert!(!text.contains("injected_total"), "{text}");
    assert!(!text.contains("forged_total"), "{text}");
}

#[test]
fn sparql_post_refuses_a_body_that_is_not_utf8() {
    let handle = start(two_kg_service(None), test_config());
    let mut client = HttpClient::connect(handle.addr());
    // Lossy decoding would turn the 0xFF into U+FFFD inside the literal and
    // run that different query.
    let mut query = b"ASK { ?s ?p \"".to_vec();
    query.push(0xFF);
    query.extend_from_slice(b"\" }");
    let response = client
        .request(
            "POST",
            "/kg/DBpedia/sparql",
            Some(&query),
            &[("content-type", "application/sparql-query")],
        )
        .unwrap();
    assert_eq!(response.status, 400, "body: {}", response.text());
    assert!(response.text().contains("not UTF-8"), "{}", response.text());
}

#[test]
fn explain_shows_the_parallel_plan_the_query_route_runs() {
    // 64 triples under one predicate, and a config eager enough (or not) to
    // split that driver scan.
    let mut store = Store::new();
    for i in 0..64 {
        store.insert(Triple::new(
            Term::iri(format!("http://e/s{i}")),
            Term::iri("http://e/p"),
            Term::iri(format!("http://e/o{i}")),
        ));
    }
    let kg = |name: &str, max_dop: usize| {
        Arc::new(
            InProcessEndpoint::new(name, store.clone()).with_parallelism(ParallelConfig {
                max_dop,
                rows_per_worker: 8.0,
                morsels_per_worker: 2,
            }),
        )
    };
    let (eager, sequential) = (kg("Eager", 4), kg("Sequential", 1));
    let trained = two_kg_service(None);
    let service = QaService::builder()
        .shared_understanding(Arc::clone(trained.understanding()))
        .endpoint(Arc::clone(&eager) as Arc<dyn SparqlEndpoint>)
        .endpoint(Arc::clone(&sequential) as Arc<dyn SparqlEndpoint>)
        .build()
        .unwrap();
    let handle = start(service, test_config());
    let mut client = HttpClient::connect(handle.addr());

    let sparql = "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }";
    let parsed = kgqan_sparql::parse_query(sparql).unwrap();
    let encoded = kgqan_server::http::percent_encode(sparql);
    for (endpoint, runs_parallel) in [(&eager, true), (&sequential, false)] {
        let name = endpoint.name();
        let ran = endpoint.query_traced(&parsed).unwrap().metrics.unwrap();
        assert_eq!(ran.parallel.is_some(), runs_parallel, "{name}");

        let response = client
            .get(&format!("/kg/{name}/sparql?query={encoded}&explain=1"))
            .unwrap();
        assert_eq!(response.status, 200, "body: {}", response.text());
        let explained = Json::parse(&response.text()).unwrap();
        let shows_parallel = explained
            .get("plan")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|op| op.get("label").and_then(Json::as_str))
            .any(|label| label.starts_with("parallel("));
        assert_eq!(shows_parallel, runs_parallel, "{name}: {}", response.text());
        assert_eq!(
            explained
                .get("results")
                .and_then(|r| r.get("results"))
                .and_then(|r| r.get("bindings"))
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(64),
            "{name}"
        );
        // The endpoint's own EXPLAIN agrees with the route.
        assert_eq!(
            endpoint.explain(&parsed).to_string().contains("parallel("),
            runs_parallel,
            "{name}"
        );
    }
}
