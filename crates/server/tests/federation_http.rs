//! End-to-end tests of the federation surface over real TCP sockets:
//! `GET /kg`, `POST /federate/ask` (including the degraded one-KG-stalled
//! case), and `SERVICE <kg:name>` SPARQL queries joining rows across two
//! registered KGs with an EXPLAIN showing the service step.

use std::sync::Arc;
use std::time::Duration;

use kgqan::QaService;
use kgqan_endpoint::json::Json;
use kgqan_endpoint::InProcessEndpoint;
use kgqan_rdf::{vocab, Store, Term, Triple};
use kgqan_server::http::percent_encode;
use kgqan_server::{serve, HttpClient, ServerConfig, ServerHandle};

const OBAMA: &str = "http://dbpedia.org/resource/Barack_Obama";
const MICHELLE: &str = "http://dbpedia.org/resource/Michelle_Obama";
const SPOUSE: &str = "http://dbpedia.org/ontology/spouse";
const BIRTH_PLACE: &str = "http://dbpedia.org/ontology/birthPlace";
const CHICAGO: &str = "http://dbpedia.org/resource/Chicago";

/// People KG: the spouse triple plus the labels linking needs.
fn people_store() -> Store {
    let mut store = Store::new();
    let obama = Term::iri(OBAMA);
    let michelle = Term::iri(MICHELLE);
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
        Triple::new(obama, Term::iri(SPOUSE), michelle),
    ]);
    store
}

/// Places KG: birth places only — `Chicago` exists nowhere in the People
/// KG, so a cross-KG join must carry the foreign term back.
fn places_store() -> Store {
    let mut store = Store::new();
    store.insert(Triple::new(
        Term::iri(MICHELLE),
        Term::iri(BIRTH_PLACE),
        Term::iri(CHICAGO),
    ));
    store
}

fn start(service: QaService) -> ServerHandle {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    serve(service, "127.0.0.1:0", config).expect("server binds an ephemeral port")
}

fn federation_service() -> QaService {
    QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new("People", people_store())))
        .endpoint(Arc::new(InProcessEndpoint::new("Mirror", people_store())))
        .endpoint(Arc::new(InProcessEndpoint::new("Places", places_store())))
        .workers(4)
        .build()
        .expect("service builds")
}

#[test]
fn kg_listing_reports_names_epochs_and_sizes() {
    let handle = start(federation_service());
    let mut client = HttpClient::connect(handle.addr());

    let response = client.get("/kg").expect("GET /kg");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    let kgs = parsed.get("kgs").and_then(Json::as_array).unwrap();
    assert_eq!(kgs.len(), 3);
    // Sorted by name, with per-KG epoch and triple count.
    assert_eq!(kgs[0].get("name").and_then(Json::as_str), Some("Mirror"));
    assert_eq!(kgs[1].get("name").and_then(Json::as_str), Some("People"));
    assert_eq!(kgs[2].get("name").and_then(Json::as_str), Some("Places"));
    assert_eq!(kgs[1].get("epoch").and_then(Json::as_u64), Some(0));
    assert_eq!(kgs[1].get("triples").and_then(Json::as_u64), Some(3));
    assert_eq!(kgs[2].get("triples").and_then(Json::as_u64), Some(1));

    // Ingest bumps the epoch the listing reports.
    let ntriples = format!("<{OBAMA}> <http://dbpedia.org/ontology/party> <http://dbpedia.org/resource/Democratic_Party> .\n");
    let response = client
        .post("/kg/People/ingest", "application/n-triples", &ntriples)
        .expect("ingest");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let response = client.get("/kg").expect("GET /kg after ingest");
    let parsed = Json::parse(&response.text()).unwrap();
    let kgs = parsed.get("kgs").and_then(Json::as_array).unwrap();
    assert_eq!(kgs[1].get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(kgs[1].get("triples").and_then(Json::as_u64), Some(4));

    // Wrong method is a 405, not a routing hole.
    let response = client
        .post("/kg", "application/json", "{}")
        .expect("POST /kg");
    assert_eq!(response.status, 405);
}

#[test]
fn federated_ask_merges_provenance_tagged_answers_over_tcp() {
    let handle = start(federation_service());
    let mut client = HttpClient::connect(handle.addr());

    let body = r#"{"question": "Who is the wife of Barack Obama?", "kgs": ["People", "Mirror"], "id": "fed-e2e"}"#;
    let response = client
        .post("/federate/ask", "application/json", body)
        .expect("federated ask");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(parsed.get("id").and_then(Json::as_str), Some("fed-e2e"));
    assert_eq!(parsed.get("partial").and_then(Json::as_bool), Some(false));

    // Both KGs agree on Michelle: one merged answer, two-KG provenance.
    let answers = parsed.get("answers").and_then(Json::as_array).unwrap();
    let top = &answers[0];
    assert_eq!(
        top.get("term")
            .and_then(|t| t.get("value"))
            .and_then(Json::as_str),
        Some(MICHELLE)
    );
    let kgs: Vec<&str> = top
        .get("kgs")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(kgs, vec!["Mirror", "People"]);
    assert!(top.get("score").and_then(Json::as_f64).unwrap() > 0.0);

    // Per-KG reports all answered; provenance sources carry epochs.
    let reports = parsed.get("kgs").and_then(Json::as_array).unwrap();
    assert_eq!(reports.len(), 2);
    assert!(reports
        .iter()
        .all(|r| r.get("status").and_then(Json::as_str) == Some("answered")));
    let sources = parsed.get("sources").and_then(Json::as_array).unwrap();
    assert_eq!(sources.len(), 2);
    assert!(sources
        .iter()
        .all(|s| s.get("epoch").and_then(Json::as_u64) == Some(0)));

    // The federation counters and per-KG request counters moved.
    let metrics = client.get("/metrics").expect("metrics").text();
    assert!(
        metrics.contains("http_requests_total{route=\"federate\"} 1"),
        "{metrics}"
    );
    assert!(metrics.contains("federated_fanout_total 2"), "{metrics}");
    assert!(
        metrics.contains("kg_requests_total{kg=\"People\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("kg_requests_total{kg=\"Mirror\"} 1"),
        "{metrics}"
    );
}

#[test]
fn federated_ask_degrades_when_one_kg_stalls() {
    let service = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new("Fast", people_store())))
        .endpoint(Arc::new(
            InProcessEndpoint::new("Stalled", people_store())
                .with_latency(Duration::from_millis(120)),
        ))
        .workers(4)
        .build()
        .unwrap();
    let handle = start(service);
    let mut client = HttpClient::connect(handle.addr());

    let body =
        r#"{"question": "Who is the wife of Barack Obama?", "kgs": "*", "deadline_ms": 100}"#;
    let response = client
        .post("/federate/ask", "application/json", body)
        .expect("degraded federated ask");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(parsed.get("partial").and_then(Json::as_bool), Some(true));

    // The fast KG's answer survives, tagged with its provenance only.
    let answers = parsed.get("answers").and_then(Json::as_array).unwrap();
    assert_eq!(
        answers[0]
            .get("term")
            .and_then(|t| t.get("value"))
            .and_then(Json::as_str),
        Some(MICHELLE)
    );
    let kgs: Vec<&str> = answers[0]
        .get("kgs")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(kgs, vec!["Fast"]);

    let reports = parsed.get("kgs").and_then(Json::as_array).unwrap();
    let status_of = |name: &str| {
        reports
            .iter()
            .find(|r| r.get("kg").and_then(Json::as_str) == Some(name))
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(status_of("Fast").as_deref(), Some("answered"));
    assert_eq!(status_of("Stalled").as_deref(), Some("partial"));

    let metrics = client.get("/metrics").expect("metrics").text();
    assert!(metrics.contains("federated_partial_total 1"), "{metrics}");
}

#[test]
fn federated_ask_reports_unknown_kgs_per_kg_without_failing() {
    let handle = start(federation_service());
    let mut client = HttpClient::connect(handle.addr());

    let body = r#"{"question": "Who is the wife of Barack Obama?", "kgs": ["People", "Nowhere"]}"#;
    let response = client
        .post("/federate/ask", "application/json", body)
        .expect("federated ask with unknown KG");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    assert_eq!(parsed.get("partial").and_then(Json::as_bool), Some(true));

    let reports = parsed.get("kgs").and_then(Json::as_array).unwrap();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].get("kg").and_then(Json::as_str), Some("People"));
    assert_eq!(
        reports[0].get("http_status").and_then(Json::as_u64),
        Some(200)
    );
    assert_eq!(reports[1].get("kg").and_then(Json::as_str), Some("Nowhere"));
    assert_eq!(
        reports[1].get("status").and_then(Json::as_str),
        Some("unknown")
    );
    assert_eq!(
        reports[1].get("http_status").and_then(Json::as_u64),
        Some(404)
    );
    let available: Vec<&str> = reports[1]
        .get("available")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(available, vec!["Mirror", "People", "Places"]);

    // The known KG still answered.
    let answers = parsed.get("answers").and_then(Json::as_array).unwrap();
    assert!(!answers.is_empty());

    // Bad bodies are the client's fault.
    let response = client
        .post(
            "/federate/ask",
            "application/json",
            r#"{"kgs": ["People"]}"#,
        )
        .expect("missing question");
    assert_eq!(response.status, 400);
    let response = client.get("/federate/ask").expect("wrong method");
    assert_eq!(response.status, 405);
}

#[test]
fn service_query_joins_rows_across_kgs_over_tcp_with_explain() {
    let handle = start(federation_service());
    let mut client = HttpClient::connect(handle.addr());

    let query = format!(
        "SELECT ?spouse ?place WHERE {{ <{OBAMA}> <{SPOUSE}> ?spouse . \
         SERVICE <kg:Places> {{ ?spouse <{BIRTH_PLACE}> ?place . }} }}"
    );
    let encoded = percent_encode(&query);
    let response = client
        .get(&format!("/kg/People/sparql?query={encoded}"))
        .expect("SERVICE query over TCP");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    let bindings = parsed
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(bindings.len(), 1);
    assert_eq!(
        bindings[0]
            .get("spouse")
            .and_then(|b| b.get("value"))
            .and_then(Json::as_str),
        Some(MICHELLE)
    );
    // Chicago exists only in the Places KG: the join carried the foreign
    // term across the KG boundary and out over the wire.
    assert_eq!(
        bindings[0]
            .get("place")
            .and_then(|b| b.get("value"))
            .and_then(Json::as_str),
        Some(CHICAGO)
    );

    // EXPLAIN over TCP shows the SERVICE step in the physical plan.
    let response = client
        .get(&format!("/kg/People/sparql?query={encoded}&explain=1"))
        .expect("EXPLAIN over TCP");
    assert_eq!(response.status, 200, "body: {}", response.text());
    let parsed = Json::parse(&response.text()).unwrap();
    let plan = parsed.get("plan").and_then(Json::as_array).unwrap();
    let labels: Vec<&str> = plan
        .iter()
        .filter_map(|op| op.get("label").and_then(Json::as_str))
        .collect();
    assert!(
        labels.iter().any(|l| l.contains("service <kg:Places>")),
        "plan must show the SERVICE step: {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.contains("remote ")),
        "plan must show the remote pattern: {labels:?}"
    );
    let bindings = parsed
        .get("results")
        .and_then(|r| r.get("results"))
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(bindings.len(), 1);

    // SERVICE against an unregistered KG is a client error naming the
    // registered KGs.
    let bad = percent_encode(&format!(
        "SELECT ?s WHERE {{ SERVICE <kg:Nowhere> {{ ?s <{SPOUSE}> ?o . }} }}"
    ));
    let response = client
        .get(&format!("/kg/People/sparql?query={bad}"))
        .expect("unknown SERVICE target");
    assert_eq!(response.status, 400, "body: {}", response.text());
    let message = Json::parse(&response.text())
        .unwrap()
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(
        message.contains("Nowhere") && message.contains("People"),
        "error names the target and the available KGs: {message}"
    );
}
