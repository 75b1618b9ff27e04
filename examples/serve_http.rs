//! Serve the quickstart knowledge graph over HTTP and exercise every route
//! with a real TCP client — the CI server-smoke driver.
//!
//! ```text
//! cargo run --release --example serve_http
//! ```
//!
//! Starts the hand-rolled HTTP/1.1 front-end on an ephemeral loopback
//! port, then drives `/healthz`, `/kg/DBpedia/ask` (the paper's running
//! example question 𝑞_E), `/kg/DBpedia/sparql`, `/kg/DBpedia/ingest` and
//! `/metrics` through `kgqan_server::HttpClient`, asserting on each
//! response. Exits non-zero on any mismatch, so CI can run it as a smoke
//! test. Set `KGQAN_SERVE_ADDR` (e.g. `127.0.0.1:7878`) to keep the
//! server in the foreground for manual `curl` instead.

use std::sync::Arc;

use kgqan::QaService;
use kgqan_endpoint::InProcessEndpoint;
use kgqan_rdf::{vocab, Store, Term, Triple};
use kgqan_server::{serve, HttpClient, ServerConfig};

const QUESTION: &str = "Name the sea into which Danish Straits flows and \
                        has Kaliningrad as one of the city on the shore";

fn quickstart_store() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
    let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
    let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
    store.insert_all([
        Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
        Triple::new(
            straits.clone(),
            label.clone(),
            Term::literal_str("Danish Straits"),
        ),
        Triple::new(kali.clone(), label, Term::literal_str("Kaliningrad")),
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

fn check(what: &str, ok: bool) {
    if ok {
        println!("  ok: {what}");
    } else {
        eprintln!("  FAILED: {what}");
        std::process::exit(1);
    }
}

fn main() {
    println!("Training question-understanding models and starting the server…");
    let service = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            quickstart_store(),
        )))
        .workers(2)
        .build()
        .expect("service builds");

    let addr = std::env::var("KGQAN_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:0".to_string());
    let foreground = addr != "127.0.0.1:0";
    let mut handle = serve(service, addr.as_str(), ServerConfig::default()).expect("server starts");
    println!("Serving on http://{}", handle.addr());

    if foreground {
        println!("Press Ctrl-C to stop.");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    }

    let mut client = HttpClient::connect(handle.addr());

    println!("GET /healthz");
    let health = client.get("/healthz").expect("healthz");
    check("healthz is 200", health.status == 200);
    check("healthz lists DBpedia", health.text().contains("DBpedia"));

    println!("POST /kg/DBpedia/ask — {QUESTION:?}");
    let body = format!("{{\"question\": {QUESTION:?}}}");
    let ask = client
        .post("/kg/DBpedia/ask", "application/json", &body)
        .expect("ask");
    check("ask is 200", ask.status == 200);
    check(
        "answer is the Baltic Sea",
        ask.text()
            .contains("http://dbpedia.org/resource/Baltic_Sea"),
    );

    println!("POST /kg/DBpedia/sparql");
    let sparql = client
        .post(
            "/kg/DBpedia/sparql",
            "application/sparql-query",
            "SELECT ?sea WHERE { ?sea <http://dbpedia.org/property/outflow> \
             <http://dbpedia.org/resource/Danish_straits> . }",
        )
        .expect("sparql");
    check("sparql is 200", sparql.status == 200);
    check(
        "bindings name the sea",
        sparql.text().contains("Baltic_Sea"),
    );

    println!("POST /kg/DBpedia/ingest");
    let ingest = client
        .post(
            "/kg/DBpedia/ingest",
            "application/n-triples",
            "<http://dbpedia.org/resource/Atlantic_Ocean> \
             <http://www.w3.org/2000/01/rdf-schema#label> \"Atlantic Ocean\" .\n",
        )
        .expect("ingest");
    check("ingest is 200", ingest.status == 200);
    check("one triple added", ingest.text().contains("\"added\":1"));

    println!("GET /metrics");
    let metrics = client.get("/metrics").expect("metrics");
    check("metrics is 200", metrics.status == 200);
    check(
        "ask route counted",
        metrics
            .text()
            .contains("http_requests_total{route=\"ask\"} 1"),
    );

    println!("Unknown KG → 404, shed/limit counters exposed");
    let missing = client
        .post("/kg/Nope/ask", "application/json", &body)
        .expect("unknown kg");
    check("unknown KG is 404", missing.status == 404);

    handle.shutdown();
    println!("Graceful shutdown complete — all checks passed.");
}
