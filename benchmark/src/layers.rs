//! The traced run: per-layer metrics from spans.
//!
//! Three set-ups of the same inputs are driven with the same fixed request
//! sequence, one request at a time:
//!
//! * **untraced pass** — the default service over HTTP: client-side numbers
//!   and the baseline for the tracing overhead;
//! * **traced pass** — the decorated service over HTTP: what the server did
//!   per request, seen from inside, against what the client waited;
//! * **replay** — the same requests in-process through the public entry
//!   points (`QaService::answer`, `FederatedEndpoint::ask`, `parse_query` →
//!   `Planner::plan` → `execute_with`) of the decorated service: the layer
//!   breakdown without sockets, queues or thread hand-offs.
//!
//! Times are medians over requests in µs unless the name says otherwise;
//! `_per_q` metrics are totals divided by the number of requests.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::driver::{self, Observed};
use crate::env::Env;
use crate::seams::{
    answer_response_to_json, federated_response_to_json, parse_ask_request, parse_federate_request,
    parse_ntriples, parse_query, query_results_to_json, tokenize, AnswerRequest, CacheStats,
    ExecOptions, FederatedEndpoint, IngestBatch, LiveStore, Planner, TriplePattern,
};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{self, covered_ns, Span, ENDPOINT_CALL, ENDPOINT_ENGINE};
use crate::workload::{self, Event, OpKind};

/// Every per-layer metric, in report order, with its unit.  `--trace 1`
/// prints all of them for every workload; one that does not apply to a
/// workload (no federation, no ingest, no text search) reads 0.
pub const METRICS: [(&str, &str); 56] = [
    ("client.samples", "count"),
    ("client.latency_mean_ms", "ms"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.latency_max_ms", "ms"),
    ("client.failed_share", "ratio"),
    ("client.answer_f1", "ratio"),
    ("server.floor_us", "us"),
    ("server.overhead_us", "us"),
    ("server.overhead_share", "ratio"),
    ("server.serialize_us", "us"),
    ("server.response_bytes_p50", "bytes"),
    ("server.shed_total", "count"),
    ("server.rate_limited_total", "count"),
    ("server.ingest_ack_p50_ms", "ms"),
    ("federate.ask_us", "us"),
    ("federate.fanout_factor", "ratio"),
    ("federate.slowest_leg_us", "us"),
    ("federate.merge_self_us", "us"),
    ("federate.partial_share", "ratio"),
    ("core.understand_us", "us"),
    ("core.link_us", "us"),
    ("core.link_self_us", "us"),
    ("core.link_probes_per_q", "count"),
    ("core.execute_us", "us"),
    ("core.execute_self_us", "us"),
    ("core.candidates_per_q", "count"),
    ("core.productive_candidate_share", "ratio"),
    ("core.filter_us", "us"),
    ("nlp.affinity_calls_per_q", "count"),
    ("nlp.affinity_us_per_q", "us"),
    ("endpoint.calls_per_q", "count"),
    ("endpoint.cache_hit_share", "ratio"),
    ("endpoint.cache_hit_us", "us"),
    ("endpoint.engine_us_per_q", "us"),
    ("endpoint.rows_returned_per_q", "count"),
    ("endpoint.evictions", "count"),
    ("endpoint.scoped_evictions", "count"),
    ("sparql.parse_us", "us"),
    ("sparql.plan_us", "us"),
    ("sparql.exec_us", "us"),
    ("sparql.rows_scanned_per_row_out", "ratio"),
    ("sparql.parallel_query_share", "ratio"),
    ("rdf.scan_ns_per_row", "ns"),
    ("rdf.text_search_us", "us"),
    ("rdf.ingest_batch_us", "us"),
    ("rdf.snapshot_ns", "ns"),
    ("rdf.bytes_per_triple", "bytes"),
    ("rdf.epochs_published", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.replay_vs_server", "ratio"),
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("replay.pipeline_us", "us"),
    ("server.pipeline_us", "us"),
];

/// Everything the traced run measured.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub answer_f1: f64,
    pub digest: String,
    pub server_spans: Vec<Span>,
    pub replay_spans: Vec<Span>,
}

/// Per-KG cache counters of a service, summed.
fn cache_totals(env: &Env) -> CacheStats {
    env.service().cache_report().total()
}

pub fn run(workload: &str, seed: u64, seconds: u64) -> Result<Traced, String> {
    let mut m: BTreeMap<&'static str, f64> = METRICS.iter().map(|(name, _)| (*name, 0.0)).collect();

    // Untraced pass.
    let plain = Env::set_up(workload, seed, seconds, false)?;
    let events = plain
        .inputs
        .events(plain.cursor, plain.inputs.trace_requests);
    m.insert("server.floor_us", driver::healthz_floor_us(&plain, 1000)?);
    let untraced = driver::pass(&plain, &events, false);
    let metrics = plain.handle.metrics();
    let relaxed = std::sync::atomic::Ordering::Relaxed;
    m.insert("server.shed_total", metrics.load_shed.load(relaxed) as f64);
    m.insert(
        "server.rate_limited_total",
        metrics.rate_limited.load(relaxed) as f64,
    );
    let (answer_f1, digest) = (plain.answer_f1, plain.inputs.digest.clone());
    drop(plain);

    // Traced pass.
    let served = Env::set_up(workload, seed, seconds, true)?;
    let cache_before = cache_totals(&served);
    trace::drain();
    trace::set_enabled(true);
    let traced = driver::pass(&served, &events, true);
    trace::set_enabled(false);
    let server_spans = trace::drain();
    let cache = cache_totals(&served).since(&cache_before);
    m.insert(
        "rdf.epochs_published",
        served.engine(served.inputs.kg).epoch() as f64,
    );
    rdf_probes(&served, &events, &mut m)?;
    drop(served);

    // Replay.
    let replayed = Env::set_up(workload, seed, seconds, true)?;
    trace::set_enabled(true);
    let replay_failed = replay(&replayed, &events);
    trace::set_enabled(false);
    let replay_spans = trace::drain();
    drop(replayed);

    let attempted = untraced.attempted + traced.attempted + events.len() as u64;
    let failed = untraced.failed + traced.failed + replay_failed;

    client_metrics(&untraced, &traced, &mut m);
    m.insert(
        "client.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    m.insert("client.answer_f1", answer_f1);
    m.insert("endpoint.cache_hit_share", cache.hit_rate());
    m.insert("endpoint.evictions", cache.evictions as f64);
    m.insert("endpoint.scoped_evictions", cache.scoped_evictions as f64);
    m.insert("trace.requests", events.len() as f64);
    m.insert(
        "trace.spans",
        (server_spans.len() + replay_spans.len()) as f64,
    );
    server_metrics(&server_spans, &mut m);
    replay_metrics(&replay_spans, &server_spans, events.len(), &mut m);

    Ok(Traced {
        metrics: m,
        attempted,
        failed,
        answer_f1,
        digest,
        server_spans,
        replay_spans,
    })
}

fn client_metrics(untraced: &Observed, traced: &Observed, m: &mut BTreeMap<&'static str, f64>) {
    let latencies = sorted(untraced.read_ms.clone());
    m.insert("client.samples", latencies.len() as f64);
    m.insert("client.latency_mean_ms", mean(&latencies));
    m.insert("client.latency_p50_ms", percentile(&latencies, 50.0));
    m.insert("client.latency_p99_ms", percentile(&latencies, 99.0));
    m.insert(
        "client.latency_max_ms",
        latencies.last().copied().unwrap_or(0.0),
    );
    m.insert("server.response_bytes_p50", median(&untraced.bytes));
    m.insert("server.ingest_ack_p50_ms", median(&untraced.write_ms));
    let traced_p50 = median(&traced.read_ms);
    let untraced_p50 = percentile(&latencies, 50.0);
    if untraced_p50 > 0.0 {
        m.insert("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);
    }
}

/// Spans grouped by the request they belong to.
fn by_request(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut groups: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        groups.entry(span.request).or_default().push(span);
    }
    groups
}

/// Spans that are the program's own work on a request: the pipeline stages
/// for questions, the engine for SPARQL and ingest.
fn is_work(span: &Span) -> bool {
    span.name.starts_with("core.")
        || matches!(
            span.name,
            "sparql.plan" | "sparql.exec" | "endpoint.ingest" | ENDPOINT_ENGINE
        )
}

/// From first start to last end of a request's work spans, ns.
fn work_envelope(spans: &[&Span]) -> Option<u64> {
    let work: Vec<&&Span> = spans.iter().filter(|s| is_work(s)).collect();
    let start = work.iter().map(|s| s.start_ns).min()?;
    let end = work.iter().map(|s| s.end_ns).max()?;
    Some(end - start)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// What the client waited against what the server worked, per request of
/// the traced HTTP pass.
fn server_metrics(spans: &[Span], m: &mut BTreeMap<&'static str, f64>) {
    let mut overhead = Vec::new();
    let mut waited = Vec::new();
    let mut worked = Vec::new();
    for group in by_request(spans).values() {
        let Some(root) = group.iter().find(|s| s.name == "client.request") else {
            continue;
        };
        let Some(work) = work_envelope(group) else {
            continue; // answered without engine work (a cached SPARQL page)
        };
        overhead.push(root.duration_ns().saturating_sub(work) as f64);
        waited.push(root.duration_ns() as f64);
        worked.push(work as f64);
    }
    m.insert("server.overhead_us", us(median(&overhead)));
    if median(&waited) > 0.0 {
        m.insert("server.overhead_share", median(&overhead) / median(&waited));
    }
    m.insert("server.pipeline_us", us(median(&worked)));
}

/// Per-parent child lists.
fn children(spans: &[Span]) -> BTreeMap<u32, Vec<&Span>> {
    let mut map: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        map.entry(span.parent).or_default().push(span);
    }
    map
}

fn replay_metrics(
    spans: &[Span],
    server_spans: &[Span],
    requests: usize,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let q = requests.max(1) as f64;
    let kids = children(spans);
    let child_ns = |span: &Span| -> f64 {
        kids.get(&span.id)
            .map_or(0.0, |c| c.iter().map(|s| s.duration_ns() as f64).sum())
    };
    // Stage spans run on one thread with their children one after another,
    // so self time is the duration minus the children's durations.
    let self_times = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.duration_ns() as f64 - child_ns(s)).max(0.0))
            .collect()
    };
    let total = |name: &str, field: fn(&Span) -> u64| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| field(s) as f64)
            .sum()
    };

    for (metric, span) in [
        ("core.understand_us", "core.understand"),
        ("core.link_us", "core.link"),
        ("core.execute_us", "core.execute"),
        ("core.filter_us", "core.filter"),
        ("sparql.parse_us", "sparql.parse"),
        ("sparql.plan_us", "sparql.plan"),
        ("sparql.exec_us", "sparql.exec"),
        ("server.serialize_us", "server.serialize"),
    ] {
        m.insert(metric, us(median(&durations(spans, span))));
    }
    m.insert("core.link_self_us", us(median(&self_times("core.link"))));
    m.insert(
        "core.execute_self_us",
        us(median(&self_times("core.execute"))),
    );
    let link_ids: BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "core.link")
        .map(|s| s.id)
        .collect();
    let probes = spans
        .iter()
        .filter(|s| s.name == ENDPOINT_CALL && link_ids.contains(&s.parent))
        .count();
    m.insert("core.link_probes_per_q", probes as f64 / q);
    let executed = total("core.execute", |s| s.count);
    m.insert("core.candidates_per_q", executed / q);
    if executed > 0.0 {
        m.insert(
            "core.productive_candidate_share",
            total("core.execute", |s| s.rows) / executed,
        );
    }
    m.insert(
        "nlp.affinity_calls_per_q",
        total("nlp.affinity", |s| s.count) / q,
    );
    m.insert(
        "nlp.affinity_us_per_q",
        us(total("nlp.affinity", Span::duration_ns)) / q,
    );

    // Endpoint: calls seen outside the cache, and the ones that reached the
    // engine.  SPARQL requests never pass the outer decorator (the server
    // and the replay call the engine side directly), so their engine spans
    // come from the traced HTTP pass.
    let calls: Vec<&Span> = spans.iter().filter(|s| s.name == ENDPOINT_CALL).collect();
    let replay_engine: Vec<&Span> = spans.iter().filter(|s| s.name == ENDPOINT_ENGINE).collect();
    let engine: Vec<&Span> = if replay_engine.is_empty() {
        server_spans
            .iter()
            .filter(|s| s.name == ENDPOINT_ENGINE)
            .collect()
    } else {
        replay_engine
    };
    m.insert("endpoint.calls_per_q", calls.len() as f64 / q);
    let hits: Vec<f64> = calls
        .iter()
        .filter(|call| !kids.contains_key(&call.id))
        .map(|call| call.duration_ns() as f64)
        .collect();
    m.insert("endpoint.cache_hit_us", us(median(&hits)));
    m.insert(
        "endpoint.engine_us_per_q",
        us(engine.iter().map(|s| s.duration_ns() as f64).sum()) / q,
    );
    let returned: &[&Span] = if calls.is_empty() { &engine } else { &calls };
    m.insert(
        "endpoint.rows_returned_per_q",
        returned.iter().map(|s| s.rows as f64).sum::<f64>() / q,
    );

    // Engine work: queries whose executor reported its counters.
    let counted: Vec<&Span> = spans
        .iter()
        .filter(|s| (s.name == ENDPOINT_ENGINE || s.name == "sparql.exec") && s.scanned > 0)
        .collect();
    let rows_out: f64 = counted.iter().map(|s| s.rows.max(1) as f64).sum();
    if !counted.is_empty() {
        m.insert(
            "sparql.rows_scanned_per_row_out",
            counted.iter().map(|s| s.scanned as f64).sum::<f64>() / rows_out,
        );
        m.insert(
            "sparql.parallel_query_share",
            counted.iter().filter(|s| s.parallel).count() as f64 / counted.len() as f64,
        );
    }
    // Whole requests: how much of each root span other spans account for,
    // and whether the replay does what the server did.
    let groups = by_request(spans);
    let (mut root_ns, mut covered) = (0.0, 0.0);
    let mut pipeline_ns = Vec::new();
    let mut single_ns = Vec::new();
    for group in groups.values() {
        for root in group.iter().filter(|s| s.parent == 0) {
            let others: Vec<&Span> = group
                .iter()
                .filter(|s| s.id != root.id && s.parent != 0)
                .copied()
                .collect();
            if root.name == "replay.single" {
                single_ns.push(root.duration_ns() as f64);
                continue;
            }
            root_ns += root.duration_ns() as f64;
            covered += covered_ns(root.start_ns, root.end_ns, &others) as f64;
            let inside: Vec<&Span> = others
                .iter()
                .filter(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns)
                .copied()
                .collect();
            if let Some(work) = work_envelope(&inside) {
                pipeline_ns.push(work as f64);
            }
        }
    }
    if root_ns > 0.0 {
        m.insert("trace.unattributed_share", 1.0 - covered / root_ns);
    }
    m.insert("replay.pipeline_us", us(median(&pipeline_ns)));
    let server_pipeline = m["server.pipeline_us"];
    if server_pipeline > 0.0 {
        m.insert(
            "trace.replay_vs_server",
            us(median(&pipeline_ns)) / server_pipeline,
        );
    }

    // Federation: the ask span, its legs (one pipeline run per KG, found as
    // the runs of stage spans each worker thread made inside the ask), and
    // what is left for fan-out and merge.
    let asks: Vec<&Span> = spans.iter().filter(|s| s.name == "federate.ask").collect();
    if asks.is_empty() {
        return;
    }
    let mut slowest = Vec::new();
    let mut merge = Vec::new();
    for ask in &asks {
        let legs = legs_of(ask, &groups[&ask.request]);
        let refs: Vec<&Span> = legs.iter().collect();
        slowest.push(legs.iter().map(Span::duration_ns).max().unwrap_or(0) as f64);
        merge.push(trace::self_time_ns(ask, &refs) as f64);
    }
    let ask_ns: Vec<f64> = asks.iter().map(|s| s.duration_ns() as f64).collect();
    m.insert("federate.ask_us", us(median(&ask_ns)));
    m.insert("federate.slowest_leg_us", us(median(&slowest)));
    m.insert("federate.merge_self_us", us(median(&merge)));
    m.insert(
        "federate.partial_share",
        asks.iter().filter(|s| s.count > 0).count() as f64 / asks.len() as f64,
    );
    if median(&single_ns) > 0.0 {
        m.insert(
            "federate.fanout_factor",
            median(&ask_ns) / median(&single_ns),
        );
    }
}

/// The legs of one federated ask: per worker thread, each `core.understand`
/// starts a pipeline run that lasts until that thread's next `core.filter`
/// ends.  Returned as synthetic spans covering each run.
fn legs_of(ask: &Span, request_spans: &[&Span]) -> Vec<Span> {
    let mut stages: Vec<&Span> = request_spans
        .iter()
        .filter(|s| {
            s.name.starts_with("core.") && s.start_ns >= ask.start_ns && s.end_ns <= ask.end_ns
        })
        .copied()
        .collect();
    stages.sort_by_key(|s| (s.thread, s.start_ns));
    let mut legs: Vec<Span> = Vec::new();
    for stage in stages {
        match legs.last_mut() {
            Some(leg) if leg.thread == stage.thread && stage.name != "core.understand" => {
                leg.end_ns = leg.end_ns.max(stage.end_ns);
            }
            _ => legs.push(Span {
                name: "federate.leg",
                parent: ask.id,
                ..stage.clone()
            }),
        }
    }
    legs
}

/// Replay the traced sequence in-process through the public entry points,
/// under `replay.request` root spans.  Returns how many answers differed
/// from what the server gave over HTTP.
fn replay(env: &Env, events: &[Event]) -> u64 {
    let service = env.service();
    let federated = FederatedEndpoint::new(service.clone());
    let kg = env.inputs.kg;
    let mut failed = 0;
    for (index, event) in events.iter().enumerate() {
        let op = env.op(event);
        let root = trace::root_span("replay.request", index as u64 + 1);
        let body = match op.kind {
            OpKind::Ask => parse_ask_request(&op.body, kg)
                .ok()
                .and_then(|request| service.answer(request).ok())
                .map(|response| {
                    let _span = trace::span("server.serialize", "");
                    answer_response_to_json(&response)
                }),
            OpKind::Federate => parse_federate_request(&op.body).ok().and_then(|request| {
                let response = {
                    let mut span = trace::span("federate.ask", "");
                    let response = federated.ask(request).ok()?;
                    span.set(|s| s.count = u64::from(response.is_partial()));
                    response
                };
                let _span = trace::span("server.serialize", "");
                Some(federated_response_to_json(&response))
            }),
            OpKind::Sparql => replay_sparql(env, &op.body),
            OpKind::Ingest => parse_ntriples(&op.body).ok().and_then(|triples| {
                let report = service.ingest(kg, IngestBatch::from(triples)).ok()?;
                Some(format!(
                    "{{\"added\":{},\"duplicates\":{}}}",
                    report.added(),
                    report.duplicates()
                ))
            }),
        };
        drop(root);
        match body {
            Some(body) if env.check(event, 200, body.as_bytes()) => {}
            _ => failed += 1,
        }
    }
    // The same questions asked of one KG: the base of the fan-out factor.
    for (index, event) in events.iter().enumerate() {
        let op = env.op(event);
        if op.kind != OpKind::Federate {
            break;
        }
        let Some(gold) = op.gold else {
            continue;
        };
        let question = &env.inputs.gold[gold].text;
        let _root = trace::root_span("replay.single", index as u64 + 1);
        let _ = service.answer(AnswerRequest::new(question).on_kg(kg));
    }
    failed
}

/// `parse_query` → `Planner::for_shared_snapshot().plan()` → `execute_with()`
/// → the SPARQL-JSON writer, each under its own span.
fn replay_sparql(env: &Env, sparql: &str) -> Option<String> {
    let snapshot = env.engine(env.inputs.kg).store();
    let query = {
        let _span = trace::span("sparql.parse", "");
        parse_query(sparql).ok()?
    };
    let plan = {
        let _span = trace::span("sparql.plan", "");
        Planner::for_shared_snapshot(&snapshot).plan(&query)
    };
    let run = {
        let mut span = trace::span("sparql.exec", "");
        let run = plan.execute_with(ExecOptions::default()).ok()?;
        span.set(|s| {
            s.rows = run.metrics.rows_emitted;
            s.scanned = run.metrics.rows_scanned;
            s.parallel = run.metrics.parallel.is_some();
        });
        run
    };
    let _span = trace::span("server.serialize", "");
    Some(query_results_to_json(&run.results))
}

/// The `rdf` layer probed directly on the served store: scans over the
/// workload's driver patterns, text search over its probe phrases, and — for
/// the ingest workload — batch ingest and snapshot pinning on a scratch copy.
fn rdf_probes(
    env: &Env,
    events: &[Event],
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let snapshot = env.engine(env.inputs.kg).store();
    let store = snapshot.store();
    m.insert(
        "rdf.bytes_per_triple",
        store.approx_bytes() as f64 / store.len().max(1) as f64,
    );

    // Driver patterns: every triple about an entity a question links to;
    // for the join workload, the `links` scan every template starts from.
    let mut patterns = Vec::new();
    let mut phrases: Vec<Vec<String>> = Vec::new();
    for question in env.inputs.gold.iter().take(crate::workload::VERIFY_SAMPLE) {
        for (phrase, entity) in &question.linking.entities {
            patterns.push(TriplePattern::any().with_subject(entity.clone()));
            phrases.push(tokenize(phrase));
        }
    }
    if patterns.is_empty() {
        patterns.push(
            TriplePattern::any().with_predicate(crate::seams::Term::iri(crate::seams::LINKS)),
        );
    }
    let mut rows = 0usize;
    let start = Instant::now();
    for pattern in &patterns {
        if let Some(encoded) = store.encode_pattern(pattern) {
            rows += store.scan(encoded).count();
        }
    }
    m.insert(
        "rdf.scan_ns_per_row",
        start.elapsed().as_nanos() as f64 / rows.max(1) as f64,
    );
    let searches: Vec<f64> = phrases
        .iter()
        .map(|words| {
            let words: Vec<&str> = words.iter().map(String::as_str).collect();
            let start = Instant::now();
            std::hint::black_box(store.text_index().search_any(&words, 400));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    m.insert("rdf.text_search_us", us(median(&searches)));

    let batches: Vec<&Event> = events
        .iter()
        .filter(|e| env.op(e).kind == OpKind::Ingest)
        .collect();
    if batches.is_empty() {
        return Ok(());
    }
    // A scratch copy of the KG as it was before any batch arrived.
    let pristine = workload::generate(env.inputs.workload, 0, 1)?;
    let scratch = LiveStore::new(
        pristine
            .kgs
            .into_iter()
            .next()
            .ok_or("ingest workload without a KG")?
            .store,
    );
    let mut ingest_ns = Vec::new();
    let mut snapshot_ns = Vec::new();
    for event in batches {
        let batch = IngestBatch::from(env.op(event).triples.clone());
        let start = Instant::now();
        scratch.ingest(batch).map_err(|e| e.to_string())?;
        ingest_ns.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        std::hint::black_box(scratch.snapshot());
        snapshot_ns.push(start.elapsed().as_nanos() as f64);
    }
    m.insert("rdf.ingest_batch_us", us(median(&ingest_ns)));
    m.insert("rdf.snapshot_ns", median(&snapshot_ns));
    Ok(())
}
