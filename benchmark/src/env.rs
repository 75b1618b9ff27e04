//! Set-up and the correctness checker.
//!
//! [`Env::set_up`] does everything a run pays before timing: generates the
//! KGs and the requests from the seed, trains the understanding models,
//! builds the service and starts `kgqan-server` on `127.0.0.1:0` exactly as
//! `examples/serve_http.rs` does (default cache, `.workers(2)`,
//! `ServerConfig::default()`), then runs the verification pass and a
//! fixed-count warm-up over HTTP.
//!
//! Checking: the verification pass scores answers against gold
//! (`BenchmarkQuestion`) or the sequential oracle (SPARQL) and remembers what
//! the server answered; every later response must be `200`, not flagged
//! `partial`, and equal to what the server answered the first time.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::seams::{
    parse_query, query_results_to_json, score_question, serve, ExecOptions, HttpClient,
    InProcessEndpoint, JitLinkStage, Json, KgqanConfig, ManagedExecution, ParallelConfig, Pipeline,
    Planner, QaService, QaServiceBuilder, QuestionUnderstanding, SemanticAffinity, ServerConfig,
    ServerHandle, SparqlEndpoint, StoreSnapshot, SystemAnswer, Term, TypeFiltration,
};
use crate::trace::{
    SpanEndpoint, TracedAffinity, TracedExecute, TracedFilter, TracedLink, TracedUnderstand,
    ENDPOINT_ENGINE,
};
use crate::workload::{self, Event, Inputs, Op, OpKind};

/// Pipeline workers of the served service (as `serve_http.rs`).
pub const SERVICE_WORKERS: usize = 2;
/// What the server answered for one op: hash and length of the part of the
/// body that must repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(u64, usize);

pub struct Env {
    pub inputs: Inputs,
    pub handle: ServerHandle,
    /// The raw engines behind the registered KGs (snapshots for the SPARQL
    /// replay, stores for the `rdf` probes).
    pub engines: Vec<(&'static str, Arc<InProcessEndpoint>)>,
    /// What the server answered per op, from the verification pass or the
    /// first timed response.
    expected: Vec<OnceLock<Signature>>,
    /// Macro F1 of the verification pass against gold / the oracle.
    pub answer_f1: f64,
    /// Stream position after the warm-up: where timing starts.
    pub cursor: usize,
}

impl Env {
    pub fn set_up(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Env, String> {
        let mut inputs = workload::generate(workload, seed, seconds)?;
        check_client_threads(inputs.clients)?;

        let mut engines = Vec::new();
        let mut builder = QaService::builder().workers(SERVICE_WORKERS);
        for kg in std::mem::take(&mut inputs.kgs) {
            let engine = Arc::new(InProcessEndpoint::new(kg.name, kg.store));
            let serving: Arc<dyn SparqlEndpoint> = Arc::clone(&engine) as _;
            builder = builder.endpoint(if traced {
                // Registered below the semantic cache: sees only misses.
                Arc::new(SpanEndpoint::new(serving, ENDPOINT_ENGINE))
            } else {
                serving
            });
            engines.push((kg.name, engine));
        }
        if traced {
            builder = traced_pipeline(builder);
        }
        let service = builder.build().map_err(|e| format!("service: {e}"))?;
        let handle = serve(service, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("server: {e}"))?;

        let mut env = Env {
            expected: inputs.ops.iter().map(|_| OnceLock::new()).collect(),
            inputs,
            handle,
            engines,
            answer_f1: 0.0,
            cursor: 0,
        };
        env.verification_pass()?;
        env.warm_up()?;
        Ok(env)
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn service(&self) -> &QaService {
        self.handle.service()
    }

    pub fn engine(&self, kg: &str) -> &Arc<InProcessEndpoint> {
        &self
            .engines
            .iter()
            .find(|(name, _)| *name == kg)
            .expect("engine of a registered KG")
            .1
    }

    pub fn op(&self, event: &Event) -> &Op {
        &self.inputs.ops[event.op as usize]
    }

    /// Send one op over HTTP and return status and body.
    pub fn send(client: &mut HttpClient, op: &Op) -> std::io::Result<(u16, Vec<u8>)> {
        let response = client.request(
            "POST",
            op.path,
            Some(op.body.as_bytes()),
            &[("content-type", op.content_type)],
        )?;
        Ok((response.status, response.body))
    }

    /// Does one timed response pass: `200`, complete, and the same answer as
    /// the first time the server answered this op?
    pub fn check(&self, event: &Event, status: u16, body: &[u8]) -> bool {
        let op = self.op(event);
        if status != 200 {
            return false;
        }
        let Some(signature) = signature(op.kind, body) else {
            return false;
        };
        if op.kind == OpKind::Ingest {
            // An acknowledged batch added all its triples (they are new).
            return signature.1 == op.triples.len();
        }
        *self.expected[event.op as usize].get_or_init(|| signature) == signature
    }

    /// Every verified op once: remember the server's answer and score it.
    fn verification_pass(&mut self) -> Result<(), String> {
        let snapshot = self.engine(self.inputs.kg).store();
        let mut client = HttpClient::connect(self.addr());
        let mut f1_sum = 0.0;
        for &index in &self.inputs.verify {
            let op = &self.inputs.ops[index as usize];
            let (status, body) =
                Env::send(&mut client, op).map_err(|e| format!("verification: {e}"))?;
            let text = String::from_utf8_lossy(&body);
            if status != 200 {
                return Err(format!(
                    "verification: {} answered {status}: {text}",
                    op.path
                ));
            }
            let sig = signature(op.kind, &body)
                .ok_or_else(|| format!("verification: incomplete response: {text}"))?;
            let _ = self.expected[index as usize].set(sig);
            f1_sum += match op.gold {
                Some(gold) => {
                    let answer = parse_answer(&text)?;
                    score_question(&self.inputs.gold[gold], &answer).f1
                }
                None => rows_f1(&text, &oracle(&snapshot, op)?)?,
            };
        }
        self.answer_f1 = f1_sum / self.inputs.verify.len().max(1) as f64;
        Ok(())
    }

    /// A fixed number of stream requests (no ingest batches: they are new
    /// data exactly once, inside the window).
    fn warm_up(&mut self) -> Result<(), String> {
        let requests = self.inputs.warmup_requests;
        let events: Vec<Event> = self
            .inputs
            .stream
            .iter()
            .cycle()
            .take(requests)
            .copied()
            .collect();
        let failed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for client_index in 0..self.inputs.clients {
                let (events, failed, env) = (&events, &failed, &*self);
                scope.spawn(move || {
                    let mut client = HttpClient::connect(env.addr());
                    for event in events.iter().skip(client_index).step_by(env.inputs.clients) {
                        match Env::send(&mut client, env.op(event)) {
                            Ok((status, body)) if env.check(event, status, &body) => {}
                            _ => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        match failed.load(Ordering::Relaxed) {
            0 => {
                self.cursor = requests; // timing continues from here
                Ok(())
            }
            n => Err(format!(
                "warm-up: {n} of {requests} responses failed checking"
            )),
        }
    }
}

/// The SPARQL oracle: sequential (`max_dop = 1`) in-process execution on
/// the served snapshot, rendered by the same JSON writer.
fn oracle(snapshot: &Arc<StoreSnapshot>, op: &Op) -> Result<String, String> {
    let query = parse_query(&op.body).map_err(|e| e.to_string())?;
    let sequential = ParallelConfig {
        max_dop: 1,
        ..ParallelConfig::default()
    };
    let run = Planner::for_shared_snapshot(snapshot)
        .with_parallelism(sequential)
        .plan(&query)
        .execute_with(ExecOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(query_results_to_json(&run.results))
}

/// Refuse to drive the server with more client threads than cores: the
/// clients would then compete with the server they measure.
pub fn check_client_threads(clients: usize) -> Result<(), String> {
    let cores = nproc();
    if clients > cores {
        return Err(format!(
            "{clients} client threads on {cores} cores: refusing to start, clients would take the server's cores"
        ));
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The traced service: the default stages and affinity model, each behind a
/// span-recording decorator.
fn traced_pipeline(builder: QaServiceBuilder) -> QaServiceBuilder {
    let config = KgqanConfig::default();
    let understanding = Arc::new(QuestionUnderstanding::train_with_variant(config.seq2seq));
    let affinity: Arc<dyn SemanticAffinity> =
        Arc::new(TracedAffinity(Arc::from(config.affinity.build())));
    let pipeline = Pipeline::new(
        Arc::new(TracedUnderstand(understanding.clone())),
        Arc::new(TracedLink(Arc::new(JitLinkStage::new(Arc::clone(
            &affinity,
        ))))),
        Arc::new(TracedExecute(Arc::new(ManagedExecution))),
        Arc::new(TracedFilter(Arc::new(TypeFiltration::new(affinity)))),
    );
    builder
        .shared_understanding(understanding)
        .pipeline(pipeline)
}

/// The part of a response body that must repeat, hashed: for asks the
/// answers, boolean verdict and `partial` flag (ids and timings vary); for
/// SPARQL the whole body; for ingest the count of triples added.  `None`
/// when the body is not a complete, unflagged response.
pub fn signature(kind: OpKind, body: &[u8]) -> Option<Signature> {
    let stable = match kind {
        OpKind::Sparql => body,
        OpKind::Ask => between(body, b",\"answers\":", b",\"elapsed_ms\":")?,
        OpKind::Federate => between(body, b",\"answers\":", b",\"kgs\":[{")?,
        OpKind::Ingest => {
            let added = between(body, b"\"added\":", b",\"duplicates\":")?;
            let added = std::str::from_utf8(added).ok()?.parse().ok()?;
            return Some(Signature(0, added));
        }
    };
    let complete = kind == OpKind::Sparql || stable.ends_with(b"\"partial\":false");
    complete.then(|| Signature(hash(stable), stable.len()))
}

fn between<'a>(body: &'a [u8], start: &[u8], end: &[u8]) -> Option<&'a [u8]> {
    let from = find(body, start)? + start.len();
    let len = find(&body[from..], end)?;
    Some(&body[from..from + len])
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Eight bytes per step (join pages are hundreds of kilobytes and the
/// client threads share the cores with the server).
fn hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        h = (h ^ word)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(29);
    }
    for byte in chunks.remainder() {
        h = (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (h >> 32)
}

/// Read the answers and boolean verdict out of an ask or federated response.
fn parse_answer(body: &str) -> Result<SystemAnswer, String> {
    let doc = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    let answers = doc
        .get("answers")
        .and_then(Json::as_array)
        .ok_or("response has no \"answers\" array")?
        .iter()
        // Federated answers wrap the term: {"term": …, "score": …, "kgs": …}.
        .map(|entry| parse_term(entry.get("term").unwrap_or(entry)))
        .collect::<Result<Vec<Term>, String>>()?;
    Ok(SystemAnswer {
        answers,
        boolean: doc.get("boolean").and_then(Json::as_bool),
        understanding_ok: true,
        phase_seconds: None,
    })
}

/// A SPARQL-JSON term back into a [`Term`].
fn parse_term(term: &Json) -> Result<Term, String> {
    let field = |key: &str| term.get(key).and_then(Json::as_str);
    let value = field("value").ok_or("term without a value")?;
    Ok(match field("type") {
        Some("uri") => Term::iri(value),
        Some("bnode") => Term::blank(value),
        Some("literal") => match (field("datatype"), field("xml:lang")) {
            (Some(datatype), _) => Term::literal_typed(value, datatype),
            (None, Some(lang)) => Term::literal_lang(value, lang),
            (None, None) => Term::literal_str(value),
        },
        other => return Err(format!("unknown term type {other:?}")),
    })
}

/// F1 of the served rows against the oracle's, as multisets.  Equal bodies
/// (the usual case: execution is byte-identical at any parallelism) need no
/// parsing.
fn rows_f1(served: &str, oracle: &str) -> Result<f64, String> {
    if served == oracle {
        return Ok(1.0);
    }
    let (mut served, mut oracle) = (row_multiset(served)?, row_multiset(oracle)?);
    served.sort();
    oracle.sort();
    let (mut i, mut j, mut common) = (0, 0, 0usize);
    while i < served.len() && j < oracle.len() {
        match served[i].cmp(&oracle[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    if served.is_empty() && oracle.is_empty() {
        return Ok(1.0);
    }
    let (precision, recall) = (
        common as f64 / served.len().max(1) as f64,
        common as f64 / oracle.len().max(1) as f64,
    );
    Ok(if common == 0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    })
}

fn row_multiset(body: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(body).map_err(|e| format!("SPARQL results are not JSON: {e}"))?;
    if let Some(boolean) = doc.get("boolean") {
        return Ok(vec![format!("{boolean:?}")]);
    }
    Ok(doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .ok_or("SPARQL results without bindings")?
        .iter()
        .map(|row| format!("{row:?}"))
        .collect())
}

/// Run `work`, returning its result and how long it took in seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_more_client_threads_than_cores() {
        assert!(check_client_threads(1).is_ok());
        assert!(check_client_threads(nproc()).is_ok());
        let err = check_client_threads(nproc() + 1).unwrap_err();
        assert!(err.contains("refusing to start"));
    }

    #[test]
    fn ask_signature_ignores_ids_and_timings_but_not_answers_or_partial() {
        let body = |id: &str, answer: &str, partial: bool, ms: f64| {
            format!(
                "{{\"id\":\"{id}\",\"kg\":\"K\",\"question\":\"q\",\"answers\":[{answer}],\"boolean\":null,\"partial\":{partial},\"elapsed_ms\":{ms},\"executed_queries\":2}}"
            )
        };
        let a = signature(OpKind::Ask, body("req-1", "\"x\"", false, 0.5).as_bytes());
        let b = signature(OpKind::Ask, body("req-9", "\"x\"", false, 7.25).as_bytes());
        let c = signature(OpKind::Ask, body("req-1", "\"y\"", false, 0.5).as_bytes());
        assert!(a.is_some());
        assert_eq!(a, b);
        assert_ne!(a, c);
        // A partial answer, an error body and a truncated body have none.
        assert_eq!(
            signature(OpKind::Ask, body("r", "\"x\"", true, 0.5).as_bytes()),
            None
        );
        assert_eq!(
            signature(OpKind::Ask, b"{\"error\":{\"status\":503}}"),
            None
        );
        assert_eq!(signature(OpKind::Ask, b"{\"id\":\"r\",\"answers\":["), None);
    }

    #[test]
    fn federate_and_ingest_signatures() {
        let fed = b"{\"id\":\"f\",\"question\":\"q\",\"answers\":[{\"term\":1,\"kgs\":[\"A\",\"B\"]}],\"boolean\":null,\"partial\":false,\"kgs\":[{\"kg\":\"A\",\"elapsed_ms\":3}]}";
        assert!(signature(OpKind::Federate, fed).is_some());
        let partial = String::from_utf8_lossy(fed).replace("\"partial\":false", "\"partial\":true");
        assert_eq!(signature(OpKind::Federate, partial.as_bytes()), None);
        let ack = b"{\"epoch\":4,\"added\":32,\"duplicates\":0}";
        assert_eq!(signature(OpKind::Ingest, ack), Some(Signature(0, 32)));
    }

    #[test]
    fn row_f1_compares_multisets() {
        let rows = |values: &[&str]| {
            let bindings: Vec<String> = values
                .iter()
                .map(|v| format!("{{\"x\":{{\"type\":\"uri\",\"value\":\"{v}\"}}}}"))
                .collect();
            format!(
                "{{\"head\":{{\"vars\":[\"x\"]}},\"results\":{{\"bindings\":[{}]}}}}",
                bindings.join(",")
            )
        };
        assert_eq!(
            rows_f1(&rows(&["a", "b"]), &rows(&["a", "b"])).unwrap(),
            1.0
        );
        // Same rows in another order are still all there.
        assert_eq!(
            rows_f1(&rows(&["b", "a"]), &rows(&["a", "b"])).unwrap(),
            1.0
        );
        // One of two rows wrong: precision = recall = 1/2.
        assert_eq!(
            rows_f1(&rows(&["a", "c"]), &rows(&["a", "b"])).unwrap(),
            0.5
        );
        // A duplicate the oracle does not have costs precision.
        assert!(rows_f1(&rows(&["a", "a"]), &rows(&["a"])).unwrap() < 1.0);
        assert_eq!(rows_f1(&rows(&[]), &rows(&["a"])).unwrap(), 0.0);
    }

    #[test]
    fn terms_round_trip_from_sparql_json() {
        let parse = |s: &str| parse_term(&Json::parse(s).unwrap()).unwrap();
        assert_eq!(
            parse(r#"{"type":"uri","value":"http://e/x"}"#),
            Term::iri("http://e/x")
        );
        assert_eq!(
            parse(
                r#"{"type":"literal","value":"1999-01-02","datatype":"http://www.w3.org/2001/XMLSchema#date"}"#
            ),
            Term::date("1999-01-02")
        );
        assert_eq!(
            parse(r#"{"type":"literal","value":"Danish"}"#),
            Term::literal_str("Danish")
        );
    }
}
