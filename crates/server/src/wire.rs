//! The JSON wire formats the front-end speaks.
//!
//! Three schemas, all written and parsed through the shared hand-rolled
//! [`kgqan_endpoint::json`] layer (the environment has no serde):
//!
//! * **ask** — `POST /kg/{name}/ask` takes `{"question": ..., "id"?,
//!   "deadline_ms"?, "max_queries"?}` and answers with the serialized
//!   [`AnswerResponse`]: answers as SPARQL-JSON terms, the boolean verdict
//!   for yes/no questions, the budget verdict, phase timings.
//! * **SPARQL results** — `GET/POST /kg/{name}/sparql` answers in the W3C
//!   *SPARQL 1.1 Query Results JSON Format*: `{"head": {"vars": [...]},
//!   "results": {"bindings": [...]}}` for SELECT, `{"head": {},
//!   "boolean": b}` for ASK.
//! * **errors** — every error body is `{"error": {"status": N,
//!   "message": ...}}`, with the status duplicated from the response line
//!   so bodies are self-describing in logs.
//!
//! # What a SPARQL-JSON cell costs
//!
//! A page of SELECT results is the largest body the server writes (a
//! 4 100-row page is ≈ 466 KB), so [`query_results_to_json`] writes it at
//! close to copy speed, in two passes over the table:
//!
//! * **Sizing.**  The first pass resolves every cell once and adds up the
//!   page's length, so the page is written into one allocation whatever
//!   the number of rows or the length of the terms.  The length is exact
//!   unless some text needs escaping, whose escapes then grow the buffer.
//! * **Keys.**  A binding's `"name":` is escaped once per table, and each
//!   kind of term object opens with a constant.
//! * **Text.**  A value is checked for `"`, `\` and control bytes eight
//!   bytes at a time; a clean value (nearly every IRI) is copied in one
//!   piece, and only one that needs escaping goes through
//!   [`write_json_string`].
//! * **Repeats.**  Each column keeps a direct-mapped memo of 256 slots
//!   from a term's *address* to the byte range of the cell that wrote it,
//!   and a repeat is one copy from within the page.  A cell borrows its
//!   term from the table's dictionary segment or side table, so equal
//!   addresses are the same term; two equal terms at different addresses
//!   are written twice, never wrongly.  A page of joins repeats its driving
//!   variable on nearly every row.
//!
//! The writer writes a `String` from `str` pieces, so nothing re-validates
//! UTF-8, and the `/sparql` route moves the body into the response as
//! bytes.  The bytes equal those of the term-by-term writer it replaced
//! (`tests/wire_properties.rs`), and its allocations are pinned
//! (`tests/wire_allocations.rs`).

use std::time::Duration;

use kgqan::{AnswerRequest, AnswerResponse, AnswerSource};
use kgqan_endpoint::json::{write_json_number, write_json_string, Json};
use kgqan_endpoint::EndpointDescription;
use kgqan_federate::{FederatedRequest, FederatedResponse, KgSelection, KgStatus};
use kgqan_rdf::{IngestReport, Term};
use kgqan_sparql::{QueryResults, ResultSet};

/// Parse the body of an ask request into an [`AnswerRequest`] targeting
/// `kg`.  Returns a human-readable message for the 400 body on failure.
pub fn parse_ask_request(body: &str, kg: &str) -> Result<AnswerRequest, String> {
    let (request, ()) = parse_ask_fields(body, |_| Ok(()))?;
    Ok(request.on_kg(kg))
}

/// Parse the body of `POST /federate/ask` into a [`FederatedRequest`].
///
/// The body is the ask body plus an optional `"kgs"` field: either the
/// string `"*"` (every registered KG, the default) or an array of KG
/// names.  Returns a human-readable message for the 400 body on failure.
pub fn parse_federate_request(body: &str) -> Result<FederatedRequest, String> {
    let (ask, kgs) = parse_ask_fields(body, |doc| match doc.get("kgs") {
        // Absent, or the explicit wildcard: every registered KG.
        None => Ok(KgSelection::All),
        Some(kgs) if kgs.as_str() == Some("*") => Ok(KgSelection::All),
        Some(kgs) => {
            let entries = kgs
                .as_array()
                .ok_or_else(|| "field \"kgs\" must be \"*\" or an array of KG names".to_string())?;
            let names = entries.iter().map(|entry| {
                let name = entry.as_str().map(str::to_string);
                name.ok_or_else(|| "field \"kgs\" must be an array of strings".to_string())
            });
            names.collect::<Result<_, _>>().map(KgSelection::Named)
        }
    })?;
    Ok(FederatedRequest {
        question: ask.question,
        kgs,
        deadline: ask.deadline,
        overrides: ask.overrides,
        id: ask.id,
    })
}

/// Parse the fields every ask body shares, in a fixed order: the required
/// non-empty `question`, then the route's own fields through `route`, then
/// the optional `id`, `deadline_ms` and `max_queries`.  The first wrong
/// field names the error.
fn parse_ask_fields<T>(
    body: &str,
    route: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<(AnswerRequest, T), String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let question = doc
        .get("question")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing required string field \"question\"".to_string())?;
    if question.trim().is_empty() {
        return Err("field \"question\" must not be empty".to_string());
    }
    let route = route(&doc)?;
    let mut request = AnswerRequest::new(question);
    if let Some(id) = doc.get("id") {
        let id = id.as_str().ok_or("field \"id\" must be a string")?;
        request.id = Some(id.to_string());
    }
    let number = |field: &str| {
        let value = doc.get(field).map(|value| {
            let n = value.as_u64();
            n.ok_or_else(|| format!("field \"{field}\" must be a non-negative number"))
        });
        value.transpose()
    };
    request.deadline = number("deadline_ms")?.map(Duration::from_millis);
    request.overrides.max_candidate_queries = number("max_queries")?.map(|n| n as usize);
    Ok((request, route))
}

/// The opening of each kind of term object, up to its `"value":`.
const IRI_OPENING: &str = "{\"type\":\"uri\",\"value\":";
const LITERAL_OPENING: &str = "{\"type\":\"literal\",\"value\":";
const BLANK_OPENING: &str = "{\"type\":\"bnode\",\"value\":";
const DATATYPE_KEY: &str = ",\"datatype\":";
const LANGUAGE_KEY: &str = ",\"xml:lang\":";

/// Append one RDF term in SPARQL-JSON form:
/// `{"type": "uri"|"literal"|"bnode", "value": ..., "datatype"?,
/// "xml:lang"?}`.
pub fn write_term(out: &mut String, term: &Term) {
    write_cell(out, "", term);
}

/// Append `key` (a binding's `"name":`, or nothing) and `term` as
/// [`write_term`] writes it.
#[inline]
fn write_cell(out: &mut String, key: &str, term: &Term) {
    out.push_str(key);
    match term {
        Term::Iri(iri) => {
            out.push_str(IRI_OPENING);
            push_json_string(out, iri);
        }
        Term::Literal(lit) => {
            out.push_str(LITERAL_OPENING);
            push_json_string(out, &lit.lexical);
            if let Some(dt) = &lit.datatype {
                out.push_str(DATATYPE_KEY);
                push_json_string(out, dt);
            }
            if let Some(lang) = &lit.language {
                out.push_str(LANGUAGE_KEY);
                push_json_string(out, lang);
            }
        }
        Term::Blank(label) => {
            out.push_str(BLANK_OPENING);
            push_json_string(out, label);
        }
    }
    out.push('}');
}

/// The bytes [`write_cell`] writes when no text of the term needs
/// escaping (fewer than it writes otherwise).
fn cell_len(key: &str, term: &Term) -> usize {
    let quoted = |text: &str| text.len() + 2;
    let term_len = match term {
        Term::Iri(iri) => IRI_OPENING.len() + quoted(iri),
        Term::Literal(lit) => {
            LITERAL_OPENING.len()
                + quoted(&lit.lexical)
                + lit
                    .datatype
                    .as_deref()
                    .map_or(0, |dt| DATATYPE_KEY.len() + quoted(dt))
                + lit
                    .language
                    .as_deref()
                    .map_or(0, |lang| LANGUAGE_KEY.len() + quoted(lang))
        }
        Term::Blank(label) => BLANK_OPENING.len() + quoted(label),
    };
    key.len() + term_len + "}".len()
}

/// The bytes [`write_json_string`] writes for `text`.
fn json_string_len(text: &str) -> usize {
    let escaped = text.bytes().map(|byte| match byte {
        b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
        0..=0x1f => 6,
        _ => 1,
    });
    "\"\"".len() + escaped.sum::<usize>()
}

/// Append `text` as a JSON string: one copy between two quotes when nothing
/// in it needs escaping, [`write_json_string`] otherwise.
#[inline]
fn push_json_string(out: &mut String, text: &str) {
    if needs_escape(text.as_bytes()) {
        write_json_string(out, text);
    } else {
        out.push('"');
        out.push_str(text);
        out.push('"');
    }
}

/// True if `bytes` holds a byte a JSON string must escape: `"`, `\` or a
/// control byte below 0x20.  Eight bytes a step, each word tested with the
/// exact "has a byte below n" and "has a zero byte" bit tricks; a tail
/// shorter than a word is tested as the last eight bytes, overlapping the
/// words before it.
#[inline]
fn needs_escape(bytes: &[u8]) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let flagged = |word: u64| {
        let below_space = word.wrapping_sub(ONES * 0x20);
        let quote = word ^ (ONES * u64::from(b'"'));
        let backslash = word ^ (ONES * u64::from(b'\\'));
        let zero_in = |x: u64| x.wrapping_sub(ONES) & !x;
        ((below_space & !word) | zero_in(quote) | zero_in(backslash)) & HIGH != 0
    };
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
    if bytes.len() < 8 {
        return bytes.iter().any(|&b| b == b'"' || b == b'\\' || b < 0x20);
    }
    let mut words = bytes.chunks_exact(8);
    let tail = !words.remainder().is_empty();
    words.any(|chunk| flagged(word(chunk))) || (tail && flagged(word(&bytes[bytes.len() - 8..])))
}

/// Serialize an [`AnswerResponse`] as the ask-route response body.
pub fn answer_response_to_json(response: &AnswerResponse) -> String {
    let mut out = String::from("{\"id\":");
    write_json_string(&mut out, &response.request_id);
    out.push_str(",\"kg\":");
    write_json_string(&mut out, &response.kg);
    out.push_str(",\"question\":");
    write_json_string(&mut out, &response.question);
    out.push_str(",\"answers\":[");
    for (i, term) in response.answers().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_term(&mut out, term);
    }
    out.push_str("],\"boolean\":");
    match response.boolean() {
        Some(true) => out.push_str("true"),
        Some(false) => out.push_str("false"),
        None => out.push_str("null"),
    }
    out.push_str(",\"partial\":");
    out.push_str(if response.is_partial() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"elapsed_ms\":");
    write_json_number(&mut out, response.elapsed.as_secs_f64() * 1e3);
    out.push_str(",\"executed_queries\":");
    write_json_number(&mut out, response.trace.execution.query_stats.len() as f64);
    out.push_str(",\"answer_scores\":[");
    for (i, score) in response.answer_scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_number(&mut out, *score);
    }
    out.push_str("],\"sources\":");
    write_sources(&mut out, &response.sources);
    out.push('}');
    out
}

/// Append an array of [`AnswerSource`] provenance entries.
fn write_sources(out: &mut String, sources: &[AnswerSource]) {
    out.push('[');
    for (i, source) in sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kg\":");
        write_json_string(out, &source.kg);
        out.push_str(",\"epoch\":");
        match source.epoch {
            Some(epoch) => write_json_number(out, epoch as f64),
            None => out.push_str("null"),
        }
        out.push_str(",\"elapsed_ms\":");
        write_json_number(out, source.elapsed.as_secs_f64() * 1e3);
        out.push_str(",\"plan_rows\":");
        write_json_number(out, source.plan_rows as f64);
        out.push('}');
    }
    out.push(']');
}

/// Serialize a [`FederatedResponse`] as the `POST /federate/ask` body:
/// merged provenance-tagged answers plus one status entry per selected KG.
pub fn federated_response_to_json(response: &FederatedResponse) -> String {
    let mut out = String::from("{\"id\":");
    write_json_string(&mut out, &response.request_id);
    out.push_str(",\"question\":");
    write_json_string(&mut out, &response.question);
    out.push_str(",\"answers\":[");
    for (i, answer) in response.answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"term\":");
        write_term(&mut out, &answer.term);
        out.push_str(",\"score\":");
        write_json_number(&mut out, answer.score);
        out.push_str(",\"kgs\":[");
        for (j, kg) in answer.kgs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_string(&mut out, kg);
        }
        out.push_str("]}");
    }
    out.push_str("],\"boolean\":");
    match response.boolean {
        Some(true) => out.push_str("true"),
        Some(false) => out.push_str("false"),
        None => out.push_str("null"),
    }
    out.push_str(",\"partial\":");
    out.push_str(if response.is_partial() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"kgs\":[");
    for (i, report) in response.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kg\":");
        write_json_string(&mut out, &report.kg);
        out.push_str(",\"status\":");
        write_json_string(&mut out, report.status.label());
        out.push_str(",\"http_status\":");
        write_json_number(&mut out, f64::from(report.status.http_status()));
        out.push_str(",\"elapsed_ms\":");
        write_json_number(&mut out, report.elapsed.as_secs_f64() * 1e3);
        out.push_str(",\"answers\":");
        write_json_number(&mut out, report.answers as f64);
        match &report.status {
            KgStatus::Unknown { available } => {
                out.push_str(",\"available\":[");
                for (j, name) in available.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, name);
                }
                out.push(']');
            }
            KgStatus::Failed { message } => {
                out.push_str(",\"message\":");
                write_json_string(&mut out, message);
            }
            KgStatus::Answered | KgStatus::Partial => {}
        }
        out.push('}');
    }
    out.push_str("],\"sources\":");
    write_sources(&mut out, &response.sources);
    out.push_str(",\"elapsed_ms\":");
    write_json_number(&mut out, response.elapsed.as_secs_f64() * 1e3);
    out.push('}');
    out
}

/// Serialize the `GET /kg` listing: one entry per registered KG with its
/// serving epoch and triple count (both `null` for endpoints that expose
/// no description).
pub fn kg_list_to_json(kgs: &[(String, Option<EndpointDescription>)]) -> String {
    let mut out = String::from("{\"kgs\":[");
    for (i, (name, description)) in kgs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(&mut out, name);
        match description {
            Some(d) => {
                out.push_str(",\"epoch\":");
                write_json_number(&mut out, d.epoch as f64);
                out.push_str(",\"triples\":");
                write_json_number(&mut out, d.triples as f64);
            }
            None => out.push_str(",\"epoch\":null,\"triples\":null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Serialize query results in the W3C SPARQL 1.1 JSON results format.
pub fn query_results_to_json(results: &QueryResults) -> String {
    let mut out = String::new();
    write_query_results(&mut out, results);
    out
}

/// Append query results in the W3C SPARQL 1.1 JSON results format.
fn write_query_results(out: &mut String, results: &QueryResults) {
    match results {
        QueryResults::Boolean(b) => {
            out.push_str(if *b {
                "{\"head\":{},\"boolean\":true}"
            } else {
                "{\"head\":{},\"boolean\":false}"
            });
        }
        QueryResults::Solutions(rs) => write_solutions(out, rs),
    }
}

const HEAD_OPEN: &str = "{\"head\":{\"vars\":[";
const BINDINGS_OPEN: &str = "]},\"results\":{\"bindings\":[";

/// Slots in a column's memo (a power of two).
const MEMO_SLOTS: usize = 256;

/// A column memo slot: the address of a term this page has written in the
/// column, and where: the byte range of its cell (`"name":{…}`) in the page.
/// Address 0 is no term's, so the zeroed slot is empty.
#[derive(Clone, Copy, Default)]
struct MemoSlot {
    term: usize,
    start: usize,
    end: usize,
}

/// The memo slot of a term's address: its top bits after a multiplicative
/// (Fibonacci) hash, so terms side by side in a dictionary segment take
/// different slots.
fn memo_slot(term: usize) -> usize {
    let hash = (term as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (hash >> (u64::BITS - MEMO_SLOTS.trailing_zeros())) as usize
}

/// Append a SELECT table: the head, then one binding object a row, its
/// bound cells in variable-name order, one per distinct name (the stable
/// sort and dedup of the table's own name order, which `Row::iter` reads).
///
/// Two passes.  The first resolves every cell once and sizes the page, so
/// the second writes it into one allocation.  The size is exact unless some
/// text needs escaping, whose escapes then grow the buffer.
fn write_solutions(out: &mut String, rs: &ResultSet) {
    let variables = rs.variables();
    let mut by_name: Vec<usize> = (0..variables.len()).collect();
    by_name.sort_by_key(|&column| &variables[column]);
    by_name.dedup_by_key(|column| &variables[*column]);
    // A cell's key, `"name":`, per distinct name.
    let keys: Vec<String> = by_name
        .iter()
        .map(|&column| {
            let name = &variables[column];
            let mut key = String::with_capacity(json_string_len(name) + ":".len());
            write_json_string(&mut key, name);
            key.push(':');
            key
        })
        .collect();

    // Sizing pass.
    let width = by_name.len();
    let rows = rs.len();
    let mut cells: Vec<Option<&Term>> = Vec::with_capacity(rows * width);
    let names: usize = variables.iter().map(|name| json_string_len(name)).sum();
    let mut len = HEAD_OPEN.len() + names + variables.len().saturating_sub(1);
    len += BINDINGS_OPEN.len() + "]}}".len();
    len += rows * "{}".len() + rows.saturating_sub(1);
    for row in rs.rows() {
        let mut bound = 0usize;
        for (&column, key) in by_name.iter().zip(&keys) {
            let cell = row.cell(column);
            if let Some(term) = cell {
                len += cell_len(key, term);
                bound += 1;
            }
            cells.push(cell);
        }
        len += bound.saturating_sub(1);
    }
    out.reserve(len);
    let start = out.len();

    out.push_str(HEAD_OPEN);
    for (i, name) in variables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, name);
    }
    out.push_str(BINDINGS_OPEN);
    // Writing pass.  A term a column has written before is copied from an
    // earlier cell: each column keeps a direct-mapped memo from the term's
    // address (a cell borrows its term from the table's dictionary or side
    // table, so one address is one term) to that cell's bytes.
    let mut memo = vec![MemoSlot::default(); width * MEMO_SLOTS];
    for i in 0..rows {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        for (k, cell) in cells[i * width..(i + 1) * width].iter().enumerate() {
            let Some(term) = cell else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let address = std::ptr::from_ref::<Term>(term) as usize;
            let slot = &mut memo[k * MEMO_SLOTS + memo_slot(address)];
            if slot.term == address {
                out.extend_from_within(slot.start..slot.end);
            } else {
                let cell_start = out.len();
                write_cell(out, &keys[k], term);
                *slot = MemoSlot {
                    term: address,
                    start: cell_start,
                    end: out.len(),
                };
            }
        }
        out.push('}');
    }
    out.push_str("]}}");
    debug_assert!(
        out.len() - start >= len,
        "the sizing pass counts no byte too many"
    );
}

/// Serialize a traced query for the `?explain=1` SPARQL route: the W3C
/// results under `"results"`, the physical plan as `{depth, label,
/// estimate}` operator lines, and the executor's work counters.
pub fn traced_query_to_json(traced: &kgqan_endpoint::TracedQuery) -> String {
    let mut out = String::from("{\"results\":");
    write_query_results(&mut out, &traced.results);
    out.push_str(",\"plan\":");
    match &traced.plan {
        Some(plan) => {
            out.push('[');
            for (i, op) in plan.ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"depth\":");
                write_json_number(&mut out, op.depth as f64);
                out.push_str(",\"label\":");
                write_json_string(&mut out, &op.label);
                out.push_str(",\"estimate\":");
                match op.estimate {
                    Some(estimate) => write_json_number(&mut out, estimate),
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"metrics\":");
    match &traced.metrics {
        Some(metrics) => {
            out.push_str("{\"rows_scanned\":");
            write_json_number(&mut out, metrics.rows_scanned as f64);
            out.push_str(",\"rows_emitted\":");
            write_json_number(&mut out, metrics.rows_emitted as f64);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Serialize an ingest report.
pub fn ingest_report_to_json(report: &IngestReport) -> String {
    let mut out = String::from("{\"epoch\":");
    write_json_number(&mut out, report.epoch() as f64);
    out.push_str(",\"added\":");
    write_json_number(&mut out, report.added() as f64);
    out.push_str(",\"duplicates\":");
    write_json_number(&mut out, report.duplicates() as f64);
    out.push('}');
    out
}

/// The uniform error body: `{"error": {"status": N, "message": ...}}`.
pub fn error_body(status: u16, message: &str) -> String {
    let mut out = format!("{{\"error\":{{\"status\":{status},\"message\":");
    write_json_string(&mut out, message);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_rdf::Literal;

    #[test]
    fn parses_ask_request_fields() {
        let req = parse_ask_request(
            r#"{"question": "Who?", "id": "r1", "deadline_ms": 250, "max_queries": 7}"#,
            "DBpedia",
        )
        .unwrap();
        assert_eq!(req.question, "Who?");
        assert_eq!(req.kg.as_deref(), Some("DBpedia"));
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert_eq!(req.overrides.max_candidate_queries, Some(7));
    }

    #[test]
    fn rejects_bad_ask_bodies() {
        assert!(parse_ask_request("", "X").is_err());
        assert!(parse_ask_request("{}", "X").is_err());
        assert!(parse_ask_request(r#"{"question": ""}"#, "X").is_err());
        assert!(parse_ask_request(r#"{"question": 42}"#, "X").is_err());
        assert!(parse_ask_request(r#"{"question": "q", "deadline_ms": "soon"}"#, "X").is_err());
        assert!(parse_ask_request(r#"{"question": "q", "id": 9}"#, "X").is_err());
    }

    #[test]
    fn terms_serialize_in_sparql_json_form() {
        let mut out = String::new();
        write_term(&mut out, &Term::iri("http://e/Baltic_Sea"));
        assert_eq!(out, r#"{"type":"uri","value":"http://e/Baltic_Sea"}"#);

        let mut out = String::new();
        write_term(&mut out, &Term::blank("b0"));
        assert_eq!(out, r#"{"type":"bnode","value":"b0"}"#);

        let mut out = String::new();
        write_term(
            &mut out,
            &Term::Literal(Literal::typed(
                "12",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
        );
        let parsed = Json::parse(&out).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("literal"));
        assert_eq!(parsed.get("value").and_then(Json::as_str), Some("12"));
        assert!(parsed.get("datatype").is_some());

        let mut out = String::new();
        write_term(&mut out, &Term::literal_lang("Ostsee", "de"));
        let parsed = Json::parse(&out).unwrap();
        assert_eq!(parsed.get("xml:lang").and_then(Json::as_str), Some("de"));
    }

    #[test]
    fn sparql_select_results_match_w3c_shape() {
        use kgqan_sparql::ResultSet;
        let rs = ResultSet::new(
            vec!["sea".into()],
            1,
            vec![Some(Term::iri("http://e/Baltic_Sea"))],
        );
        let body = query_results_to_json(&QueryResults::Solutions(rs));
        let parsed = Json::parse(&body).unwrap();
        let vars = parsed
            .get("head")
            .and_then(|h| h.get("vars"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(vars[0].as_str(), Some("sea"));
        let bindings = parsed
            .get("results")
            .and_then(|r| r.get("bindings"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(
            bindings[0]
                .get("sea")
                .and_then(|t| t.get("value"))
                .and_then(Json::as_str),
            Some("http://e/Baltic_Sea")
        );

        let ask = query_results_to_json(&QueryResults::Boolean(true));
        assert_eq!(ask, r#"{"head":{},"boolean":true}"#);
    }

    #[test]
    fn the_escape_scan_flags_exactly_the_bytes_json_escapes() {
        let escapes = |byte: u8| byte == b'"' || byte == b'\\' || byte < 0x20;
        // Every byte value at every position of texts of 1 to 17 bytes: the
        // scan's whole words, its overlapping tail and its short path.
        for len in 1..=17 {
            for at in 0..len {
                for byte in 0..=u8::MAX {
                    let mut text = vec![b'a'; len];
                    text[at] = byte;
                    assert_eq!(
                        needs_escape(&text),
                        escapes(byte),
                        "{byte:#x} at {at} of {len}"
                    );
                }
            }
        }
        assert!(!needs_escape(b""));
        assert!(!needs_escape(
            "http://e/Ostsee_\u{e9}\u{65e5}\u{7f}".as_bytes()
        ));
    }

    #[test]
    fn string_lengths_match_the_escaper() {
        for text in ["", "plain", "q\"b\\n\nr\rt\t", "\u{0}\u{1f}\u{7f}\u{e9}"] {
            let mut out = String::new();
            write_json_string(&mut out, text);
            assert_eq!(json_string_len(text), out.len(), "{text:?}");
        }
    }

    #[test]
    fn parses_federate_request_selections() {
        use kgqan_federate::KgSelection;

        let all = parse_federate_request(r#"{"question": "Who?"}"#).unwrap();
        assert_eq!(all.kgs, KgSelection::All);

        let star = parse_federate_request(r#"{"question": "Who?", "kgs": "*"}"#).unwrap();
        assert_eq!(star.kgs, KgSelection::All);

        let named = parse_federate_request(
            r#"{"question": "Who?", "kgs": ["DBpedia", "Wikidata"], "deadline_ms": 300, "id": "f1"}"#,
        )
        .unwrap();
        assert_eq!(
            named.kgs,
            KgSelection::Named(vec!["DBpedia".to_string(), "Wikidata".to_string()])
        );
        assert_eq!(named.deadline, Some(Duration::from_millis(300)));
        assert_eq!(named.id.as_deref(), Some("f1"));

        assert!(parse_federate_request(r#"{"kgs": ["DBpedia"]}"#).is_err());
        assert!(parse_federate_request(r#"{"question": "q", "kgs": 7}"#).is_err());
        assert!(parse_federate_request(r#"{"question": "q", "kgs": [7]}"#).is_err());
    }

    #[test]
    fn federated_response_serializes_reports_and_sources() {
        use kgqan::{AnswerSource, BudgetVerdict};
        use kgqan_federate::{FederatedAnswer, FederatedResponse, KgReport, KgStatus};

        let response = FederatedResponse {
            request_id: "f1".into(),
            question: "Who is the wife of Barack Obama?".into(),
            answers: vec![FederatedAnswer {
                term: Term::iri("http://dbpedia.org/resource/Michelle_Obama"),
                score: 0.875,
                kgs: vec!["DBpedia".into(), "Mirror".into()],
            }],
            boolean: None,
            verdict: BudgetVerdict::Partial,
            reports: vec![
                KgReport {
                    kg: "DBpedia".into(),
                    status: KgStatus::Answered,
                    elapsed: Duration::from_millis(12),
                    answers: 1,
                },
                KgReport {
                    kg: "YAGO".into(),
                    status: KgStatus::Unknown {
                        available: vec!["DBpedia".into(), "Mirror".into()],
                    },
                    elapsed: Duration::ZERO,
                    answers: 0,
                },
            ],
            sources: vec![AnswerSource {
                kg: "DBpedia".into(),
                epoch: Some(3),
                elapsed: Duration::from_millis(12),
                plan_rows: 42,
            }],
            elapsed: Duration::from_millis(15),
        };
        let body = federated_response_to_json(&response);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("partial"), Some(&Json::Bool(true)));
        let answers = parsed.get("answers").and_then(Json::as_array).unwrap();
        let kgs = answers[0].get("kgs").and_then(Json::as_array).unwrap();
        assert_eq!(kgs.len(), 2);
        let reports = parsed.get("kgs").and_then(Json::as_array).unwrap();
        assert_eq!(
            reports[1].get("http_status").and_then(Json::as_u64),
            Some(404)
        );
        assert_eq!(
            reports[1].get("status").and_then(Json::as_str),
            Some("unknown")
        );
        assert!(reports[1]
            .get("available")
            .and_then(Json::as_array)
            .is_some());
        let sources = parsed.get("sources").and_then(Json::as_array).unwrap();
        assert_eq!(sources[0].get("epoch").and_then(Json::as_u64), Some(3));
        assert_eq!(sources[0].get("plan_rows").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn kg_listing_serializes_epochs_and_sizes() {
        let body = kg_list_to_json(&[
            (
                "DBpedia".to_string(),
                Some(EndpointDescription {
                    epoch: 2,
                    triples: 1234,
                }),
            ),
            ("Opaque".to_string(), None),
        ]);
        let parsed = Json::parse(&body).unwrap();
        let kgs = parsed.get("kgs").and_then(Json::as_array).unwrap();
        assert_eq!(kgs[0].get("name").and_then(Json::as_str), Some("DBpedia"));
        assert_eq!(kgs[0].get("epoch").and_then(Json::as_u64), Some(2));
        assert_eq!(kgs[0].get("triples").and_then(Json::as_u64), Some(1234));
        assert_eq!(kgs[1].get("epoch"), Some(&Json::Null));
    }

    #[test]
    fn error_body_is_self_describing() {
        let body = error_body(404, "unknown endpoint: YAGO");
        let parsed = Json::parse(&body).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("status").and_then(Json::as_u64), Some(404));
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("YAGO"));
    }
}
