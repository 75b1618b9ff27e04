//! The five workloads: what each one sends, generated from `--seed`.
//!
//! A workload is a set of distinct operations (`ops`), the order in which
//! the clients issue them (`stream`, cycled), the writes that go out at fixed
//! times beside them (`writes`) and the subset checked once before timing
//! starts (`verify`).  The
//! program under test sees only the requests; gold answers, the oracle and
//! the schedule stay on this side.

use std::time::Duration;

use crate::sampling::{SplitMix64, Zipf};
use crate::seams::{
    questions_for, serialize_ntriples, vocab, write_json_string, BenchmarkQuestion, GeneratedKg,
    KgFlavor, KgScale, PredicateVocabulary, Store, Term, Triple, ZipfKg, ZipfKgConfig, CATEGORY,
    LINKS,
};

/// The seed used when none is given; `PINS` holds the input digests for it.
pub const DEFAULT_SEED: u64 = 20_230_613;
/// The measured window `BENCHMARK.json` fixes (`run_seconds`).
pub const DEFAULT_SECONDS: u64 = 15;

/// Name and one-line reason of every workload, as in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ask_cold",
        "3600 distinct MAG questions cycled, so the semantic cache thrashes: linking probes, text search and candidate execution do the work, the serve path is under 5 %",
    ),
    (
        "ask_hot",
        "64 DBpedia questions drawn Zipf(1.1): every endpoint call is a cache hit, so understanding, affinity scoring over cached probes and the socket/admission/pool hops are the request",
    ),
    (
        "sparql_join",
        "two-hop joins over a 400k-triple Zipf KG with more distinct constants than the result cache holds: parser, planner, executor, scans and the JSON writer; nlp and core are bypassed",
    ),
    (
        "federate_hot",
        "the ask_hot stream fanned out to three KGs: engine work is cached away, so the ratio to ask_hot is the fan-out and merge overhead and the slowest leg sets the time",
    ),
    (
        "ask_under_ingest",
        "the ask_hot stream beside 40 ingest batches/s that evict what the questions cached: snapshot publication, scoped invalidation and reader slowdown show as throughput, p95 and failures",
    ),
];

/// Input digests (hash of the request list, schedule and KG triple counts)
/// and verification-pass macro F1 for [`DEFAULT_SEED`] at
/// [`DEFAULT_SECONDS`].  A later edit to the question or KG generators in
/// `crates/` changes a digest, and the run then reports `correct: false`
/// instead of silently measuring another workload.  The F1 of the fixed
/// verification sets does not depend on the seed; a run whose F1 falls below
/// it is not correct.
pub const PINS: [(&str, &str, f64); 5] = [
    ("ask_cold", "4dc9bd48874caf5f", 0.41796875),
    ("ask_hot", "e99134031963b566", 0.8125),
    ("sparql_join", "63443c01452874e3", 1.0),
    ("federate_hot", "3b5ee69aa2022418", 0.645_833_333_333_333_4),
    ("ask_under_ingest", "380e0255b13b1599", 0.8125),
];

/// Requests per `--trace 1` pass and per set-up warm-up: fixed counts, so
/// span counts and the cache state at the start of timing repeat exactly.
/// Cold questions and joins cost milliseconds each, so they send fewer.
fn trace_and_warmup_requests(workload: &str) -> (usize, usize) {
    match workload {
        "ask_cold" | "sparql_join" => (1000, 128),
        _ => (2000, 512),
    }
}

/// Hot-set size and skew of the `ask_hot` stream.
pub const HOT_QUESTIONS: usize = 64;
pub const HOT_ZIPF_EXPONENT: f64 = 1.1;
/// Distinct cold questions (the cache holds 2048 probes + 1024 results; one
/// question issues about 28 look-ups).
pub const COLD_QUESTIONS: usize = 3600;
/// Requests checked against gold before timing starts, where the working
/// set is too large to check whole.
pub const VERIFY_SAMPLE: usize = 256;
/// Write rate and batch size of `ask_under_ingest`.
pub const INGEST_BATCHES_PER_S: f64 = 40.0;
pub const INGEST_BATCH_TRIPLES: usize = 32;
/// Reads between two batches in the fixed sequence of the traced run (what
/// two clients get through between two batches of the timed window).
pub const TRACE_READS_PER_BATCH: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Ask,
    Federate,
    Sparql,
    Ingest,
}

/// One distinct operation of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub path: &'static str,
    pub content_type: &'static str,
    pub body: String,
    /// Ask/federate: index of the question in [`Inputs::gold`].
    pub gold: Option<usize>,
    /// SPARQL: the template the query was generated from.
    pub template: &'static str,
    /// Ingest: the triples of the batch (first one is probed for visibility).
    pub triples: Vec<Triple>,
}

/// One entry of the issue order.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub op: u32,
    /// Writes: when the batch is due, from the start of the window.
    pub due: Duration,
}

/// One KG the server is started over.
pub struct KgInput {
    pub name: &'static str,
    pub store: Store,
}

pub struct Inputs {
    pub workload: &'static str,
    pub ops: Vec<Op>,
    pub stream: Vec<Event>,
    /// Ingest batches with their due times, ascending.
    pub writes: Vec<Event>,
    /// Ops of the verification pass, in order.
    pub verify: Vec<u32>,
    /// Gold data of the questions asked.
    pub gold: Vec<BenchmarkQuestion>,
    pub kgs: Vec<KgInput>,
    /// KG that single-KG asks, SPARQL and ingest target.
    pub kg: &'static str,
    pub clients: usize,
    pub trace_requests: usize,
    /// Stream requests each set-up sends after the verification pass, so
    /// caches, pools and connections are in their steady state.
    pub warmup_requests: usize,
    /// Hash of the request list, schedule and KG triple counts.
    pub digest: String,
    /// Predicate vocabulary of the general-fact KG (ingest reuses it).
    pub vocabulary: Option<PredicateVocabulary>,
}

impl Inputs {
    /// The fixed sequence of the traced run: `n` events, the stream in issue
    /// order from position `from` on (where the warm-up stopped, as the timed
    /// window starts) with the next batch after every
    /// [`TRACE_READS_PER_BATCH`] reads.
    pub fn events(&self, from: usize, n: usize) -> Vec<Event> {
        let mut reads = self.stream.iter().cycle().skip(from);
        let mut writes = self.writes.iter();
        let mut events = Vec::with_capacity(n);
        while events.len() < n {
            events.extend(reads.by_ref().take(TRACE_READS_PER_BATCH).copied());
            events.extend(writes.next().copied());
        }
        events.truncate(n);
        events
    }
}

pub fn generate(workload: &str, seed: u64, seconds: u64) -> Result<Inputs, String> {
    let name = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .find(|name| *name == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {workload:?}; choose one of {}",
                WORKLOADS.map(|(name, _)| name).join(", ")
            )
        })?;
    let mut rng = SplitMix64::new(seed);
    let mut inputs = match name {
        "ask_cold" => ask_cold(&mut rng),
        "ask_hot" => ask_hot(&mut rng, OpKind::Ask),
        "federate_hot" => ask_hot(&mut rng, OpKind::Federate),
        "ask_under_ingest" => ask_under_ingest(&mut rng, seconds),
        _ => sparql_join(&mut rng),
    };
    inputs.workload = name;
    (inputs.trace_requests, inputs.warmup_requests) = trace_and_warmup_requests(name);
    inputs.digest = digest(&inputs);
    Ok(inputs)
}

fn ask_body(question: &str, federate: bool) -> String {
    let mut body = String::from("{\"question\":");
    write_json_string(&mut body, question);
    if federate {
        body.push_str(",\"kgs\":\"*\"");
    }
    body.push('}');
    body
}

fn ask_op(kind: OpKind, path: &'static str, question: &BenchmarkQuestion, gold: usize) -> Op {
    Op {
        kind,
        path,
        content_type: "application/json",
        body: ask_body(&question.text, kind == OpKind::Federate),
        gold: Some(gold),
        template: "",
        triples: Vec::new(),
    }
}

/// `ask_cold`: every generated MAG question once per cycle, in a seeded
/// order; the verification pass checks the first [`VERIFY_SAMPLE`] by id.
fn ask_cold(rng: &mut SplitMix64) -> Inputs {
    let kg = GeneratedKg::generate(KgFlavor::Mag, KgScale::benchmark(KgFlavor::Mag));
    let gold = questions_for(&kg, COLD_QUESTIONS).questions;
    let ops: Vec<Op> = gold
        .iter()
        .enumerate()
        .map(|(i, q)| ask_op(OpKind::Ask, "/kg/MAG/ask", q, i))
        .collect();
    let mut order: Vec<u32> = (0..ops.len() as u32).collect();
    rng.fork("shuffle").shuffle(&mut order);
    Inputs {
        stream: order.into_iter().map(closed).collect(),
        verify: (0..VERIFY_SAMPLE as u32).collect(),
        ops,
        gold,
        kgs: vec![KgInput {
            name: "MAG",
            store: kg.store,
        }],
        kg: "MAG",
        ..Inputs::empty()
    }
}

fn closed(op: u32) -> Event {
    Event {
        op,
        due: Duration::ZERO,
    }
}

/// The 64-question hot set over the DBpedia flavour and a Zipf(1.1) draw
/// sequence over it.  `kind` selects single-KG asks or the federated route
/// (which adds the mirror and the YAGO-flavour leg).
fn ask_hot(rng: &mut SplitMix64, kind: OpKind) -> Inputs {
    let flavor = KgFlavor::Dbpedia10;
    let kg = GeneratedKg::generate(flavor, KgScale::benchmark(flavor));
    let gold = questions_for(&kg, HOT_QUESTIONS).questions;
    let path = if kind == OpKind::Federate {
        "/federate/ask"
    } else {
        "/kg/DBpedia/ask"
    };
    let ops: Vec<Op> = gold
        .iter()
        .enumerate()
        .map(|(i, q)| ask_op(kind, path, q, i))
        .collect();

    // Rank r asks question r (the generator cycles its 12 templates, so the
    // hottest ranks cover all of them).  Which question holds which rank is
    // the same on every seed: answering cost differs several-fold between
    // questions, and a seed that moved another question to rank 0 would move
    // every latency metric by more than any change under test.  The seed
    // drives the draws.
    let zipf = Zipf::new(ops.len(), HOT_ZIPF_EXPONENT);
    let mut draws = rng.fork("zipf");
    let stream = (0..1 << 15)
        .map(|_| closed(zipf.rank(draws.next_f64()) as u32))
        .collect();

    let mut kgs = vec![KgInput {
        name: "DBpedia",
        store: kg.store.clone(),
    }];
    if kind == OpKind::Federate {
        kgs.push(KgInput {
            name: "Mirror",
            store: kg.store.clone(),
        });
        kgs.push(KgInput {
            name: "YAGO",
            store: GeneratedKg::generate(KgFlavor::Yago, KgScale::benchmark(KgFlavor::Yago)).store,
        });
    }
    Inputs {
        stream,
        verify: (0..ops.len() as u32).collect(),
        ops,
        gold,
        kgs,
        kg: "DBpedia",
        vocabulary: kg.predicates,
        ..Inputs::empty()
    }
}

/// `ask_under_ingest`: the hot stream beside an ingest batch every 25 ms.
/// The batches describe *new* people, cities and countries wired with the
/// predicates the questions ask about (so scoped invalidation has cached
/// queries to evict), under labels made of tokens no question contains (so
/// no answer changes).
fn ask_under_ingest(rng: &mut SplitMix64, seconds: u64) -> Inputs {
    let mut inputs = ask_hot(rng, OpKind::Ask);
    let vocabulary = inputs
        .vocabulary
        .clone()
        .expect("the DBpedia flavour carries a predicate vocabulary");
    let batches = (INGEST_BATCHES_PER_S * seconds as f64) as usize;
    let mut tags = rng.fork("ingest");
    for batch in 0..batches {
        let triples = ingest_batch(&vocabulary, batch, tags.next_u64());
        inputs.writes.push(Event {
            op: inputs.ops.len() as u32,
            due: Duration::from_secs_f64((batch as f64 + 0.5) / INGEST_BATCHES_PER_S),
        });
        inputs.ops.push(Op {
            kind: OpKind::Ingest,
            path: "/kg/DBpedia/ingest",
            content_type: "application/n-triples",
            body: serialize_ntriples(&triples),
            gold: None,
            template: "",
            triples,
        });
    }
    inputs
}

/// One batch of [`INGEST_BATCH_TRIPLES`] triples about entities that exist
/// nowhere else: four groups of (person, spouse, city, country), eight
/// triples each.
fn ingest_batch(voc: &PredicateVocabulary, batch: usize, tag: u64) -> Vec<Triple> {
    let iri = |kind: &str, group: usize| {
        Term::iri(format!(
            "{}Zqx_{kind}_{batch}_{group}_{tag:016x}",
            voc.entity_ns
        ))
    };
    let class = |name: &str| Term::iri(format!("{}{name}", voc.class_ns));
    let pred = |p: &str| Term::iri(p);
    let mut triples = Vec::with_capacity(INGEST_BATCH_TRIPLES);
    for group in 0..INGEST_BATCH_TRIPLES / 8 {
        let (person, spouse) = (iri("person", group), iri("spouse", group));
        let (city, country) = (iri("city", group), iri("country", group));
        triples.extend([
            // The label is one opaque token, so no question's text probe
            // matches it.
            Triple::new(
                person.clone(),
                pred(&voc.label),
                Term::literal_str(format!("zqx{batch}g{group}t{tag:x}")),
            ),
            Triple::new(person.clone(), Term::iri(vocab::RDF_TYPE), class("Person")),
            Triple::new(city.clone(), Term::iri(vocab::RDF_TYPE), class("City")),
            Triple::new(person.clone(), pred(&voc.spouse), spouse),
            Triple::new(person.clone(), pred(&voc.birth_place), city.clone()),
            Triple::new(city.clone(), pred(&voc.mayor), person),
            Triple::new(city.clone(), pred(&voc.country), country.clone()),
            Triple::new(country, pred(&voc.capital), city),
        ]);
    }
    triples
}

/// Zipf KG of `sparql_join`.  One KG for every seed: another `kggen` seed
/// moves the hubs, and with them every join's cost, by more than the bounds;
/// the seed drives the page sizes and the issue order instead.
const JOIN_KG_SEED: u64 = 0x5eed_cafe_f00d_0011;
pub const JOIN_KG_ENTITIES: usize = 40_000;
pub const JOIN_KG_TRIPLES: usize = 400_000;

/// Distinct queries per template.  Shares are chosen so that the median
/// request falls inside `paged_category`'s continuous cost range and p95
/// inside `paged_links`'s, not on a boundary between two templates, and no
/// template takes more than 40 % of the window.
const JOIN_MIX: [(&str, usize); 4] = [
    ("star", 1664),
    ("paged_category", 1152),
    ("mutual", 960),
    ("paged_links", 320),
];

/// `sparql_join`: four two-hop templates over a seeded Zipf KG.  The ISSUE's
/// paged template is issued in two shapes: `links → category` (the planner
/// drives it from the small `category` scan, sequentially) and
/// `links → links` with a 4096-row page (large driver scan, so it crosses
/// the planner's morsel-parallel threshold).
fn sparql_join(rng: &mut SplitMix64) -> Inputs {
    let config = ZipfKgConfig {
        seed: JOIN_KG_SEED,
        entities: JOIN_KG_ENTITIES,
        triples: JOIN_KG_TRIPLES,
        exponent: 1.1,
        categories: 64,
    };
    let kg = ZipfKg::generate(config);
    let entity = |index: usize| format!("http://kggen.invalid/e/{index}");
    // kggen spreads subject hubs by this stride; rank 1 is the hottest
    // subject.  Constants come from mid ranks: enough edges to join over,
    // not the few hubs that own most of the graph.
    let subject_of_rank = |rank: usize| rank * 0x9e37 % JOIN_KG_ENTITIES;

    let mut constants = rng.fork("constants");
    let mut ops = Vec::new();
    for (template, count) in JOIN_MIX {
        for i in 0..count {
            let query = match template {
                "star" => {
                    let e = entity(subject_of_rank(20 + i));
                    format!(
                        "SELECT ?b ?c WHERE {{ <{e}> <{LINKS}> ?b . ?b <{CATEGORY}> ?c . }}"
                    )
                }
                "paged_category" => {
                    let limit = 200 + constants.below(1800);
                    format!(
                        "SELECT ?a ?c WHERE {{ ?a <{LINKS}> ?b . ?b <{CATEGORY}> ?c . }} LIMIT {limit} OFFSET {}",
                        i * 29
                    )
                }
                // Mutual pairs in the neighbourhood of a seeded entity; most
                // of them hang off the same few hubs, so the page is bounded.
                "mutual" => {
                    let e = entity(subject_of_rank(100 + i));
                    format!(
                        "SELECT ?b ?c WHERE {{ <{e}> <{LINKS}> ?b . ?b <{LINKS}> ?c . ?c <{LINKS}> ?b . }} LIMIT {}",
                        256 + constants.below(512)
                    )
                }
                // A page just over the planner's 4096-row parallel threshold
                // (and over the cache's 4096-row entry bound).
                _ => format!(
                    "SELECT ?a ?c WHERE {{ ?a <{LINKS}> ?b . ?b <{LINKS}> ?c . }} LIMIT 4100 OFFSET {}",
                    i * 5
                ),
            };
            ops.push(Op {
                kind: OpKind::Sparql,
                path: "/kg/Zipf/sparql",
                content_type: "application/sparql-query",
                body: query,
                gold: None,
                template,
                triples: Vec::new(),
            });
        }
    }
    let mut order: Vec<u32> = (0..ops.len() as u32).collect();
    rng.fork("shuffle").shuffle(&mut order);
    // The oracle sample is the last VERIFY_SAMPLE queries in issue order: it
    // holds every template in proportion, and the result cache has dropped
    // them again by the time the stream comes round.
    let verify = order.iter().rev().take(VERIFY_SAMPLE).copied().collect();
    Inputs {
        stream: order.into_iter().map(closed).collect(),
        verify,
        ops,
        kgs: vec![KgInput {
            name: "Zipf",
            store: kg.snapshot.store().clone(),
        }],
        kg: "Zipf",
        ..Inputs::empty()
    }
}

impl Inputs {
    fn empty() -> Inputs {
        Inputs {
            workload: "",
            ops: Vec::new(),
            stream: Vec::new(),
            writes: Vec::new(),
            verify: Vec::new(),
            gold: Vec::new(),
            kgs: Vec::new(),
            kg: "",
            clients: 2,
            trace_requests: 0,
            warmup_requests: 0,
            digest: String::new(),
            vocabulary: None,
        }
    }
}

/// FNV-1a over everything the program is sent and the size of what it
/// serves: op routes and bodies, the issue order with due times, the
/// verification list, KG names and triple counts.
fn digest(inputs: &Inputs) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for byte in bytes {
            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash = (hash ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    };
    feed(inputs.workload.as_bytes());
    for op in &inputs.ops {
        feed(op.path.as_bytes());
        feed(op.body.as_bytes());
    }
    for event in inputs.stream.iter().chain(&inputs.writes) {
        feed(&event.op.to_le_bytes());
        feed(&(event.due.as_nanos() as u64).to_le_bytes());
    }
    for op in &inputs.verify {
        feed(&op.to_le_bytes());
    }
    for kg in &inputs.kgs {
        feed(kg.name.as_bytes());
        feed(&(kg.store.len() as u64).to_le_bytes());
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_differs() {
        let a = generate("ask_hot", 1, DEFAULT_SECONDS).unwrap();
        let b = generate("ask_hot", 1, DEFAULT_SECONDS).unwrap();
        let c = generate("ask_hot", 2, DEFAULT_SECONDS).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.ops.len(), HOT_QUESTIONS);
        assert!(generate("nope", 1, DEFAULT_SECONDS).is_err());
    }

    #[test]
    fn hot_ranks_are_the_same_questions_on_every_seed() {
        for seed in [1, 2, 3] {
            let inputs = generate("ask_hot", seed, DEFAULT_SECONDS).unwrap();
            let mut count = vec![0usize; inputs.ops.len()];
            for event in &inputs.stream {
                count[event.op as usize] += 1;
            }
            assert!(count[0] > count[1] && count[1] > count[2], "seed {seed}");
            assert!(count[2] > count[20], "seed {seed}");
        }
    }

    #[test]
    fn ingest_batches_are_due_at_a_fixed_rate_and_interleave_in_the_traced_sequence() {
        let inputs = generate("ask_under_ingest", 5, 4).unwrap();
        let writes = &inputs.writes;
        assert_eq!(writes.len(), (INGEST_BATCHES_PER_S * 4.0) as usize);
        assert!(writes.windows(2).all(|w| w[0].due < w[1].due));
        assert!(writes.last().unwrap().due < Duration::from_secs(4));
        let is_write = |e: &Event| inputs.ops[e.op as usize].kind == OpKind::Ingest;
        assert!(!inputs.stream.iter().any(is_write));
        // Traced sequence: a batch after every TRACE_READS_PER_BATCH reads.
        let events = inputs.events(7, 100);
        assert_eq!(events.len(), 100);
        assert_eq!(events[0].op, inputs.stream[7].op);
        let at: Vec<usize> = (0..100).filter(|i| is_write(&events[*i])).collect();
        assert_eq!(at, [TRACE_READS_PER_BATCH, 2 * TRACE_READS_PER_BATCH + 1]);
        assert_eq!(events[at[1]].op, writes[1].op);
        let batch = &inputs.ops[writes[0].op as usize];
        assert_eq!(batch.triples.len(), INGEST_BATCH_TRIPLES);
        // New entities only: no subject of the batch exists in the KG.
        let store = &inputs.kgs[0].store;
        for triple in &batch.triples {
            assert_eq!(
                store.count_matching(
                    &crate::seams::TriplePattern::any().with_subject(triple.subject.clone())
                ),
                0
            );
        }
    }

    #[test]
    fn join_mix_has_more_constants_than_the_result_cache() {
        let total: usize = JOIN_MIX.iter().map(|(_, n)| n).sum();
        assert!(total >= 4096);
    }
}
