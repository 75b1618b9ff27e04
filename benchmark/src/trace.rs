//! Spans recorded from outside the program.
//!
//! Nothing in `crates/` knows about tracing.  The traced service is built
//! from the same public parts as the default one, with a decorator at every
//! public seam between layers: the four pipeline stages, the semantic
//! affinity model, and the SPARQL endpoint twice — outside the semantic
//! cache (the stage decorators swap [`StageContext::endpoint`]) and inside
//! it (registered with the service, so it sees only cache misses).  Each
//! decorator records a span around the call it forwards.
//!
//! Spans stay in memory and are written out when the run ends.  The traced
//! passes drive one request at a time, so a server-side span belongs to the
//! request the single client has in flight.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::seams::{
    write_json_string, EndpointDescription, EndpointError, EngineDialect, Execute,
    ExecutionOutcome, Filter, FilteredAnswers, IngestBatch, IngestReport, KgqanError, Link,
    LinkedQuestion, Query, QueryResults, RequestStats, SemanticAffinity, ServiceResolver,
    SparqlEndpoint, StageContext, TracedQuery, Understand, Understanding,
};

/// One recorded span.  `id` 0 is "no span", so `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The request the span belongs to (1-based position in the traced
    /// sequence; one identifier per request, shared by all its spans).
    pub request: u64,
    /// Small per-thread number: spans of one thread run one after another.
    pub thread: u32,
    pub name: &'static str,
    /// The KG (endpoint name) the call was made against, where there is one.
    pub kg: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at the same boundary: calls folded into an aggregated
    /// span, candidate queries of a link/execute span.
    pub count: u64,
    /// Rows returned by an endpoint call; productive candidates of an
    /// execute span.
    pub rows: u64,
    /// Index rows the engine reported scanning (endpoint spans).
    pub scanned: u64,
    /// True when the engine ran the query morsel-parallel.
    pub parallel: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    request: AtomicU64,
    /// The open root span of the request in flight: parent of spans opened
    /// on threads that have no open span of their own (server threads).
    root: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU32::new(1),
        request: AtomicU64::new(0),
        root: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Affinity calls made on this thread since the enclosing stage began:
    /// (calls, busy ns, start of the first call).
    static AFFINITY: RefCell<(u64, u64, u64)> = const { RefCell::new((0, 0, 0)) };
}

fn now_ns() -> u64 {
    recorder().origin.elapsed().as_nanos() as u64
}

/// Start or stop recording; decorators forward without recording while off
/// (set-up traffic is not part of any traced pass).
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::SeqCst);
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span buffer lock"))
}

/// An open span; records itself when dropped.
pub struct Guard {
    span: Option<Span>,
}

impl Guard {
    /// Attach counts measured at this boundary before the span closes.
    pub fn set(&mut self, update: impl FnOnce(&mut Span)) {
        if let Some(span) = &mut self.span {
            update(span);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.span.take() else {
            return;
        };
        span.end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&span.id) {
                open.pop();
            }
        });
        let rec = recorder();
        if span.parent == 0 {
            rec.root.store(0, Ordering::SeqCst);
        }
        rec.spans.lock().expect("span buffer lock").push(span);
    }
}

/// A span starting now under `parent`, not yet recorded.
fn new_span(name: &'static str, kg: &str, parent: u32) -> Span {
    let rec = recorder();
    Span {
        id: rec.next_id.fetch_add(1, Ordering::Relaxed),
        parent,
        request: rec.request.load(Ordering::SeqCst),
        thread: THREAD.with(|t| *t),
        name,
        kg: kg.to_string(),
        start_ns: now_ns(),
        end_ns: 0,
        count: 0,
        rows: 0,
        scanned: 0,
        parallel: false,
    }
}

/// The innermost open span of this thread, else the request's root span.
fn current_parent() -> u32 {
    OPEN.with(|open| open.borrow().last().copied())
        .unwrap_or_else(|| recorder().root.load(Ordering::SeqCst))
}

fn open_span(name: &'static str, kg: &str, root: bool) -> Guard {
    let rec = recorder();
    if !rec.enabled.load(Ordering::SeqCst) {
        return Guard { span: None };
    }
    let span = new_span(name, kg, if root { 0 } else { current_parent() });
    if root {
        rec.root.store(span.id, Ordering::SeqCst);
    }
    OPEN.with(|open| open.borrow_mut().push(span.id));
    Guard { span: Some(span) }
}

/// Open a span under the innermost open span of this thread, or under the
/// request's root span when this thread has none.
pub fn span(name: &'static str, kg: &str) -> Guard {
    open_span(name, kg, false)
}

/// Open the root span of request number `request` (1-based).
pub fn root_span(name: &'static str, request: u64) -> Guard {
    recorder().request.store(request, Ordering::SeqCst);
    open_span(name, "", true)
}

/// Emit the affinity calls this thread made since the last flush as one
/// aggregated child span: `count` calls, busy time as its duration.  Scoring
/// runs hundreds of times per question, so one span per call would cost
/// more than the calls.
fn flush_affinity() {
    let (calls, busy, first) = AFFINITY.with(|acc| std::mem::take(&mut *acc.borrow_mut()));
    if calls == 0 || !recorder().enabled.load(Ordering::SeqCst) {
        return;
    }
    let mut span = new_span("nlp.affinity", "", current_parent());
    span.start_ns = first;
    span.end_ns = first + busy;
    span.count = calls;
    recorder()
        .spans
        .lock()
        .expect("span buffer lock")
        .push(span);
}

/// Total time of `span` not covered by its children: the span's duration
/// minus the part of its interval that the union of the child intervals
/// covers (children may overlap each other and are clipped to the parent).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    span.duration_ns() - covered_ns(span.start_ns, span.end_ns, children)
}

/// Length of the part of `[start, end]` that the union of `spans` covers.
pub fn covered_ns(start: u64, end: u64, spans: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Write spans as JSON lines: one object per span with name, start, end,
/// parent, request id and the counts taken at that boundary.
pub fn write_jsonl(path: &Path, pass: &str, spans: &[Span], append: bool) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    let mut line = String::new();
    for s in spans {
        line.clear();
        line.push_str("{\"pass\":");
        write_json_string(&mut line, pass);
        line.push_str(&format!(
            ",\"id\":{},\"parent\":{},\"request\":{},\"thread\":{},\"name\":\"{}\",\"kg\":",
            s.id, s.parent, s.request, s.thread, s.name
        ));
        write_json_string(&mut line, &s.kg);
        line.push_str(&format!(
            ",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"rows\":{},\"scanned\":{},\"parallel\":{}}}\n",
            s.start_ns, s.end_ns, s.count, s.rows, s.scanned, s.parallel
        ));
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

// ---------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------

/// The endpoint a [`SpanEndpoint`] forwards to: borrowed for the duration of
/// one stage call (outside the cache) or owned by the registry (inside it).
pub trait Inner: Send + Sync {
    fn endpoint(&self) -> &dyn SparqlEndpoint;
}

impl<'a> Inner for &'a (dyn SparqlEndpoint + 'a) {
    fn endpoint(&self) -> &dyn SparqlEndpoint {
        *self
    }
}

impl Inner for Arc<dyn SparqlEndpoint> {
    fn endpoint(&self) -> &dyn SparqlEndpoint {
        self.as_ref()
    }
}

/// A [`SparqlEndpoint`] that records one span per forwarded call, with the
/// rows returned and — where the engine reports them — rows scanned.
pub struct SpanEndpoint<E> {
    inner: E,
    query_span: &'static str,
}

impl<E: Inner> SpanEndpoint<E> {
    pub fn new(inner: E, query_span: &'static str) -> Self {
        SpanEndpoint { inner, query_span }
    }

    fn results(
        &self,
        run: impl FnOnce(&dyn SparqlEndpoint) -> Result<QueryResults, EndpointError>,
    ) -> Result<QueryResults, EndpointError> {
        let inner = self.inner.endpoint();
        let mut guard = span(self.query_span, inner.name());
        let results = run(inner)?;
        guard.set(|s| s.rows = results.rows().len() as u64);
        Ok(results)
    }

    fn traced(
        &self,
        run: impl FnOnce(&dyn SparqlEndpoint) -> Result<TracedQuery, EndpointError>,
    ) -> Result<TracedQuery, EndpointError> {
        let inner = self.inner.endpoint();
        let mut guard = span(self.query_span, inner.name());
        let traced = run(inner)?;
        guard.set(|s| {
            s.rows = traced.results.rows().len() as u64;
            if let Some(metrics) = &traced.metrics {
                s.scanned = metrics.rows_scanned;
                s.parallel = metrics.parallel.is_some();
            }
        });
        Ok(traced)
    }
}

impl<E: Inner> SparqlEndpoint for SpanEndpoint<E> {
    fn name(&self) -> &str {
        self.inner.endpoint().name()
    }

    fn dialect(&self) -> EngineDialect {
        self.inner.endpoint().dialect()
    }

    fn query(&self, sparql: &str) -> Result<QueryResults, EndpointError> {
        self.results(|inner| inner.query(sparql))
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, EndpointError> {
        self.results(|inner| inner.query_parsed(query))
    }

    fn query_traced(&self, query: &Query) -> Result<TracedQuery, EndpointError> {
        self.traced(|inner| inner.query_traced(query))
    }

    fn query_traced_within(
        &self,
        query: &Query,
        deadline: Option<Instant>,
    ) -> Result<TracedQuery, EndpointError> {
        self.traced(|inner| inner.query_traced_within(query, deadline))
    }

    fn ingest(&self, batch: IngestBatch) -> Result<IngestReport, EndpointError> {
        let inner = self.inner.endpoint();
        let mut guard = span("endpoint.ingest", inner.name());
        let report = inner.ingest(batch)?;
        guard.set(|s| s.rows = report.added() as u64);
        Ok(report)
    }

    fn describe(&self) -> Option<EndpointDescription> {
        self.inner.endpoint().describe()
    }

    fn query_federated(
        &self,
        query: &Query,
        services: &dyn ServiceResolver,
    ) -> Result<TracedQuery, EndpointError> {
        self.traced(|inner| inner.query_federated(query, services))
    }

    fn stats(&self) -> RequestStats {
        self.inner.endpoint().stats()
    }
}

/// Span name of endpoint calls seen outside the semantic cache.
pub const ENDPOINT_CALL: &str = "endpoint.call";
/// Span name of endpoint calls that reached the engine (cache misses).
pub const ENDPOINT_ENGINE: &str = "endpoint.engine";

/// Run one stage with `ctx.endpoint` swapped for a span-recording view of
/// it, so every probe and candidate query the stage issues is a child span.
fn with_traced_endpoint<T>(
    ctx: &StageContext<'_>,
    stage: impl FnOnce(&StageContext<'_>) -> T,
) -> T {
    let endpoint = SpanEndpoint::new(ctx.endpoint, ENDPOINT_CALL);
    let out = stage(&StageContext::new(&endpoint, ctx.budget, ctx.config));
    flush_affinity();
    out
}

pub struct TracedUnderstand(pub Arc<dyn Understand>);

impl Understand for TracedUnderstand {
    fn understand(&self, question: &str) -> Result<Understanding, KgqanError> {
        let _guard = span("core.understand", "");
        self.0.understand(question)
    }
}

pub struct TracedLink(pub Arc<dyn Link>);

impl Link for TracedLink {
    fn link(
        &self,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> Result<LinkedQuestion, KgqanError> {
        let mut guard = span("core.link", ctx.endpoint.name());
        let linked = with_traced_endpoint(ctx, |ctx| self.0.link(understanding, ctx))?;
        guard.set(|s| s.count = linked.candidates.len() as u64);
        Ok(linked)
    }
}

pub struct TracedExecute(pub Arc<dyn Execute>);

impl Execute for TracedExecute {
    fn execute(
        &self,
        linked: &LinkedQuestion,
        ctx: &StageContext<'_>,
    ) -> Result<ExecutionOutcome, KgqanError> {
        let mut guard = span("core.execute", ctx.endpoint.name());
        let outcome = with_traced_endpoint(ctx, |ctx| self.0.execute(linked, ctx))?;
        guard.set(|s| {
            s.count = outcome.query_stats.len() as u64;
            s.rows = outcome.query_stats.iter().filter(|q| q.rows > 0).count() as u64;
        });
        Ok(outcome)
    }
}

pub struct TracedFilter(pub Arc<dyn Filter>);

impl Filter for TracedFilter {
    fn filter(
        &self,
        execution: &ExecutionOutcome,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> FilteredAnswers {
        let _guard = span("core.filter", ctx.endpoint.name());
        let filtered = self.0.filter(execution, understanding, ctx);
        flush_affinity();
        filtered
    }
}

pub struct TracedAffinity(pub Arc<dyn SemanticAffinity>);

impl SemanticAffinity for TracedAffinity {
    fn score(&self, a: &str, b: &str) -> f32 {
        let start = now_ns();
        let score = self.0.score(a, b);
        let busy = now_ns() - start;
        AFFINITY.with(|acc| {
            let mut acc = acc.borrow_mut();
            if acc.0 == 0 {
                acc.2 = start;
            }
            acc.0 += 1;
            acc.1 += busy;
        });
        score
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            thread: 1,
            name: "t",
            kg: String::new(),
            start_ns,
            end_ns,
            count: 0,
            rows: 0,
            scanned: 0,
            parallel: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let parent = at(1, 0, 100, 200);
        // Disjoint children: 20 + 30 covered.
        let (a, b) = (at(2, 1, 110, 130), at(3, 1, 150, 180));
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 50);
        // Overlapping children (two legs in parallel) count their union once.
        let (c, d) = (at(4, 1, 110, 160), at(5, 1, 140, 190));
        assert_eq!(self_time_ns(&parent, &[&c, &d]), 20);
        // A child reaching outside the parent is clipped to it.
        let e = at(6, 1, 90, 120);
        assert_eq!(self_time_ns(&parent, &[&e]), 80);
        // A nested duplicate adds nothing; no children leaves the duration.
        assert_eq!(self_time_ns(&parent, &[&c, &a]), 50);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn spans_nest_by_thread_and_fall_back_to_the_request_root() {
        set_enabled(true);
        drain();
        {
            let _root = root_span("client.request", 7);
            {
                let _outer = span("outer", "KG");
                let mut inner = span("inner", "KG");
                inner.set(|s| s.rows = 3);
            }
            // A span opened on another thread hangs off the request's root.
            std::thread::spawn(|| drop(span("server.side", "")))
                .join()
                .expect("helper thread");
        }
        set_enabled(false);
        drop(span("ignored", ""));
        let spans = drain();
        assert_eq!(spans.len(), 4);
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).expect("span");
        let root = by_name("client.request");
        assert_eq!((root.parent, root.request), (0, 7));
        assert_eq!(by_name("outer").parent, root.id);
        assert_eq!(by_name("inner").parent, by_name("outer").id);
        assert_eq!(by_name("inner").rows, 3);
        assert_eq!(by_name("server.side").parent, root.id);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
    }
}
