//! Server-side counters surfaced at `GET /metrics`.
//!
//! Everything is lock-free atomics so the hot path never contends: each
//! route keeps a request count, an error count, and a latency accumulator
//! (sum of microseconds + count, enough to recover a mean; the full
//! latency *distribution* is the load generator's job, which times from
//! the client side).  The render is the Prometheus text exposition format:
//! one `name value` or `name{label="value"} value` sample per line, label
//! values quoted and escaped (`write_sample`), stable for scraping and
//! diffing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Append one sample line of the Prometheus text exposition format:
/// `name value`, or `name{label="value"} value` with `\\`, `"` and newline
/// escaped in the label value — a KG may be registered under any name.
pub(crate) fn write_sample(out: &mut String, name: &str, label: Option<(&str, &str)>, value: u64) {
    out.push_str(name);
    if let Some((label, text)) = label {
        out.push('{');
        out.push_str(label);
        out.push_str("=\"");
        for c in text.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push_str("\"}");
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// The routes the server distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `GET /kg`.
    KgList,
    /// `POST /kg/{name}/ask`.
    Ask,
    /// `GET`/`POST /kg/{name}/sparql`.
    Sparql,
    /// `POST /kg/{name}/ingest`.
    Ingest,
    /// `POST /federate/ask`.
    Federate,
    /// Anything that matched no route (404s, bad methods, parse failures).
    Other,
}

impl Route {
    /// Every distinguished route, in render order.
    pub const ALL: [Route; 8] = [
        Route::Healthz,
        Route::Metrics,
        Route::KgList,
        Route::Ask,
        Route::Sparql,
        Route::Ingest,
        Route::Federate,
        Route::Other,
    ];

    fn name(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::KgList => "kg_list",
            Route::Ask => "ask",
            Route::Sparql => "sparql",
            Route::Ingest => "ingest",
            Route::Federate => "federate",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Route::Healthz => 0,
            Route::Metrics => 1,
            Route::KgList => 2,
            Route::Ask => 3,
            Route::Sparql => 4,
            Route::Ingest => 5,
            Route::Federate => 6,
            Route::Other => 7,
        }
    }
}

#[derive(Debug, Default)]
struct RouteCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_us: AtomicU64,
}

/// The server's counter registry.  Shared by all handler threads.
#[derive(Debug, Default)]
pub struct Metrics {
    routes: [RouteCounters; 8],
    /// Per-KG request counters: how many requests (single-KG asks, SPARQL,
    /// ingests, and federated fan-out legs) targeted each KG.  The server
    /// records registered names only (everything else under `unknown`), so
    /// the map is bounded.  A mutex is fine here — the map is touched once
    /// per request, never per row.
    kg_requests: Mutex<BTreeMap<String, u64>>,
    /// Connections accepted by the acceptor thread.
    pub connections_accepted: AtomicU64,
    /// Connections turned away because the connection queue was full.
    pub connections_refused: AtomicU64,
    /// Requests rejected by the per-client rate limiter (429).
    pub rate_limited: AtomicU64,
    /// Questions shed because the admission gate's waiting room was full
    /// (503).
    pub load_shed: AtomicU64,
    /// Per-KG fan-out legs issued by `POST /federate/ask` (one per
    /// selected KG per federated request, unknown names included).
    pub federated_fanout: AtomicU64,
    /// Federated responses whose overall verdict degraded to partial.
    pub federated_partial: AtomicU64,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished request: its route, response status, and
    /// server-side wall-clock.
    pub fn record(&self, route: Route, status: u16, elapsed: Duration) {
        let counters = &self.routes[route.index()];
        counters.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        counters.latency_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Count one request against a named KG.
    pub fn record_kg(&self, kg: &str) {
        let mut map = self
            .kg_requests
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // A KG already counted costs a lookup; only the first request
        // against it copies the name.
        match map.get_mut(kg) {
            Some(count) => *count += 1,
            None => {
                map.insert(kg.to_string(), 1);
            }
        }
    }

    /// Requests recorded against one KG.
    pub fn kg_requests(&self, kg: &str) -> u64 {
        self.kg_requests
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(kg)
            .copied()
            .unwrap_or(0)
    }

    /// Requests recorded for one route.
    pub fn requests(&self, route: Route) -> u64 {
        self.routes[route.index()].requests.load(Ordering::Relaxed)
    }

    /// Error (status ≥ 400) responses recorded for one route.
    pub fn errors(&self, route: Route) -> u64 {
        self.routes[route.index()].errors.load(Ordering::Relaxed)
    }

    /// Render every counter as exposition-format sample lines.  The caller
    /// appends whatever service-level gauges it wants (queue depth, cache
    /// stats) through `write_sample`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for route in Route::ALL {
            let counters = &self.routes[route.index()];
            let label = Some(("route", route.name()));
            for (name, counter) in [
                ("http_requests_total", &counters.requests),
                ("http_errors_total", &counters.errors),
                ("http_latency_us_total", &counters.latency_us),
            ] {
                write_sample(&mut out, name, label, counter.load(Ordering::Relaxed));
            }
        }
        for (name, value) in [
            ("connections_accepted_total", &self.connections_accepted),
            ("connections_refused_total", &self.connections_refused),
            ("requests_rate_limited_total", &self.rate_limited),
            ("requests_load_shed_total", &self.load_shed),
            ("federated_fanout_total", &self.federated_fanout),
            ("federated_partial_total", &self.federated_partial),
        ] {
            write_sample(&mut out, name, None, value.load(Ordering::Relaxed));
        }
        write_sample(
            &mut out,
            "executor_parallel_queries_total",
            None,
            kgqan_sparql::exec::parallel_queries_total(),
        );
        // Helper jobs running on the shared pool right now, morsel helpers
        // of a parallel query and leg helpers of a batch alike.
        write_sample(
            &mut out,
            "executor_active_workers",
            None,
            kgqan_sparql::WorkerPool::shared().stats().running as u64,
        );
        let map = self
            .kg_requests
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for (kg, count) in map.iter() {
            write_sample(&mut out, "kg_requests_total", Some(("kg", kg)), *count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let metrics = Metrics::new();
        metrics.record(Route::Ask, 200, Duration::from_micros(1500));
        metrics.record(Route::Ask, 404, Duration::from_micros(500));
        metrics.record(Route::Healthz, 200, Duration::ZERO);
        metrics.load_shed.fetch_add(3, Ordering::Relaxed);

        assert_eq!(metrics.requests(Route::Ask), 2);
        assert_eq!(metrics.errors(Route::Ask), 1);
        assert_eq!(metrics.requests(Route::Healthz), 1);

        let text = metrics.render();
        assert!(text.contains("http_requests_total{route=\"ask\"} 2"));
        assert!(text.contains("http_errors_total{route=\"ask\"} 1"));
        assert!(text.contains("http_latency_us_total{route=\"ask\"} 2000"));
        assert!(text.contains("requests_load_shed_total 3"));
        assert!(text.contains("http_requests_total{route=\"federate\"} 0"));
        assert!(text.contains("http_requests_total{route=\"kg_list\"} 0"));
        assert!(text.contains("federated_fanout_total 0"));
        assert!(text.contains("federated_partial_total 0"));
        assert!(text.contains("executor_parallel_queries_total "));
        assert!(text.contains("executor_active_workers "));
    }

    #[test]
    fn per_kg_request_counters_accumulate_and_render() {
        let metrics = Metrics::new();
        metrics.record_kg("DBpedia");
        metrics.record_kg("DBpedia");
        metrics.record_kg("Wikidata");
        metrics.federated_fanout.fetch_add(2, Ordering::Relaxed);
        metrics.federated_partial.fetch_add(1, Ordering::Relaxed);

        assert_eq!(metrics.kg_requests("DBpedia"), 2);
        assert_eq!(metrics.kg_requests("Wikidata"), 1);
        assert_eq!(metrics.kg_requests("YAGO"), 0);

        let text = metrics.render();
        assert!(text.contains("kg_requests_total{kg=\"DBpedia\"} 2"));
        assert!(text.contains("kg_requests_total{kg=\"Wikidata\"} 1"));
        assert!(text.contains("federated_fanout_total 2"));
        assert!(text.contains("federated_partial_total 1"));
    }
}
