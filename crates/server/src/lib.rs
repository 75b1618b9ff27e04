//! # kgqan-server
//!
//! The network serving front-end: a hand-rolled HTTP/1.1 + SPARQL-protocol
//! server over `std::net` (the build environment is offline — no
//! hyper/tokio) that exposes a [`kgqan::QaService`] to real sockets with
//! explicit admission control.
//!
//! ## Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /kg/{name}/ask` | Answer a natural-language question against KG `name` (JSON in/out) |
//! | `POST /federate/ask` | Fan a question out to several KGs and merge the answers with provenance ([`kgqan_federate`]) |
//! | `GET/POST /kg/{name}/sparql` | Execute a SPARQL query (W3C SPARQL-JSON results; `SERVICE <kg:name>` joins across registered KGs) |
//! | `POST /kg/{name}/ingest` | Add N-Triples to KG `name`'s live store |
//! | `GET /kg` | Registered KGs with serving epoch and triple count |
//! | `GET /healthz` | Liveness + registered KG names |
//! | `GET /metrics` | Counters: per-route requests/errors/latency, per-KG requests, federation fan-out, admission gate, cache stats |
//!
//! ## Data flow and admission control
//!
//! One thread per request: acceptor → **bounded connection queue** (full
//! → direct `503`) → a handler thread that parses the request *and*
//! answers it.  On the way it applies per-client **token-bucket rate
//! limits** (`429`) and, for questions, the one [`Admission`] **gate** —
//! as many pipeline runs at once as the service has configured workers, a
//! bounded waiting room, `503` + `Retry-After` beyond it (see [`server`]
//! for the full picture).  The service's worker pool only runs the per-KG
//! legs of `/federate/ask`.  Per-request deadlines map onto the pipeline's
//! [`kgqan::Budget`], so a request that cannot finish in time degrades to
//! best-so-far answers flagged `"partial": true`.
//!
//! ```no_run
//! use kgqan::QaService;
//! use kgqan_server::{serve, ServerConfig};
//!
//! let service: QaService = /* build with endpoints; `.workers(n)` sizes the gate */
//! #    QaService::builder().build().unwrap();
//! let mut handle = serve(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving on http://{}", handle.addr());
//! handle.shutdown(); // graceful: drains in-flight requests
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod http;
pub mod metrics;
pub mod server;
pub mod wire;

pub use admission::{Admission, RateLimit, RateLimiter, TokenBucket};
pub use client::{ClientResponse, HttpClient};
pub use http::{HttpError, Limits, Request, Response};
pub use metrics::{Metrics, Route};
pub use server::{serve, ServerConfig, ServerHandle};
