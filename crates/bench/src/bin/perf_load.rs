//! Closed-loop load generator for the HTTP serving front-end — the `serve`
//! area of the persisted perf trajectory.
//!
//! Starts `kgqan-server` in-process on an ephemeral port over a generated
//! DBpedia-flavoured KG, then drives it with N concurrent keep-alive
//! clients in a *closed loop*: each client waits for its response, thinks
//! for a fixed interval, then issues the next request. Per-request wall
//! latencies flow through the criterion shim's [`Stats`] so the records
//! look exactly like every other bench, and the merged `BENCH_serve.json`
//! lands in `--out-dir` where `perf_diff` gates it against the committed
//! baseline.
//!
//! ```text
//! # Fresh run into CI's scratch dir (what the perf-smoke job does):
//! cargo run --release -p kgqan-bench --bin perf_load -- --out-dir target/bench-report
//!
//! # Baseline refresh (rewrites the tracked root artifact):
//! cargo run --release -p kgqan-bench --bin perf_load -- --out-dir .
//! ```
//!
//! Flags: `--out-dir <dir>` (default `.`), `--clients <n>` and
//! `--requests <n>` (per client) override the scenario defaults.
//! `KGQAN_BENCH_SMOKE` shrinks the request budget the same way it shrinks
//! the criterion iteration budget, and is stamped into the artifact so the
//! diff gate loosens its thresholds.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use criterion::{record_json_line, smoke_mode, Stats};
use kgqan::QaService;
use kgqan_bench::perftrack::{merge_records, AreaReport, BenchRecord};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_server::{serve, HttpClient, ServerConfig, ServerHandle};

/// One closed-loop scenario: `clients` connections each issuing
/// `requests` requests with `think` pause between them.
struct Scenario {
    bench: String,
    clients: usize,
    requests: usize,
    think: Duration,
    method: &'static str,
    path: &'static str,
    content_type: &'static str,
    body: String,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

fn git_rev() -> String {
    for var in ["KGQAN_GIT_REV", "GITHUB_SHA"] {
        if let Ok(rev) = std::env::var(var) {
            if !rev.is_empty() {
                return rev;
            }
        }
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one scenario to completion and returns the per-request latency
/// statistics. Every request must succeed (closed-loop load stays far
/// below the shedding thresholds); a non-200 status is a hard error.
fn run_scenario(handle: &ServerHandle, scenario: &Scenario) -> Result<Stats, String> {
    let addr = handle.addr();
    let workers: Vec<_> = (0..scenario.clients)
        .map(|_| {
            let scenario_body = scenario.body.clone();
            let (method, path, content_type) =
                (scenario.method, scenario.path, scenario.content_type);
            let (requests, think) = (scenario.requests, scenario.think);
            thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut client = HttpClient::connect(addr);
                let mut latencies = Vec::with_capacity(requests);
                let body = (!scenario_body.is_empty()).then_some(scenario_body.as_bytes());
                for _ in 0..requests {
                    let started = Instant::now();
                    let response = client
                        .request(method, path, body, &[("content-type", content_type)])
                        .map_err(|e| format!("{method} {path}: {e}"))?;
                    latencies.push(started.elapsed().as_secs_f64() * 1e9);
                    if response.status != 200 {
                        return Err(format!(
                            "{method} {path}: status {} — {}",
                            response.status,
                            response.text()
                        ));
                    }
                    if !think.is_zero() {
                        thread::sleep(think);
                    }
                }
                Ok(latencies)
            })
        })
        .collect();

    let mut sample_ns = Vec::new();
    for worker in workers {
        sample_ns.extend(worker.join().map_err(|_| "client thread panicked")??);
    }
    let iters = sample_ns.len() as u64;
    Ok(Stats::from_sample_ns(sample_ns, iters))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = PathBuf::from(flag_value(&args, "--out-dir").unwrap_or_else(|| ".".to_string()));
    let smoke = smoke_mode();
    // Closed-loop budget: smoke keeps CI's serving job inside a couple of
    // seconds; a full run gathers enough samples for a stable p50.
    let default_requests = if smoke { 12 } else { 120 };
    let clients = flag_value(&args, "--clients")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4);
    let requests = flag_value(&args, "--requests")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default_requests);

    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let spouse = kg
        .predicates
        .as_ref()
        .map(|voc| voc.spouse.clone())
        .unwrap_or_else(|| "http://dbpedia.org/ontology/spouse".to_string());
    let question = format!("Who is the spouse of {}?", kg.facts.people[3].name);
    let service = match QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            kg.store.clone(),
        )))
        // A second mirror KG so the federate scenario fans out over two
        // real endpoints (full agreement: maximal merge work).
        .endpoint(Arc::new(InProcessEndpoint::new("Mirror", kg.store.clone())))
        .workers(2)
        .build()
    {
        Ok(service) => service,
        Err(err) => {
            eprintln!("perf_load: cannot build service: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut handle = match serve(service, "127.0.0.1:0", ServerConfig::default()) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("perf_load: cannot start server: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perf_load: serving on {} (smoke={smoke}, {clients} clients x {requests} requests)",
        handle.addr()
    );

    let scenarios = [
        Scenario {
            bench: format!("ask/clients{clients}"),
            clients,
            requests,
            think: Duration::from_millis(2),
            method: "POST",
            path: "/kg/DBpedia/ask",
            content_type: "application/json",
            body: format!("{{\"question\": {:?}, \"id\": \"load\"}}", question),
        },
        Scenario {
            bench: format!("sparql/clients{clients}"),
            clients,
            requests,
            think: Duration::from_millis(2),
            method: "POST",
            path: "/kg/DBpedia/sparql",
            content_type: "application/sparql-query",
            body: format!("SELECT ?s ?o WHERE {{ ?s <{spouse}> ?o . }} LIMIT 10"),
        },
        Scenario {
            bench: format!("federate/clients{clients}"),
            clients,
            requests,
            think: Duration::from_millis(2),
            method: "POST",
            path: "/federate/ask",
            content_type: "application/json",
            body: format!(
                "{{\"question\": {:?}, \"kgs\": \"*\", \"id\": \"load\"}}",
                question
            ),
        },
        Scenario {
            bench: "healthz/clients1".to_string(),
            clients: 1,
            requests: requests * 2,
            think: Duration::ZERO,
            method: "GET",
            path: "/healthz",
            content_type: "application/json",
            body: String::new(),
        },
    ];

    let group = "serve_closed_loop";
    let mut records = Vec::new();
    for scenario in &scenarios {
        let stats = match run_scenario(&handle, scenario) {
            Ok(stats) => stats,
            Err(err) => {
                eprintln!("perf_load: scenario {}: {err}", scenario.bench);
                return ExitCode::FAILURE;
            }
        };
        println!(
            "perf_load: {group}/{:<20} p50 {:>10.3?}  p95 {:>10.3?}  ({} requests)",
            scenario.bench,
            Duration::from_secs_f64(stats.p50_ns / 1e9),
            Duration::from_secs_f64(stats.p95_ns / 1e9),
            stats.iters,
        );
        // The same single-line record format every criterion bench emits —
        // appended to KGQAN_BENCH_JSON when set, so perf_report's
        // merge-only mode can fold serving latency in with the rest.
        let line = record_json_line("serve", group, &scenario.bench, smoke, &stats);
        if let Some(path) = std::env::var_os("KGQAN_BENCH_JSON") {
            use std::io::Write as _;
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut file| writeln!(file, "{line}"));
            if let Err(err) = appended {
                eprintln!("perf_load: cannot append to KGQAN_BENCH_JSON: {err}");
            }
        }
        records.push(BenchRecord {
            area: "serve".to_string(),
            group: group.to_string(),
            bench: scenario.bench.clone(),
            smoke,
            samples: stats.samples,
            iters: stats.iters,
            mean_ns: stats.mean_ns,
            p50_ns: stats.p50_ns,
            p95_ns: stats.p95_ns,
            min_ns: stats.min_ns,
            iters_per_sec: stats.iters_per_sec,
        });
    }

    let metrics = handle.metrics();
    let (total_requests, total_errors) =
        kgqan_server::Route::ALL
            .iter()
            .fold((0u64, 0u64), |(requests, errors), route| {
                (
                    requests + metrics.requests(*route),
                    errors + metrics.errors(*route),
                )
            });
    println!(
        "perf_load: server handled {} requests ({} errors, {} shed, {} rate-limited)",
        total_requests,
        total_errors,
        metrics.load_shed.load(std::sync::atomic::Ordering::Relaxed),
        metrics
            .rate_limited
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    handle.shutdown();

    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perf_load: cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let reports = merge_records(records, &git_rev(), smoke);
    for report in &reports {
        let path = out_dir.join(AreaReport::file_name(&report.area));
        if let Err(err) = std::fs::write(&path, report.to_json()) {
            eprintln!("perf_load: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "perf_load: wrote {} ({} benches)",
            path.display(),
            report.benches.len()
        );
    }
    ExitCode::SUCCESS
}
