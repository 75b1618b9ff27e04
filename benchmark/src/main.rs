//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One process runs one workload: it sets the server up (three times, the
//! median is `setup_s`), drives it over real HTTP, checks every response and
//! prints one JSON object as the last line of standard output.  Throughput
//! and the two latencies are those of the window's best 2.5-second slice.  `--trace 1`
//! runs the traced passes instead and prints the per-layer metrics.  `--all`
//! and `--repeat N` start one child process per run.  See `README.md`.

mod driver;
mod env;
mod layers;
mod report;
mod sampling;
mod seams;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use env::{timed, Env};
use report::{field_num, field_raw, field_str};
use workload::{DEFAULT_SECONDS, DEFAULT_SEED, PINS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The end-to-end metrics, in report order, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_midmean_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 0,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number(&value("--seed")?)?,
            "--seconds" => args.seconds = number(&value("--seconds")?)?.max(1),
            "--repeat" => args.repeat = number(&value("--repeat")?)? as usize,
            "--all" => args.all = true,
            // `--trace`, `--trace 1` and `--trace 0`.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.all {
        return Err(format!(
            "name a workload with --workload <{}> or pass --all",
            WORKLOADS.map(|(name, _)| name).join("|")
        ));
    }
    Ok(args)
}

fn number(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{text:?} is not a whole number"))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.all || args.repeat > 0 {
            children(&args)
        } else {
            let workload = args.workload.as_deref().unwrap_or_default();
            if args.trace {
                traced_run(workload, &args)
            } else {
                timed_run(workload, &args)
            }
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("kgqan-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The pinned digest and F1 floor of a workload.
fn pin(workload: &str) -> (&'static str, f64) {
    PINS.iter()
        .find(|(name, _, _)| *name == workload)
        .map_or(("", 0.0), |(_, digest, f1)| (digest, *f1))
}

/// Inputs are the pinned ones and answer quality has not dropped.
fn inputs_and_quality_ok(workload: &str, args: &Args, digest: &str, answer_f1: f64) -> bool {
    let (pinned_digest, pinned_f1) = pin(workload);
    let mut ok = true;
    if args.seed == DEFAULT_SEED
        && args.seconds == DEFAULT_SECONDS
        && !pinned_digest.is_empty()
        && digest != pinned_digest
    {
        eprintln!(
            "kgqan-benchmark: inputs_digest {digest} differs from the pinned {pinned_digest}: \
             a generator outside benchmark/ changed this workload"
        );
        ok = false;
    }
    if answer_f1 < pinned_f1 - 1e-9 {
        eprintln!("kgqan-benchmark: answer_f1 {answer_f1} is below the pinned {pinned_f1}");
        ok = false;
    }
    ok
}

fn details_head(workload: &str, args: &Args, digest: &str, answer_f1: f64) -> String {
    let mut details = String::from("{");
    field_str(&mut details, "workload", workload);
    field_num(&mut details, "seed", args.seed as f64);
    field_num(&mut details, "seconds", args.seconds as f64);
    field_str(&mut details, "inputs_digest", digest);
    field_num(&mut details, "answer_f1", answer_f1);
    field_raw(&mut details, "stamp", &report::stamp());
    details
}

/// The end-to-end run: set up, measure the window, check, set up twice
/// more for a steady `setup_s`, report.
fn timed_run(workload: &str, args: &Args) -> Result<(), String> {
    let set_up = || timed(|| Env::set_up(workload, args.seed, args.seconds, false));
    let (env, first_setup_s) = set_up();
    let env = env?;

    let window = driver::closed_loop(&env, args.seconds);
    let seen = &window.observed;
    let invisible = driver::invisible_batches(&env, &seen.acknowledged)?;
    let attempted = seen.attempted + seen.acknowledged.len() as u64;
    let failed = seen.failed + invisible;
    let shed = env
        .handle
        .metrics()
        .load_shed
        .load(std::sync::atomic::Ordering::Relaxed);

    let latencies = stats::sorted(seen.read_ms.clone());
    let samples: Vec<(f64, f64)> = seen
        .read_at
        .iter()
        .zip(&seen.read_ms)
        .map(|(at, ms)| (at.duration_since(window.start).as_secs_f64(), *ms))
        .collect();
    let slices = stats::slices(&samples, args.seconds as f64);
    let best = stats::best(&slices)
        .ok_or("no response arrived within a whole slice of the window (--seconds below 3?)")?;
    // Peak memory is read here, after one set-up and the window.  The
    // further set-ups that steady `setup_s` come afterwards: how much of a
    // dropped server's memory the allocator hands to the next one varies
    // from run to run by more than any bound.
    let peak_rss_mb = report::peak_rss_mb();

    let mut details = details_head(workload, args, &env.inputs.digest, env.answer_f1);
    field_num(&mut details, "samples", latencies.len() as f64);
    field_num(
        &mut details,
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    field_num(&mut details, "verified", env.inputs.verify.len() as f64);
    // The whole window, beside the best slice the result line reports:
    // throughput, midmean and every percentile of the ladder that this many
    // samples support (at least ten samples lie beyond the highest quoted).
    let mut whole = String::from("{");
    field_num(
        &mut whole,
        "rps",
        latencies.len() as f64 / args.seconds as f64,
    );
    field_num(&mut whole, "midmean_ms", stats::midmean(&latencies));
    if let Some(highest) = stats::highest_supported_percentile(latencies.len()) {
        for p in stats::LADDER.iter().filter(|p| **p <= highest) {
            field_num(
                &mut whole,
                &format!("p{p}_ms"),
                stats::percentile(&latencies, *p),
            );
        }
    }
    whole.push('}');
    field_raw(&mut details, "window", &whole);
    let per_slice = |value: fn(&stats::Slice) -> f64| {
        let values: Vec<String> = slices.iter().map(|s| format!("{:.4}", value(s))).collect();
        format!("[{}]", values.join(","))
    };
    field_raw(&mut details, "slice_rps", &per_slice(|s| s.rps));
    field_raw(
        &mut details,
        "slice_midmean_ms",
        &per_slice(|s| s.midmean_ms),
    );
    field_raw(&mut details, "slice_p95_ms", &per_slice(|s| s.p95_ms));
    if !seen.write_ms.is_empty() {
        field_num(
            &mut details,
            "ingest_ack_p50_ms",
            stats::median(&seen.write_ms),
        );
        field_num(
            &mut details,
            "ingest_lag_p95_ms",
            stats::percentile(&stats::sorted(seen.lag_ms.clone()), 95.0),
        );
    }
    field_num(&mut details, "invisible_batches", invisible as f64);
    field_num(&mut details, "shed", shed as f64);
    let busy: f64 = seen.template_ms.iter().map(|(_, ms)| ms).sum();
    let mut shares = String::from("{");
    for (template, ms) in &seen.template_ms {
        field_num(&mut shares, template, ms / busy.max(f64::MIN_POSITIVE));
    }
    shares.push('}');
    field_raw(&mut details, "template_time_share", &shares);
    let correct = failed == 0
        && latencies.len() >= 20
        && inputs_and_quality_ok(workload, args, &env.inputs.digest, env.answer_f1);
    drop(env); // stop the server and join its threads

    let mut setup_s = vec![first_setup_s];
    for _ in 1..SETUPS {
        let (env, seconds) = set_up();
        drop(env?);
        setup_s.push(seconds);
    }
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s}")).collect();
    field_raw(
        &mut details,
        "setup_runs_s",
        &format!("[{}]", setups.join(",")),
    );
    details.push('}');
    println!("{{\"details\":{details}}}");

    let values = [
        stats::median(&setup_s),
        best.rps,
        best.midmean_ms,
        best.p95_ms,
        peak_rss_mb,
    ];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, value, *unit))
        .collect();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// The traced run: per-layer metrics, and the spans written out.
fn traced_run(workload: &str, args: &Args) -> Result<(), String> {
    let traced = layers::run(workload, args.seed, args.seconds)?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&path, "http", &traced.server_spans, false)
        .and_then(|()| trace::write_jsonl(&path, "replay", &traced.replay_spans, true))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut details = details_head(workload, args, &traced.digest, traced.answer_f1);
    field_str(&mut details, "trace_file", &path.display().to_string());
    details.push('}');
    println!("{{\"details\":{details}}}");

    let correct = traced.failed == 0
        && inputs_and_quality_ok(workload, args, &traced.digest, traced.answer_f1);
    let metrics: Vec<(&str, f64, &str)> = layers::METRICS
        .iter()
        .map(|(name, unit)| (*name, traced.metrics[name], *unit))
        .collect();
    println!(
        "{}",
        report::result_line(correct, traced.attempted, traced.failed, &metrics)
    );
    Ok(())
}

/// `--all` and `--repeat N`: one child process per run, so set-up time and
/// peak memory are per run.  Children print their own lines; `--repeat`
/// adds median, quartiles and spread per metric.
fn children(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    let mut all_correct = true;
    let mut summaries = String::new();
    for workload in workloads {
        let mut runs = Vec::new();
        // Run i of a repeat uses seed + i, as the driver varies the seed.
        for run in 0..args.repeat.max(1) as u64 {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &(args.seed + run).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a child run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                return Err(format!("run of {workload} exited with {}", output.status));
            }
            let (correct, metrics) =
                report::parse_result(stdout.lines().last().unwrap_or_default())?;
            all_correct &= correct;
            runs.push(metrics);
        }
        if args.repeat > 1 {
            summaries.push_str(&report::repeat_summary(workload, &runs));
        }
    }
    print!("{summaries}");
    if all_correct {
        Ok(())
    } else {
        Err("at least one run was not correct".to_string())
    }
}
