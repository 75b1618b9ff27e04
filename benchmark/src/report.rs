//! What a run prints: the machine and build stamp, the result line the
//! driver reads, and the `--repeat` summary.

use std::collections::BTreeMap;

use crate::env::{nproc, SERVICE_WORKERS};
use crate::seams::{write_json_number, write_json_string, Json, ServerConfig};
use crate::stats::{quartiles, spread};

/// Append `"key":` to a JSON object under construction.
fn key(out: &mut String, name: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    write_json_string(out, name);
    out.push(':');
}

pub fn field_str(out: &mut String, name: &str, value: &str) {
    key(out, name);
    write_json_string(out, value);
}

pub fn field_num(out: &mut String, name: &str, value: f64) {
    key(out, name);
    write_json_number(out, value);
}

pub fn field_raw(out: &mut String, name: &str, json: &str) {
    key(out, name);
    out.push_str(json);
}

/// Where and on what the numbers were taken: core count, CPU model, git
/// revision, build profile and the server configuration under test.
pub fn stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // A checkout that is no repository must not be looked for above itself.
    let above = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", above)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let config = ServerConfig::default();
    let mut out = String::from("{");
    field_num(&mut out, "nproc", nproc() as f64);
    field_str(&mut out, "cpu", &cpu);
    field_str(&mut out, "git_rev", &git_rev);
    field_str(
        &mut out,
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release (lto, codegen-units = 1)"
        },
    );
    let mut server = String::from("{");
    field_num(&mut server, "pipeline_workers", SERVICE_WORKERS as f64);
    field_num(
        &mut server,
        "handler_threads",
        config.handler_threads as f64,
    );
    field_num(
        &mut server,
        "conn_queue_bound",
        config.conn_queue_bound as f64,
    );
    field_num(
        &mut server,
        "shed_queue_depth",
        config.shed_queue_depth as f64,
    );
    field_str(&mut server, "rate_limit", "none");
    field_str(&mut server, "cache", "default (2048 probes, 1024 results)");
    server.push('}');
    field_raw(&mut out, "server", &server);
    out.push('}');
    out
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value as measured and its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut body = String::from("{");
    for (name, value, unit) in metrics {
        let mut metric = String::from("{");
        field_num(&mut metric, "value", *value);
        field_str(&mut metric, "unit", unit);
        metric.push('}');
        field_raw(&mut body, name, &metric);
    }
    body.push('}');
    let mut out = String::from("{");
    field_raw(&mut out, "correct", if correct { "true" } else { "false" });
    field_num(&mut out, "attempted", attempted as f64);
    field_num(&mut out, "failed", failed as f64);
    field_raw(&mut out, "metrics", &body);
    out.push('}');
    out
}

/// Metric values out of a result line printed by a child run.
pub fn parse_result(line: &str) -> Result<(bool, BTreeMap<String, f64>), String> {
    let doc = Json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let correct = doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
        && doc.get("failed").and_then(Json::as_u64) == Some(0);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".to_string());
    };
    Ok((
        correct,
        metrics
            .iter()
            .filter_map(|(name, metric)| Some((name.clone(), metric.get("value")?.as_f64()?)))
            .collect(),
    ))
}

/// The `--repeat` summary of one workload: median, quartiles and spread
/// (interquartile range over median, as the driver takes it) per metric.
pub fn repeat_summary(workload: &str, runs: &[BTreeMap<String, f64>]) -> String {
    let mut out = format!(
        "{workload}: {} runs\n  {:<18} {:>12} {:>12} {:>12} {:>8}\n",
        runs.len(),
        "metric",
        "q1",
        "median",
        "q3",
        "spread"
    );
    let Some(first) = runs.first() else {
        return out;
    };
    for name in first.keys() {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.get(name).copied())
            .collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = quartiles(&values);
        out.push_str(&format!(
            "  {name:<18} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}%\n",
            spread(&values) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                ("latency_midmean_ms", 1.2034, "ms"),
                ("setup_s", 0.8127, "s"),
            ],
        );
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1000));
        let (correct, metrics) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(metrics["latency_midmean_ms"], 1.2034);
        assert_eq!(metrics["setup_s"], 0.8127);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn stamp_names_the_machine_and_the_server_configuration() {
        let doc = Json::parse(&stamp()).unwrap();
        assert!(doc.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        for field in ["cpu", "git_rev", "profile"] {
            assert!(doc.get(field).and_then(Json::as_str).is_some(), "{field}");
        }
        let server = doc.get("server").unwrap();
        assert_eq!(
            server.get("pipeline_workers").and_then(Json::as_u64),
            Some(2)
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
