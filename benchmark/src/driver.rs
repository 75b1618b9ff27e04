//! The load generators: the closed loop of the timed window and the
//! single-client passes of the traced run.  Both talk real HTTP to the
//! in-process server and check every response; a failed response is counted,
//! never timed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::env::Env;
use crate::seams::HttpClient;
use crate::trace;
use crate::workload::{Event, OpKind};

/// What one client thread (or one pass) observed.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    /// Latencies of responses that passed checking, in milliseconds.
    pub read_ms: Vec<f64>,
    /// When each of those responses arrived.
    pub read_at: Vec<Instant>,
    /// Latencies of acknowledged ingest batches, in milliseconds.
    pub write_ms: Vec<f64>,
    /// How late each ingest batch was sent after it was due, ms.
    pub lag_ms: Vec<f64>,
    /// Body sizes of checked responses.
    pub bytes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Ingest ops acknowledged with `200` (checked visible afterwards).
    pub acknowledged: Vec<u32>,
    /// Busy time per SPARQL template, ms (shows the mix stays balanced).
    pub template_ms: Vec<(&'static str, f64)>,
}

impl Observed {
    fn merge(&mut self, other: Observed) {
        self.read_ms.extend(other.read_ms);
        self.read_at.extend(other.read_at);
        self.write_ms.extend(other.write_ms);
        self.lag_ms.extend(other.lag_ms);
        self.bytes.extend(other.bytes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acknowledged.extend(other.acknowledged);
        for (template, ms) in other.template_ms {
            self.add_template(template, ms);
        }
    }

    fn add_template(&mut self, template: &'static str, ms: f64) {
        match self.template_ms.iter_mut().find(|(t, _)| *t == template) {
            Some(slot) => slot.1 += ms,
            None => self.template_ms.push((template, ms)),
        }
    }

    /// Issue one event and record it.  `due` is when a scheduled request was
    /// due (latency runs from there, so a stalled server charges the wait to
    /// what queued behind it); `None` times from the send.
    ///
    /// `traced` is the request's 1-based number in a traced pass: the root
    /// span covers the send and the receive, not the checking.
    fn issue(
        &mut self,
        env: &Env,
        client: &mut HttpClient,
        event: &Event,
        due: Option<Instant>,
        traced: Option<u64>,
    ) {
        let op = env.op(event);
        let root = traced.map(|request| trace::root_span("client.request", request));
        let sent = Instant::now();
        let outcome = Env::send(client, op);
        let done = Instant::now();
        drop(root);
        self.attempted += 1;
        let (latency, lag) = latency_and_lag(due, sent, done);
        self.lag_ms.extend(lag);
        match outcome {
            Ok((status, body)) if env.check(event, status, &body) => {
                if op.kind == OpKind::Ingest {
                    self.write_ms.push(latency);
                    self.acknowledged.push(event.op);
                } else {
                    self.read_ms.push(latency);
                    self.read_at.push(done);
                    self.bytes.push(body.len() as f64);
                    if !op.template.is_empty() {
                        self.add_template(op.template, latency);
                    }
                }
            }
            _ => self.failed += 1,
        }
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The loop rules, in milliseconds.  Closed loop (`due` is `None`): latency
/// runs from the send.  On a schedule: latency runs from when the request was
/// *due*, so a stalled server charges its stall to the requests queued
/// behind it, and how late the generator sent it is reported beside it.
fn latency_and_lag(due: Option<Instant>, sent: Instant, done: Instant) -> (f64, Option<f64>) {
    match due {
        None => (ms(done.saturating_duration_since(sent)), None),
        Some(due) => (
            ms(done.saturating_duration_since(due)),
            Some(ms(sent.saturating_duration_since(due))),
        ),
    }
}

/// The measured window of a run.
pub struct Window {
    pub observed: Observed,
    /// When the clients started.
    pub start: Instant,
}

/// Closed loop: each of the workload's clients sends its next request when
/// the previous response has arrived, taking events off the shared stream in
/// order, until `seconds` have passed.  An ingest batch that has come due
/// goes out first, on whichever connection is free next.
pub fn closed_loop(env: &Env, seconds: u64) -> Window {
    let clients = env.inputs.clients;
    let (stream, writes) = (&env.inputs.stream, &env.inputs.writes);
    let cursor = AtomicUsize::new(env.cursor);
    let next_write = AtomicUsize::new(0);
    let mut connections: Vec<HttpClient> = (0..clients)
        .map(|_| HttpClient::connect(env.addr()))
        .collect();
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    let mut observed = Observed::default();
    std::thread::scope(|scope| {
        let (cursor, next_write) = (&cursor, &next_write);
        let threads: Vec<_> = connections
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut seen = Observed::default();
                    while Instant::now() < stop {
                        let write = next_write.load(Ordering::Relaxed);
                        let due = writes.get(write).map(|batch| start + batch.due);
                        let claimed = due.is_some_and(|due| due <= Instant::now())
                            && next_write
                                .compare_exchange(
                                    write,
                                    write + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok();
                        if claimed {
                            seen.issue(env, client, &writes[write], due, None);
                        } else {
                            let position = cursor.fetch_add(1, Ordering::Relaxed);
                            seen.issue(env, client, &stream[position % stream.len()], None, None);
                        }
                    }
                    seen
                })
            })
            .collect();
        for thread in threads {
            observed.merge(thread.join().expect("client thread"));
        }
    });
    Window { observed, start }
}

/// One single-client pass over `events` in order, back to back.  A traced
/// pass opens the root span of request `i` around the `i`-th request.
pub fn pass(env: &Env, events: &[Event], traced: bool) -> Observed {
    let mut client = HttpClient::connect(env.addr());
    let mut seen = Observed::default();
    for (index, event) in events.iter().enumerate() {
        seen.issue(
            env,
            &mut client,
            event,
            None,
            traced.then_some(index as u64 + 1),
        );
    }
    seen
}

/// Median latency of `GET /healthz`: the floor any request pays for the
/// socket, the parser and the handler hand-off.
pub fn healthz_floor_us(env: &Env, requests: usize) -> Result<f64, String> {
    let mut client = HttpClient::connect(env.addr());
    let mut samples = Vec::with_capacity(requests);
    for _ in 0..requests {
        let start = Instant::now();
        let response = client
            .get("/healthz")
            .map_err(|e| format!("healthz: {e}"))?;
        if response.status != 200 {
            return Err(format!("healthz answered {}", response.status));
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&samples))
}

/// After the window: every acknowledged ingest batch must be visible.  One
/// `ASK` per batch for its first triple; returns how many were not.
pub fn invisible_batches(env: &Env, acknowledged: &[u32]) -> Result<u64, String> {
    let mut client = HttpClient::connect(env.addr());
    let path = format!("/kg/{}/sparql", env.inputs.kg);
    let mut invisible = 0;
    for &op in acknowledged {
        let probe = &env.inputs.ops[op as usize].triples[0];
        let ask = format!(
            "ASK {{ {} {} {} }}",
            probe.subject, probe.predicate, probe.object
        );
        let response = client
            .post(&path, "application/sparql-query", &ask)
            .map_err(|e| format!("visibility check: {e}"))?;
        if response.status != 200 || !response.text().contains("\"boolean\":true") {
            invisible += 1;
        }
    }
    Ok(invisible)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_latency_runs_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(3); // generator ran 3 ms late
        let done = sent + Duration::from_millis(2);
        // Closed loop: from the send.
        assert_eq!(latency_and_lag(None, sent, done), (2.0, None));
        // On a schedule: the 3 ms the request waited to be sent count, and
        // are reported as generator lag.
        assert_eq!(latency_and_lag(Some(due), sent, done), (5.0, Some(3.0)));
        // Sent on time (woken a little early and spun): no negative lag.
        assert_eq!(latency_and_lag(Some(sent), due, done), (2.0, Some(0.0)));
    }
}
