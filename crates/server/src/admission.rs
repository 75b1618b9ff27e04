//! Admission control: the pipeline gate and per-client rate limiting.
//!
//! * [`Admission`] is the one gate every question (`/ask`,
//!   `/federate/ask`) passes before its handler thread runs the pipeline: a
//!   counting semaphore with as many permits as the service has configured
//!   workers and a bounded waiting room served in arrival order.  A
//!   request that finds the waiting room full is the server's one
//!   load-shed `503`; it never queues unboundedly and never blocks.
//! * [`RateLimiter`] keeps one [`TokenBucket`] per client, keyed by the
//!   `X-Client-Id` header when present (so load generators can multiplex
//!   clients over few sockets) and by peer IP otherwise (`429`).  Buckets
//!   that have refilled are swept, so fresh ids cannot grow it unbounded.
//!
//! The third admission mechanism, the bounded connection queue, lives with
//! the acceptor in [`crate::server`].

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kgqan_sparql::PoolStats;

/// The pipeline admission gate: `permits` pipeline runs at once, at most
/// `max_waiting` requests blocked waiting for a permit, everything beyond
/// that refused.
#[derive(Debug)]
pub struct Admission {
    permits: usize,
    max_waiting: usize,
    state: Mutex<GateState>,
    /// Signalled whenever a permit is handed to the waiting room.  Every
    /// waiter wakes and re-checks its ticket; waiters are handler threads,
    /// so there are never more of them than the server has handlers.
    turn: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    /// Permits out, including those handed to a waiter that has not woken
    /// up yet.
    running: usize,
    /// Tickets given to requests that had to wait, and how many of them
    /// have been handed a permit, both in arrival order: a finished run
    /// hands its permit to the oldest waiter rather than freeing it, so a
    /// later arrival never overtakes the waiting room.
    tickets: u64,
    admitted: u64,
    completed: u64,
    rejected: u64,
}

/// Returns its permit when dropped, so a run that unwinds frees its slot.
struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.completed += 1;
        if state.admitted < state.tickets {
            state.admitted += 1;
            drop(state);
            self.0.turn.notify_all();
        } else {
            state.running -= 1;
        }
    }
}

impl Admission {
    /// A gate with `permits` permits (at least one) and room for
    /// `max_waiting` blocked requests.
    pub fn new(permits: usize, max_waiting: usize) -> Self {
        Admission {
            permits: permits.max(1),
            max_waiting,
            state: Mutex::new(GateState::default()),
            turn: Condvar::new(),
        }
    }

    /// Every update below leaves the counters consistent before the guard
    /// is released, so a poisoned lock is still safe to read and write.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Run `work` on the calling thread under a permit, waiting for one if
    /// the waiting room has space.  `None` means the waiting room was full
    /// and `work` did not run: the caller sheds the request.  The permit is
    /// returned when `work` returns *or unwinds*.
    pub fn run<T>(&self, work: impl FnOnce() -> T) -> Option<T> {
        let mut state = self.lock();
        if state.running < self.permits {
            state.running += 1;
        } else {
            if state.tickets - state.admitted >= self.max_waiting as u64 {
                state.rejected += 1;
                return None;
            }
            let ticket = state.tickets;
            state.tickets += 1;
            while state.admitted <= ticket {
                state = self
                    .turn
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        drop(state);
        let _permit = Permit(self);
        Some(work())
    }

    /// The gate's counters in the pool's vocabulary: `queued` requests
    /// waiting for a permit, `running` under one, `workers` permits.
    pub fn stats(&self) -> PoolStats {
        let state = self.lock();
        PoolStats {
            queued: (state.tickets - state.admitted) as usize,
            running: state.running,
            workers: self.permits,
            completed: state.completed,
            rejected: state.rejected,
        }
    }
}

/// Requests-per-second budget enforced per client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained refill rate, tokens per second.
    pub per_second: f64,
    /// Bucket capacity: the burst a fresh client may spend at once.
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `per_second` sustained with a burst of the same size.
    pub fn per_second(per_second: f64) -> Self {
        RateLimit {
            per_second,
            burst: per_second.max(1.0),
        }
    }

    /// Override the burst capacity.
    #[must_use]
    pub fn with_burst(mut self, burst: f64) -> Self {
        self.burst = burst.max(1.0);
        self
    }
}

/// A classic token bucket: `burst` capacity, `per_second` refill.
#[derive(Debug)]
pub struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    /// A full bucket.
    pub fn new(limit: RateLimit) -> Self {
        TokenBucket {
            limit,
            tokens: limit.burst,
            refilled: Instant::now(),
        }
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.limit.per_second).min(self.limit.burst);
        self.refilled = now;
    }

    /// True once the bucket has refilled to `burst` by `now`: from then on
    /// it admits exactly like a fresh bucket.
    fn is_full(&self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.tokens + elapsed * self.limit.per_second >= self.limit.burst
    }

    /// Try to spend one token.  `Ok(())` admits the request; `Err(wait)`
    /// rejects it with the time until a token will be available (the
    /// `Retry-After` hint).
    pub fn try_take(&mut self, now: Instant) -> Result<(), Duration> {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            Err(Duration::from_secs_f64(deficit / self.limit.per_second))
        }
    }
}

/// A map of client key → [`TokenBucket`], shared across handler threads.
///
/// Keys are client-chosen, so the map is swept: once it has doubled since
/// the last sweep, buckets that have refilled to `burst` are dropped.  A
/// full bucket admits exactly like the fresh one a later request creates,
/// so a sweep changes no decision, and its cost is amortised `O(1)` per
/// check.
#[derive(Debug)]
pub struct RateLimiter {
    limit: RateLimit,
    buckets: Mutex<Buckets>,
}

#[derive(Debug, Default)]
struct Buckets {
    by_client: HashMap<String, TokenBucket>,
    /// Clients left by the last sweep.
    swept_len: usize,
}

impl RateLimiter {
    /// A limiter applying `limit` independently to every client key.
    pub fn new(limit: RateLimit) -> Self {
        RateLimiter {
            limit,
            buckets: Mutex::new(Buckets::default()),
        }
    }

    /// Admit or reject one request from `client`.  `Err(wait)` carries the
    /// `Retry-After` hint.
    pub fn check(&self, client: &str) -> Result<(), Duration> {
        self.check_at(client, Instant::now())
    }

    /// [`RateLimiter::check`] with an explicit clock, for tests.
    pub fn check_at(&self, client: &str, now: Instant) -> Result<(), Duration> {
        let mut guard = self
            .buckets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let buckets = &mut *guard;
        let verdict = buckets
            .by_client
            .entry(client.to_string())
            .or_insert_with(|| TokenBucket::new(self.limit))
            .try_take(now);
        if buckets.by_client.len() > 2 * buckets.swept_len {
            buckets.by_client.retain(|_, bucket| !bucket.is_full(now));
            buckets.swept_len = buckets.by_client.len();
        }
        verdict
    }

    /// Number of clients holding a bucket: every client seen, less those
    /// whose full buckets a sweep dropped.
    pub fn clients(&self) -> usize {
        self.buckets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .by_client
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// Occupy one permit on a thread of its own until the returned sender
    /// is dropped; returns once the permit is held.
    fn hold_permit(gate: &Arc<Admission>) -> (Sender<()>, JoinHandle<Option<()>>) {
        let (release, released) = channel::<()>();
        let (entered_tx, entered) = channel();
        let gate = Arc::clone(gate);
        let holder = std::thread::spawn(move || {
            gate.run(|| {
                entered_tx.send(()).unwrap();
                let _ = released.recv();
            })
        });
        entered.recv().unwrap();
        (release, holder)
    }

    fn wait_until_queued(gate: &Admission, n: usize) {
        while gate.stats().queued < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn gate_runs_up_to_its_permits_queues_up_to_its_bound_and_refuses_the_rest() {
        let gate = Arc::new(Admission::new(1, 1));
        assert_eq!(gate.run(|| 7), Some(7), "a free permit runs at once");

        let (release, holder) = hold_permit(&gate);
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.run(|| "waited"))
        };
        wait_until_queued(&gate, 1);
        let stats = gate.stats();
        assert_eq!((stats.workers, stats.running, stats.queued), (1, 1, 1));

        // The waiting room is full: refused without blocking or running.
        assert_eq!(
            gate.run(|| unreachable!("shed work must not run")),
            None::<()>
        );
        assert_eq!(gate.stats().rejected, 1);

        drop(release);
        assert_eq!(holder.join().unwrap(), Some(()));
        assert_eq!(waiter.join().unwrap(), Some("waited"));
        let stats = gate.stats();
        assert_eq!((stats.running, stats.queued, stats.completed), (0, 0, 3));
    }

    #[test]
    fn a_later_arrival_never_overtakes_the_waiting_room() {
        let gate = Arc::new(Admission::new(1, 2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (release, holder) = hold_permit(&gate);
        let waiter = {
            let (gate, order) = (Arc::clone(&gate), Arc::clone(&order));
            std::thread::spawn(move || gate.run(|| order.lock().unwrap().push("waited")))
        };
        wait_until_queued(&gate, 1);
        drop(release);
        holder.join().unwrap();
        // The holder passed its permit on rather than freeing it, so this
        // request queues even if the waiter has not woken up yet.
        assert_eq!(gate.run(|| order.lock().unwrap().push("late")), Some(()));
        assert_eq!(waiter.join().unwrap(), Some(()));
        assert_eq!(*order.lock().unwrap(), ["waited", "late"]);
    }

    #[test]
    fn every_waiter_gets_a_permit_whatever_the_wake_up_order() {
        let gate = Arc::new(Admission::new(2, 6));
        let holders = [hold_permit(&gate), hold_permit(&gate)];
        let waiters: Vec<_> = (0..6)
            .map(|i| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || gate.run(|| i))
            })
            .collect();
        wait_until_queued(&gate, 6);
        for (release, holder) in holders {
            drop(release);
            holder.join().unwrap();
        }
        let mut ran: Vec<usize> = waiters
            .into_iter()
            .map(|w| w.join().unwrap().expect("a queued request is never shed"))
            .collect();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2, 3, 4, 5]);
        let stats = gate.stats();
        assert_eq!((stats.running, stats.queued, stats.completed), (0, 0, 8));
    }

    #[test]
    fn panicking_work_returns_its_permit() {
        let gate = Admission::new(1, 0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gate.run(|| -> () { panic!("stage blew up") })
        }));
        assert!(unwound.is_err());
        // With one permit and no waiting room, a leaked permit would shed.
        assert_eq!(gate.run(|| 7), Some(7));
        assert_eq!(gate.stats().running, 0);
    }

    #[test]
    fn bucket_admits_burst_then_rejects() {
        let now = Instant::now();
        let mut bucket = TokenBucket::new(RateLimit::per_second(10.0).with_burst(3.0));
        assert!(bucket.try_take(now).is_ok());
        assert!(bucket.try_take(now).is_ok());
        assert!(bucket.try_take(now).is_ok());
        let wait = bucket.try_take(now).unwrap_err();
        assert!(wait > Duration::ZERO && wait <= Duration::from_millis(100));
    }

    #[test]
    fn bucket_refills_over_time() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(RateLimit::per_second(10.0).with_burst(1.0));
        assert!(bucket.try_take(start).is_ok());
        assert!(bucket.try_take(start).is_err());
        // 150 ms at 10/s refills 1.5 tokens, capped at the burst of 1.
        assert!(bucket.try_take(start + Duration::from_millis(150)).is_ok());
        assert!(bucket.try_take(start + Duration::from_millis(150)).is_err());
    }

    #[test]
    fn limiter_isolates_clients() {
        let now = Instant::now();
        let limiter = RateLimiter::new(RateLimit::per_second(5.0).with_burst(1.0));
        assert!(limiter.check_at("a", now).is_ok());
        assert!(limiter.check_at("a", now).is_err(), "a is out of burst");
        assert!(limiter.check_at("b", now).is_ok(), "b has its own bucket");
        assert_eq!(limiter.clients(), 2);
    }

    #[test]
    fn fresh_ids_per_request_do_not_grow_the_client_map() {
        let limit = RateLimit::per_second(10.0).with_burst(2.0);
        let limiter = RateLimiter::new(limit);
        let t0 = Instant::now();
        for i in 0..10_000 {
            assert!(limiter.check_at(&format!("burst-{i}"), t0).is_ok());
        }
        // None of those buckets has refilled yet, so none can be dropped.
        assert!(limiter.clients() >= 10_000);

        // From the moment they have (`burst / per_second` later), a client
        // sends a fresh id every millisecond while a hog asks as often on
        // one id.  Only the last 100 ms of fresh ids hold a bucket that is
        // not full, so sweeps keep the map near that size, and the hog's
        // drained bucket is never swept: it gets its 429s throughout.
        let refilled = t0 + Duration::from_secs_f64(limit.burst / limit.per_second);
        let mut hog_admitted = 0;
        for i in 0..10_000u64 {
            let now = refilled + Duration::from_millis(i);
            assert!(limiter.check_at(&format!("fresh-{i}"), now).is_ok());
            hog_admitted += usize::from(limiter.check_at("hog", now).is_ok());
        }
        assert!(limiter.clients() < 300, "{} clients", limiter.clients());
        // The burst plus 10 s at 10/s: a swept hog bucket would come back
        // full and admit more.
        assert_eq!(hog_admitted, 101);
    }
}
