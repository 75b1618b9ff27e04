//! Per-endpoint request accounting.

use std::time::Duration;

/// Cumulative statistics about requests served by an endpoint.
///
/// KGQAn's analysis (Section 7.2.4) separates linking queries from candidate
/// answer queries; the in-process endpoint classifies them by inspecting the
/// query text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Total requests served.
    pub total_requests: usize,
    /// Requests that used the engine's full-text predicate (linking probes).
    pub text_search_requests: usize,
    /// ASK requests.
    pub ask_requests: usize,
    /// Requests that failed to parse or evaluate.
    pub failed_requests: usize,
    /// Total time spent answering requests (including injected latency).
    /// Semantic-cache hits never reach the engine and are counted by the
    /// cache namespace (`QueryCache::stats`), not here.
    pub total_time: Duration,
}

impl RequestStats {
    /// Mean time per request, or zero when no requests were served.
    ///
    /// `Duration`'s integer division only takes a `u32`, and `total_requests
    /// as u32` would silently truncate for counts above `u32::MAX` (quietly
    /// inflating the mean); divide through `f64` instead, which handles the
    /// full `usize` range.
    pub fn mean_latency(&self) -> Duration {
        if self.total_requests == 0 {
            Duration::ZERO
        } else {
            self.total_time.div_f64(self.total_requests as f64)
        }
    }

    /// Merge another stats snapshot into this one.
    pub fn merge(&mut self, other: &RequestStats) {
        self.total_requests += other.total_requests;
        self.text_search_requests += other.text_search_requests;
        self.ask_requests += other.ask_requests;
        self.failed_requests += other.failed_requests;
        self.total_time += other.total_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency_handles_zero_requests() {
        assert_eq!(RequestStats::default().mean_latency(), Duration::ZERO);
    }

    #[test]
    fn mean_latency_divides_total() {
        let stats = RequestStats {
            total_requests: 4,
            total_time: Duration::from_millis(100),
            ..Default::default()
        };
        assert_eq!(stats.mean_latency(), Duration::from_millis(25));
    }

    #[test]
    fn mean_latency_survives_counts_beyond_u32() {
        // 2^32 requests at 2ns each: a `total_requests as u32` cast wraps to
        // 0 and the old code divided by zero-ish garbage; the f64 path keeps
        // the exact mean (both operands are exactly representable).
        let count = u32::MAX as usize + 1;
        let stats = RequestStats {
            total_requests: count,
            total_time: Duration::from_nanos(2 * count as u64),
            ..Default::default()
        };
        assert_eq!(stats.mean_latency(), Duration::from_nanos(2));
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = RequestStats {
            total_requests: 1,
            text_search_requests: 1,
            ask_requests: 0,
            failed_requests: 0,
            total_time: Duration::from_millis(5),
        };
        let b = RequestStats {
            total_requests: 2,
            text_search_requests: 0,
            ask_requests: 1,
            failed_requests: 1,
            total_time: Duration::from_millis(10),
        };
        a.merge(&b);
        assert_eq!(a.total_requests, 3);
        assert_eq!(a.text_search_requests, 1);
        assert_eq!(a.ask_requests, 1);
        assert_eq!(a.failed_requests, 1);
        assert_eq!(a.total_time, Duration::from_millis(15));
    }
}
