//! Session counters and their conservation law.
//!
//! Every submission increments exactly one of `admitted`/`rejected`,
//! and every admitted query later lands in exactly one of
//! `completed`/`cancelled`/`failed` (being `in_flight` in between), so
//! at every quiescent point:
//!
//! ```text
//! submitted = admitted + rejected
//! admitted  = completed + cancelled + failed + in_flight
//! ```
//!
//! The same discipline as the engine's metrics counters: sums are
//! conserved hop by hop, and the server snapshot is the plain sum of
//! its sessions — there is no second bookkeeping to drift.

use std::time::Duration;

/// Counters for one session (and, summed, for the whole server).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries handed to `submit`.
    pub submitted: u64,
    /// Queries that passed admission control.
    pub admitted: u64,
    /// Queries shed at admission (overload or shutdown).
    pub rejected: u64,
    /// Admitted queries that streamed a full result.
    pub completed: u64,
    /// Admitted queries ended by their cancel token (explicit cancel,
    /// deadline, shutdown) or a stalled consumer.
    pub cancelled: u64,
    /// Admitted queries ended by a typed non-cancel error (quota,
    /// parse/semantic, storage fault).
    pub failed: u64,
    /// Admitted queries not yet finished.
    pub in_flight: u64,
    /// Highest per-query quota-pool peak observed, in pages.
    pub pages_peak: usize,
    /// Total execution wall time across finished queries, in
    /// milliseconds, derived from a microsecond sum so sub-millisecond
    /// queries still add up.
    pub wall_ms: u64,
    /// Total time finished queries spent waiting in the admission
    /// queue, in milliseconds, derived from a microsecond sum.
    pub queue_wait_ms: u64,
    /// The microsecond accumulators `wall_ms` and `queue_wait_ms` are
    /// derived from.
    wall_us: u64,
    queue_wait_us: u64,
}

/// Whole microseconds in `d`, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl SessionStats {
    /// Both conservation identities hold. `in_flight` makes this true
    /// at *every* moment, not just after a drain.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.submitted == self.admitted + self.rejected
            && self.admitted == self.completed + self.cancelled + self.failed + self.in_flight
    }

    /// Fold another session's counters into this one (sums; peak is a
    /// max).
    pub fn absorb(&mut self, other: &SessionStats) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.in_flight += other.in_flight;
        self.pages_peak = self.pages_peak.max(other.pages_peak);
        self.wall_us = self.wall_us.saturating_add(other.wall_us);
        self.queue_wait_us = self.queue_wait_us.saturating_add(other.queue_wait_us);
        self.derive_ms();
    }

    /// Charge one finished query's execution wall time and queue wait.
    /// Sums stay in microseconds; the millisecond totals are re-derived
    /// from them, never truncated per query.
    pub fn record_timing(&mut self, wall: Duration, queue_wait: Duration) {
        self.wall_us = self.wall_us.saturating_add(micros(wall));
        self.queue_wait_us = self.queue_wait_us.saturating_add(micros(queue_wait));
        self.derive_ms();
    }

    fn derive_ms(&mut self) {
        self.wall_ms = self.wall_us / 1000;
        self.queue_wait_ms = self.queue_wait_us / 1000;
    }
}

/// Point-in-time aggregate over all of a server's sessions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Sessions ever opened on the server.
    pub sessions: usize,
    /// Sum of every session's counters (peak is a max).
    pub totals: SessionStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_through_absorb() {
        let a = SessionStats {
            submitted: 5,
            admitted: 4,
            rejected: 1,
            completed: 2,
            cancelled: 1,
            failed: 0,
            in_flight: 1,
            pages_peak: 64,
            ..SessionStats::default()
        };
        let b = SessionStats {
            submitted: 2,
            admitted: 1,
            rejected: 1,
            completed: 1,
            pages_peak: 128,
            ..SessionStats::default()
        };
        assert!(a.conserved() && b.conserved());
        let mut sum = a;
        sum.absorb(&b);
        assert!(sum.conserved());
        assert_eq!(sum.submitted, 7);
        assert_eq!(sum.pages_peak, 128, "peak is a max, not a sum");
    }

    #[test]
    fn sub_millisecond_timings_accumulate() {
        let mut s = SessionStats::default();
        for _ in 0..1_000 {
            s.record_timing(Duration::from_micros(400), Duration::from_micros(400));
        }
        assert_eq!((s.wall_us, s.queue_wait_us), (400_000, 400_000));
        assert_eq!((s.wall_ms, s.queue_wait_ms), (400, 400));
        // Sessions sum in microseconds too: two 0.6 ms waits make 1 ms.
        let mut a = SessionStats::default();
        a.record_timing(Duration::ZERO, Duration::from_micros(600));
        let mut total = SessionStats::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!((a.queue_wait_ms, total.queue_wait_ms), (0, 1));
    }

    #[test]
    fn broken_books_are_detected() {
        let s = SessionStats {
            submitted: 1,
            ..SessionStats::default()
        };
        assert!(!s.conserved());
    }
}
