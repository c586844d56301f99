//! The service's single wall-clock site.
//!
//! Lease expiry and heartbeat pacing need real elapsed time, but the
//! workspace's clippy configuration (rightly) refuses ad-hoc clock
//! reads: a clock leak into anything content-addressed would poison the
//! result cache. So every milliseconds-read in the service goes through
//! [`ServiceClock`], whose constructor holds the crate's one sanctioned
//! `Instant::now`, and everything downstream (the lease table, the
//! queue) takes `now_ms` as an argument — making expiry logic pure, and
//! testable with a hand-rolled timeline instead of real sleeps.

use std::time::Instant;

/// Monotonic milliseconds since the clock was constructed.
#[derive(Debug)]
pub struct ServiceClock {
    origin: Instant,
}

impl ServiceClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "lease expiry and heartbeat pacing need real elapsed time; nothing downstream reads a clock"
    )]
    pub fn new() -> ServiceClock {
        ServiceClock { origin: Instant::now() }
    }

    pub fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

impl Default for ServiceClock {
    fn default() -> ServiceClock {
        ServiceClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_is_monotone_from_zero() {
        let clock = ServiceClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
    }
}
