//! Open-loop pacing: operations fall due on a fixed schedule whether or
//! not earlier ones have finished, so a stall delays every later
//! operation and shows in their latency. Latency is therefore measured
//! from the due time, and the pacer records how late each operation
//! actually started (the generator's own lateness).

use std::time::Instant;

/// The last stretch of a wait, nanoseconds, spent yielding rather than
/// asleep. A Linux sleep overshoots by the 50 µs default timer slack plus
/// the wake-up, so waking this early lets the start land on time.
pub const SPIN_NS: u64 = 100_000;

/// A monotonic nanosecond time source.
pub trait TimeSource {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// Wall time since a fixed instant.
#[derive(Debug, Clone, Copy)]
pub struct WallTime(Instant);

impl WallTime {
    /// A source whose origin is `origin`.
    pub fn at(origin: Instant) -> Self {
        WallTime(origin)
    }
}

impl TimeSource for WallTime {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Fixed-rate schedule: operation `i` falls due at `origin + i · period`.
#[derive(Debug)]
pub struct Pacer<T: TimeSource> {
    time: T,
    origin_ns: u64,
    period_ns: f64,
    /// Start lateness of every operation paced so far, nanoseconds.
    lateness_ns: Vec<u64>,
}

impl<T: TimeSource> Pacer<T> {
    /// A schedule of `rate_per_s` operations per second starting now.
    pub fn new(time: T, rate_per_s: f64) -> Self {
        let origin_ns = time.now_ns();
        Pacer {
            time,
            origin_ns,
            period_ns: 1e9 / rate_per_s,
            lateness_ns: Vec::new(),
        }
    }

    /// When operation `i` falls due, on the time source's clock.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.origin_ns + (i as f64 * self.period_ns) as u64
    }

    /// Waits until operation `i` is due (at once when it is overdue),
    /// records how late it starts, and returns its due time. The wait
    /// sleeps until [`SPIN_NS`] before the due time, then yields in a
    /// loop: the start lands on time, and any runnable thread of the
    /// system under test gets the core first. A spinning generator would
    /// hold a core for the whole run.
    pub fn wait_for(&mut self, i: u64) -> u64 {
        let due = self.due_ns(i);
        let mut now = self.time.now_ns();
        while now < due {
            let left = due - now;
            if left > SPIN_NS {
                std::thread::sleep(std::time::Duration::from_nanos(left - SPIN_NS));
            } else {
                std::thread::yield_now();
            }
            now = self.time.now_ns();
        }
        self.record_start(due, now);
        due
    }

    /// Records that an operation due at `due_ns` started at `start_ns`.
    /// An early start counts as on time, never as negative lateness.
    pub fn record_start(&mut self, due_ns: u64, start_ns: u64) {
        self.lateness_ns.push(start_ns.saturating_sub(due_ns));
    }

    /// Start lateness of every operation paced so far, nanoseconds.
    pub fn lateness_ns(&self) -> &[u64] {
        &self.lateness_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that moves only when told to, or by a fixed step per read.
    struct FakeTime {
        now: Cell<u64>,
        step: u64,
    }

    impl TimeSource for &FakeTime {
        fn now_ns(&self) -> u64 {
            let t = self.now.get();
            self.now.set(t + self.step);
            t
        }
    }

    #[test]
    fn due_times_follow_the_rate() {
        let clock = FakeTime {
            now: Cell::new(1_000),
            step: 0,
        };
        let pacer = Pacer::new(&clock, 1_000.0);
        assert_eq!(pacer.due_ns(0), 1_000);
        assert_eq!(pacer.due_ns(1), 1_001_000);
        assert_eq!(pacer.due_ns(10), 10_001_000);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let clock = FakeTime {
            now: Cell::new(0),
            step: 0,
        };
        let mut pacer = Pacer::new(&clock, 10_000.0); // due every 100 µs
        pacer.record_start(pacer.due_ns(0), 0);
        pacer.record_start(pacer.due_ns(1), 150_000);
        pacer.record_start(pacer.due_ns(2), 210_000);
        // Started before it was due: on time, not negative.
        pacer.record_start(pacer.due_ns(3), 290_000);
        assert_eq!(pacer.lateness_ns(), &[0, 50_000, 10_000, 0]);
    }

    #[test]
    fn overdue_operation_starts_at_once_and_counts_its_delay() {
        // Every clock read advances 40 µs; the schedule wants one
        // operation per 10 µs, so each is overdue by the time it runs.
        let clock = FakeTime {
            now: Cell::new(0),
            step: 40_000,
        };
        let mut pacer = Pacer::new(&clock, 100_000.0);
        let due = pacer.wait_for(3);
        assert_eq!(due, 30_000);
        assert_eq!(pacer.lateness_ns(), &[10_000]);
    }

    #[test]
    fn early_operation_waits_until_due() {
        // Reads advance 1 µs: waiting for a due time 50 µs ahead spins
        // until the clock passes it, so the start is at most one step late.
        let clock = FakeTime {
            now: Cell::new(0),
            step: 1_000,
        };
        let mut pacer = Pacer::new(&clock, 20_000.0);
        let due = pacer.wait_for(1);
        assert_eq!(due, 50_000);
        assert!(pacer.lateness_ns()[0] < 1_000);
        assert!(clock.now.get() > due);
    }
}
