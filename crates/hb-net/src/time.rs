//! Time sources: mapping the protocols' discrete ticks onto real or
//! virtual time.
//!
//! The `hb-core` machines count in abstract unit ticks (the same unit as
//! [`Params`](hb_core::Params)). A [`TimeSource`] decides what a tick
//! means: [`WallClock`] pins tick 0 to a real instant and advances with
//! wall time (the digital-clock semantics of the verification models, run
//! live), while [`VirtualClock`] is advanced by hand, giving bit-for-bit
//! deterministic runs for tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Discrete protocol time, in ticks. Identical to the simulator's
/// [`hb_sim::channel::Time`].
pub type Time = u64;

/// Something that can tell the current tick and how long (in real time)
/// until a future tick.
pub trait TimeSource: Send + Sync {
    /// The current tick.
    fn now(&self) -> Time;

    /// Real-time duration from now until tick `t` begins (zero if `t` is
    /// already past, or for virtual time sources).
    fn until(&self, t: Time) -> Duration;
}

/// A wall-clock time source: tick `t` begins `t × tick` after creation.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
    tick: Duration,
}

impl WallClock {
    /// Start counting ticks of length `tick` from now.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn new(tick: Duration) -> Self {
        assert!(!tick.is_zero(), "tick length must be positive");
        WallClock {
            start: Instant::now(),
            tick,
        }
    }

    /// The tick length.
    pub fn tick(&self) -> Duration {
        self.tick
    }
}

impl TimeSource for WallClock {
    fn now(&self) -> Time {
        (self.start.elapsed().as_nanos() / self.tick.as_nanos()) as Time
    }

    fn until(&self, t: Time) -> Duration {
        let deadline = self.start + self.tick.saturating_mul(t.min(u64::from(u32::MAX)) as u32);
        deadline.saturating_duration_since(Instant::now())
    }
}

/// A time source whose clock runs at a rational multiple of another's,
/// plus a fixed offset: local tick = `offset + inner·num/den`. This is
/// how per-node clock drift and skew are injected into the live runtime —
/// a node driven by a `SkewedClock` observes deadlines early (fast clock,
/// `num > den`) or late (slow clock), while the rest of the cluster keeps
/// true time.
#[derive(Clone, Debug)]
pub struct SkewedClock<C> {
    inner: C,
    offset: Time,
    num: u64,
    den: u64,
}

impl<C: TimeSource> SkewedClock<C> {
    /// Skew `inner` by `offset` ticks and a `num/den` rate.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero (a stopped clock hangs a node).
    pub fn new(inner: C, offset: Time, num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "skew rate must be positive");
        SkewedClock {
            inner,
            offset,
            num,
            den,
        }
    }

    /// Map a true tick onto this clock's local tick.
    pub fn map(&self, t: Time) -> Time {
        self.offset + t.saturating_mul(self.num) / self.den
    }

    /// The true tick at which this clock first reads `local` or more
    /// (saturating; used to translate local deadlines back to true time).
    pub fn unmap(&self, local: Time) -> Time {
        if local <= self.offset {
            return 0;
        }
        // Smallest t with offset + t*num/den >= local.
        let need = local - self.offset;
        need.saturating_mul(self.den).div_ceil(self.num)
    }
}

impl<C: TimeSource> TimeSource for SkewedClock<C> {
    fn now(&self) -> Time {
        self.map(self.inner.now())
    }

    fn until(&self, t: Time) -> Duration {
        self.inner.until(self.unmap(t))
    }
}

/// A manually advanced time source for deterministic runs. Cloning
/// shares the underlying counter, so every node of a virtual cluster
/// observes the same tick.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A virtual clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance by `ticks`.
    pub fn advance(&self, ticks: Time) {
        self.0.fetch_add(ticks, Ordering::SeqCst);
    }
}

impl TimeSource for VirtualClock {
    fn now(&self) -> Time {
        self.0.load(Ordering::SeqCst)
    }

    fn until(&self, _t: Time) -> Duration {
        Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_shared_and_manual() {
        let a = VirtualClock::new();
        let b = a.clone();
        assert_eq!(a.now(), 0);
        a.advance(5);
        assert_eq!(b.now(), 5);
        assert_eq!(b.until(100), Duration::ZERO);
    }

    #[test]
    fn wall_clock_advances_with_real_time() {
        let c = WallClock::new(Duration::from_millis(1));
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(10));
        assert!(c.now() >= t0 + 5, "clock must have advanced several ticks");
        // A far-future tick is a positive wait; a past tick is zero.
        assert!(c.until(1_000_000) > Duration::ZERO);
        assert_eq!(c.until(0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tick_is_rejected() {
        WallClock::new(Duration::ZERO);
    }

    #[test]
    fn skewed_clock_runs_fast_slow_and_offset() {
        let base = VirtualClock::new();
        let fast = SkewedClock::new(base.clone(), 0, 3, 2);
        let slow = SkewedClock::new(base.clone(), 0, 1, 2);
        let ahead = SkewedClock::new(base.clone(), 10, 1, 1);
        base.advance(100);
        assert_eq!(fast.now(), 150);
        assert_eq!(slow.now(), 50);
        assert_eq!(ahead.now(), 110);
        // Deadline translation: local 150 on the fast clock is true 100.
        assert_eq!(fast.unmap(150), 100);
        assert_eq!(slow.unmap(50), 100);
        assert_eq!(ahead.unmap(5), 0, "already past");
        assert_eq!(fast.until(10_000), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "skew rate")]
    fn zero_skew_rate_is_rejected() {
        SkewedClock::new(VirtualClock::new(), 0, 0, 1);
    }
}
