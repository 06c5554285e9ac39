//! Time primitives used throughout YASMIN.
//!
//! All scheduler arithmetic is performed on `u64` nanosecond values behind
//! the [`Instant`] and [`Duration`] newtypes. Integer nanoseconds keep the
//! scheduler deterministic (no floating point) and match the paper's use of
//! `clock_gettime(CLOCK_MONOTONIC)` with nanosecond resolution (§3.5).
//!
//! Time zero is *the start of the schedule*: the paper stores the time at
//! which [`start`](https://arxiv.org/abs/2108.00730) is called and computes
//! every timing value relative to it. [`Clock`] implementations follow the
//! same convention.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// A span of time with nanosecond resolution.
///
/// # Examples
///
/// ```
/// use yasmin_core::time::Duration;
///
/// let period = Duration::from_millis(10);
/// assert_eq!(period.as_nanos(), 10_000_000);
/// assert_eq!(period * 3, Duration::from_millis(30));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// The maximum representable span (used as an "infinite" sentinel).
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a span from nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a span from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// The span as nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as (truncated) microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span as (truncated) milliseconds.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span as fractional seconds (for reporting only — never used in
    /// scheduler arithmetic).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs > self`.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked multiplication by a scalar, `None` on overflow.
    #[must_use]
    pub const fn checked_mul(self, rhs: u64) -> Option<Duration> {
        match self.0.checked_mul(rhs) {
            Some(v) => Some(Duration(v)),
            None => None,
        }
    }

    /// The larger of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Scales the span by a rational factor `num / den`, rounding down.
    ///
    /// Used to model relative core speeds (e.g. a LITTLE core running at
    /// 0.5× big-core speed scales WCETs by 2/1).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[must_use]
    pub fn scale(self, num: u64, den: u64) -> Duration {
        assert!(den != 0, "scale denominator must be non-zero");
        let v = (u128::from(self.0) * u128::from(num)) / u128::from(den);
        Duration(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    /// How many times `rhs` fits into `self` (integer division).
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "inf")
        } else if ns >= 1_000_000_000 && ns.is_multiple_of(1_000_000) {
            write!(f, "{}.{:03}s", ns / 1_000_000_000, (ns / 1_000_000) % 1_000)
        } else if ns >= 1_000_000 && ns.is_multiple_of(1_000) {
            write!(f, "{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
        } else if ns >= 1_000 {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Duration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

/// A point in time, measured in nanoseconds since the schedule started.
///
/// # Examples
///
/// ```
/// use yasmin_core::time::{Duration, Instant};
///
/// let t0 = Instant::ZERO;
/// let t1 = t0 + Duration::from_millis(5);
/// assert_eq!(t1 - t0, Duration::from_millis(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The schedule start.
    pub const ZERO: Instant = Instant(0);
    /// Far future sentinel.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the schedule start.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Nanoseconds since the schedule start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of a duration.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_sub(rhs.as_nanos()))
    }

    /// Time elapsed from `earlier` to `self`, or zero if `earlier` is later.
    #[must_use]
    pub const fn saturating_since(self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The larger of two instants.
    #[must_use]
    pub fn max(self, other: Instant) -> Instant {
        Instant(self.0.max(other.0))
    }

    /// The smaller of two instants.
    #[must_use]
    pub fn min(self, other: Instant) -> Instant {
        Instant(self.0.min(other.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0 - rhs.as_nanos())
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", Duration(self.0))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

/// Source of the current time, relative to the schedule start.
///
/// The paper reads `CLOCK_MONOTONIC` and rebases on the instant `start()`
/// was called; [`MonotonicClock`] does the same on top of
/// [`std::time::Instant`]. [`ManualClock`] is a hand-driven clock for tests
/// and the discrete-event simulator.
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Instant;
}

/// Wall-clock time from the OS monotonic clock, rebased to construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    start: std::time::Instant,
}

impl MonotonicClock {
    /// Creates a clock whose zero is *now*.
    #[must_use]
    pub fn new() -> Self {
        MonotonicClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Instant {
        Instant::from_nanos(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// A clock advanced explicitly by the owner; used by tests and the
/// discrete-event simulator.
///
/// # Examples
///
/// ```
/// use yasmin_core::time::{Clock, Duration, Instant, ManualClock};
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now(), Instant::ZERO);
/// clock.advance(Duration::from_micros(7));
/// assert_eq!(clock.now().as_nanos(), 7_000);
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        ManualClock {
            now_ns: AtomicU64::new(0),
        }
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.now_ns.fetch_add(d.as_nanos(), Ordering::SeqCst);
    }

    /// Jumps the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` is earlier than the current time
    /// (monotonicity violation).
    pub fn set(&self, t: Instant) {
        let prev = self.now_ns.swap(t.as_nanos(), Ordering::SeqCst);
        debug_assert!(prev <= t.as_nanos(), "ManualClock moved backwards");
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.now_ns.load(Ordering::SeqCst))
    }
}

/// Greatest common divisor of two spans.
///
/// The scheduler thread's activation period is "determined using the
/// greatest common divisor of all the declared task periods" (§3.3).
#[must_use]
pub fn gcd(a: Duration, b: Duration) -> Duration {
    let (mut a, mut b) = (a.as_nanos(), b.as_nanos());
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    Duration::from_nanos(a)
}

/// Least common multiple of two spans (the hyperperiod building block).
///
/// Saturates at `Duration::MAX` on overflow.
#[must_use]
pub fn lcm(a: Duration, b: Duration) -> Duration {
    if a.is_zero() || b.is_zero() {
        return Duration::ZERO;
    }
    let g = gcd(a, b).as_nanos();
    let v = (u128::from(a.as_nanos()) / u128::from(g)) * u128::from(b.as_nanos());
    Duration::from_nanos(u64::try_from(v).unwrap_or(u64::MAX))
}

/// GCD over an iterator of spans; `None` if the iterator is empty or only
/// contains zero spans.
pub fn gcd_all<I: IntoIterator<Item = Duration>>(periods: I) -> Option<Duration> {
    let mut acc: Option<Duration> = None;
    for p in periods {
        if p.is_zero() {
            continue;
        }
        acc = Some(match acc {
            None => p,
            Some(g) => gcd(g, p),
        });
    }
    acc
}

/// LCM over an iterator of spans (the hyperperiod); `None` if empty.
pub fn lcm_all<I: IntoIterator<Item = Duration>>(periods: I) -> Option<Duration> {
    let mut acc: Option<Duration> = None;
    for p in periods {
        if p.is_zero() {
            continue;
        }
        acc = Some(match acc {
            None => p,
            Some(l) => lcm(l, p),
        });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_micros(10);
        let b = Duration::from_micros(4);
        assert_eq!(a + b, Duration::from_micros(14));
        assert_eq!(a - b, Duration::from_micros(6));
        assert_eq!(a * 3, Duration::from_micros(30));
        assert_eq!(a / 2, Duration::from_micros(5));
        assert_eq!(a / b, 2);
        assert_eq!(a % b, Duration::from_micros(2));
    }

    #[test]
    fn duration_saturating_sub_clamps() {
        let a = Duration::from_nanos(5);
        let b = Duration::from_nanos(9);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.saturating_sub(a), Duration::from_nanos(4));
    }

    #[test]
    fn duration_scale_rationals() {
        let wcet = Duration::from_millis(100);
        // LITTLE core at 0.4x speed -> work takes 100 * 10 / 4 = 250 ms.
        assert_eq!(wcet.scale(10, 4), Duration::from_millis(250));
        assert_eq!(wcet.scale(1, 1), wcet);
        assert_eq!(Duration::ZERO.scale(7, 3), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn duration_scale_zero_den_panics() {
        let _ = Duration::from_nanos(1).scale(1, 0);
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
        assert_eq!(Duration::from_micros(12).to_string(), "12us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
        assert_eq!(Duration::MAX.to_string(), "inf");
    }

    #[test]
    fn instant_duration_interplay() {
        let t = Instant::from_nanos(1_000);
        let t2 = t + Duration::from_nanos(500);
        assert_eq!(t2 - t, Duration::from_nanos(500));
        assert_eq!(
            t2.saturating_since(Instant::from_nanos(2_000)),
            Duration::ZERO
        );
        assert_eq!(t.saturating_sub(Duration::from_nanos(5_000)), Instant::ZERO);
    }

    #[test]
    fn gcd_of_typical_periods() {
        // 10ms and 25ms -> 5ms scheduler tick.
        let g = gcd(Duration::from_millis(10), Duration::from_millis(25));
        assert_eq!(g, Duration::from_millis(5));
    }

    #[test]
    fn gcd_all_skips_zero_and_handles_empty() {
        assert_eq!(gcd_all(Vec::new()), None);
        assert_eq!(gcd_all(vec![Duration::ZERO]), None);
        let g = gcd_all(vec![
            Duration::from_millis(500),
            Duration::from_millis(10),
            Duration::ZERO,
        ]);
        assert_eq!(g, Some(Duration::from_millis(10)));
    }

    #[test]
    fn lcm_hyperperiod() {
        let h = lcm_all(vec![
            Duration::from_millis(10),
            Duration::from_millis(25),
            Duration::from_millis(4),
        ]);
        assert_eq!(h, Some(Duration::from_millis(100)));
    }

    #[test]
    fn lcm_overflow_saturates() {
        let big = Duration::from_nanos(u64::MAX - 1);
        let other = Duration::from_nanos(u64::MAX - 3);
        assert_eq!(lcm(big, other), Duration::MAX);
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Instant::ZERO);
        c.advance(Duration::from_millis(3));
        c.advance(Duration::from_millis(2));
        assert_eq!(c.now(), Instant::from_nanos(5_000_000));
        c.set(Instant::from_nanos(9_000_000));
        assert_eq!(c.now().as_nanos(), 9_000_000);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn std_duration_round_trip() {
        let d = Duration::from_micros(1234);
        let s: std::time::Duration = d.into();
        assert_eq!(Duration::from(s), d);
    }
}
