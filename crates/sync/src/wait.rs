//! Waiting strategies: kernel sleep vs busy spin.
//!
//! YASMIN offers "the option to configure the waiting strategy in two
//! ways: 1. sleep (default): calls some kernel code, which is hardly
//! timing-analysable, 2. spinlock: enable a more precise overhead analysis
//! at the cost of potential energy waste" (§3.5). The scheduler thread and
//! idle workers wait for their next activation through this module.
//!
//! A kernel sleep wakes *late*: timer slack plus the way back onto a
//! core, by an amount that varies from one sleep to the next and with
//! the sleep before it. [`TimerLead`] learns that lateness from the
//! sleeps themselves and reads it at two ranks. Its lower quartile arms
//! a sleep that is to end on its target: most such sleeps then end just
//! past it, and the rest a little before it, spinning the difference
//! away. Its upper decile arms a sleep that is to end *before* a point:
//! nine in ten do. A sleeper that meets a target after a long wait does
//! both, with one `TimerLead` per kind of sleep: a long sleep armed the
//! upper decile of long sleeps ahead of where a short one is armed, and
//! then the short one, armed the lower quartile of short sleeps ahead
//! of the target.

use std::time::{Duration as StdDuration, Instant as StdInstant};
use yasmin_core::time::{Duration, Instant};

/// How a thread waits for a point in time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WaitMode {
    /// Sleep in the kernel, waking close to (but not before) the target.
    #[default]
    Sleep,
    /// Busy-spin on the clock until the target: precise, energy-hungry.
    Spin,
    /// Sleep until shortly before the target, then spin the rest — the
    /// usual compromise used by cyclictest-style measurement loops.
    HybridSpin {
        /// How long before the target to switch from sleeping to spinning.
        spin_window_us: u32,
    },
}

/// Blocks the calling thread until `deadline` (a [`std::time::Instant`]),
/// using the given strategy. Returns the observed wake-up lateness.
///
/// Returns [`StdDuration::ZERO`] if `deadline` already passed.
pub fn wait_until(mode: WaitMode, deadline: StdInstant) -> StdDuration {
    match mode {
        WaitMode::Sleep => {
            let now = StdInstant::now();
            if deadline > now {
                std::thread::sleep(deadline - now);
            }
        }
        WaitMode::Spin => {
            while StdInstant::now() < deadline {
                std::hint::spin_loop();
            }
        }
        WaitMode::HybridSpin { spin_window_us } => {
            let window = StdDuration::from_micros(u64::from(spin_window_us));
            let now = StdInstant::now();
            if deadline > now + window {
                std::thread::sleep(deadline - now - window);
            }
            while StdInstant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }
    StdInstant::now().saturating_duration_since(deadline)
}

/// Blocks for `d` from now using the given strategy; returns lateness.
pub fn wait_for(mode: WaitMode, d: StdDuration) -> StdDuration {
    wait_until(mode, StdInstant::now() + d)
}

/// How early to arm a timed sleep: the wake-up lateness of the last
/// [`TimerLead::WINDOW`] sleeps that ran into their timeout, read at one
/// of two ranks.
///
/// [`TimerLead::lead`], the lower quartile, arms a sleep that is to end
/// *on* its target. Not the minimum: lateness spreads by tens of µs
/// between its quickest tenth and its median, so a lead at the floor
/// leaves a typical sleep ending that spread past its target, and one
/// unusually quick wake-up holds the lead down for a whole window. A
/// sleep armed at `target − lead` instead wakes early about one time in
/// four, by a few µs, which the sleeper spins away; the other three end
/// closer to the target than a floor would let them. A single quick
/// sample moves the lead by one rank only, and a lasting drop in
/// lateness is followed within `WINDOW / 4 + 1` samples.
///
/// [`TimerLead::upper_decile`] arms a sleep that is to end *before* a
/// point, where a shorter sleep or a spin takes over: about nine sleeps
/// in ten armed that far ahead of the point end ahead of it. One slow
/// sample in a full window does not move it; a burst of more than a
/// tenth of the window holds it up until the burst is overwritten.
///
/// Both read zero until [`TimerLead::WARM_UP`] samples exist, and at
/// most [`TimerLead::CAP`]. A host whose timer is on time teaches zero.
///
/// Pure state over a fixed array: no clock, no allocation, no thread.
#[derive(Clone, Debug)]
pub struct TimerLead {
    /// `woke − armed` of the last sleeps that counted, as a ring.
    late: [Duration; Self::WINDOW],
    /// Where the next sample goes.
    next: usize,
    /// Samples held, up to the window.
    held: usize,
}

impl TimerLead {
    /// Samples remembered: a low one is forgotten after this many more.
    pub const WINDOW: usize = 64;
    /// Samples needed before any lead is given.
    pub const WARM_UP: usize = 8;
    /// The longest lead ever given, and so the longest a sleeper can
    /// find itself early when the lateness it had learned vanishes.
    pub const CAP: Duration = Duration::from_micros(500);

    /// No samples, no lead.
    #[must_use]
    pub const fn new() -> Self {
        TimerLead {
            late: [Duration::ZERO; Self::WINDOW],
            next: 0,
            held: 0,
        }
    }

    /// One sleep armed to end at `armed` that returned at `woke`.
    /// `timed_out` says the timeout is what ended it; a sleep cut short
    /// by a ring, or one that returned before `armed`, says nothing
    /// about the timer and is ignored.
    pub fn observe(&mut self, armed: Instant, woke: Instant, timed_out: bool) {
        if !timed_out || woke < armed {
            return;
        }
        self.late[self.next] = woke - armed;
        self.next = (self.next + 1) % Self::WINDOW;
        self.held = (self.held + 1).min(Self::WINDOW);
    }

    /// How early to arm a sleep that is to end on its target: the
    /// sample at ascending rank `held / 4`, the 17th smallest of a full
    /// window.
    #[must_use]
    pub fn lead(&self) -> Duration {
        self.ranked(self.held / 4)
    }

    /// How early to arm a sleep that is to end before a point: the
    /// sample at ascending rank `⌊9 · held / 10⌋`, the 58th smallest of
    /// a full window.
    #[must_use]
    pub fn upper_decile(&self) -> Duration {
        self.ranked(9 * self.held / 10)
    }

    /// The sample at ascending `rank` of those held, at most
    /// [`TimerLead::CAP`]; zero until [`TimerLead::WARM_UP`] samples
    /// exist. Selects on a stack copy of the ring: O(`WINDOW`), no
    /// allocation.
    fn ranked(&self, rank: usize) -> Duration {
        if self.held < Self::WARM_UP {
            return Duration::ZERO;
        }
        let mut late = self.late;
        let (_, &mut sample, _) = late[..self.held].select_nth_unstable(rank);
        sample.min(Self::CAP)
    }
}

impl Default for TimerLead {
    fn default() -> Self {
        Self::new()
    }
}

/// Exponential backoff for contended retry loops (spin a few times, then
/// yield). Bounded: never sleeps, so worst-case per-step cost is small.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// A fresh backoff.
    #[must_use]
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Performs one backoff step.
    pub fn snooze(&mut self) {
        if self.step < 6 {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Resets to the initial (cheapest) step.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_reaches_deadline() {
        let start = StdInstant::now();
        let late = wait_for(WaitMode::Sleep, StdDuration::from_millis(5));
        assert!(start.elapsed() >= StdDuration::from_millis(5));
        // Lateness is non-negative by construction.
        assert!(late >= StdDuration::ZERO);
    }

    #[test]
    fn spin_reaches_deadline_precisely() {
        let start = StdInstant::now();
        let late = wait_for(WaitMode::Spin, StdDuration::from_micros(200));
        assert!(start.elapsed() >= StdDuration::from_micros(200));
        // Spinning should overshoot far less than a scheduler quantum.
        assert!(late < StdDuration::from_millis(50));
    }

    #[test]
    fn hybrid_reaches_deadline() {
        let start = StdInstant::now();
        wait_for(
            WaitMode::HybridSpin {
                spin_window_us: 100,
            },
            StdDuration::from_millis(2),
        );
        assert!(start.elapsed() >= StdDuration::from_millis(2));
    }

    #[test]
    fn past_deadline_returns_immediately() {
        let past = StdInstant::now() - StdDuration::from_millis(1);
        for mode in [
            WaitMode::Sleep,
            WaitMode::Spin,
            WaitMode::HybridSpin { spin_window_us: 10 },
        ] {
            let late = wait_until(mode, past);
            assert!(late >= StdDuration::from_millis(1));
        }
    }

    /// Feeds one timed-out sleep that woke `late_us` after it was armed.
    fn timed_out(lead: &mut TimerLead, late_us: u64) {
        let armed = Instant::from_nanos(1_000_000);
        lead.observe(armed, armed + Duration::from_micros(late_us), true);
    }

    /// Feeds a full window of `late_us`.
    fn fill(lead: &mut TimerLead, late_us: u64) {
        for _ in 0..TimerLead::WINDOW {
            timed_out(lead, late_us);
        }
    }

    #[test]
    fn lead_is_the_window_lower_quartile_once_warm() {
        let mut lead = TimerLead::new();
        for late in [130, 99, 167, 120, 126, 140, 111] {
            timed_out(&mut lead, late);
            assert_eq!(lead.lead(), Duration::ZERO, "7 samples or fewer");
        }
        // 99 111 [120] 126 130 140 150 167: rank 8 / 4 = 2.
        timed_out(&mut lead, 150);
        assert_eq!(lead.lead(), Duration::from_micros(120));
        // 99 104 [111] 120 …: still rank 2 of 9.
        timed_out(&mut lead, 104);
        assert_eq!(lead.lead(), Duration::from_micros(111));
        // A full window of 1..=64 µs in any order: the 17th smallest.
        for late in (1..=64).rev() {
            timed_out(&mut lead, late * 37 % 64 + 1);
        }
        assert_eq!(lead.lead(), Duration::from_micros(17));
    }

    #[test]
    fn lead_ignores_one_quick_wake() {
        // The minimum would sit at 10 µs for the next 64 sleeps, each
        // of them then ending 110 µs past its target.
        let mut lead = TimerLead::new();
        fill(&mut lead, 120);
        timed_out(&mut lead, 10);
        assert_eq!(lead.lead(), Duration::from_micros(120));
        // Nor does it while the window is still filling.
        let mut warm = TimerLead::new();
        for late in [120, 120, 10, 120, 120, 120, 120, 120] {
            timed_out(&mut warm, late);
        }
        assert_eq!(warm.lead(), Duration::from_micros(120));
    }

    #[test]
    fn lead_forgets_low_samples_after_a_window_of_others() {
        // A quarter of the window and one more low: they hold the lead.
        let mut lead = TimerLead::new();
        for _ in 0..TimerLead::WINDOW / 4 + 1 {
            timed_out(&mut lead, 40);
        }
        for _ in TimerLead::WINDOW / 4 + 1..TimerLead::WINDOW {
            timed_out(&mut lead, 120);
        }
        assert_eq!(lead.lead(), Duration::from_micros(40));
        // The oldest is overwritten: a quarter is not enough.
        timed_out(&mut lead, 125);
        assert_eq!(lead.lead(), Duration::from_micros(120));
    }

    #[test]
    fn lead_follows_a_drop_within_a_quarter_window() {
        // A sleeper armed at `target − lead` that wakes `late` after
        // `armed` is early by `lead − late` and spins it away, until a
        // quarter of the window shows the drop.
        let mut lead = TimerLead::new();
        fill(&mut lead, 120);
        for _ in 0..TimerLead::WINDOW / 4 {
            timed_out(&mut lead, 30);
            assert_eq!(lead.lead(), Duration::from_micros(120));
        }
        timed_out(&mut lead, 30);
        assert_eq!(lead.lead(), Duration::from_micros(30));
        // A host whose timer turns out to be on time: no lead at all,
        // just as soon.
        for _ in 0..TimerLead::WINDOW / 4 {
            timed_out(&mut lead, 0);
        }
        assert_eq!(lead.lead(), Duration::from_micros(30));
        timed_out(&mut lead, 0);
        assert_eq!(lead.lead(), Duration::ZERO);
    }

    #[test]
    fn lead_never_exceeds_the_cap() {
        let mut lead = TimerLead::new();
        for _ in 0..TimerLead::WINDOW {
            timed_out(&mut lead, 4_000);
            assert!(lead.lead() <= TimerLead::CAP);
            assert!(lead.upper_decile() <= TimerLead::CAP);
        }
        assert_eq!(lead.lead(), TimerLead::CAP);
        assert_eq!(lead.upper_decile(), TimerLead::CAP);
    }

    #[test]
    fn lead_upper_decile_is_rank_nine_tenths_once_warm() {
        let mut lead = TimerLead::new();
        for late in [130, 99, 167, 120, 126, 140, 111] {
            timed_out(&mut lead, late);
            assert_eq!(lead.upper_decile(), Duration::ZERO, "7 samples or fewer");
        }
        // 99 111 120 126 130 140 150 [167]: rank 72 / 10 = 7.
        timed_out(&mut lead, 150);
        assert_eq!(lead.upper_decile(), Duration::from_micros(167));
        // A full window of 1..=64 µs in any order: the 58th smallest,
        // beside the 17th smallest of the lower quartile.
        for late in (1..=64).rev() {
            timed_out(&mut lead, late * 37 % 64 + 1);
        }
        assert_eq!(lead.upper_decile(), Duration::from_micros(58));
        assert_eq!(lead.lead(), Duration::from_micros(17));
        // Sleeps the timer did not end count for nothing here either.
        let mut cold = TimerLead::new();
        let armed = Instant::from_nanos(1_000_000);
        for _ in 0..TimerLead::WINDOW {
            cold.observe(armed, armed + Duration::from_micros(50), false);
        }
        assert_eq!(cold.upper_decile(), Duration::ZERO);
    }

    #[test]
    fn lead_upper_decile_forgets_a_spike_after_a_window() {
        // One slow wake-up among the warm-up's eight is their upper
        // decile until it is a tenth of the samples or less, at 11.
        let mut lead = TimerLead::new();
        for late in [80, 80, 80, 300, 80, 80, 80, 80] {
            timed_out(&mut lead, late);
        }
        for _ in 0..2 {
            assert_eq!(lead.upper_decile(), Duration::from_micros(300));
            timed_out(&mut lead, 80);
        }
        assert_eq!(lead.upper_decile(), Duration::from_micros(300));
        timed_out(&mut lead, 80);
        assert_eq!(lead.upper_decile(), Duration::from_micros(80));
        // In a full window one spike does not move it at all.
        fill(&mut lead, 80);
        timed_out(&mut lead, 300);
        assert_eq!(lead.upper_decile(), Duration::from_micros(80));
        // Seven — more than a tenth — hold it up for the rest of the
        // window, and it drops as soon as the first of them is
        // overwritten.
        fill(&mut lead, 80);
        for _ in 0..7 {
            timed_out(&mut lead, 300);
        }
        for _ in 0..TimerLead::WINDOW - 7 {
            assert_eq!(lead.upper_decile(), Duration::from_micros(300));
            timed_out(&mut lead, 80);
        }
        assert_eq!(lead.upper_decile(), Duration::from_micros(300));
        timed_out(&mut lead, 80);
        assert_eq!(lead.upper_decile(), Duration::from_micros(80));
    }

    #[test]
    fn lead_ignores_sleeps_the_timer_did_not_end() {
        let mut lead = TimerLead::new();
        for _ in 0..TimerLead::WARM_UP {
            timed_out(&mut lead, 120);
        }
        let armed = Instant::from_nanos(1_000_000);
        // Rung awake just past the armed instant, and a stale token
        // that returned before it: neither is the timer's lateness.
        lead.observe(armed, armed + Duration::from_micros(2), false);
        lead.observe(armed, armed - Duration::from_micros(300), true);
        lead.observe(armed, armed - Duration::from_micros(300), false);
        assert_eq!(lead.lead(), Duration::from_micros(120));
        // Nor do they count towards the warm-up.
        let mut cold = TimerLead::new();
        for _ in 0..TimerLead::WINDOW {
            cold.observe(armed, armed + Duration::from_micros(50), false);
        }
        assert_eq!(cold.lead(), Duration::ZERO);
    }

    #[test]
    fn backoff_progresses() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.snooze();
        }
        b.reset();
        b.snooze();
    }
}
