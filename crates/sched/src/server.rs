//! Per-tenant reservation servers — the paper's first future-work item
//! (§7): "improve the management of real-time tasks with arbitrary
//! activation patterns by using recurring servers, e.g. [Ghazalie &
//! Baker 1995]".
//!
//! An admitted tenant (see `yasmin_sched::admission`) may reserve
//! `(capacity C_s, period T_s)` of processor time: a [`TenantBudget`].
//! The engine turns it into a [`ReservationServer`], a *deferrable*
//! server: the budget persists through the period until it is consumed
//! (bandwidth-preserving) and is replenished to full every `T_s`,
//! counted from the admission instant. Every dispatch of one of the
//! tenant's jobs is charged against it, and a tenant whose budget is
//! exhausted has its jobs deferred — not dropped — until the next
//! replenishment. The server is pure accounting: the engine keeps one
//! in each budgeted tenant's slot and passes it the time.

use yasmin_core::time::{Duration, Instant};

/// The processor-time reservation requested for a tenant at admission.
///
/// Budget semantics (see `yasmin_sched::admission` for the full tenancy
/// model): the engine charges the *selected version's WCET* against the
/// tenant's [`ReservationServer`] when a job is dispatched. The charge is
/// all-or-nothing — a job whose full WCET does not fit in the remaining
/// budget is deferred to a later dispatch round instead of running with a
/// partial reservation. Charges are never refunded when a job finishes
/// early, so the reservation is conservative. Under sharded scheduling
/// every shard holds its own replica of the server, making the budget a
/// *per-worker* reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantBudget {
    /// Processor time granted per replenishment period.
    pub capacity: Duration,
    /// Replenishment period (also the utilisation the tenant's server
    /// contributes to admission analysis: `capacity / period`).
    pub period: Duration,
}

impl TenantBudget {
    /// A deferrable reservation of `capacity` every `period`.
    #[must_use]
    pub fn deferrable(capacity: Duration, period: Duration) -> Self {
        TenantBudget { capacity, period }
    }

    /// The server utilisation `capacity / period` this budget folds into
    /// schedulability analysis.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        self.capacity.as_nanos() as f64 / self.period.as_nanos() as f64
    }
}

/// A tenant's deferrable reservation server, with the all-or-nothing
/// charge interface the engine's dispatch path uses.
#[derive(Clone, Debug)]
pub struct ReservationServer {
    capacity: Duration,
    period: Duration,
    budget: Duration,
    next_replenish: Instant,
    charged: Duration,
    deferrals: u64,
}

impl ReservationServer {
    /// The server for an admitted `budget`, full, with its replenishment
    /// schedule anchored at `start` (the admission instant): the first
    /// replenishment is at `start + period`.
    ///
    /// # Panics
    ///
    /// Panics on a zero-capacity/period budget or `capacity > period`
    /// (admission validates budgets before constructing servers).
    #[must_use]
    pub fn new(budget: TenantBudget, start: Instant) -> Self {
        let TenantBudget { capacity, period } = budget;
        assert!(!capacity.is_zero(), "server capacity must be positive");
        assert!(!period.is_zero(), "server period must be positive");
        assert!(capacity <= period, "capacity cannot exceed the period");
        ReservationServer {
            capacity,
            period,
            budget: capacity,
            next_replenish: start + period,
            charged: Duration::ZERO,
            deferrals: 0,
        }
    }

    /// Applies the replenishments due by `now`, and returns the budget
    /// available then.
    fn available_at(&mut self, now: Instant) -> Duration {
        while self.next_replenish <= now {
            self.budget = self.capacity;
            self.next_replenish += self.period;
        }
        self.budget
    }

    /// Consumes up to `demand` of the budget available at `now`, and
    /// returns how much it consumed.
    fn serve(&mut self, now: Instant, demand: Duration) -> Duration {
        let granted = demand.min(self.available_at(now));
        self.budget -= granted;
        self.charged += granted;
        granted
    }

    /// Charges `demand` (a dispatched job's selected-version WCET)
    /// against the budget at `now`. All-or-nothing: returns `true` and
    /// consumes `demand` if it fits in the budget available at `now`,
    /// otherwise consumes nothing, counts a deferral and returns `false`
    /// (the engine requeues the job for a later round).
    pub fn try_charge(&mut self, now: Instant, demand: Duration) -> bool {
        if self.available_at(now) >= demand {
            self.serve(now, demand);
            true
        } else {
            self.deferrals += 1;
            false
        }
    }

    /// Charges a WCET *overrun* against the budget at `now`: the job
    /// already ran `overage` beyond what `try_charge` reserved at
    /// dispatch, so that extra time is billed to this tenant —
    /// unconditionally, clamped to the budget that remains — instead of
    /// silently eating other tenants' reservations. Returns how much was
    /// actually recovered from the remaining budget.
    pub fn charge_overrun(&mut self, now: Instant, overage: Duration) -> Duration {
        self.serve(now, overage)
    }

    /// Total processor time charged so far.
    #[must_use]
    pub fn total_charged(&self) -> Duration {
        self.charged
    }

    /// How many dispatch attempts were deferred for lack of budget.
    #[must_use]
    pub fn deferral_count(&self) -> u64 {
        self.deferrals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: u64) -> Instant {
        Instant::ZERO + ms(v)
    }

    fn server(capacity_ms: u64, period_ms: u64) -> ReservationServer {
        ReservationServer::new(
            TenantBudget::deferrable(ms(capacity_ms), ms(period_ms)),
            Instant::ZERO,
        )
    }

    #[test]
    fn deferrable_budget_persists() {
        let mut s = server(2, 10);
        assert_eq!(s.available_at(at(0)), ms(2));
        // Nothing served; budget still there late in the period.
        assert_eq!(s.available_at(at(9)), ms(2));
        assert_eq!(s.serve(at(9), ms(1)), ms(1));
        assert_eq!(s.available_at(at(9)), ms(1));
        // Replenished to full at t=10.
        assert_eq!(s.available_at(at(10)), ms(2));
    }

    #[test]
    fn service_is_budget_bounded() {
        let mut s = server(3, 10);
        assert_eq!(s.serve(at(1), ms(5)), ms(3), "capped at the budget");
        assert_eq!(s.serve(at(2), ms(5)), Duration::ZERO, "exhausted");
        // Next period: more budget.
        assert_eq!(s.serve(at(11), ms(5)), ms(3));
        assert_eq!(s.total_charged(), ms(6));
    }

    #[test]
    fn multiple_missed_replenishments_catch_up() {
        let mut s = server(2, 10);
        let _ = s.serve(at(0), ms(2));
        // Jump far ahead: budget refilled (once, not accumulated)…
        assert_eq!(s.available_at(at(55)), ms(2));
        // …and the next replenishment stays on the period grid, at 60.
        assert_eq!(s.serve(at(55), ms(2)), ms(2));
        assert_eq!(s.available_at(at(59)), Duration::ZERO);
        assert_eq!(s.available_at(at(60)), ms(2));
    }

    #[test]
    #[should_panic(expected = "capacity cannot exceed")]
    fn capacity_over_period_rejected() {
        let _ = server(11, 10);
    }

    #[test]
    fn anchored_server_replenishes_from_start() {
        let budget = TenantBudget::deferrable(ms(2), ms(10));
        let mut s = ReservationServer::new(budget, at(25));
        let _ = s.serve(at(26), ms(2));
        assert_eq!(s.available_at(at(34)), Duration::ZERO);
        // First replenishment at 25 + 10 = 35, not at 30.
        assert_eq!(s.available_at(at(35)), ms(2));
    }

    #[test]
    fn reservation_charge_is_all_or_nothing() {
        let budget = TenantBudget::deferrable(ms(3), ms(10));
        assert!((budget.utilisation() - 0.3).abs() < 1e-12);
        let mut r = ReservationServer::new(budget, at(0));
        assert!(r.try_charge(at(1), ms(2)));
        // 1ms left: a 2ms demand must consume nothing.
        assert!(!r.try_charge(at(2), ms(2)));
        assert_eq!(r.deferral_count(), 1);
        assert!(
            r.try_charge(at(3), ms(1)),
            "untouched remainder still serves"
        );
        // Replenished for the next period.
        assert!(r.try_charge(at(10), ms(3)));
        assert_eq!(r.total_charged(), ms(6));
    }

    #[test]
    fn overrun_charge_is_clamped_to_the_remaining_budget() {
        let mut r = server(3, 10);
        assert!(r.try_charge(at(0), ms(2)));
        // 1ms budget left; a 4ms overrun recovers only that 1ms.
        assert_eq!(r.charge_overrun(at(1), ms(4)), ms(1));
        // Budget now exhausted: further dispatches defer.
        assert!(!r.try_charge(at(2), ms(1)));
        // Overrun with nothing left recovers zero.
        assert_eq!(r.charge_overrun(at(3), ms(1)), Duration::ZERO);
        // Replenishment restores normal service.
        assert!(r.try_charge(at(10), ms(3)));
    }
}
