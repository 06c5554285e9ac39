//! Tenant slots: which tenant holds each slot ([`Slot`]) of the merged
//! task set, and the rules that follow. A driver's
//! [`crate::TenantLedger`] and each of its engines keep a `SlotTable`;
//! the tenancy model is in [`crate::admission`].
//!
//! **Stragglers.** A former holder's job may still run — on its owner,
//! a helper or a thief — or its token travel between shards when the
//! slot's new holder is installed ([`Input::Install`](crate::Input::Install)).
//! Each belongs to a graph instance released before the holder
//! *begins*, an instant its commit fixes
//! ([`Input::Commit`](crate::Input::Commit)). Two rules follow:
//!
//! * **The holder verdict.** A job or token of a slot is its holder's
//!   when the slot is not free and its graph release is no earlier than
//!   where the holder begins. Otherwise it is a former holder's: it
//!   completes or drops and fires nothing. From a recycled slot's
//!   install to the commit an engine hears, the verdict is *undecided*:
//!   a token for the slot — a cross-shard one, or one that a job stolen
//!   from a shard that heard the commit books here — is kept and fires
//!   nothing, and the commit drops it or books it as the holder's. Jobs
//!   running when their tenant is retired fire nothing.
//! * **The holder's server.** Only a job of the holder is charged to the
//!   slot's reservation server, at dispatch and on overrun.

use crate::server::ReservationServer;
use std::ops::Range;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::{Slot, TaskSet};
use yasmin_core::ids::{TaskId, TenantId};
use yasmin_core::time::{Duration, Instant};

/// One slot and its holder — the last one, once the slot is free.
#[derive(Debug, Clone)]
pub(crate) struct Entry<S> {
    pub(crate) tenant: TenantId,
    pub(crate) slot: Slot,
    /// Free: the last holder was retired.
    pub(crate) retired: bool,
    /// What the table's owner keeps of the holder: an engine's
    /// [`Holding`].
    pub(crate) holding: S,
}

/// The tenant slots of a ledger or an engine, in the order they were
/// opened: slot 0 is tenant 0's, the set the schedule was built with,
/// and each later one lies past those before it, so they are in task
/// order too.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable<S = ()> {
    slots: Vec<Entry<S>>,
    /// One past the largest [`TenantId`] ever installed.
    next_tenant: u32,
}

impl<S> SlotTable<S> {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Entry<S>> {
        self.slots.iter()
    }

    pub(crate) fn next_id(&self) -> TenantId {
        TenantId::new(self.next_tenant)
    }

    /// The index of the slot `task` is in, if any task is: the last one
    /// that starts at or before it.
    #[inline]
    fn index_of(&self, task: TaskId) -> usize {
        let starts_by = |e: &Entry<S>| e.slot.first_task <= task.raw();
        self.slots.partition_point(starts_by) - 1
    }

    /// The slot `task` is in; `None` for a task past every slot.
    pub(crate) fn of_task(&self, task: TaskId) -> Option<&Entry<S>> {
        let entry = &self.slots[self.index_of(task)];
        let inside = entry.slot.task_range().contains(&task.index());
        inside.then_some(entry)
    }

    pub(crate) fn free_slots(&self) -> impl Iterator<Item = (usize, &Entry<S>)> {
        self.slots.iter().enumerate().filter(|(_, e)| e.retired)
    }

    /// Installs `tenant` in `slot`: free slot `recycled`, or a new one.
    pub(crate) fn add(
        &mut self,
        tenant: TenantId,
        slot: Slot,
        recycled: Option<usize>,
        holding: S,
    ) {
        let entry = Entry {
            tenant,
            slot,
            retired: false,
            holding,
        };
        match recycled {
            Some(i) => self.slots[i] = entry,
            None => self.slots.push(entry),
        }
        self.next_tenant = tenant.raw() + 1;
    }

    /// The index of the slot `tenant` holds: [`Error::UnknownTenant`]
    /// for an id never installed, [`Error::TenantRetired`] for a retired
    /// one.
    fn held(&self, tenant: TenantId) -> Result<usize> {
        let held = |e: &Entry<S>| e.tenant == tenant && !e.retired;
        match self.slots.iter().position(held) {
            Some(i) => Ok(i),
            None if tenant < self.next_id() => Err(Error::TenantRetired(tenant.raw())),
            None => Err(Error::UnknownTenant(tenant.raw())),
        }
    }

    pub(crate) fn live(&self, tenant: TenantId) -> Result<&Entry<S>> {
        Ok(&self.slots[self.held(tenant)?])
    }

    /// Frees the slot of `tenant` — never tenant 0, the built-in set.
    pub(crate) fn retire(&mut self, tenant: TenantId) -> Result<&Entry<S>> {
        if tenant.index() == 0 {
            return Err(Error::InvalidConfig(
                "tenant 0 is the built-in task set; stop the schedule to end it".into(),
            ));
        }
        let i = self.held(tenant)?;
        self.slots[i].retired = true;
        Ok(&self.slots[i])
    }
}

/// Whose a job or token of a slot is: the holder verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The slot's holder's.
    Holder,
    /// The holder's commit is not heard yet: it may be either.
    Undecided,
    /// A former holder's, or the slot is free.
    Former,
}

/// What an engine keeps of a slot's holder.
#[derive(Debug, Clone, Default)]
pub(crate) struct Holding {
    /// Its releases may be armed.
    committed: bool,
    /// Where it begins; [`Instant::MAX`] while undecided.
    since: Instant,
    pub(crate) server: Option<ReservationServer>,
}

impl Holding {
    /// A holder in a new slot begins at [`Instant::ZERO`], committed if
    /// tenant 0; in free slot `recycled` it is undecided until its commit.
    pub(crate) fn new(
        tenant: TenantId,
        recycled: Option<usize>,
        server: Option<ReservationServer>,
    ) -> Self {
        let since = recycled.map_or(Instant::ZERO, |_| Instant::MAX);
        let committed = tenant.index() == 0;
        Holding {
            committed,
            since,
            server,
        }
    }

    #[inline]
    fn begun_by(&self, graph_release: Instant) -> bool {
        graph_release >= self.since
    }
}

impl SlotTable<Holding> {
    /// The tasks of slot `i` if its holder's releases may be armed:
    /// committed and not retired.
    pub(crate) fn armed_tasks(&self, i: usize) -> Option<Range<usize>> {
        let entry = &self.slots[i];
        (entry.holding.committed && !entry.retired).then(|| entry.slot.task_range())
    }

    /// Commits `tenant`; an undecided holder begins at `since`. Returns
    /// its slot's index, and if it was undecided the slot's edges, whose
    /// kept tokens the verdict now sorts.
    pub(crate) fn commit(
        &mut self,
        tenant: TenantId,
        since: Instant,
    ) -> Result<(usize, Option<Range<usize>>)> {
        let i = self.held(tenant)?;
        let entry = &mut self.slots[i];
        if std::mem::replace(&mut entry.holding.committed, true) {
            return Err(Error::InvalidConfig(format!(
                "tenant {tenant} is already committed"
            )));
        }
        let undecided = entry.holding.since == Instant::MAX;
        if undecided {
            entry.holding.since = since;
        }
        Ok((i, undecided.then(|| entry.slot.edge_range())))
    }

    /// The holder verdict on a job or token of `task` in the graph
    /// instance released at `graph_release`.
    #[inline]
    pub(crate) fn verdict(&self, task: TaskId, graph_release: Instant) -> Verdict {
        match &self.slots[self.index_of(task)] {
            e if e.retired => Verdict::Former,
            e if e.holding.since == Instant::MAX => Verdict::Undecided,
            e if e.holding.begun_by(graph_release) => Verdict::Holder,
            _ => Verdict::Former,
        }
    }

    /// The server a job of `task` in the graph instance released at
    /// `graph_release` is charged to: its holder's, if budgeted.
    #[inline]
    pub(crate) fn holders_server(
        &mut self,
        task: TaskId,
        graph_release: Instant,
    ) -> Option<&mut ReservationServer> {
        let i = self.index_of(task);
        let holding = &mut self.slots[i].holding;
        let begun = holding.begun_by(graph_release);
        holding.server.as_mut().filter(|_| begun)
    }
}

/// Whether tasks `tasks` of `set` may join a schedule under `config`:
/// under partitioned mapping each sits on an existing worker, and each
/// period is a multiple of `tick` — the running tick, `None` for the
/// set that fixes it.
pub(crate) fn check_fit(
    set: &TaskSet,
    tasks: Range<usize>,
    config: &Config,
    tick: Option<Duration>,
) -> Result<()> {
    for t in &set.tasks()[tasks] {
        if config.mapping() == MappingScheme::Partitioned {
            set.partition_of(t.id(), config.workers())?;
        }
        if let Some(tick) = tick.filter(|&tick| !t.spec().fits_tick(tick)) {
            let period = t.spec().period();
            return Err(Error::InvalidConfig(format!(
                "tenant task {} period {period:?} is not a multiple of the running tick {tick:?}",
                t.id()
            )));
        }
    }
    Ok(())
}

/// The slot of what `merged` holds past the end of `before` (all of it
/// without one).
pub(crate) fn slot_past(merged: &TaskSet, before: Option<&TaskSet>) -> Slot {
    let n = |f: fn(&TaskSet) -> usize| (before.map_or(0, f), f(merged));
    let ((t0, t), (e0, e)) = (n(TaskSet::len), n(|s| s.edges().len()));
    let ((c0, c), (a0, a)) = (n(|s| s.channels().len()), n(|s| s.accels().len()));
    Slot {
        first_task: t0 as u32,
        task_count: (t - t0) as u32,
        first_edge: e0 as u32,
        edge_count: (e - e0) as u32,
        first_channel: c0 as u32,
        channel_count: (c - c0) as u32,
        first_accel: a0 as u16,
        accel_count: (a - a0) as u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::TenantBudget;
    use yasmin_core::time::Duration;

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    /// Tenant 0 on task 0, tenant 1 installed on task 1 and retired,
    /// tenant 2 installed in its place with a budget.
    fn recycled() -> SlotTable<Holding> {
        let mut t = SlotTable::default();
        let slot = |first| Slot {
            first_task: first,
            task_count: 1,
            ..Slot::default()
        };
        let held = |t, recycled, server| Holding::new(TenantId::new(t), recycled, server);
        t.add(TenantId::new(0), slot(0), None, held(0, None, None));
        t.add(TenantId::new(1), slot(1), None, held(1, None, None));
        t.commit(TenantId::new(1), at(0)).unwrap();
        t.retire(TenantId::new(1)).unwrap();
        let (free, _) = t.free_slots().next().unwrap();
        let budget = TenantBudget::deferrable(Duration::from_millis(5), Duration::from_millis(20));
        let server = ReservationServer::new(budget, at(0));
        t.add(
            TenantId::new(2),
            slot(1),
            Some(free),
            held(2, Some(free), Some(server)),
        );
        t
    }

    #[test]
    fn the_verdict_is_undecided_until_the_commit_says_where_the_holder_begins() {
        let mut t = recycled();
        let task = TaskId::new(1);
        assert_eq!(t.verdict(task, at(3)), Verdict::Undecided);
        assert_eq!(t.verdict(TaskId::new(0), at(3)), Verdict::Holder);
        let (slot, kept) = t.commit(TenantId::new(2), at(10)).unwrap();
        assert_eq!((slot, kept), (1, Some(0..0)));
        assert_eq!(t.verdict(task, at(9)), Verdict::Former);
        assert_eq!(t.verdict(task, at(10)), Verdict::Holder);
        t.retire(TenantId::new(2)).unwrap();
        assert_eq!(t.verdict(task, at(10)), Verdict::Former);
    }

    #[test]
    fn only_a_job_of_the_holder_is_charged_to_its_server() {
        let mut t = recycled();
        let task = TaskId::new(1);
        assert!(t.holders_server(task, at(3)).is_none(), "undecided");
        t.commit(TenantId::new(2), at(10)).unwrap();
        assert!(t.holders_server(task, at(9)).is_none(), "a former holder's");
        assert!(t.holders_server(task, at(10)).is_some());
        assert!(
            t.holders_server(TaskId::new(0), at(10)).is_none(),
            "unbudgeted"
        );
    }

    #[test]
    fn a_tenant_is_live_retired_or_unknown() {
        let mut t = recycled();
        assert_eq!(t.live(TenantId::new(2)).unwrap().slot.first_task, 1);
        assert!(matches!(
            t.live(TenantId::new(1)),
            Err(Error::TenantRetired(1))
        ));
        assert!(matches!(
            t.live(TenantId::new(3)),
            Err(Error::UnknownTenant(3))
        ));
        assert!(matches!(
            t.retire(TenantId::new(0)),
            Err(Error::InvalidConfig(_))
        ));
        assert!(t.armed_tasks(1).is_none(), "installed, not committed");
        t.commit(TenantId::new(2), at(10)).unwrap();
        assert!(
            t.commit(TenantId::new(2), at(10)).is_err(),
            "a double commit"
        );
        assert_eq!(t.armed_tasks(1), Some(1..2));
        assert_eq!(
            t.of_task(TaskId::new(1)).map(|e| e.tenant),
            Some(TenantId::new(2))
        );
        assert!(t.of_task(TaskId::new(2)).is_none());
    }
}
