//! Task sets and DAG task graphs.
//!
//! [`TaskSetBuilder`] mirrors the declaration half of the paper's API
//! (Table 1): `task_decl`, `version_decl`, `hwaccel_decl`, `hwaccel_use`,
//! `channel_decl`, `channel_connect`. [`TaskSetBuilder::build`] validates
//! the whole declaration (acyclicity, deadline schemes, channel wiring) and
//! freezes it into an immutable [`TaskSet`] that the scheduler consumes.

use crate::accel::AccelSpec;
use crate::channel::{BackpressurePolicy, ChannelSpec, Edge};
use crate::error::{Error, Result};
use crate::ids::{AccelId, ChannelId, TaskId, VersionId, WorkerId};
use crate::priority::{Priority, PriorityPolicy};
use crate::task::{Task, TaskSpec};
use crate::time::{gcd_all, lcm_all, Duration};
use crate::version::VersionSpec;
use std::ops::Range;

/// An immutable, validated set of tasks, versions, accelerators and
/// channels.
///
/// # Examples
///
/// The diamond graph from the paper's Listing 2:
///
/// ```
/// use yasmin_core::graph::TaskSetBuilder;
/// use yasmin_core::task::TaskSpec;
/// use yasmin_core::time::Duration;
/// use yasmin_core::version::VersionSpec;
///
/// # fn main() -> Result<(), yasmin_core::error::Error> {
/// let mut b = TaskSetBuilder::new();
/// let fork = b.task_decl(TaskSpec::periodic("fork", Duration::from_millis(250)))?;
/// let left = b.task_decl(TaskSpec::graph_node("left"))?;
/// let right = b.task_decl(TaskSpec::graph_node("right"))?;
/// let join = b.task_decl(TaskSpec::graph_node("join"))?;
/// for t in [fork, left, right, join] {
///     b.version_decl(t, VersionSpec::new("v1", Duration::from_micros(100)))?;
/// }
/// let fl = b.channel_decl("fl", 0, 1);
/// let fr = b.channel_decl("fr", 1, 8);
/// let lj = b.channel_decl("lj", 1, 4);
/// let rj = b.channel_decl("rj", 2, 4);
/// b.channel_connect(fork, left, fl)?;
/// b.channel_connect(fork, right, fr)?;
/// b.channel_connect(left, join, lj)?;
/// b.channel_connect(right, join, rj)?;
/// let set = b.build()?;
/// assert_eq!(set.roots().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TaskSet {
    tasks: Vec<Task>,
    accels: Vec<AccelSpec>,
    channels: Vec<ChannelSpec>,
    edges: Vec<Edge>,
    /// `preds[t]` = indices into `edges` entering task `t`.
    preds: Vec<Vec<usize>>,
    /// `succs[t]` = indices into `edges` leaving task `t`.
    succs: Vec<Vec<usize>>,
    topo: Vec<TaskId>,
}

impl TaskSet {
    /// All tasks, indexable by [`TaskId`].
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the set has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] if out of range.
    pub fn task(&self, id: TaskId) -> Result<&Task> {
        self.tasks.get(id.index()).ok_or(Error::UnknownTask(id))
    }

    /// All declared accelerators.
    #[must_use]
    pub fn accels(&self) -> &[AccelSpec] {
        &self.accels
    }

    /// The accelerator with the given id.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownAccel`] if out of range.
    pub fn accel(&self, id: AccelId) -> Result<&AccelSpec> {
        self.accels.get(id.index()).ok_or(Error::UnknownAccel(id))
    }

    /// All declared channels.
    #[must_use]
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// The channel with the given id.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownChannel`] if out of range.
    pub fn channel(&self, id: ChannelId) -> Result<&ChannelSpec> {
        self.channels
            .get(id.index())
            .ok_or(Error::UnknownChannel(id))
    }

    /// All graph edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Indices into [`TaskSet::edges`] of the edges entering `t`, in
    /// edge order; empty for a task the set does not have.
    #[must_use]
    pub fn in_edge_ids(&self, t: TaskId) -> &[usize] {
        self.preds.get(t.index()).map_or(&[], Vec::as_slice)
    }

    /// Indices into [`TaskSet::edges`] of the edges leaving `t`, in
    /// edge order; empty for a task the set does not have.
    #[must_use]
    pub fn out_edge_ids(&self, t: TaskId) -> &[usize] {
        self.succs.get(t.index()).map_or(&[], Vec::as_slice)
    }

    /// Edges entering `t` (its data dependencies).
    pub fn in_edges(&self, t: TaskId) -> impl Iterator<Item = &Edge> {
        self.in_edge_ids(t).iter().map(move |&i| &self.edges[i])
    }

    /// Edges leaving `t`.
    pub fn out_edges(&self, t: TaskId) -> impl Iterator<Item = &Edge> {
        self.out_edge_ids(t).iter().map(move |&i| &self.edges[i])
    }

    /// Number of incoming edges of `t`.
    #[must_use]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.in_edge_ids(t).len()
    }

    /// Tasks without incoming edges — the graph roots, which carry the
    /// activation pattern (§3.3).
    pub fn roots(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter().filter(|t| self.in_degree(t.id()) == 0)
    }

    /// Inner graph nodes (tasks with at least one predecessor).
    pub fn inner_nodes(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter().filter(|t| self.in_degree(t.id()) > 0)
    }

    /// A topological ordering of all tasks (roots first).
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// The root task whose graph (reachable successors) contains `t`.
    ///
    /// For a forest of DAGs every task belongs to exactly one weakly
    /// connected component; this returns the smallest-id root of that
    /// component.
    #[must_use]
    pub fn component_root(&self, t: TaskId) -> TaskId {
        // Walk predecessors until a root; for joins pick the smallest.
        let mut current = t;
        loop {
            let mut best: Option<TaskId> = None;
            for e in self.in_edges(current) {
                best = Some(match best {
                    None => e.src,
                    Some(b) => b.min(e.src),
                });
            }
            match best {
                None => return current,
                Some(p) => current = p,
            }
        }
    }

    /// GCD of all recurring-task periods — the scheduler thread's
    /// activation period (§3.3). `None` if there is no recurring task.
    #[must_use]
    pub fn scheduler_tick(&self) -> Option<Duration> {
        gcd_all(
            self.tasks
                .iter()
                .filter(|t| t.spec().kind().is_recurring())
                .map(|t| t.spec().period()),
        )
    }

    /// LCM of all recurring-task periods (the hyperperiod). `None` if
    /// there is no recurring task.
    #[must_use]
    pub fn hyperperiod(&self) -> Option<Duration> {
        lcm_all(
            self.tasks
                .iter()
                .filter(|t| t.spec().kind().is_recurring())
                .map(|t| t.spec().period()),
        )
    }

    /// Total utilisation using each task's largest-WCET version; inner
    /// graph nodes inherit the period of their component root.
    #[must_use]
    pub fn total_utilization_max(&self) -> f64 {
        self.tasks
            .iter()
            .filter_map(|t| {
                let period = self.effective_period(t.id())?;
                if period.is_zero() {
                    return None;
                }
                Some(t.max_wcet().as_nanos() as f64 / period.as_nanos() as f64)
            })
            .sum()
    }

    /// The activation period governing `t`: its own period for roots, the
    /// component root's period for inner nodes ("the whole graph is
    /// considered sporadic or periodic", §2). `None` for aperiodic roots.
    #[must_use]
    pub fn effective_period(&self, t: TaskId) -> Option<Duration> {
        let root = self.component_root(t);
        let spec = self.tasks.get(root.index())?.spec();
        if spec.kind().is_recurring() {
            Some(spec.period())
        } else {
            None
        }
    }

    /// The relative deadline governing `t`: its own if declared, otherwise
    /// the component root's (graph-level deadline, §2).
    #[must_use]
    pub fn effective_deadline(&self, t: TaskId) -> Duration {
        let own = self.tasks[t.index()].spec().relative_deadline();
        if own != Duration::MAX {
            return own;
        }
        let root = self.component_root(t);
        self.tasks[root.index()].spec().relative_deadline()
    }

    /// The static priority `policy` gives `t`: by its effective period
    /// (RM) or deadline (DM), as declared (user-defined), and
    /// [`Priority::LOWEST`] where there is none — always under EDF,
    /// whose priority is per job. The engine releases by it and
    /// admission analyses it.
    #[must_use]
    pub fn static_priority(&self, t: TaskId, policy: PriorityPolicy) -> Priority {
        match policy {
            PriorityPolicy::RateMonotonic => self
                .effective_period(t)
                .map_or(Priority::LOWEST, Priority::rate_monotonic),
            PriorityPolicy::DeadlineMonotonic => match self.effective_deadline(t) {
                Duration::MAX => Priority::LOWEST,
                d => Priority::deadline_monotonic(d),
            },
            PriorityPolicy::UserDefined => self.tasks[t.index()]
                .spec()
                .static_priority()
                .unwrap_or(Priority::LOWEST),
            PriorityPolicy::EarliestDeadlineFirst => Priority::LOWEST,
        }
    }

    /// The worker `t` runs on among `workers`: its assigned one.
    ///
    /// # Errors
    ///
    /// [`Error::MissingPartition`] if `t` has none;
    /// [`Error::UnknownWorker`] if it names one at or past `workers`.
    pub fn partition_of(&self, t: TaskId, workers: usize) -> Result<WorkerId> {
        match self.tasks[t.index()].spec().assigned_worker() {
            None => Err(Error::MissingPartition(t)),
            Some(w) if w.index() >= workers => Err(Error::UnknownWorker(w)),
            Some(w) => Ok(w),
        }
    }

    /// All tasks reachable from `root` (including it), in topological
    /// order.
    #[must_use]
    pub fn component_of(&self, root: TaskId) -> Vec<TaskId> {
        let mut member = vec![false; self.tasks.len()];
        member[root.index()] = true;
        for &t in &self.topo {
            if member[t.index()] {
                for e in self.out_edges(t) {
                    member[e.dst.index()] = true;
                }
            }
        }
        self.topo
            .iter()
            .copied()
            .filter(|t| member[t.index()])
            .collect()
    }

    /// Appends an independently-built `tenant` task set to `self`,
    /// producing the merged set used by on-line admission
    /// (`yasmin_sched::admission`).
    ///
    /// The merge is strictly *append-only*: every task, version,
    /// accelerator, channel and edge of `self` keeps its id, so a scheduler
    /// built against `self` can adopt the result in place. The tenant's
    /// entities are re-identified by offsetting — its `TaskId`s by
    /// [`TaskSet::len`], its `AccelId`s / `ChannelId`s by the respective
    /// counts — and its version accelerator bindings are rewritten to the
    /// offset ids. No edges are created between the two sets: tenants are
    /// disjoint namespaces, and the concatenated topological orders remain
    /// valid.
    ///
    /// Accelerators are *not* shared across tenants; a tenant wanting a
    /// GPU declares its own [`AccelSpec`], which admission maps to distinct
    /// arbitration state.
    ///
    /// # Errors
    ///
    /// [`Error::CapacityExceeded`] if the combined counts overflow the id
    /// spaces (`u32` tasks/channels, `u16` accelerators).
    pub fn extended(&self, tenant: &TaskSet) -> Result<TaskSet> {
        self.placed(tenant, self.end_slot(tenant))
    }

    /// The slot `tenant` takes when it is appended to `self`
    /// ([`TaskSet::extended`]): past every entity `self` holds.
    #[must_use]
    pub fn end_slot(&self, tenant: &TaskSet) -> Slot {
        Slot {
            first_task: self.tasks.len() as u32,
            task_count: tenant.tasks.len() as u32,
            first_edge: self.edges.len() as u32,
            edge_count: tenant.edges.len() as u32,
            first_channel: self.channels.len() as u32,
            channel_count: tenant.channels.len() as u32,
            first_accel: self.accels.len() as u16,
            accel_count: tenant.accels.len() as u16,
        }
    }

    /// Whether `tenant` has the shape of what `self` holds in `slot`:
    /// as many tasks, edges, channels and accelerators, and for each
    /// task as many versions and the same assigned worker. A tenant
    /// written into a slot of its shape leaves every per-entity table
    /// the same length, and each task with the engine that releases it.
    #[must_use]
    pub fn fits(&self, slot: Slot, tenant: &TaskSet) -> bool {
        let Some(held) = self.tasks.get(slot.task_range()) else {
            return false;
        };
        held.len() == tenant.tasks.len()
            && slot.edge_count as usize == tenant.edges.len()
            && slot.channel_count as usize == tenant.channels.len()
            && slot.accel_count as usize == tenant.accels.len()
            && (held.iter().zip(&tenant.tasks)).all(|(a, b)| {
                a.versions().len() == b.versions().len()
                    && a.spec().assigned_worker() == b.spec().assigned_worker()
            })
    }

    /// A copy of `self` with `tenant` written into `at`: a slot of its
    /// shape that `self` holds ([`TaskSet::fits`]), whose former
    /// entities it replaces, or [`TaskSet::end_slot`], which appends it
    /// as [`TaskSet::extended`] does.
    ///
    /// # Errors
    ///
    /// As [`TaskSet::extended`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is neither within `self` nor its end; that `at`
    /// is of `tenant`'s shape is otherwise the caller's word.
    pub fn placed(&self, tenant: &TaskSet, at: Slot) -> Result<TaskSet> {
        let mut merged = self.clone();
        merged.place(tenant, at)?;
        Ok(merged)
    }

    fn check_room_for(&self, tenant: &TaskSet) -> Result<()> {
        if u32::try_from(self.tasks.len() + tenant.tasks.len()).is_err() {
            return Err(Error::CapacityExceeded {
                what: "task ids",
                capacity: u32::MAX as usize,
            });
        }
        if u16::try_from(self.accels.len() + tenant.accels.len()).is_err() {
            return Err(Error::CapacityExceeded {
                what: "accelerator ids",
                capacity: u16::MAX as usize,
            });
        }
        if u32::try_from(self.channels.len() + tenant.channels.len()).is_err() {
            return Err(Error::CapacityExceeded {
                what: "channel ids",
                capacity: u32::MAX as usize,
            });
        }
        Ok(())
    }

    /// Writes `tenant` into `at` in place: what [`TaskSet::placed`]
    /// writes into its copy. A tenant's topological order is its own (no
    /// edge leaves it), and it sits at its tasks' positions.
    ///
    /// # Errors
    ///
    /// As [`TaskSet::extended`], before anything is written.
    ///
    /// # Panics
    ///
    /// As [`TaskSet::placed`].
    pub fn place(&mut self, tenant: &TaskSet, at: Slot) -> Result<()> {
        let appended = at.first_task as usize == self.tasks.len();
        assert!(
            appended || at.task_range().end <= self.tasks.len(),
            "a tenant is written into a slot of the set or at its end"
        );
        if appended {
            self.check_room_for(tenant)?;
        }
        let task_off = at.first_task as usize;
        let accel_off = at.first_accel as usize;
        let chan_off = at.first_channel as usize;
        let edge_off = at.first_edge as usize;
        let task_id = |t: TaskId| TaskId::new((task_off + t.index()) as u32);
        // Over a former holder of its shape, a task keeps its version
        // storage (`Task::clone_from`).
        for t in &tenant.tasks {
            let at = task_off + t.id().index();
            match self.tasks.get_mut(at) {
                Some(task) => task.clone_from(t),
                None => self.tasks.push(t.clone()),
            }
            self.tasks[at].offset(task_id(t.id()), accel_off);
        }
        let accels = tenant.accels.iter().map(|a| {
            AccelSpec::new(AccelId::new((accel_off + a.id().index()) as u16), a.name())
                .with_active_power(a.active_power())
        });
        put(&mut self.accels, accel_off, accels);
        // `with_id` preserves every other field (capacity, element
        // size, high-priority lane) across the id offset.
        let channels = (tenant.channels.iter())
            .map(|c| (c.clone()).with_id(ChannelId::new((chan_off + c.id().index()) as u32)));
        put(&mut self.channels, chan_off, channels);
        let edges = tenant.edges.iter().map(|e| Edge {
            src: task_id(e.src),
            dst: task_id(e.dst),
            channel: ChannelId::new((chan_off + e.channel.index()) as u32),
        });
        put(&mut self.edges, edge_off, edges);
        let shift = |p: &Vec<usize>| p.iter().map(|&i| edge_off + i).collect();
        put(&mut self.preds, task_off, tenant.preds.iter().map(shift));
        put(&mut self.succs, task_off, tenant.succs.iter().map(shift));
        put(
            &mut self.topo,
            task_off,
            tenant.topo.iter().map(|&t| task_id(t)),
        );
        Ok(())
    }

    /// Makes what `self` holds in `slot` a copy of what `from` holds
    /// there — over its own entities, or past its end where `slot`
    /// starts at it — and leaves every other entity as it is. A set of
    /// an earlier generation catches up with a later one by a copy of
    /// each slot written since, in the order they were written.
    ///
    /// # Panics
    ///
    /// Panics if `from` does not hold `slot`, or `slot` starts past
    /// `self`'s end.
    pub fn copy_slot(&mut self, from: &TaskSet, slot: Slot) {
        let tasks = slot.task_range();
        copy_range(&mut self.tasks, &from.tasks, tasks.clone());
        copy_range(&mut self.accels, &from.accels, slot.accel_range());
        copy_range(&mut self.channels, &from.channels, slot.channel_range());
        copy_range(&mut self.edges, &from.edges, slot.edge_range());
        copy_range(&mut self.preds, &from.preds, tasks.clone());
        copy_range(&mut self.succs, &from.succs, tasks.clone());
        copy_range(&mut self.topo, &from.topo, tasks);
    }
}

/// Makes `dst[range]` a copy of `src[range]`: over what `dst` holds
/// there, then past its end. `range.start` is at most `dst`'s length.
pub fn copy_range<T: Clone>(dst: &mut Vec<T>, src: &[T], range: Range<usize>) {
    let split = dst.len().clamp(range.start, range.end);
    dst[range.start..split].clone_from_slice(&src[range.start..split]);
    dst.extend_from_slice(&src[split..range.end]);
}

/// Writes `items` into `v` from index `at` on: over what is there,
/// then past its end, which grows as `Vec::extend` grows it. How a
/// tenant is written into a slot ([`TaskSet::placed`]), and how a
/// driver's tables indexed by id follow it. `at` is at most `v`'s
/// length.
pub fn put<T>(v: &mut Vec<T>, at: usize, items: impl ExactSizeIterator<Item = T>) {
    v.reserve((at + items.len()).saturating_sub(v.len()));
    for (i, item) in items.enumerate() {
        match v.get_mut(at + i) {
            Some(slot) => *slot = item,
            None => v.push(item),
        }
    }
}

/// Where one tenant sits in a merged set: the first id and the count of
/// each kind of entity it occupies. Appending a tenant
/// ([`TaskSet::end_slot`]) opens a slot; a later tenant of the same
/// shape ([`TaskSet::fits`]) can be written into it
/// ([`TaskSet::placed`]) once its holder is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Slot {
    /// Id of the slot's first task.
    pub first_task: u32,
    /// How many tasks it holds.
    pub task_count: u32,
    /// Index of its first edge.
    pub first_edge: u32,
    /// How many edges it holds.
    pub edge_count: u32,
    /// Id of its first channel.
    pub first_channel: u32,
    /// How many channels it holds.
    pub channel_count: u32,
    /// Id of its first accelerator.
    pub first_accel: u16,
    /// How many accelerators it holds.
    pub accel_count: u16,
}

impl Slot {
    /// Its task ids, as indices.
    #[must_use]
    pub fn task_range(&self) -> Range<usize> {
        self.first_task as usize..(self.first_task + self.task_count) as usize
    }

    /// Its edges, as indices into [`TaskSet::edges`].
    #[must_use]
    pub fn edge_range(&self) -> Range<usize> {
        self.first_edge as usize..(self.first_edge + self.edge_count) as usize
    }

    /// Its channel ids, as indices.
    #[must_use]
    pub fn channel_range(&self) -> Range<usize> {
        self.first_channel as usize..(self.first_channel + self.channel_count) as usize
    }

    /// Its accelerator ids, as indices.
    #[must_use]
    pub fn accel_range(&self) -> Range<usize> {
        self.first_accel as usize..(self.first_accel + self.accel_count) as usize
    }
}

/// Fluent builder mirroring the paper's declaration API (Table 1).
#[derive(Debug, Default)]
pub struct TaskSetBuilder {
    tasks: Vec<Task>,
    accels: Vec<AccelSpec>,
    channels: Vec<ChannelSpec>,
    edges: Vec<Edge>,
    connected: Vec<bool>,
}

impl TaskSetBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        TaskSetBuilder::default()
    }

    /// Declares a task (`yas_task_decl`).
    ///
    /// # Errors
    ///
    /// Returns spec-validation errors such as [`Error::ZeroPeriod`].
    pub fn task_decl(&mut self, spec: TaskSpec) -> Result<TaskId> {
        let id = TaskId::new(u32::try_from(self.tasks.len()).expect("< 2^32 tasks"));
        spec.validate(id)?;
        self.tasks.push(Task::new(id, spec));
        Ok(id)
    }

    /// Adds a version to a task (`yas_version_decl`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] or [`Error::UnknownAccel`] if the version
    /// references an undeclared accelerator.
    pub fn version_decl(&mut self, task: TaskId, version: VersionSpec) -> Result<VersionId> {
        if let Some(a) = version.accel() {
            if a.index() >= self.accels.len() {
                return Err(Error::UnknownAccel(a));
            }
        }
        let t = self
            .tasks
            .get_mut(task.index())
            .ok_or(Error::UnknownTask(task))?;
        Ok(t.push_version(version))
    }

    /// Declares a hardware accelerator (`yas_hwaccel_decl`).
    pub fn hwaccel_decl(&mut self, name: impl Into<String>) -> AccelId {
        let id = AccelId::new(u16::try_from(self.accels.len()).expect("< 65536 accels"));
        self.accels.push(AccelSpec::new(id, name));
        id
    }

    /// Declares an accelerator with a power figure for the energy model.
    pub fn hwaccel_decl_with_power(
        &mut self,
        name: impl Into<String>,
        power: crate::energy::Power,
    ) -> AccelId {
        let id = AccelId::new(u16::try_from(self.accels.len()).expect("< 65536 accels"));
        self.accels
            .push(AccelSpec::new(id, name).with_active_power(power));
        id
    }

    /// Links an accelerator to a task version (`yas_hwaccel_use`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`], [`Error::UnknownVersion`] or
    /// [`Error::UnknownAccel`].
    pub fn hwaccel_use(&mut self, task: TaskId, version: VersionId, accel: AccelId) -> Result<()> {
        if accel.index() >= self.accels.len() {
            return Err(Error::UnknownAccel(accel));
        }
        let t = self
            .tasks
            .get_mut(task.index())
            .ok_or(Error::UnknownTask(task))?;
        t.bind_accel(version, accel)
    }

    /// Declares a FIFO channel (`yas_channel_decl`). `capacity == 0`
    /// declares a pure precedence dependency.
    pub fn channel_decl(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        elem_bytes: usize,
    ) -> ChannelId {
        let id = ChannelId::new(u32::try_from(self.channels.len()).expect("< 2^32 channels"));
        self.channels
            .push(ChannelSpec::new(id, name, capacity, elem_bytes));
        self.connected.push(false);
        id
    }

    /// Declares a FIFO channel with an overload-shedding
    /// [`BackpressurePolicy`] applied when a token arrives on a full
    /// channel (`channel_decl` defaults to
    /// [`BackpressurePolicy::Reject`]: count, never shed).
    pub fn channel_decl_shedding(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        elem_bytes: usize,
        policy: BackpressurePolicy,
    ) -> ChannelId {
        let id = ChannelId::new(u32::try_from(self.channels.len()).expect("< 2^32 channels"));
        self.channels
            .push(ChannelSpec::new(id, name, capacity, elem_bytes).with_backpressure(policy));
        self.connected.push(false);
        id
    }

    /// Declares a FIFO channel with an additional **high-priority lane**
    /// of `high_capacity` slots. While the high lane is non-empty the
    /// consuming task inherits `ceiling` (smaller = more urgent) through
    /// the scheduler's PIP machinery; the boost is released when the lane
    /// drains. See `yasmin_sched::msg` for the runtime endpoints.
    pub fn channel_decl_prioritized(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        elem_bytes: usize,
        high_capacity: usize,
        ceiling: Priority,
    ) -> ChannelId {
        let id = ChannelId::new(u32::try_from(self.channels.len()).expect("< 2^32 channels"));
        self.channels.push(
            ChannelSpec::new(id, name, capacity, elem_bytes).with_high_lane(high_capacity, ceiling),
        );
        self.connected.push(false);
        id
    }

    /// Connects `src → dst` through `channel` (`yas_channel_connect`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`], [`Error::UnknownChannel`], or
    /// [`Error::ChannelAlreadyConnected`] — each channel wires exactly one
    /// producer/consumer pair.
    pub fn channel_connect(&mut self, src: TaskId, dst: TaskId, channel: ChannelId) -> Result<()> {
        if src.index() >= self.tasks.len() {
            return Err(Error::UnknownTask(src));
        }
        if dst.index() >= self.tasks.len() {
            return Err(Error::UnknownTask(dst));
        }
        let flag = self
            .connected
            .get_mut(channel.index())
            .ok_or(Error::UnknownChannel(channel))?;
        if *flag {
            return Err(Error::ChannelAlreadyConnected(channel));
        }
        *flag = true;
        self.edges.push(Edge { src, dst, channel });
        Ok(())
    }

    /// Number of tasks declared so far.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Validates the declaration and freezes it.
    ///
    /// # Errors
    ///
    /// * [`Error::NoVersions`] — a task without any version;
    /// * [`Error::GraphCycle`] — the connections are not acyclic;
    /// * [`Error::ChannelNotConnected`] — a declared but unwired channel;
    /// * [`Error::InnerNodeWithPeriod`] — an inner graph node carrying its
    ///   own activation period.
    pub fn build(self) -> Result<TaskSet> {
        let n = self.tasks.len();
        for t in &self.tasks {
            if t.versions().is_empty() {
                return Err(Error::NoVersions(t.id()));
            }
        }
        for (i, c) in self.connected.iter().enumerate() {
            if !*c {
                return Err(Error::ChannelNotConnected(ChannelId::new(i as u32)));
            }
        }

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            preds[e.dst.index()].push(i);
            succs[e.src.index()].push(i);
        }

        // Inner nodes must not declare their own activation period.
        for t in &self.tasks {
            if !preds[t.id().index()].is_empty() && t.spec().kind().is_recurring() {
                return Err(Error::InnerNodeWithPeriod(t.id()));
            }
        }

        // Kahn's algorithm: detects cycles and yields the topo order.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            topo.push(TaskId::new(i as u32));
            for &ei in &succs[i] {
                let d = self.edges[ei].dst.index();
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if topo.len() != n {
            let culprit = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| TaskId::new(i as u32))
                .unwrap_or_default();
            return Err(Error::GraphCycle { task: culprit });
        }

        Ok(TaskSet {
            tasks: self.tasks,
            accels: self.accels,
            channels: self.channels,
            edges: self.edges,
            preds,
            succs,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::VersionSpec;

    fn simple_version() -> VersionSpec {
        VersionSpec::new("v", Duration::from_micros(100))
    }

    fn diamond() -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let fork = b
            .task_decl(TaskSpec::periodic("fork", Duration::from_millis(250)))
            .unwrap();
        let left = b.task_decl(TaskSpec::graph_node("left")).unwrap();
        let right = b.task_decl(TaskSpec::graph_node("right")).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        for t in [fork, left, right, join] {
            b.version_decl(t, simple_version()).unwrap();
        }
        let fl = b.channel_decl("fl", 0, 1);
        let fr = b.channel_decl("fr", 1, 8);
        let lj = b.channel_decl("lj", 1, 4);
        let rj = b.channel_decl("rj", 2, 4);
        b.channel_connect(fork, left, fl).unwrap();
        b.channel_connect(fork, right, fr).unwrap();
        b.channel_connect(left, join, lj).unwrap();
        b.channel_connect(right, join, rj).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let s = diamond();
        assert_eq!(s.len(), 4);
        assert_eq!(s.roots().count(), 1);
        assert_eq!(s.inner_nodes().count(), 3);
        assert_eq!(s.in_degree(TaskId::new(3)), 2);
        assert_eq!(s.out_edges(TaskId::new(0)).count(), 2);
        let topo = s.topological_order();
        assert_eq!(topo[0], TaskId::new(0));
        assert_eq!(topo[3], TaskId::new(3));
    }

    #[test]
    fn component_root_and_effective_period() {
        let s = diamond();
        for t in 0..4 {
            assert_eq!(s.component_root(TaskId::new(t)), TaskId::new(0));
            assert_eq!(
                s.effective_period(TaskId::new(t)),
                Some(Duration::from_millis(250))
            );
            assert_eq!(
                s.effective_deadline(TaskId::new(t)),
                Duration::from_millis(250)
            );
        }
        assert_eq!(s.component_of(TaskId::new(0)).len(), 4);
    }

    #[test]
    fn cycle_detection() {
        let mut b = TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::graph_node("a")).unwrap();
        let c = b.task_decl(TaskSpec::graph_node("c")).unwrap();
        b.version_decl(a, simple_version()).unwrap();
        b.version_decl(c, simple_version()).unwrap();
        let ch1 = b.channel_decl("x", 1, 1);
        let ch2 = b.channel_decl("y", 1, 1);
        b.channel_connect(a, c, ch1).unwrap();
        b.channel_connect(c, a, ch2).unwrap();
        assert!(matches!(b.build(), Err(Error::GraphCycle { .. })));
    }

    #[test]
    fn missing_version_rejected() {
        let mut b = TaskSetBuilder::new();
        b.task_decl(TaskSpec::periodic("t", Duration::from_millis(1)))
            .unwrap();
        assert_eq!(b.build().unwrap_err(), Error::NoVersions(TaskId::new(0)));
    }

    #[test]
    fn unconnected_channel_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", Duration::from_millis(1)))
            .unwrap();
        b.version_decl(t, simple_version()).unwrap();
        b.channel_decl("dangling", 1, 1);
        assert_eq!(
            b.build().unwrap_err(),
            Error::ChannelNotConnected(ChannelId::new(0))
        );
    }

    #[test]
    fn double_connect_rejected() {
        let mut b = TaskSetBuilder::new();
        let a = b
            .task_decl(TaskSpec::periodic("a", Duration::from_millis(1)))
            .unwrap();
        let c = b.task_decl(TaskSpec::graph_node("c")).unwrap();
        b.version_decl(a, simple_version()).unwrap();
        b.version_decl(c, simple_version()).unwrap();
        let ch = b.channel_decl("x", 1, 1);
        b.channel_connect(a, c, ch).unwrap();
        assert_eq!(
            b.channel_connect(a, c, ch).unwrap_err(),
            Error::ChannelAlreadyConnected(ch)
        );
    }

    #[test]
    fn inner_node_with_period_rejected() {
        let mut b = TaskSetBuilder::new();
        let a = b
            .task_decl(TaskSpec::periodic("a", Duration::from_millis(1)))
            .unwrap();
        let c = b
            .task_decl(TaskSpec::periodic("c", Duration::from_millis(2)))
            .unwrap();
        b.version_decl(a, simple_version()).unwrap();
        b.version_decl(c, simple_version()).unwrap();
        let ch = b.channel_decl("x", 1, 1);
        b.channel_connect(a, c, ch).unwrap();
        assert_eq!(b.build().unwrap_err(), Error::InnerNodeWithPeriod(c));
    }

    #[test]
    fn accel_use_binds_version() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", Duration::from_millis(10)))
            .unwrap();
        let gpu = b.hwaccel_decl("gpu");
        let v = b.version_decl(t, simple_version()).unwrap();
        b.hwaccel_use(t, v, gpu).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.task(t).unwrap().version(v).unwrap().accel(), Some(gpu));
        assert_eq!(s.accel(gpu).unwrap().name(), "gpu");
    }

    #[test]
    fn version_with_undeclared_accel_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", Duration::from_millis(10)))
            .unwrap();
        let v = simple_version().with_accel(AccelId::new(5));
        assert_eq!(
            b.version_decl(t, v).unwrap_err(),
            Error::UnknownAccel(AccelId::new(5))
        );
    }

    #[test]
    fn tick_and_hyperperiod() {
        let mut b = TaskSetBuilder::new();
        for (n, ms) in [("a", 10u64), ("b", 25), ("c", 4)] {
            let t = b
                .task_decl(TaskSpec::periodic(n, Duration::from_millis(ms)))
                .unwrap();
            b.version_decl(t, simple_version()).unwrap();
        }
        let s = b.build().unwrap();
        assert_eq!(s.scheduler_tick(), Some(Duration::from_millis(1)));
        assert_eq!(s.hyperperiod(), Some(Duration::from_millis(100)));
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("solo", Duration::from_millis(5)))
            .unwrap();
        b.version_decl(t, simple_version()).unwrap();
        let s = b.build().unwrap();
        assert!(s.edges().is_empty());
        assert_eq!(s.component_root(t), t);
        assert_eq!(s.roots().count(), 1);
    }

    #[test]
    fn extended_appends_with_offset_remapping() {
        let base = diamond();
        let mut b = TaskSetBuilder::new();
        let root = b
            .task_decl(TaskSpec::periodic("t-root", Duration::from_millis(50)))
            .unwrap();
        let sink = b.task_decl(TaskSpec::graph_node("t-sink")).unwrap();
        let gpu = b.hwaccel_decl("t-gpu");
        b.version_decl(root, simple_version()).unwrap();
        b.version_decl(sink, simple_version().with_accel(gpu))
            .unwrap();
        let ch = b.channel_decl("t-ch", 1, 8);
        b.channel_connect(root, sink, ch).unwrap();
        let tenant = b.build().unwrap();

        let merged = base.extended(&tenant).unwrap();
        assert_eq!(merged.len(), 6);
        // Prefix untouched.
        for i in 0..4 {
            assert_eq!(
                merged.tasks()[i].spec().name(),
                base.tasks()[i].spec().name()
            );
            assert_eq!(merged.tasks()[i].id(), TaskId::new(i as u32));
        }
        // Tenant remapped: tasks 4..6, channel 4, accel 0 (base had none).
        assert_eq!(merged.tasks()[4].spec().name(), "t-root");
        assert_eq!(merged.tasks()[5].id(), TaskId::new(5));
        assert_eq!(merged.edges().len(), 5);
        let e = merged.edges()[4];
        assert_eq!(e.src, TaskId::new(4));
        assert_eq!(e.dst, TaskId::new(5));
        assert_eq!(e.channel, ChannelId::new(4));
        assert_eq!(merged.channels()[4].name(), "t-ch");
        // Accel binding rewritten to the merged id space.
        assert_eq!(
            merged.tasks()[5].versions()[0].accel(),
            Some(AccelId::new(0))
        );
        // Graph helpers still coherent.
        assert_eq!(merged.in_degree(TaskId::new(5)), 1);
        assert_eq!(merged.component_root(TaskId::new(5)), TaskId::new(4));
        assert_eq!(merged.topological_order().len(), 6);
        assert_eq!(
            merged.effective_period(TaskId::new(5)),
            Some(Duration::from_millis(50))
        );
    }

    /// A tenant with an edge, a channel and an accelerator, so every
    /// table and every offset takes part; `tag` names its tasks.
    fn tenant(tag: &str) -> TaskSet {
        let mut b = TaskSetBuilder::new();
        let root = b
            .task_decl(TaskSpec::periodic(
                format!("{tag}-root"),
                Duration::from_millis(50),
            ))
            .unwrap();
        let sink = b
            .task_decl(TaskSpec::graph_node(format!("{tag}-sink")))
            .unwrap();
        let gpu = b.hwaccel_decl(format!("{tag}-gpu"));
        b.version_decl(root, simple_version()).unwrap();
        b.version_decl(sink, simple_version().with_accel(gpu))
            .unwrap();
        let ch = b.channel_decl(format!("{tag}-ch"), 1, 8);
        b.channel_connect(root, sink, ch).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn placed_into_a_recycled_slot_equals_a_from_scratch_build() {
        let (a, b) = (tenant("a"), tenant("b"));
        let base = diamond();
        let s1 = base.end_slot(&a);
        let held = base.extended(&a).unwrap().extended(&a).unwrap();
        // `b` takes the first tenant's slot: same shape, new entities.
        assert!(held.fits(s1, &b) && !held.fits(s1, &diamond()));
        let recycled = held.placed(&b, s1).unwrap();
        let scratch = base.extended(&b).unwrap().extended(&a).unwrap();
        assert_eq!(format!("{recycled:?}"), format!("{scratch:?}"));
        assert_eq!(recycled.tasks()[5].spec().name(), "b-sink");
        assert_eq!(
            recycled.tasks()[5].versions()[0].accel(),
            Some(AccelId::new(0))
        );
        assert_eq!(recycled.in_degree(TaskId::new(5)), 1);
        assert_eq!(recycled.component_root(TaskId::new(5)), TaskId::new(4));
        assert_eq!(
            recycled.tasks()[7].spec().name(),
            "a-sink",
            "the other slot kept"
        );

        // At the set's end, `placed` is `extended`.
        let appended = recycled.placed(&a, recycled.end_slot(&a)).unwrap();
        let scratch = scratch.extended(&a).unwrap();
        assert_eq!(format!("{appended:?}"), format!("{scratch:?}"));
        assert_eq!(appended.len(), 10);
        assert_eq!(appended.component_root(TaskId::new(9)), TaskId::new(8));
        assert_eq!(appended.topological_order().len(), 10);
    }

    #[test]
    fn an_earlier_generation_catches_up_by_copying_each_slot_written_since() {
        let (a, b) = (tenant("a"), tenant("b"));
        let g0 = diamond();
        let s1 = g0.end_slot(&a);
        let g1 = g0.placed(&a, s1).unwrap();
        let s2 = g1.end_slot(&a);
        let g2 = g1.placed(&a, s2).unwrap();
        let g3 = g2.placed(&b, s1).unwrap();
        let g4 = g3.placed(&a, s1).unwrap();
        let writes = [s1, s2, s1, s1];
        let gens = [&g0, &g1, &g2, &g3];
        for (behind, old) in gens.into_iter().enumerate() {
            let mut caught_up = old.clone();
            for &slot in &writes[behind..] {
                caught_up.copy_slot(&g4, slot);
            }
            assert_eq!(
                format!("{caught_up:?}"),
                format!("{g4:?}"),
                "from g{behind}"
            );
        }
        // `g1` skipping the oldest of its writes misses the append.
        let mut skipped = g1.clone();
        for &slot in &writes[2..] {
            skipped.copy_slot(&g4, slot);
        }
        assert_ne!(format!("{skipped:?}"), format!("{g4:?}"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_slot_past_the_end_is_not_copied() {
        let a = tenant("a");
        let g0 = diamond();
        let g1 = g0.extended(&a).unwrap();
        let s2 = g1.end_slot(&a);
        let g2 = g1.extended(&a).unwrap();
        // `g0` has not had the first append copied in.
        g0.clone().copy_slot(&g2, s2);
    }

    #[test]
    fn utilization_accounts_inner_nodes() {
        let s = diamond();
        // 4 nodes, each 100us WCET, period 250ms -> 4 * 0.0004 = 0.0016.
        let u = s.total_utilization_max();
        assert!((u - 0.0016).abs() < 1e-9, "u = {u}");
    }
}
