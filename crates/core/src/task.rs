//! The task model: sporadic/periodic/aperiodic tasks with implicit or
//! constrained deadlines (§2). A deadline past the period is not
//! declarable: the response-time analysis bounds only `D ≤ T`.

use crate::error::{Error, Result};
use crate::ids::{AccelId, TaskId, VersionId, WorkerId};
use crate::priority::Priority;
use crate::time::Duration;
use crate::version::VersionSpec;
use std::fmt;
use std::sync::Arc;

/// How a task is activated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ActivationKind {
    /// Released exactly every period.
    #[default]
    Periodic,
    /// Released with a *minimum* inter-arrival time of one period.
    Sporadic,
    /// Released explicitly by the user via `task_activate`; "no regular
    /// pattern can be given to the scheduler" (§2).
    Aperiodic,
}

impl ActivationKind {
    /// `true` for periodic or sporadic tasks (those the scheduler thread
    /// releases on its own).
    #[must_use]
    pub const fn is_recurring(self) -> bool {
        !matches!(self, ActivationKind::Aperiodic)
    }
}

/// What the scheduler does when a job of this task is still running past
/// its enforcement deadline (dispatch instant + selected version's WCET),
/// or when its body fails (a worker panic contained by the runtime).
///
/// Enforcement is opt-in via `Config::enforce_wcet`; the policy is
/// per-task so one misbehaving pipeline stage can be contained without
/// touching the rest of the graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OverrunPolicy {
    /// Retire the job at the overrun: its successor tokens are dropped
    /// (downstream DAG nodes never fire from this activation). The body
    /// itself still runs to completion on its worker — the middleware
    /// never destroys a thread mid-body — but the completion is
    /// discarded from the schedule's point of view.
    Kill,
    /// Keep the job but demote it to background priority so it can only
    /// use otherwise-idle processor time; successors fire normally when
    /// it eventually completes.
    DemoteToBackground,
    /// Count the overrun (`EngineStats::overruns`) and keep going.
    /// `LogOnly` tasks are also the shedding class: the deadline-miss
    /// trip wire demotes them first under overload.
    #[default]
    LogOnly,
}

/// The deadline scheme of a task, relative to its period (§2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DeadlineKind {
    /// `D = T`.
    #[default]
    Implicit,
    /// `D ≤ T` (validated at build time).
    Constrained(Duration),
}

/// Static description of a task (the paper's `TData` structure, Table 1).
///
/// Build with the fluent constructors and pass to
/// [`crate::graph::TaskSetBuilder::task_decl`]:
///
/// ```
/// use yasmin_core::task::TaskSpec;
/// use yasmin_core::time::Duration;
///
/// let fork = TaskSpec::periodic("fork", Duration::from_millis(250));
/// assert_eq!(fork.period(), Duration::from_millis(250));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Shared, so copying a task set (every admission copies the
    /// merged one) allocates nothing for names.
    name: Arc<str>,
    kind: ActivationKind,
    period: Duration,
    deadline: DeadlineKind,
    release_offset: Duration,
    assigned_worker: Option<WorkerId>,
    static_priority: Option<Priority>,
    overrun_policy: OverrunPolicy,
}

impl TaskSpec {
    /// A periodic task released every `period`.
    #[must_use]
    pub fn periodic(name: impl Into<String>, period: Duration) -> Self {
        TaskSpec {
            name: Arc::from(name.into()),
            kind: ActivationKind::Periodic,
            period,
            deadline: DeadlineKind::Implicit,
            release_offset: Duration::ZERO,
            assigned_worker: None,
            static_priority: None,
            overrun_policy: OverrunPolicy::LogOnly,
        }
    }

    /// A sporadic task with minimum inter-arrival time `period`.
    #[must_use]
    pub fn sporadic(name: impl Into<String>, min_inter_arrival: Duration) -> Self {
        let mut s = Self::periodic(name, min_inter_arrival);
        s.kind = ActivationKind::Sporadic;
        s
    }

    /// An aperiodic task, activated explicitly by the user.
    #[must_use]
    pub fn aperiodic(name: impl Into<String>) -> Self {
        TaskSpec {
            name: Arc::from(name.into()),
            kind: ActivationKind::Aperiodic,
            period: Duration::ZERO,
            deadline: DeadlineKind::Implicit,
            release_offset: Duration::ZERO,
            assigned_worker: None,
            static_priority: None,
            overrun_policy: OverrunPolicy::LogOnly,
        }
    }

    /// A graph inner node: activated by data on its input channels, not by
    /// time (§3.3: "only the root nodes need to have a period attached").
    #[must_use]
    pub fn graph_node(name: impl Into<String>) -> Self {
        // Inner nodes are modelled as aperiodic: the scheduler engine
        // releases them when all predecessors have produced.
        Self::aperiodic(name)
    }

    /// Sets a constrained deadline (`D ≤ T`; checked at build time).
    #[must_use]
    pub fn with_constrained_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = DeadlineKind::Constrained(deadline);
        self
    }

    /// Delays the first release by `offset`.
    #[must_use]
    pub fn with_release_offset(mut self, offset: Duration) -> Self {
        self.release_offset = offset;
        self
    }

    /// Pins the task to a worker ("virtual core"), required by partitioned
    /// mapping (the `virt_core_id` field of `TData`).
    #[must_use]
    pub fn on_worker(mut self, worker: WorkerId) -> Self {
        self.assigned_worker = Some(worker);
        self
    }

    /// Supplies a user-defined static priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.static_priority = Some(priority);
        self
    }

    /// Sets the WCET-overrun / body-failure policy (default
    /// [`OverrunPolicy::LogOnly`]). Only consulted when the engine runs
    /// with `Config::enforce_wcet(true)` or when a body panics.
    #[must_use]
    pub fn with_overrun_policy(mut self, policy: OverrunPolicy) -> Self {
        self.overrun_policy = policy;
        self
    }

    /// The task name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The activation kind.
    #[must_use]
    pub const fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// The period (or minimum inter-arrival time); zero for aperiodic
    /// tasks.
    #[must_use]
    pub const fn period(&self) -> Duration {
        self.period
    }

    /// Whether a running schedule ticking every `tick` can release this
    /// task on time: it never recurs, or its period is a multiple of
    /// `tick`. A tenant spliced in later must fit the tick its first
    /// tenant fixed.
    #[must_use]
    pub fn fits_tick(&self, tick: Duration) -> bool {
        !self.kind.is_recurring() || self.period.as_nanos().is_multiple_of(tick.as_nanos())
    }

    /// The deadline scheme.
    #[must_use]
    pub const fn deadline(&self) -> DeadlineKind {
        self.deadline
    }

    /// The deadline as a span after release: the period for implicit
    /// deadlines, the declared value otherwise. `Duration::MAX` for
    /// aperiodic tasks with implicit deadlines (no constraint).
    #[must_use]
    pub fn relative_deadline(&self) -> Duration {
        match self.deadline {
            DeadlineKind::Implicit => {
                if self.period.is_zero() {
                    Duration::MAX
                } else {
                    self.period
                }
            }
            DeadlineKind::Constrained(d) => d,
        }
    }

    /// The release offset of the first activation.
    #[must_use]
    pub const fn release_offset(&self) -> Duration {
        self.release_offset
    }

    /// The worker this task is pinned to, if any.
    #[must_use]
    pub const fn assigned_worker(&self) -> Option<WorkerId> {
        self.assigned_worker
    }

    /// The user-defined static priority, if any.
    #[must_use]
    pub const fn static_priority(&self) -> Option<Priority> {
        self.static_priority
    }

    /// The WCET-overrun / body-failure policy.
    #[must_use]
    pub const fn overrun_policy(&self) -> OverrunPolicy {
        self.overrun_policy
    }

    /// Validates internal consistency (used by the task-set builder).
    ///
    /// # Errors
    ///
    /// [`Error::ZeroPeriod`] for recurring tasks without a period and
    /// [`Error::DeadlineExceedsPeriod`] for constrained deadlines larger
    /// than the period.
    pub fn validate(&self, id: TaskId) -> Result<()> {
        if self.kind.is_recurring() && self.period.is_zero() {
            return Err(Error::ZeroPeriod(id));
        }
        if let DeadlineKind::Constrained(d) = self.deadline {
            if self.kind.is_recurring() && d > self.period {
                return Err(Error::DeadlineExceedsPeriod(id));
            }
        }
        Ok(())
    }
}

/// A declared task: its specification plus all declared versions.
#[derive(Debug)]
pub struct Task {
    id: TaskId,
    spec: TaskSpec,
    versions: Vec<VersionSpec>,
}

impl Clone for Task {
    fn clone(&self) -> Self {
        Task {
            id: self.id,
            spec: self.spec.clone(),
            versions: self.versions.clone(),
        }
    }

    /// Into `self`'s own version storage: a task copied over one with
    /// as many versions allocates nothing ([`crate::graph::TaskSet::copy_slot`]).
    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.spec.clone_from(&source.spec);
        self.versions.clone_from(&source.versions);
    }
}

impl Task {
    /// Creates a task; used by the task-set builder.
    #[must_use]
    pub fn new(id: TaskId, spec: TaskSpec) -> Self {
        Task {
            id,
            spec,
            versions: Vec::new(),
        }
    }

    /// The task identifier.
    #[must_use]
    pub const fn id(&self) -> TaskId {
        self.id
    }

    /// The task specification.
    #[must_use]
    pub const fn spec(&self) -> &TaskSpec {
        &self.spec
    }

    /// All declared versions, indexable by [`VersionId`].
    #[must_use]
    pub fn versions(&self) -> &[VersionSpec] {
        &self.versions
    }

    /// The version with the given id.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownVersion`] if out of range.
    pub fn version(&self, v: VersionId) -> Result<&VersionSpec> {
        self.versions
            .get(v.index())
            .ok_or(Error::UnknownVersion(self.id, v))
    }

    /// Moves `self` into a merged id space: task id `id`, and each
    /// version's accelerator `accel_off` ids up. How a tenant's task,
    /// copied into a merged set, takes its place there
    /// ([`crate::graph::TaskSet::place`]).
    pub(crate) fn offset(&mut self, id: TaskId, accel_off: usize) {
        self.id = id;
        for v in &mut self.versions {
            if let Some(a) = v.accel() {
                *v = v
                    .clone()
                    .with_accel(AccelId::new((accel_off + a.index()) as u16));
            }
        }
    }

    /// Appends a version and returns its id; used by the builder.
    pub fn push_version(&mut self, spec: VersionSpec) -> VersionId {
        let id = VersionId::new(u16::try_from(self.versions.len()).expect("< 65536 versions"));
        self.versions.push(spec);
        id
    }

    /// Replaces the accelerator binding of a version (builder use).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownVersion`] if out of range.
    pub fn bind_accel(&mut self, v: VersionId, accel: crate::ids::AccelId) -> Result<()> {
        let id = self.id;
        let slot = self
            .versions
            .get_mut(v.index())
            .ok_or(Error::UnknownVersion(id, v))?;
        *slot = slot.clone().with_accel(accel);
        Ok(())
    }

    /// The smallest WCET over all versions (used for best-case utilisation
    /// figures and as the default offline choice).
    #[must_use]
    pub fn min_wcet(&self) -> Duration {
        self.versions
            .iter()
            .map(VersionSpec::wcet)
            .min()
            .unwrap_or(Duration::ZERO)
    }

    /// The largest WCET over all versions (pessimistic utilisation).
    #[must_use]
    pub fn max_wcet(&self) -> Duration {
        self.versions
            .iter()
            .map(VersionSpec::wcet)
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}, T={}, {} version(s))",
            self.spec.name(),
            self.id,
            self.spec.period(),
            self.versions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::Energy;
    use crate::ids::AccelId;

    #[test]
    fn periodic_spec_defaults() {
        let s = TaskSpec::periodic("fc", Duration::from_millis(10));
        assert_eq!(s.kind(), ActivationKind::Periodic);
        assert_eq!(s.relative_deadline(), Duration::from_millis(10));
        assert_eq!(s.release_offset(), Duration::ZERO);
        assert!(s.assigned_worker().is_none());
        assert!(s.validate(TaskId::new(0)).is_ok());
    }

    #[test]
    fn sporadic_and_aperiodic_kinds() {
        assert!(ActivationKind::Sporadic.is_recurring());
        assert!(!ActivationKind::Aperiodic.is_recurring());
        let s = TaskSpec::sporadic("s", Duration::from_millis(5));
        assert_eq!(s.kind(), ActivationKind::Sporadic);
        let a = TaskSpec::aperiodic("a");
        assert_eq!(a.period(), Duration::ZERO);
        assert_eq!(a.relative_deadline(), Duration::MAX);
        assert!(a.validate(TaskId::new(1)).is_ok());
    }

    #[test]
    fn constrained_deadline_validation() {
        let ok = TaskSpec::periodic("t", Duration::from_millis(10))
            .with_constrained_deadline(Duration::from_millis(8));
        assert!(ok.validate(TaskId::new(0)).is_ok());
        assert_eq!(ok.relative_deadline(), Duration::from_millis(8));

        let bad = TaskSpec::periodic("t", Duration::from_millis(10))
            .with_constrained_deadline(Duration::from_millis(12));
        assert_eq!(
            bad.validate(TaskId::new(3)),
            Err(Error::DeadlineExceedsPeriod(TaskId::new(3)))
        );
    }

    #[test]
    fn zero_period_recurring_rejected() {
        let s = TaskSpec::periodic("t", Duration::ZERO);
        assert_eq!(
            s.validate(TaskId::new(7)),
            Err(Error::ZeroPeriod(TaskId::new(7)))
        );
    }

    #[test]
    fn task_version_management() {
        let mut t = Task::new(
            TaskId::new(0),
            TaskSpec::periodic("d", Duration::from_millis(500)),
        );
        let v0 = t.push_version(VersionSpec::new("gpu", Duration::from_millis(130)));
        let v1 = t.push_version(
            VersionSpec::new("cpu", Duration::from_millis(230))
                .with_energy(Energy::from_millijoules(9)),
        );
        assert_eq!(v0, VersionId::new(0));
        assert_eq!(v1, VersionId::new(1));
        assert_eq!(t.versions().len(), 2);
        assert_eq!(t.min_wcet(), Duration::from_millis(130));
        assert_eq!(t.max_wcet(), Duration::from_millis(230));
        assert!(t.version(VersionId::new(2)).is_err());
    }

    #[test]
    fn accel_binding() {
        let mut t = Task::new(
            TaskId::new(0),
            TaskSpec::periodic("d", Duration::from_millis(500)),
        );
        let v = t.push_version(VersionSpec::new("gpu", Duration::from_millis(130)));
        t.bind_accel(v, AccelId::new(0)).unwrap();
        assert_eq!(t.version(v).unwrap().accel(), Some(AccelId::new(0)));
        assert!(t.versions().iter().all(|v| v.accel().is_some()));
        assert!(t.bind_accel(VersionId::new(9), AccelId::new(0)).is_err());
    }

    #[test]
    fn display_mentions_name_and_id() {
        let t = Task::new(
            TaskId::new(4),
            TaskSpec::periodic("fetch", Duration::from_millis(500)),
        );
        let s = t.to_string();
        assert!(s.contains("fetch") && s.contains("T4"));
    }
}
