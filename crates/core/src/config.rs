//! Middleware configuration.
//!
//! The paper configures YASMIN through a C header of pre-processor
//! definitions — mapping scheme, priority assignment, version selection,
//! locking and waiting strategy, worker count — fixed for the whole binary
//! (§3.1). Here the same knobs live in a validated [`Config`] value built
//! once and frozen before `start()`; switching policy means building a new
//! `Config`, the Rust analogue of recompiling with a new header. (The
//! paper's locking choice has no knob here: the runtime's own paths take
//! no lock — see "Locking" in `docs/ARCHITECTURE.md`.)

use crate::energy::BatteryLevel;
use crate::error::{Error, Result};
use crate::ids::{TaskId, VersionId};
use crate::priority::PriorityPolicy;
use crate::time::Duration;
use crate::version::{ExecMode, VersionSpec};
use std::fmt;
use std::sync::Arc;

/// Global vs partitioned mapping of tasks to workers (`MAPPING_SCHEME`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MappingScheme {
    /// All tasks may run on any worker; one shared ready queue (Fig. 1a).
    #[default]
    Global,
    /// Every task is pinned to a worker; per-worker ready queues (Fig. 1b).
    Partitioned,
}

impl MappingScheme {
    /// Short label for experiment tables ("G" / "P").
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            MappingScheme::Global => "G",
            MappingScheme::Partitioned => "P",
        }
    }
}

/// Waiting strategy between activations (§3.5 "Waiting").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WaitChoice {
    /// Sleep in the kernel (default; hardly timing-analysable). A thread
    /// runtime's owner meets its tick edge with two timed parks, each
    /// armed early by the wake-up lateness its own parks of that kind
    /// have shown: a far park that ends ahead of the near one's arming
    /// point nine times in ten, then a near park that ends near the edge
    /// rather than that much after it (and spins the rest when it ends
    /// ahead); nothing is scheduled ahead of its edge
    /// (`yasmin_rt::owner`, "The tick edge").
    #[default]
    Sleep,
    /// Busy-spin on the clock: precise overhead analysis, wastes energy.
    Spin,
}

/// Context handed to version-selection policies at each dispatch.
///
/// `PartialEq` lets rank caches detect that the context is unchanged
/// since the last dispatch and skip re-ranking entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectCtx {
    /// Remaining battery, from the configured battery source.
    pub battery: BatteryLevel,
    /// Current execution mode.
    pub mode: ExecMode,
    /// Currently granted permission bits.
    pub permissions: crate::version::PermMask,
}

impl Default for SelectCtx {
    fn default() -> Self {
        SelectCtx {
            battery: BatteryLevel::FULL,
            mode: ExecMode::NORMAL,
            permissions: crate::version::PermMask::ALL,
        }
    }
}

/// Signature of a user-defined version selector (§3.2, option 5): given
/// the selection context and the candidate versions (id + spec), return
/// the preferred candidates, most preferred first.
pub type UserSelectFn =
    dyn Fn(&SelectCtx, TaskId, &[(VersionId, &VersionSpec)]) -> Vec<VersionId> + Send + Sync;

/// Signature of the battery-status callback (§3.2/§3.6): YASMIN never
/// reads the battery itself; the user supplies the platform-dependent
/// probe.
pub type BatteryFn = dyn Fn() -> BatteryLevel + Send + Sync;

/// Which version-selection policy runs at dispatch (`VERSION_SELECTION`).
///
/// Exactly one policy is active per configuration, matching the paper's
/// "only one method is effectively used at runtime, but switching is
/// possible at compile time" (§3.2).
#[derive(Clone, Default)]
pub enum VersionPolicy {
    /// Prefer the version with the shortest WCET (ties: lowest energy).
    /// This is what Figure 4's "both, scheduler decides" exploration uses.
    #[default]
    ShortestWcet,
    /// Prefer the most capable version whose `energy_budget` fits the
    /// current battery level (option 1).
    Energy,
    /// Minimise `w·time + (1000−w)·energy` with weight `w` in permille
    /// (option 2).
    EnergyTimeTradeoff {
        /// Weight of time in permille; 1000 = pure time, 0 = pure energy.
        time_weight: u16,
    },
    /// Only versions whose mode mask contains the current mode (option 3).
    Mode,
    /// Only versions whose permission mask intersects the granted
    /// permissions (option 4).
    Permission,
    /// A user-supplied ranking function (option 5).
    UserDefined(Arc<UserSelectFn>),
}

impl fmt::Debug for VersionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionPolicy::ShortestWcet => f.write_str("ShortestWcet"),
            VersionPolicy::Energy => f.write_str("Energy"),
            VersionPolicy::EnergyTimeTradeoff { time_weight } => {
                write!(f, "EnergyTimeTradeoff {{ time_weight: {time_weight} }}")
            }
            VersionPolicy::Mode => f.write_str("Mode"),
            VersionPolicy::Permission => f.write_str("Permission"),
            VersionPolicy::UserDefined(_) => f.write_str("UserDefined(..)"),
        }
    }
}

impl VersionPolicy {
    /// Short label for experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            VersionPolicy::ShortestWcet => "wcet",
            VersionPolicy::Energy => "energy",
            VersionPolicy::EnergyTimeTradeoff { .. } => "tradeoff",
            VersionPolicy::Mode => "mode",
            VersionPolicy::Permission => "perm",
            VersionPolicy::UserDefined(_) => "user",
        }
    }
}

/// The full middleware configuration (the paper's `config.h`).
///
/// # Examples
///
/// ```
/// use yasmin_core::config::{Config, MappingScheme};
/// use yasmin_core::priority::PriorityPolicy;
///
/// let cfg = Config::builder()
///     .workers(2)
///     .mapping(MappingScheme::Global)
///     .priority(PriorityPolicy::EarliestDeadlineFirst)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.workers(), 2);
/// ```
#[derive(Clone)]
pub struct Config {
    workers: usize,
    mapping: MappingScheme,
    priority: PriorityPolicy,
    version_policy: VersionPolicy,
    waiting: WaitChoice,
    preemption: bool,
    tick_override: Option<Duration>,
    max_pending_jobs: usize,
    battery_source: Option<Arc<BatteryFn>>,
    sharded_dispatch: bool,
    cull_missed: bool,
    enforce_wcet: bool,
    miss_trip: Option<(Duration, u32)>,
}

impl Config {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Number of worker threads / virtual CPUs (`THREADS_SIZE`).
    #[must_use]
    pub const fn workers(&self) -> usize {
        self.workers
    }

    /// Global or partitioned mapping.
    #[must_use]
    pub const fn mapping(&self) -> MappingScheme {
        self.mapping
    }

    /// The priority assignment policy.
    #[must_use]
    pub const fn priority(&self) -> PriorityPolicy {
        self.priority
    }

    /// The version-selection policy.
    #[must_use]
    pub const fn version_policy(&self) -> &VersionPolicy {
        &self.version_policy
    }

    /// The waiting strategy choice.
    #[must_use]
    pub const fn waiting(&self) -> WaitChoice {
        self.waiting
    }

    /// Whether preemption is enabled (on-line scheduling only, §3.5).
    #[must_use]
    pub const fn preemption(&self) -> bool {
        self.preemption
    }

    /// A fixed scheduler-tick period overriding the gcd of task periods.
    #[must_use]
    pub const fn tick_override(&self) -> Option<Duration> {
        self.tick_override
    }

    /// Bound on simultaneously pending (released, unfinished) jobs; sizes
    /// the pre-allocated ready queues.
    #[must_use]
    pub const fn max_pending_jobs(&self) -> usize {
        self.max_pending_jobs
    }

    /// The battery probe, if configured.
    #[must_use]
    pub fn battery_source(&self) -> Option<&Arc<BatteryFn>> {
        self.battery_source.as_ref()
    }

    /// Reads the battery through the configured probe (full if none).
    #[must_use]
    pub fn read_battery(&self) -> BatteryLevel {
        self.battery_source
            .as_ref()
            .map_or(BatteryLevel::FULL, |f| f())
    }

    /// Whether drivers should run one independent engine shard per
    /// worker (partitioned mapping only) instead of a single shared
    /// engine owner. Sharded dispatch is the opt-in for the per-core
    /// scheduler threads and the sharded simulation driver.
    #[must_use]
    pub const fn sharded_dispatch(&self) -> bool {
        self.sharded_dispatch
    }

    /// Whether the engine culls ready jobs whose absolute deadline has
    /// already passed at a scheduler tick (they are removed from the
    /// ready queue and counted in `EngineStats::culled` instead of being
    /// dispatched late). Off by default: the paper's scheduler always
    /// dispatches, and miss accounting then happens on completed
    /// records.
    #[must_use]
    pub const fn cull_missed(&self) -> bool {
        self.cull_missed
    }

    /// Whether the engine enforces per-job WCET budgets on the tick
    /// path: a job still running past `dispatch + selected-version WCET`
    /// has its task's `OverrunPolicy` applied and is counted in
    /// `EngineStats::overruns`. Off by default — the paper's scheduler
    /// trusts declared WCETs.
    #[must_use]
    pub const fn enforce_wcet(&self) -> bool {
        self.enforce_wcet
    }

    /// The deadline-miss trip wire `(window, budget)`. Misses are
    /// counted in a tumbling window of length `window`: the first opens
    /// at instant zero, and the first tick or miss at or past a window's
    /// end opens the next one there, with a count of zero. More than
    /// `budget` misses in one window trip the wire, and the roll that
    /// opens the next window untrips it. Shedding is a level: exactly
    /// while the wire is tripped, every job of an
    /// `OverrunPolicy::LogOnly`-class task — queued or running, released
    /// before the trip or during it — runs at background priority (a
    /// message ceiling still raises it), and the untrip restores each to
    /// its base priority. `None` disables the trip wire.
    #[must_use]
    pub const fn miss_trip(&self) -> Option<(Duration, u32)> {
        self.miss_trip
    }

    /// A configuration label like `G-EDF` used in experiment tables.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}-{}", self.mapping.label(), self.priority.label())
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::builder().build().expect("default config is valid")
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("workers", &self.workers)
            .field("mapping", &self.mapping)
            .field("priority", &self.priority)
            .field("version_policy", &self.version_policy)
            .field("waiting", &self.waiting)
            .field("preemption", &self.preemption)
            .field("tick_override", &self.tick_override)
            .field("max_pending_jobs", &self.max_pending_jobs)
            .field(
                "battery_source",
                &self.battery_source.as_ref().map(|_| ".."),
            )
            .field("sharded_dispatch", &self.sharded_dispatch)
            .field("cull_missed", &self.cull_missed)
            .field("enforce_wcet", &self.enforce_wcet)
            .field("miss_trip", &self.miss_trip)
            .finish()
    }
}

/// Builder for [`Config`]: the configuration being built, which
/// [`ConfigBuilder::build`] validates and hands out.
#[derive(Clone)]
pub struct ConfigBuilder(Config);

impl fmt::Debug for ConfigBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConfigBuilder")
            .field("workers", &self.0.workers)
            .field("mapping", &self.0.mapping)
            .field("priority", &self.0.priority)
            .finish_non_exhaustive()
    }
}

impl Default for ConfigBuilder {
    fn default() -> Self {
        ConfigBuilder(Config {
            workers: 1,
            mapping: MappingScheme::default(),
            priority: PriorityPolicy::default(),
            version_policy: VersionPolicy::default(),
            waiting: WaitChoice::default(),
            preemption: true,
            tick_override: None,
            max_pending_jobs: 1024,
            battery_source: None,
            sharded_dispatch: false,
            cull_missed: false,
            enforce_wcet: false,
            miss_trip: None,
        })
    }
}

impl ConfigBuilder {
    /// Sets the number of worker threads (virtual CPUs).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.0.workers = n;
        self
    }

    /// Sets global or partitioned mapping.
    #[must_use]
    pub fn mapping(mut self, m: MappingScheme) -> Self {
        self.0.mapping = m;
        self
    }

    /// Sets the priority assignment policy.
    #[must_use]
    pub fn priority(mut self, p: PriorityPolicy) -> Self {
        self.0.priority = p;
        self
    }

    /// Sets the version-selection policy.
    #[must_use]
    pub fn version_policy(mut self, v: VersionPolicy) -> Self {
        self.0.version_policy = v;
        self
    }

    /// Sets the waiting strategy: how a thread of the thread runtimes
    /// waits between jobs. Every owner thread honours it — a shard's and
    /// the single-owner `Runtime`'s alike, it is one loop — and so do
    /// `Runtime`'s helper threads: [`WaitChoice::Sleep`] parks until the
    /// next tick edge (twice, far then near, each armed early by the
    /// lateness parks of its kind show) or the first wake-up,
    /// [`WaitChoice::Spin`] parks nobody — an idle owner spins to its
    /// next edge — and wants a core per thread.
    #[must_use]
    pub fn waiting(mut self, w: WaitChoice) -> Self {
        self.0.waiting = w;
        self
    }

    /// Enables or disables preemption.
    #[must_use]
    pub fn preemption(mut self, on: bool) -> Self {
        self.0.preemption = on;
        self
    }

    /// Overrides the scheduler-tick period (otherwise gcd of periods).
    #[must_use]
    pub fn tick(mut self, tick: Duration) -> Self {
        self.0.tick_override = Some(tick);
        self
    }

    /// Sets the bound on pending jobs (ready-queue capacity).
    #[must_use]
    pub fn max_pending_jobs(mut self, n: usize) -> Self {
        self.0.max_pending_jobs = n;
        self
    }

    /// Installs the platform-dependent battery probe.
    #[must_use]
    pub fn battery_source(mut self, f: impl Fn() -> BatteryLevel + Send + Sync + 'static) -> Self {
        self.0.battery_source = Some(Arc::new(f));
        self
    }

    /// Opts into per-worker engine sharding (requires
    /// [`MappingScheme::Partitioned`]): each worker owns an independent
    /// engine shard fed through a lock-free command mailbox, enabling
    /// one scheduler thread per core.
    #[must_use]
    pub fn sharded_dispatch(mut self, on: bool) -> Self {
        self.0.sharded_dispatch = on;
        self
    }

    /// Enables culling of deadline-missed ready jobs at scheduler
    /// ticks; see [`Config::cull_missed`].
    #[must_use]
    pub fn cull_missed(mut self, on: bool) -> Self {
        self.0.cull_missed = on;
        self
    }

    /// Enables WCET-overrun enforcement on the tick path; see
    /// [`Config::enforce_wcet`].
    #[must_use]
    pub fn enforce_wcet(mut self, on: bool) -> Self {
        self.0.enforce_wcet = on;
        self
    }

    /// Arms the deadline-miss trip wire: more than `budget` misses in
    /// one tumbling window of `window` demote every job of the
    /// `OverrunPolicy::LogOnly`-class tasks, queued or running, until
    /// that window ends; see [`Config::miss_trip`].
    #[must_use]
    pub fn miss_trip(mut self, window: Duration, budget: u32) -> Self {
        self.0.miss_trip = Some((window, budget));
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the combination is inconsistent
    /// (zero workers, zero queue capacity, zero tick override, sharded
    /// dispatch without partitioned mapping, a zero miss-trip window).
    pub fn build(self) -> Result<Config> {
        let c = self.0;
        if c.workers == 0 {
            return Err(Error::InvalidConfig(
                "at least one worker is required".into(),
            ));
        }
        if c.max_pending_jobs == 0 {
            return Err(Error::InvalidConfig(
                "max_pending_jobs must be positive".into(),
            ));
        }
        if let Some(t) = c.tick_override {
            if t.is_zero() {
                return Err(Error::InvalidConfig(
                    "tick override must be positive".into(),
                ));
            }
        }
        if c.sharded_dispatch && c.mapping != MappingScheme::Partitioned {
            return Err(Error::InvalidConfig(
                "sharded dispatch needs per-worker ready queues: use partitioned mapping".into(),
            ));
        }
        if let Some((window, _)) = c.miss_trip {
            if window.is_zero() {
                return Err(Error::InvalidConfig(
                    "miss-trip window must be positive".into(),
                ));
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = Config::default();
        assert_eq!(c.workers(), 1);
        assert_eq!(c.mapping(), MappingScheme::Global);
        assert!(c.preemption());
        assert_eq!(c.read_battery(), BatteryLevel::FULL);
    }

    #[test]
    fn builder_sets_all_fields() {
        let c = Config::builder()
            .workers(3)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::RateMonotonic)
            .version_policy(VersionPolicy::Energy)
            .waiting(WaitChoice::Spin)
            .preemption(false)
            .tick(Duration::from_millis(1))
            .max_pending_jobs(64)
            .battery_source(|| BatteryLevel::from_percent(50))
            .sharded_dispatch(true)
            .cull_missed(true)
            .enforce_wcet(true)
            .miss_trip(Duration::from_millis(100), 3)
            .build()
            .unwrap();
        assert_eq!(c.workers(), 3);
        assert_eq!(c.mapping(), MappingScheme::Partitioned);
        assert_eq!(c.priority(), PriorityPolicy::RateMonotonic);
        assert_eq!(c.version_policy().label(), "energy");
        assert_eq!(c.waiting(), WaitChoice::Spin);
        assert!(!c.preemption());
        assert_eq!(c.tick_override(), Some(Duration::from_millis(1)));
        assert_eq!(c.max_pending_jobs(), 64);
        assert_eq!(c.read_battery(), BatteryLevel::from_percent(50));
        assert!(c.sharded_dispatch());
        assert!(c.cull_missed());
        assert!(c.enforce_wcet());
        assert_eq!(c.miss_trip(), Some((Duration::from_millis(100), 3)));
        assert_eq!(c.label(), "P-RM");
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(matches!(
            Config::builder().workers(0).build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn sharded_dispatch_requires_partitioned() {
        assert!(matches!(
            Config::builder().sharded_dispatch(true).build(),
            Err(Error::InvalidConfig(_))
        ));
        let c = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .build()
            .unwrap();
        assert!(c.sharded_dispatch());
        assert!(!Config::default().sharded_dispatch());
    }

    #[test]
    fn zero_tick_rejected() {
        assert!(matches!(
            Config::builder().tick(Duration::ZERO).build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn labels() {
        let c = Config::builder()
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        assert_eq!(c.label(), "G-EDF");
    }

    #[test]
    fn version_policy_debug_and_labels() {
        assert_eq!(format!("{:?}", VersionPolicy::ShortestWcet), "ShortestWcet");
        let p = VersionPolicy::UserDefined(Arc::new(|_, _, _| Vec::new()));
        assert_eq!(format!("{p:?}"), "UserDefined(..)");
        assert_eq!(p.label(), "user");
        assert_eq!(
            VersionPolicy::EnergyTimeTradeoff { time_weight: 700 }.label(),
            "tradeoff"
        );
    }
}
