//! The version-selection engine.
//!
//! At each dispatch YASMIN picks which version of a task to run. Five
//! policies are supported (§3.2): energy capacity, energy/time trade-off,
//! execution mode, permission bit-mask, and a user-defined function —
//! plus the shortest-WCET default that the drone exploration of Figure 4
//! uses when "we … left the scheduler decide which one to execute".
//!
//! [`rank_versions`] returns *all* eligible versions ordered by
//! preference; the dispatcher then takes the first whose hardware
//! resources are free, which is how multi-version tasks sidestep
//! accelerator congestion.

use yasmin_core::config::{SelectCtx, VersionPolicy};
use yasmin_core::ids::VersionId;
use yasmin_core::task::Task;
use yasmin_core::version::VersionSpec;

/// Reusable output + scratch storage for [`rank_versions_into`].
///
/// A `RankBuf` amortises the working memory of version ranking: after a
/// warm-up call per task arity, ranking with the built-in policies
/// performs **zero heap allocations** — the sort runs in-place
/// (`sort_unstable_by_key`) over a retained scratch vector. The
/// dispatcher keeps one per engine (plus a per-task result cache) so
/// the dispatch hot path never touches the allocator.
#[derive(Debug, Default, Clone)]
pub struct RankBuf {
    /// Ranked version ids, most preferred first.
    ids: Vec<VersionId>,
    /// Sort scratch: (primary key, secondary key, id).
    scratch: Vec<(u64, u64, VersionId)>,
}

impl RankBuf {
    /// An empty buffer; storage grows on first use and is then retained.
    #[must_use]
    pub fn new() -> Self {
        RankBuf::default()
    }

    /// A buffer pre-sized for tasks with up to `n` versions.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        RankBuf {
            ids: Vec::with_capacity(n),
            scratch: Vec::with_capacity(n),
        }
    }

    /// Grows the buffer, if need be, to rank tasks with up to `n`
    /// versions without allocating.
    pub fn reserve_for(&mut self, n: usize) {
        self.ids.reserve_exact(n.saturating_sub(self.ids.len()));
        self.scratch
            .reserve_exact(n.saturating_sub(self.scratch.len()));
    }

    /// The ranked ids from the most recent [`rank_versions_into`] call.
    #[must_use]
    pub fn as_slice(&self) -> &[VersionId] {
        &self.ids
    }

    /// Number of ranked versions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the last ranking produced no eligible version.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorts the scratch keys and copies the ids into `self.ids`.
    fn commit_sorted(&mut self) {
        // `sort_unstable` is in-place (the stable sort allocates); the
        // id tiebreaker makes the order total, so instability is moot.
        self.scratch.sort_unstable();
        self.ids.clear();
        self.ids.extend(self.scratch.iter().map(|&(_, _, id)| id));
    }
}

/// Ranks the versions of `task` under `policy` into `buf`, most
/// preferred first. Versions that a policy deems ineligible (budget
/// exceeded, wrong mode, missing permission) are filtered out entirely;
/// an empty result means *no version may run right now* and the
/// dispatcher treats the job as blocked.
///
/// Built-in policies allocate nothing once `buf` has warmed up to the
/// task's version count. [`VersionPolicy::UserDefined`] is the
/// exception: the callback contract returns a fresh `Vec` and receives
/// a freshly built candidate slice, so it allocates per call — user
/// policies are also never result-cached by the engine, since the
/// function may be stateful.
pub fn rank_versions_into(policy: &VersionPolicy, ctx: &SelectCtx, task: &Task, buf: &mut RankBuf) {
    let versions = task.versions();
    buf.ids.clear();
    buf.scratch.clear();

    match policy {
        VersionPolicy::ShortestWcet => {
            for (i, v) in versions.iter().enumerate() {
                buf.scratch.push((
                    v.wcet().as_nanos(),
                    v.energy().as_microjoules(),
                    VersionId::new(i as u16),
                ));
            }
            buf.commit_sorted();
        }
        VersionPolicy::Energy => {
            // Affordable versions first, the most capable (highest budget)
            // leading; an exhausted battery falls back to the cheapest
            // version so the task can still run.
            let battery = ctx.battery;
            let budget_of =
                |v: &VersionSpec| v.props().energy_budget.map_or(0, |e| e.as_microjoules());
            // Interpret budgets against the battery fraction with 25 %
            // headroom: the most demanding version stays affordable until
            // the battery drops below 80 %, then versions shed in budget
            // order — a graceful-degradation curve rather than a
            // knife-edge at exactly full charge.
            let max_budget = versions.iter().map(budget_of).max().unwrap_or(0);
            let affordable_limit =
                (u128::from(max_budget) * u128::from(battery.as_permille()) / 800) as u64;
            for (i, v) in versions.iter().enumerate() {
                let b = budget_of(v);
                if b <= affordable_limit {
                    // Descending budget via a complemented key.
                    buf.scratch
                        .push((u64::MAX - b, 0, VersionId::new(i as u16)));
                }
            }
            if buf.scratch.is_empty() {
                // Battery too low for every declared budget: degrade to
                // the single cheapest version.
                let cheapest = versions
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (budget_of(v), VersionId::new(i as u16)))
                    .min();
                if let Some((_, id)) = cheapest {
                    buf.ids.push(id);
                }
                return;
            }
            buf.commit_sorted();
        }
        VersionPolicy::EnergyTimeTradeoff { time_weight } => {
            let w = u64::from(*time_weight).min(1000);
            let max_t = versions
                .iter()
                .map(|v| v.wcet().as_nanos())
                .max()
                .unwrap_or(1)
                .max(1);
            let max_e = versions
                .iter()
                .map(|v| v.energy().as_microjoules())
                .max()
                .unwrap_or(1)
                .max(1);
            // Normalised weighted cost in permille; integer arithmetic for
            // determinism.
            for (i, v) in versions.iter().enumerate() {
                let t = v.wcet().as_nanos() * 1000 / max_t;
                let e = v.energy().as_microjoules() * 1000 / max_e;
                let cost = w * t + (1000 - w) * e;
                buf.scratch.push((cost, 0, VersionId::new(i as u16)));
            }
            buf.commit_sorted();
        }
        VersionPolicy::Mode => {
            for (i, v) in versions.iter().enumerate() {
                if v.props().modes.contains(ctx.mode) {
                    buf.scratch
                        .push((v.wcet().as_nanos(), 0, VersionId::new(i as u16)));
                }
            }
            buf.commit_sorted();
        }
        VersionPolicy::Permission => {
            for (i, v) in versions.iter().enumerate() {
                if v.props().permissions.intersects(ctx.permissions) {
                    buf.scratch
                        .push((v.wcet().as_nanos(), 0, VersionId::new(i as u16)));
                }
            }
            buf.commit_sorted();
        }
        VersionPolicy::UserDefined(f) => {
            let candidates: Vec<(VersionId, &VersionSpec)> = versions
                .iter()
                .enumerate()
                .map(|(i, v)| (VersionId::new(i as u16), v))
                .collect();
            buf.ids = f(ctx, task.id(), &candidates);
        }
    }
}

/// Ranks the versions of `task` under `policy`, most preferred first,
/// returning a fresh `Vec`. Thin allocating wrapper over
/// [`rank_versions_into`] — hot paths should hold a [`RankBuf`] instead.
#[must_use]
pub fn rank_versions(policy: &VersionPolicy, ctx: &SelectCtx, task: &Task) -> Vec<VersionId> {
    let mut buf = RankBuf::with_capacity(task.versions().len());
    rank_versions_into(policy, ctx, task, &mut buf);
    buf.ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use yasmin_core::energy::{BatteryLevel, Energy};
    use yasmin_core::ids::TaskId;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::Duration;
    use yasmin_core::version::{ExecMode, ModeMask, PermMask};

    fn two_version_task() -> Task {
        let mut t = Task::new(
            TaskId::new(0),
            TaskSpec::periodic("left", Duration::from_millis(250)),
        );
        // v0: cheap & slow (CPU); v1: hungry & fast (accelerator-ish).
        t.push_version(
            VersionSpec::new("v1", Duration::from_millis(80))
                .with_energy(Energy::from_millijoules(5))
                .with_energy_budget(Energy::from_millijoules(5)),
        );
        t.push_version(
            VersionSpec::new("v2", Duration::from_millis(30))
                .with_energy(Energy::from_millijoules(12))
                .with_energy_budget(Energy::from_millijoules(12)),
        );
        t
    }

    #[test]
    fn shortest_wcet_prefers_fastest() {
        let t = two_version_task();
        let r = rank_versions(&VersionPolicy::ShortestWcet, &SelectCtx::default(), &t);
        assert_eq!(r, vec![VersionId::new(1), VersionId::new(0)]);
    }

    #[test]
    fn energy_full_battery_prefers_most_capable() {
        let t = two_version_task();
        let ctx = SelectCtx {
            battery: BatteryLevel::FULL,
            ..SelectCtx::default()
        };
        let r = rank_versions(&VersionPolicy::Energy, &ctx, &t);
        assert_eq!(
            r[0],
            VersionId::new(1),
            "full battery affords the 12mJ version"
        );
    }

    #[test]
    fn energy_low_battery_degrades() {
        let t = two_version_task();
        let ctx = SelectCtx {
            battery: BatteryLevel::from_percent(30),
            ..SelectCtx::default()
        };
        // Affordable limit = 12mJ * 0.30 = 3.6mJ < both budgets -> degrade
        // to the cheapest version only.
        let r = rank_versions(&VersionPolicy::Energy, &ctx, &t);
        assert_eq!(r, vec![VersionId::new(0)]);
    }

    #[test]
    fn energy_mid_battery_keeps_affordable() {
        let t = two_version_task();
        let ctx = SelectCtx {
            battery: BatteryLevel::from_percent(50),
            ..SelectCtx::default()
        };
        // Limit = 6mJ: only the 5mJ version is affordable.
        let r = rank_versions(&VersionPolicy::Energy, &ctx, &t);
        assert_eq!(r, vec![VersionId::new(0)]);
    }

    #[test]
    fn tradeoff_pure_time_equals_shortest_wcet() {
        let t = two_version_task();
        let r = rank_versions(
            &VersionPolicy::EnergyTimeTradeoff { time_weight: 1000 },
            &SelectCtx::default(),
            &t,
        );
        assert_eq!(r[0], VersionId::new(1));
    }

    #[test]
    fn tradeoff_pure_energy_prefers_cheapest() {
        let t = two_version_task();
        let r = rank_versions(
            &VersionPolicy::EnergyTimeTradeoff { time_weight: 0 },
            &SelectCtx::default(),
            &t,
        );
        assert_eq!(r[0], VersionId::new(0));
    }

    #[test]
    fn mode_filters_by_current_mode() {
        let mut t = Task::new(
            TaskId::new(0),
            TaskSpec::periodic("enc", Duration::from_millis(500)),
        );
        t.push_version(
            VersionSpec::new("plain", Duration::from_millis(3))
                .with_modes(ModeMask::only(ExecMode::NORMAL)),
        );
        t.push_version(
            VersionSpec::new("aes", Duration::from_millis(100))
                .with_modes(ModeMask::only(ExecMode::new(1))),
        );
        let normal = SelectCtx::default();
        assert_eq!(
            rank_versions(&VersionPolicy::Mode, &normal, &t),
            vec![VersionId::new(0)]
        );
        let secure = SelectCtx {
            mode: ExecMode::new(1),
            ..SelectCtx::default()
        };
        assert_eq!(
            rank_versions(&VersionPolicy::Mode, &secure, &t),
            vec![VersionId::new(1)]
        );
    }

    #[test]
    fn permission_filters_by_mask() {
        let mut t = Task::new(
            TaskId::new(0),
            TaskSpec::periodic("p", Duration::from_millis(10)),
        );
        t.push_version(
            VersionSpec::new("a", Duration::from_millis(1))
                .with_permissions(PermMask::from_bits(0b01)),
        );
        t.push_version(
            VersionSpec::new("b", Duration::from_millis(2))
                .with_permissions(PermMask::from_bits(0b10)),
        );
        let ctx = SelectCtx {
            permissions: PermMask::from_bits(0b10),
            ..SelectCtx::default()
        };
        assert_eq!(
            rank_versions(&VersionPolicy::Permission, &ctx, &t),
            vec![VersionId::new(1)]
        );
        let none = SelectCtx {
            permissions: PermMask::NONE,
            ..SelectCtx::default()
        };
        assert!(rank_versions(&VersionPolicy::Permission, &none, &t).is_empty());
    }

    #[test]
    fn into_variant_matches_wrapper_and_reuses_storage() {
        let t = two_version_task();
        let mut buf = RankBuf::with_capacity(2);
        for policy in [
            VersionPolicy::ShortestWcet,
            VersionPolicy::Energy,
            VersionPolicy::EnergyTimeTradeoff { time_weight: 300 },
        ] {
            let ctx = SelectCtx::default();
            rank_versions_into(&policy, &ctx, &t, &mut buf);
            assert_eq!(
                buf.as_slice(),
                rank_versions(&policy, &ctx, &t).as_slice(),
                "policy {policy:?} diverged"
            );
        }
        // Storage is retained across calls.
        let ptr = buf.as_slice().as_ptr();
        rank_versions_into(
            &VersionPolicy::ShortestWcet,
            &SelectCtx::default(),
            &t,
            &mut buf,
        );
        assert_eq!(buf.as_slice().as_ptr(), ptr, "ids storage reused");
        assert_eq!(buf.len(), 2);
        assert!(!buf.is_empty());
    }

    #[test]
    fn degraded_energy_ranking_into_matches_wrapper() {
        let t = two_version_task();
        let ctx = SelectCtx {
            battery: BatteryLevel::from_percent(10),
            ..SelectCtx::default()
        };
        let mut buf = RankBuf::new();
        rank_versions_into(&VersionPolicy::Energy, &ctx, &t, &mut buf);
        assert_eq!(buf.as_slice(), &[VersionId::new(0)]);
    }

    #[test]
    fn user_defined_controls_order() {
        let t = two_version_task();
        let policy = VersionPolicy::UserDefined(Arc::new(|_, _, cands| {
            // Reverse declaration order.
            cands.iter().rev().map(|(id, _)| *id).collect()
        }));
        let r = rank_versions(&policy, &SelectCtx::default(), &t);
        assert_eq!(r, vec![VersionId::new(1), VersionId::new(0)]);
    }
}
