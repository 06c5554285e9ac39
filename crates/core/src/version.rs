//! Multi-version tasks: functionally equivalent implementations with
//! distinct extra-functional behaviour.
//!
//! "All versions of a single task are functionally equivalent, and expose
//! the same interface, but each one has its own distinct non-functional
//! behaviour, i.e. worst-case execution time (WCET), energy consumption"
//! (§2). A version may additionally target a hardware accelerator declared
//! via [`crate::graph::TaskSetBuilder::hwaccel_decl`].

use crate::energy::Energy;
use crate::ids::AccelId;
use crate::time::Duration;
use std::fmt;
use std::sync::Arc;

/// The execution mode the system is currently in.
///
/// Modes are small indices (0–31); a version declares the set of modes it
/// may run in through a [`ModeMask`]. The paper's example is a
/// "multi-security mode where different implementations of an encryption
/// algorithm can be switched at runtime" (§3.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ExecMode(u8);

impl ExecMode {
    /// The default mode (index 0), e.g. "normal".
    pub const NORMAL: ExecMode = ExecMode(0);

    /// Creates a mode from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        assert!(index < 32, "at most 32 execution modes are supported");
        ExecMode(index)
    }

    /// The mode index.
    #[must_use]
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mode{}", self.0)
    }
}

/// A set of execution modes, as a 32-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModeMask(u32);

impl ModeMask {
    /// Matches every mode (the default for versions that do not care).
    pub const ALL: ModeMask = ModeMask(u32::MAX);
    /// Matches no mode.
    pub const NONE: ModeMask = ModeMask(0);

    /// A mask containing exactly `mode`.
    #[must_use]
    pub const fn only(mode: ExecMode) -> Self {
        ModeMask(1 << mode.index())
    }

    /// Creates a mask from raw bits (bit *i* = mode *i*).
    #[must_use]
    pub const fn from_bits(bits: u32) -> Self {
        ModeMask(bits)
    }

    /// The raw bits.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Adds `mode` to the mask.
    #[must_use]
    pub const fn with(self, mode: ExecMode) -> ModeMask {
        ModeMask(self.0 | (1 << mode.index()))
    }

    /// `true` if the mask contains `mode`.
    #[must_use]
    pub const fn contains(self, mode: ExecMode) -> bool {
        self.0 & (1 << mode.index()) != 0
    }
}

impl Default for ModeMask {
    fn default() -> Self {
        ModeMask::ALL
    }
}

impl fmt::Debug for ModeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModeMask({:#010x})", self.0)
    }
}

/// A bit-mask of permissions; the permission-based selection policy picks
/// only versions whose mask intersects the currently granted permissions
/// (§3.2, option 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PermMask(u32);

impl PermMask {
    /// Grants everything.
    pub const ALL: PermMask = PermMask(u32::MAX);
    /// Grants nothing.
    pub const NONE: PermMask = PermMask(0);

    /// Creates a mask from raw bits.
    #[must_use]
    pub const fn from_bits(bits: u32) -> Self {
        PermMask(bits)
    }

    /// The raw bits.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// `true` if the two masks share at least one bit.
    #[must_use]
    pub const fn intersects(self, other: PermMask) -> bool {
        self.0 & other.0 != 0
    }
}

impl Default for PermMask {
    fn default() -> Self {
        PermMask::ALL
    }
}

impl fmt::Debug for PermMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PermMask({:#010x})", self.0)
    }
}

/// Per-version selection properties (the paper's `VSelect props` argument
/// to `version_decl`, §3.1/§3.2).
///
/// Each selection policy reads the fields it needs; unused fields keep
/// their defaults, which make the version eligible under every policy,
/// so the same declaration works under any configured policy
/// ("allowing for an easy switch at compile time").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionProps {
    /// Energy this version needs per activation; the energy policy only
    /// selects versions whose budget fits the remaining battery.
    pub energy_budget: Option<Energy>,
    /// Modes in which this version may run.
    pub modes: ModeMask,
    /// Permission bits carried by this version.
    pub permissions: PermMask,
}

/// One implementation of a task, with its extra-functional profile.
///
/// # Examples
///
/// ```
/// use yasmin_core::time::Duration;
/// use yasmin_core::version::VersionSpec;
///
/// let cpu = VersionSpec::new("detect-cpu", Duration::from_millis(230));
/// assert!(cpu.accel().is_none());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionSpec {
    /// Shared, like [`crate::task::TaskSpec`]'s.
    name: Arc<str>,
    wcet: Duration,
    energy: Energy,
    accel: Option<AccelId>,
    props: VersionProps,
}

impl VersionSpec {
    /// Creates a CPU-only version with the given WCET (on the reference
    /// core class) and default selection properties.
    #[must_use]
    pub fn new(name: impl Into<String>, wcet: Duration) -> Self {
        VersionSpec {
            name: Arc::from(name.into()),
            wcet,
            energy: Energy::ZERO,
            accel: None,
            props: VersionProps::default(),
        }
    }

    /// Sets the energy consumed by one activation of this version.
    #[must_use]
    pub fn with_energy(mut self, energy: Energy) -> Self {
        self.energy = energy;
        self
    }

    /// Declares that this version uses a hardware accelerator.
    ///
    /// Note: per the paper's current limitation (§3.2) the accelerator is
    /// considered busy for the *whole* execution of the version, from the
    /// initial CPU part to the final CPU part; the version also occupies
    /// its worker for the whole WCET.
    #[must_use]
    pub fn with_accel(mut self, accel: AccelId) -> Self {
        self.accel = Some(accel);
        self
    }

    /// Sets only the energy budget used by the energy selection policy.
    #[must_use]
    pub fn with_energy_budget(mut self, budget: Energy) -> Self {
        self.props.energy_budget = Some(budget);
        self
    }

    /// Restricts this version to the given execution modes.
    #[must_use]
    pub fn with_modes(mut self, modes: ModeMask) -> Self {
        self.props.modes = modes;
        self
    }

    /// Sets the permission bits of this version.
    #[must_use]
    pub fn with_permissions(mut self, permissions: PermMask) -> Self {
        self.props.permissions = permissions;
        self
    }

    /// The version name (for traces and tables).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worst-case execution time on the reference core class.
    #[must_use]
    pub const fn wcet(&self) -> Duration {
        self.wcet
    }

    /// Energy consumed by one activation.
    #[must_use]
    pub const fn energy(&self) -> Energy {
        self.energy
    }

    /// The accelerator this version occupies, if any.
    #[must_use]
    pub const fn accel(&self) -> Option<AccelId> {
        self.accel
    }

    /// The selection properties.
    #[must_use]
    pub const fn props(&self) -> &VersionProps {
        &self.props
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_bounds() {
        assert_eq!(ExecMode::new(31).index(), 31);
        assert_eq!(ExecMode::NORMAL.index(), 0);
    }

    #[test]
    #[should_panic(expected = "32")]
    fn exec_mode_rejects_large_index() {
        let _ = ExecMode::new(32);
    }

    #[test]
    fn mode_mask_membership() {
        let secure = ExecMode::new(1);
        let m = ModeMask::only(ExecMode::NORMAL).with(secure);
        assert!(m.contains(ExecMode::NORMAL));
        assert!(m.contains(secure));
        assert!(!m.contains(ExecMode::new(2)));
        assert!(ModeMask::ALL.contains(ExecMode::new(31)));
        assert!(!ModeMask::NONE.contains(ExecMode::NORMAL));
    }

    #[test]
    fn perm_mask_intersection() {
        let a = PermMask::from_bits(0b0110);
        let b = PermMask::from_bits(0b0100);
        let c = PermMask::from_bits(0b1000);
        assert!(a.intersects(b));
        assert!(!a.intersects(c));
        assert!(PermMask::ALL.intersects(a));
        assert!(!PermMask::NONE.intersects(a));
    }

    #[test]
    fn version_builder_chains() {
        let v = VersionSpec::new("enc-aes", Duration::from_millis(100))
            .with_energy(Energy::from_millijoules(12))
            .with_energy_budget(Energy::from_millijoules(15))
            .with_modes(ModeMask::only(ExecMode::new(1)))
            .with_permissions(PermMask::from_bits(0b1));
        assert_eq!(v.name(), "enc-aes");
        assert_eq!(v.wcet(), Duration::from_millis(100));
        assert_eq!(v.energy().as_microjoules(), 12_000);
        assert_eq!(v.props().energy_budget, Some(Energy::from_millijoules(15)));
        assert!(v.props().modes.contains(ExecMode::new(1)));
        assert!(!v.props().modes.contains(ExecMode::NORMAL));
        assert!(v.accel().is_none());
    }

    #[test]
    fn accel_version() {
        let v =
            VersionSpec::new("detect-gpu", Duration::from_millis(130)).with_accel(AccelId::new(0));
        assert_eq!(v.accel(), Some(AccelId::new(0)));
    }

    #[test]
    fn default_props_are_permissive() {
        let p = VersionProps::default();
        assert_eq!(p.energy_budget, None);
        assert!(p.modes.contains(ExecMode::new(17)));
        assert!(p.permissions.intersects(PermMask::from_bits(1 << 30)));
    }
}
