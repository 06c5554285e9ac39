//! Descriptions of COTS heterogeneous platforms.
//!
//! The evaluation targets the Odroid-XU4 (ARM big.LITTLE octa-core + Mali
//! GPU, §4) and the drone's Apalis TK1 (quad Cortex-A15 + Kepler GPU, §5).
//! A [`PlatformSpec`] captures what the scheduler and the simulator need:
//! core classes with relative speeds and power draw, and the number of
//! cores per class.

use crate::energy::Power;
use crate::ids::CoreId;

/// A class of identical cores (e.g. the "big" cluster).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreClass {
    name: String,
    /// Relative speed as a fraction `speed_num / speed_den` of the
    /// reference class (1/1 = reference). WCETs are specified on the
    /// reference class and stretched on slower cores.
    speed_num: u64,
    speed_den: u64,
    active_power: Power,
    idle_power: Power,
}

impl CoreClass {
    /// Creates a core class with speed `speed_num / speed_den` relative to
    /// the reference class.
    ///
    /// # Panics
    ///
    /// Panics if either speed component is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, speed_num: u64, speed_den: u64) -> Self {
        assert!(speed_num > 0 && speed_den > 0, "speed must be positive");
        CoreClass {
            name: name.into(),
            speed_num,
            speed_den,
            active_power: Power::ZERO,
            idle_power: Power::ZERO,
        }
    }

    /// Sets active/idle power for the energy model.
    #[must_use]
    pub fn with_power(mut self, active: Power, idle: Power) -> Self {
        self.active_power = active;
        self.idle_power = idle;
        self
    }

    /// The class name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relative speed as `(num, den)`.
    #[must_use]
    pub const fn speed(&self) -> (u64, u64) {
        (self.speed_num, self.speed_den)
    }

    /// Power drawn while executing.
    #[must_use]
    pub const fn active_power(&self) -> Power {
        self.active_power
    }

    /// Power drawn while idle.
    #[must_use]
    pub const fn idle_power(&self) -> Power {
        self.idle_power
    }
}

/// A whole platform: an ordered list of cores, each belonging to a class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlatformSpec {
    name: String,
    classes: Vec<CoreClass>,
    /// `core_class[i]` = index into `classes` for core `i`.
    core_class: Vec<usize>,
}

impl PlatformSpec {
    /// Creates a platform from classes and a per-core class assignment.
    ///
    /// # Panics
    ///
    /// Panics if a class index is out of range or there are no cores.
    #[must_use]
    pub fn new(name: impl Into<String>, classes: Vec<CoreClass>, core_class: Vec<usize>) -> Self {
        assert!(!core_class.is_empty(), "a platform needs at least one core");
        assert!(
            core_class.iter().all(|&c| c < classes.len()),
            "core class index out of range"
        );
        PlatformSpec {
            name: name.into(),
            classes,
            core_class,
        }
    }

    /// A homogeneous platform of `n` reference cores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn uniform(n: usize) -> Self {
        PlatformSpec::new(
            format!("uniform-{n}"),
            vec![CoreClass::new("core", 1, 1)
                .with_power(Power::from_milliwatts(1_000), Power::from_milliwatts(100))],
            vec![0; n],
        )
    }

    /// The Odroid-XU4 used in the paper's evaluation (§4): four big
    /// Cortex-A15-class cores (reference speed) and four LITTLE
    /// Cortex-A7-class cores at roughly 0.4× speed.
    ///
    /// Power figures are representative of the Exynos 5422 SoC
    /// (big ≈ 1.5 W, LITTLE ≈ 0.25 W per active core).
    #[must_use]
    pub fn odroid_xu4() -> Self {
        let big = CoreClass::new("big-A15", 1, 1)
            .with_power(Power::from_milliwatts(1_500), Power::from_milliwatts(150));
        let little = CoreClass::new("LITTLE-A7", 2, 5)
            .with_power(Power::from_milliwatts(250), Power::from_milliwatts(40));
        PlatformSpec::new(
            "odroid-xu4",
            vec![big, little],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        )
    }

    /// The Toradex Apalis TK1 carrying the drone's SAR payload (§5):
    /// quad-core Cortex-A15; the Kepler GPU is declared separately as an
    /// accelerator on the task set.
    #[must_use]
    pub fn apalis_tk1() -> Self {
        let a15 = CoreClass::new("A15", 1, 1)
            .with_power(Power::from_milliwatts(1_800), Power::from_milliwatts(200));
        PlatformSpec::new("apalis-tk1", vec![a15], vec![0; 4])
    }

    /// The platform name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.core_class.len()
    }

    /// All core identifiers.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.core_class.len()).map(|i| CoreId::new(i as u16))
    }

    /// The class of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn class_of(&self, core: CoreId) -> &CoreClass {
        &self.classes[self.core_class[core.index()]]
    }

    /// All declared classes.
    #[must_use]
    pub fn classes(&self) -> &[CoreClass] {
        &self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// Reference work stretched to wall time on `class`: `wcet × den / num`.
    fn wall_time(class: &CoreClass, reference: Duration) -> Duration {
        let (num, den) = class.speed();
        reference.scale(den, num)
    }

    #[test]
    fn core_class_speed_scaling() {
        let little = CoreClass::new("LITTLE", 2, 5);
        // 100ms of reference work takes 250ms at 0.4x speed.
        assert_eq!(
            wall_time(&little, Duration::from_millis(100)),
            Duration::from_millis(250)
        );
        let big = CoreClass::new("big", 1, 1);
        assert_eq!(
            wall_time(&big, Duration::from_millis(100)),
            Duration::from_millis(100)
        );
    }

    #[test]
    fn odroid_preset_shape() {
        let p = PlatformSpec::odroid_xu4();
        assert_eq!(p.core_count(), 8);
        let named = |name| p.cores().filter(|&c| p.class_of(c).name() == name).count();
        assert_eq!(named("big-A15"), 4);
        assert_eq!(named("LITTLE-A7"), 4);
        assert_eq!(p.class_of(CoreId::new(0)).name(), "big-A15");
        assert_eq!(p.class_of(CoreId::new(7)).name(), "LITTLE-A7");
        // LITTLE cores stretch execution times.
        let ms10 = Duration::from_millis(10);
        assert!(
            wall_time(p.class_of(CoreId::new(7)), ms10)
                > wall_time(p.class_of(CoreId::new(0)), ms10)
        );
    }

    #[test]
    fn tk1_preset_shape() {
        let p = PlatformSpec::apalis_tk1();
        assert_eq!(p.core_count(), 4);
        assert_eq!(p.classes().len(), 1);
    }

    #[test]
    fn uniform_platform() {
        let p = PlatformSpec::uniform(3);
        assert_eq!(p.core_count(), 3);
        assert_eq!(p.cores().count(), 3);
        assert_eq!(
            wall_time(p.class_of(CoreId::new(2)), Duration::from_micros(5)),
            Duration::from_micros(5)
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_platform_panics() {
        let _ = PlatformSpec::new("empty", vec![CoreClass::new("c", 1, 1)], vec![]);
    }
}
