//! Battery accounting.

/// A simple energy budget with drain tracking.
///
/// # Examples
///
/// ```
/// use mdl_mobile::Battery;
///
/// let mut battery = Battery::typical_phone();
/// battery.drain(5_500.0); // joules
/// assert!((battery.remaining_fraction() - 0.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    drained_j: f64,
}

impl Battery {
    /// A battery with the given capacity in joules.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive.
    pub fn new(capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "capacity must be positive");
        Self { capacity_j, drained_j: 0.0 }
    }

    /// A typical phone battery (~4000 mAh at 3.85 V ≈ 55 kJ).
    pub fn typical_phone() -> Self {
        Self::new(55_000.0)
    }

    /// A small wearable battery (~300 mAh ≈ 4 kJ).
    pub fn wearable() -> Self {
        Self::new(4_000.0)
    }

    /// Records an energy drain; saturates at empty.
    pub fn drain(&mut self, joules: f64) {
        self.drained_j = (self.drained_j + joules.max(0.0)).min(self.capacity_j);
    }

    /// Remaining fraction in `[0, 1]`.
    pub fn remaining_fraction(&self) -> f64 {
        1.0 - self.drained_j / self.capacity_j
    }

    /// Total joules drained so far.
    pub fn drained_joules(&self) -> f64 {
        self.drained_j
    }

    /// `true` once fully drained.
    pub fn is_empty(&self) -> bool {
        self.drained_j >= self.capacity_j
    }

    /// How many operations of `cost_j` joules fit in the remaining charge.
    pub fn operations_remaining(&self, cost_j: f64) -> u64 {
        if cost_j <= 0.0 {
            return u64::MAX;
        }
        ((self.capacity_j - self.drained_j) / cost_j).floor().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_and_reports() {
        let mut b = Battery::new(100.0);
        b.drain(25.0);
        assert_eq!(b.remaining_fraction(), 0.75);
        assert_eq!(b.drained_joules(), 25.0);
        assert!(!b.is_empty());
        b.drain(1000.0);
        assert!(b.is_empty());
        assert_eq!(b.remaining_fraction(), 0.0);
    }

    #[test]
    fn negative_drain_ignored() {
        let mut b = Battery::new(10.0);
        b.drain(-5.0);
        assert_eq!(b.drained_joules(), 0.0);
    }

    #[test]
    fn operations_remaining_counts() {
        let b = Battery::new(10.0);
        assert_eq!(b.operations_remaining(2.0), 5);
        assert_eq!(b.operations_remaining(0.0), u64::MAX);
    }

    #[test]
    fn presets_are_ordered() {
        assert!(
            Battery::typical_phone().operations_remaining(1.0)
                > Battery::wearable().operations_remaining(1.0)
        );
    }
}
