//! Saturating counters — the workhorse of every predictor in this workspace.

use serde::{Deserialize, Serialize};

/// An n-bit saturating counter (`0 ..= 2^bits - 1`).
///
/// Used for the pair table's 6-bit miss cost, the DL_PA fields' 3-bit sctr,
/// Hawkeye's PC predictor, and DRRIP's PSEL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SatCounter {
    value: u32,
    max: u32,
}

impl SatCounter {
    /// Creates a counter of `bits` width initialised to `init` (clamped).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31.
    pub fn new(bits: u32, init: u32) -> Self {
        assert!(bits > 0 && bits < 32, "counter width {bits} out of range");
        let max = (1u32 << bits) - 1;
        Self { value: init.min(max), max }
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u32 {
        self.value
    }

    /// Maximum representable value.
    #[inline]
    pub fn max(self) -> u32 {
        self.max
    }

    /// Saturating increment.
    #[inline]
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn dec(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Saturating add of `n`.
    #[inline]
    pub fn add(&mut self, n: u32) {
        self.value = (self.value + n).min(self.max);
    }

    /// Saturating subtract of `n`.
    #[inline]
    pub fn sub(&mut self, n: u32) {
        self.value = self.value.saturating_sub(n);
    }

    /// Overwrites the value (clamped to the counter range).
    #[inline]
    pub fn set(&mut self, v: u32) {
        self.value = v.min(self.max);
    }

    /// True if the counter is at least half its range (MSB set).
    #[inline]
    pub fn msb(self) -> bool {
        self.value > self.max / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_high() {
        let mut c = SatCounter::new(3, 6);
        c.inc();
        c.inc();
        assert_eq!(c.get(), 7);
        c.add(100);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn saturates_low() {
        let mut c = SatCounter::new(3, 1);
        c.dec();
        c.dec();
        assert_eq!(c.get(), 0);
        c.sub(100);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn init_clamps() {
        assert_eq!(SatCounter::new(2, 99).get(), 3);
    }

    #[test]
    fn msb_threshold() {
        let mut c = SatCounter::new(3, 3);
        assert!(!c.msb());
        c.inc();
        assert!(c.msb());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let _ = SatCounter::new(0, 0);
    }
}
