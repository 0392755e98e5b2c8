//! Division and remainder by a run-constant divisor, as multiplications.
//!
//! A 64-bit `div` costs tens of cycles on server cores, and the simulator
//! divides by the same few constants on every request: the set index of a
//! cache whose set count is not a power of two, and the LLC shard of a
//! line. [`FastDiv`] precomputes the divisor's 128-bit reciprocal once
//! (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation",
//! 2019), after which a quotient or remainder is two or three multiplies.

/// `x / d` and `x % d` for a fixed divisor `d ≥ 1`, exact for every `u64`.
///
/// ```
/// use garibaldi_types::fastdiv::FastDiv;
///
/// let d = FastDiv::new(40_960);
/// assert_eq!(d.remainder(123_456_789), 123_456_789 % 40_960);
/// assert_eq!(d.quotient(123_456_789), 123_456_789 / 40_960);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastDiv {
    d: u64,
    /// `ceil(2^128 / d)`; unused when `d == 1`.
    m: u128,
}

impl FastDiv {
    /// Precomputes division by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        let m = if d == 1 { 0 } else { u128::MAX / u128::from(d) + 1 };
        Self { d, m }
    }

    /// The divisor `d`.
    #[inline]
    pub fn divisor(self) -> u64 {
        self.d
    }

    /// `x / d`.
    #[inline]
    pub fn quotient(self, x: u64) -> u64 {
        if self.d == 1 {
            return x;
        }
        mul_hi(self.m, x)
    }

    /// `x % d`.
    #[inline]
    pub fn remainder(self, x: u64) -> u64 {
        if self.d == 1 {
            return 0;
        }
        mul_hi(self.m.wrapping_mul(u128::from(x)), self.d)
    }
}

/// The high 64 bits of the 192-bit product `a × b`.
#[inline]
fn mul_hi(a: u128, b: u64) -> u64 {
    let b = u128::from(b);
    let bottom = (u128::from(a as u64) * b) >> 64;
    let top = (a >> 64) * b;
    ((bottom + top) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_hardware_divide_at_the_edges() {
        let ds = [1, 2, 3, 5, 7, 12, 64, 40_960, 5_120, 5_121, 1 << 32, (1 << 63) + 1, u64::MAX];
        let xs =
            [0, 1, 2, 40_959, 40_960, 40_961, u32::MAX as u64, 1 << 38, u64::MAX - 1, u64::MAX];
        for d in ds {
            let f = FastDiv::new(d);
            for x in xs.iter().copied().chain([d - 1, d, d.wrapping_add(1), d.wrapping_mul(3)]) {
                assert_eq!(f.quotient(x), x / d, "{x} / {d}");
                assert_eq!(f.remainder(x), x % d, "{x} % {d}");
            }
        }
    }
}
