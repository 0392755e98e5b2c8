//! Way masks from whole rows: bit `w` of the result is set where `row[w]`
//! equals the probe value.
//!
//! A cache set keeps each per-way column (tag words, flag bytes, LRU ranks)
//! as one contiguous row, and every lookup asks which ways of a row hold a
//! given value. The scalar form, `m |= ((row[w] == x) as u64) << w`, does
//! not compile to a vector compare at the baseline x86-64 target: LLVM
//! emits a shift per lane. On x86_64 these kernels compare a whole 16-byte
//! group at once and collapse it with a movemask:
//!
//! - `u32` rows: `_mm_cmpeq_epi32` + `_mm_movemask_ps`, four ways per group;
//! - `u8` rows: `_mm_cmpeq_epi8` + `_mm_movemask_epi8`, sixteen ways per
//!   group, then an eight-byte group (`_mm_loadl_epi64`).
//!
//! Ways past the last whole group take the scalar loop. SSE2 is part of the
//! x86_64 baseline, so no feature detection is needed. On other targets
//! every kernel is the scalar loop; the tests hold both forms to the
//! mask's definition on x86_64.
//!
//! Rows hold at most 64 elements (every way mask is a `u64`).

/// The ways of `row` holding `x`.
///
/// # Panics
///
/// Panics if `row` holds more than 64 elements.
#[inline]
pub fn eq_mask_u8(row: &[u8], x: u8) -> u64 {
    assert!(row.len() <= 64, "{} ways exceed the 64-bit way masks", row.len());
    // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64 CPU
    // this code runs on has it.
    #[cfg(target_arch = "x86_64")]
    return unsafe { sse2::eq_mask_u8(row, x) };
    #[cfg(not(target_arch = "x86_64"))]
    portable::eq_mask_u8(row, x)
}

/// The ways of `row` holding `a`, and the ways holding `b`, from one pass
/// over the row.
///
/// # Panics
///
/// Panics if `row` holds more than 64 elements.
#[inline]
pub fn eq_masks_u32(row: &[u32], a: u32, b: u32) -> (u64, u64) {
    assert!(row.len() <= 64, "{} ways exceed the 64-bit way masks", row.len());
    // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64 CPU
    // this code runs on has it.
    #[cfg(target_arch = "x86_64")]
    return unsafe { sse2::eq_masks_u32(row, a, b) };
    #[cfg(not(target_arch = "x86_64"))]
    portable::eq_masks_u32(row, a, b)
}

/// The scalar loops: the kernels on targets other than x86_64.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
mod portable {
    pub(super) fn eq_mask_u8(row: &[u8], x: u8) -> u64 {
        row.iter().enumerate().fold(0, |m, (w, &v)| m | ((v == x) as u64) << w)
    }

    pub(super) fn eq_masks_u32(row: &[u32], a: u32, b: u32) -> (u64, u64) {
        row.iter().enumerate().fold((0, 0), |(ma, mb), (w, &v)| {
            (ma | ((v == a) as u64) << w, mb | ((v == b) as u64) << w)
        })
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::{
        __m128i, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_cmpeq_epi8, _mm_loadl_epi64,
        _mm_loadu_si128, _mm_movemask_epi8, _mm_movemask_ps, _mm_set1_epi32, _mm_set1_epi8,
    };

    /// Loads 16 bytes from `group` (exactly 16 bytes long).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load16<T>(group: &[T]) -> __m128i {
        debug_assert_eq!(core::mem::size_of_val(group), 16);
        // SAFETY: every caller passes a `chunks_exact` group of 16 bytes,
        // so the pointer is valid for a 16-byte read; `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(group.as_ptr().cast()) }
    }

    /// # Safety
    ///
    /// The CPU must support SSE2 (every x86_64 CPU does).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn eq_mask_u8(row: &[u8], x: u8) -> u64 {
        let key = _mm_set1_epi8(x as i8);
        let mut m = 0u64;
        let groups = row.chunks_exact(16);
        let mut w = row.len() - groups.remainder().len();
        for (g, group) in groups.enumerate() {
            let bits = _mm_movemask_epi8(_mm_cmpeq_epi8(load16(group), key)) as u16;
            m |= (bits as u64) << (16 * g);
        }
        if let Some(group) = row[w..].first_chunk::<8>() {
            // SAFETY: `group` is an 8-byte array, so the pointer is valid
            // for the 8-byte read `loadl_epi64` makes; it needs no
            // alignment.
            let v = unsafe { _mm_loadl_epi64(group.as_ptr().cast()) };
            let bits = _mm_movemask_epi8(_mm_cmpeq_epi8(v, key)) as u8;
            m |= (bits as u64) << w;
            w += 8;
        }
        for (k, &v) in row[w..].iter().enumerate() {
            m |= ((v == x) as u64) << (w + k);
        }
        m
    }

    /// # Safety
    ///
    /// The CPU must support SSE2 (every x86_64 CPU does).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn eq_masks_u32(row: &[u32], a: u32, b: u32) -> (u64, u64) {
        let (ka, kb) = (_mm_set1_epi32(a as i32), _mm_set1_epi32(b as i32));
        let (mut ma, mut mb) = (0u64, 0u64);
        let groups = row.chunks_exact(4);
        let tail = groups.remainder();
        for (g, group) in groups.enumerate() {
            let v = load16(group);
            let ba = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, ka))) as u64;
            let bb = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, kb))) as u64;
            ma |= ba << (4 * g);
            mb |= bb << (4 * g);
        }
        let w = row.len() - tail.len();
        for (k, &v) in tail.iter().enumerate() {
            ma |= ((v == a) as u64) << (w + k);
            mb |= ((v == b) as u64) << (w + k);
        }
        (ma, mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of every length 0..=64 in four shapes: every element equal to
    /// the probe, none equal, all zero, and a few values repeated across
    /// the row (each probe then matches several ways).
    fn rows<T: Copy>(of: impl Fn(usize) -> T, probe: T, other: T, zero: T) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        for len in 0..=64 {
            out.push(vec![probe; len]);
            out.push(vec![other; len]);
            out.push(vec![zero; len]);
            out.push((0..len).map(|w| of(w % 5)).collect());
        }
        out
    }

    /// The mask by definition: the sum of `1 << w` over the matching ways.
    fn naive<T: PartialEq>(row: &[T], x: &T) -> u64 {
        (0..row.len()).filter(|&w| row[w] == *x).map(|w| 1u64 << w).sum()
    }

    #[test]
    fn u8_kernel_matches_the_scalar_loop_at_every_length() {
        let probes = [0u8, 1, 3, 4, 0x80, 0xff];
        for row in rows(|k| [0u8, 3, 0xff, 3, 0x80][k], 3, 7, 0) {
            for &x in &probes {
                let want = naive(&row, &x);
                assert_eq!(portable::eq_mask_u8(&row, x), want, "row {row:?} probe {x}");
                assert_eq!(eq_mask_u8(&row, x), want, "row {row:?} probe {x}");
                // SAFETY: SSE2 is part of the x86_64 baseline.
                #[cfg(target_arch = "x86_64")]
                assert_eq!(unsafe { sse2::eq_mask_u8(&row, x) }, want, "row {row:?} probe {x}");
            }
        }
    }

    #[test]
    fn u32_kernel_matches_the_scalar_loop_at_every_length() {
        let probes = [0u32, 1, 9, 0x8000_0000, u32::MAX];
        for row in rows(|k| [0u32, 9, u32::MAX, 9, 0x8000_0000][k], 9, 5, 0) {
            for &a in &probes {
                for &b in &probes {
                    let want = (naive(&row, &a), naive(&row, &b));
                    assert_eq!(portable::eq_masks_u32(&row, a, b), want, "row {row:?}");
                    assert_eq!(eq_masks_u32(&row, a, b), want, "row {row:?} probes {a} {b}");
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    #[cfg(target_arch = "x86_64")]
                    assert_eq!(unsafe { sse2::eq_masks_u32(&row, a, b) }, want, "row {row:?}");
                }
            }
        }
    }

    #[test]
    fn masks_name_every_matching_way_in_order() {
        let row: Vec<u32> = (0..64).map(|w| w % 3).collect();
        let (twos, zeros) = eq_masks_u32(&row, 2, 0);
        assert_eq!(twos, (0..64).filter(|w| w % 3 == 2).fold(0, |m, w| m | 1 << w));
        assert_eq!(zeros.trailing_zeros(), 0);
        assert_eq!(eq_mask_u8(&[4, 4, 4, 4, 4, 4, 4, 4, 4], 4), 0x1ff);
        assert_eq!(eq_mask_u8(&[], 0), 0);
        assert_eq!(eq_masks_u32(&[], 0, 0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "65 ways exceed the 64-bit way masks")]
    fn rows_past_64_ways_are_refused() {
        eq_mask_u8(&[0; 65], 0);
    }
}
