//! The window filter's eight-wide loop: AVX2 tests the eight strided
//! positions `p, p + s, …, p + 7s` per iteration and branches once.
//!
//! Each iteration gathers the eight 4-byte windows with one byte-scaled
//! `vpgatherdd`, masks them to `w` bytes, multiplies by the filter's
//! hash constant (`vpmulld`), shifts the product right by the filter's
//! `shift` (logical: the hash is unsigned), gathers the bitmap's 32-bit
//! words at `h >> 5` with a second `vpgatherdd`, moves bit `h & 31` of
//! each word to its sign bit (`vpsllvd` by `31 − (h & 31)`) and reads the
//! eight sign bits with `vmovmskps`. The lowest set lane is the first hit,
//! so the loop returns exactly the candidate the scalar loop in
//! [`crate::tiered`] would. It stops at the first position whose block
//! would read past the haystack and hands that position to the scalar
//! loop, which is the tail and, without AVX2, the whole scan.
//!
//! This is the crate's only `unsafe`: two gathers and the call into the
//! `avx2` function. [`Avx2`] exists only once CPUID has reported AVX2, and
//! [`Avx2::find`] checks the bounds both gathers rely on before it enters
//! the loop, so no input safe code can pass makes them read out of range.

/// Proof that the CPU runs AVX2: the only way to reach the vector loop.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

/// Uninhabited off x86-64, where the scalar loop is the whole scan.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Avx2 {}

#[cfg(not(target_arch = "x86_64"))]
impl Avx2 {
    pub(crate) fn detect() -> Option<Self> {
        None
    }

    pub(crate) fn find(
        self,
        _: &[u8],
        _: usize,
        _: usize,
        _: u32,
        _: u32,
        _: &[u32],
    ) -> Result<usize, usize> {
        match self {}
    }
}

/// Largest stride whose lane offsets `0, s, …, 7s` fit a gather's `i32`
/// index.
#[cfg(target_arch = "x86_64")]
const MAX_STRIDE: usize = i32::MAX as usize / 7;

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// `Some` when the running CPU supports AVX2 (one CPUID read; the
    /// caller keeps the result).
    pub(crate) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// The first tested position `q` in `p, p + stride, …` whose window,
    /// `hay[q..q + 4]` masked by `mask`, hits `bits` under the hash
    /// `(x & mask) × WINDOW_HASH >> shift` — `Ok(q)` — testing only whole
    /// blocks of eight that end inside `hay` (`q + 7·stride + 4 ≤ len`).
    /// `Err(next)` when none of those hit: `next` is the first position
    /// left untested.
    ///
    /// # Panics
    ///
    /// When `bits` does not hold a word for every hash `shift` leaves.
    #[inline]
    pub(crate) fn find(
        self,
        hay: &[u8],
        p: usize,
        stride: usize,
        mask: u32,
        shift: u32,
        bits: &[u32],
    ) -> Result<usize, usize> {
        assert!(
            shift < 32 && (u32::MAX >> shift) as usize >> 5 < bits.len(),
            "every hash indexes a bitmap word"
        );
        if stride == 0 || stride > MAX_STRIDE {
            return Err(p);
        }
        let Some(last) = hay.len().checked_sub(7 * stride + 4) else {
            return Err(p);
        };
        // SAFETY: `self` exists only where `detect` saw AVX2. The other
        // conditions of `find8` hold: `stride` is in `1..=MAX_STRIDE`,
        // `last + 7·stride + 4 = hay.len()`, and the assert above bounds
        // every word index `(u32::MAX >> shift) >> 5` by `bits.len()`.
        unsafe { find8(hay, p, last, stride, mask, shift, bits) }
    }
}

/// The loop behind [`Avx2::find`]: tests blocks starting at `p` while
/// `p ≤ last`.
///
/// # Safety
///
/// The CPU supports AVX2; `1 ≤ stride ≤ MAX_STRIDE`; `last + 7·stride + 4
/// ≤ hay.len()`; `shift < 32` and `(u32::MAX >> shift) >> 5 < bits.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn find8(
    hay: &[u8],
    mut p: usize,
    last: usize,
    stride: usize,
    mask: u32,
    shift: u32,
    bits: &[u32],
) -> Result<usize, usize> {
    use std::arch::x86_64::*;

    let offsets = _mm256_mullo_epi32(
        _mm256_set1_epi32(stride as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let mask = _mm256_set1_epi32(mask as i32);
    let multiplier = _mm256_set1_epi32(crate::tiered::WINDOW_HASH as i32);
    let shift = _mm_cvtsi32_si128(shift as i32);
    let low5 = _mm256_set1_epi32(31);
    while p <= last {
        // SAFETY: `p ≤ last ≤ hay.len()`, so `hay.as_ptr() + p` is in
        // bounds. Lane `k` reads bytes `p + k·stride ..= p + k·stride + 3`,
        // the last of them at most `p + 7·stride + 3 < hay.len()` by the
        // bound `p + 7s + 4 ≤ len` (`p ≤ last`); and `7·stride ≤ i32::MAX`
        // keeps every offset a valid index.
        let windows = unsafe { _mm256_i32gather_epi32::<1>(hay.as_ptr().add(p).cast(), offsets) };
        let h = _mm256_srl_epi32(
            _mm256_mullo_epi32(_mm256_and_si256(windows, mask), multiplier),
            shift,
        );
        // SAFETY: the logical shift leaves `h ≤ u32::MAX >> shift`, so
        // every word index `h >> 5` is `< bits.len()` (the caller's bound)
        // and a non-negative `i32`; each lane reads one in-range `u32`.
        let words =
            unsafe { _mm256_i32gather_epi32::<4>(bits.as_ptr().cast(), _mm256_srli_epi32::<5>(h)) };
        // `!h & 31 = 31 − (h & 31)`: bit `h & 31` lands on the sign bit.
        let probe = _mm256_sllv_epi32(words, _mm256_andnot_si256(h, low5));
        let hits = _mm256_movemask_ps(_mm256_castsi256_ps(probe));
        if hits != 0 {
            return Ok(p + hits.trailing_zeros() as usize * stride);
        }
        p += 8 * stride;
    }
    Err(p)
}
