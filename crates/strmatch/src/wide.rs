//! The window filter's eight-wide loop: AVX2 tests the eight strided
//! positions `p, p + s, …, p + 7s` per iteration and branches once.
//!
//! Each iteration builds the eight 4-byte windows with plain loads. At
//! stride `s ≤ 4` (every piece filter) two unaligned 16-byte loads at `p`
//! and `p + 4s` and one `vpshufb` do it: lane `k` of each half takes bytes
//! `(k mod 4)·s .. + 4` of its load. Above stride 4 (the whole-signature
//! filter), and in the last blocks, where the second 16-byte load would
//! read past the haystack, the loop loads each lane's window on its own.
//! It then masks the windows to `w` bytes, multiplies by the filter's hash
//! constant (`vpmulld`) and shifts the product right by the filter's
//! `shift` to `h` and by `shift − 5` to `g` (logical: the hash is
//! unsigned). One `vpgatherdd` fetches the bitmap's 32-bit words at `h >>
//! 5`. Two `vpsllvd`, by `31 − (h & 31)` and `31 − (g & 31)`, move the
//! window's two bits of its word to the sign bits of two copies; a
//! `vpand` of the copies and `vmovmskps` read the eight lanes, so a lane
//! hits only when both of its bits are set, as in the scalar test. A
//! block with no hit stays in the loop. A block with
//! hits goes to one out-of-line call that hands each set lane, lowest
//! first, to the caller's `confirm` predicate, the filter's run
//! confirmation; the first lane it accepts is returned, and a block
//! whose hits it all rejects is passed over without leaving the loop.
//! So the loop returns exactly the candidate the scalar loop in
//! [`crate::tiered`] would. It stops at the first position whose block
//! would read past the haystack and hands that position to the scalar
//! loop, which is the tail and, without AVX2, the whole scan.
//!
//! This is the crate's only `unsafe`: the window loads, the bitmap gather
//! and the call into the `avx2` function. [`Avx2`] exists only once CPUID
//! has reported AVX2, and [`Avx2::find`] checks the bounds the loads and
//! the gather rely on before it enters the loop, so no input safe code can
//! pass makes them read out of range. The confirmation, and the lane walk
//! that calls it, are safe code.

use crate::tiered::Bitmap;

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
        _: &Bitmap,
        _: impl FnMut(usize) -> bool,
    ) -> Result<usize, usize> {
        match self {}
    }
}

/// `vpshufb` masks for strides 1–4, as the little-endian `i32` of each
/// lane: lane `k` of a 16-byte load takes its bytes `k·s ..= k·s + 3`.
#[cfg(target_arch = "x86_64")]
const SHUFFLES: [[i32; 4]; 4] = [
    [0x0302_0100, 0x0403_0201, 0x0504_0302, 0x0605_0403],
    [0x0302_0100, 0x0504_0302, 0x0706_0504, 0x0908_0706],
    [0x0302_0100, 0x0605_0403, 0x0908_0706, 0x0C0B_0A09],
    [0x0302_0100, 0x0706_0504, 0x0B0A_0908, 0x0F0E_0D0C],
];

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// `Some` when the running CPU supports AVX2 (one CPUID read; the
    /// caller keeps the result).
    pub(crate) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// The first tested position `q` in `p, p + stride, …` whose window,
    /// `hay[q..q + 4]`, hits `bitmap` and which `confirm(q)` accepts
    /// — `Ok(q)` — testing only whole blocks of eight that end inside
    /// `hay` (`q + 7·stride + 4 ≤ len`). `confirm` runs on each hitting
    /// lane of a block, lowest first, so a rejected hit never leaves the
    /// loop. `Err(next)` when none of those pass: `next` is the first
    /// position left untested.
    ///
    /// # Panics
    ///
    /// When `bitmap.bits` does not hold a word for every hash its `shift`
    /// leaves.
    #[inline]
    pub(crate) fn find(
        self,
        hay: &[u8],
        p: usize,
        stride: usize,
        bitmap: &Bitmap,
        confirm: impl FnMut(usize) -> bool,
    ) -> Result<usize, usize> {
        let (shift, bits) = (bitmap.shift, &bitmap.bits);
        assert!(
            shift < 32 && (u32::MAX >> shift) as usize >> 5 < bits.len(),
            "every hash indexes a bitmap word"
        );
        if stride == 0 {
            return Err(p);
        }
        let Some(last) = stride
            .checked_mul(7)
            .and_then(|span| hay.len().checked_sub(span)?.checked_sub(4))
        else {
            return Err(p);
        };
        // SAFETY: `self` exists only where `detect` saw AVX2. The other
        // conditions of `find8` hold: `stride ≥ 1`, `last + 7·stride + 4 =
        // hay.len()`, and the assert above bounds every word index
        // `(u32::MAX >> shift) >> 5` by `bits.len()`.
        unsafe { find8(hay, p, last, stride, bitmap, confirm) }
    }
}

/// The loop behind [`Avx2::find`]: tests blocks starting at `p` while
/// `p ≤ last`, handing each hitting lane to `confirm`.
///
/// # Safety
///
/// The CPU supports AVX2; `stride ≥ 1`; `last + 7·stride + 4 ≤
/// hay.len()`; `bitmap.shift < 32` and `(u32::MAX >> bitmap.shift) >> 5
/// < bitmap.bits.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn find8(
    hay: &[u8],
    mut p: usize,
    last: usize,
    stride: usize,
    bitmap: &Bitmap,
    mut confirm: impl FnMut(usize) -> bool,
) -> Result<usize, usize> {
    use std::arch::x86_64::*;

    let bits = &bitmap.bits;
    let mask = _mm256_set1_epi32(bitmap.mask as i32);
    let multiplier = _mm256_set1_epi32(crate::tiered::WINDOW_HASH as i32);
    let shift = _mm_cvtsi32_si128(bitmap.shift as i32);
    let second_shift = _mm_cvtsi32_si128(bitmap.shift as i32 - 5);
    let low5 = _mm256_set1_epi32(31);
    // The eight windows' hits, lane `k`'s as bit `k`: both of its bitmap
    // bits set.
    let hits = |windows: __m256i| {
        let prod = _mm256_mullo_epi32(_mm256_and_si256(windows, mask), multiplier);
        let h = _mm256_srl_epi32(prod, shift);
        let g = _mm256_srl_epi32(prod, second_shift);
        // SAFETY: the logical shift leaves `h ≤ u32::MAX >> shift`, so
        // every word index `h >> 5` is `< bits.len()` (the caller's bound)
        // and a non-negative `i32`; each lane reads one in-range `u32`.
        let words =
            unsafe { _mm256_i32gather_epi32::<4>(bits.as_ptr().cast(), _mm256_srli_epi32::<5>(h)) };
        // `!i & 31 = 31 − (i & 31)`: shifting left by it puts bit `i & 31`
        // on the sign bit, so the sign of the `and` is both bits.
        let first = _mm256_sllv_epi32(words, _mm256_andnot_si256(h, low5));
        let second = _mm256_sllv_epi32(words, _mm256_andnot_si256(g, low5));
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(first, second)))
    };
    if let (Some(&[a, b, c, d]), Some(end)) = (
        SHUFFLES.get(stride - 1),
        hay.len().checked_sub(4 * stride + 16),
    ) {
        let pick = _mm256_setr_epi32(a, b, c, d, a, b, c, d);
        // `p ≤ end` implies `p ≤ last`: `4s + 16 ≥ 7s + 4` for `s ≤ 4`.
        while p <= end {
            // SAFETY: `p + 4·stride + 16 ≤ hay.len()` (`p ≤ end`), so both
            // 16-byte loads, at `p` and `p + 4·stride`, are in bounds.
            let halves = unsafe {
                let at = hay.as_ptr().add(p);
                _mm256_loadu2_m128i(at.add(4 * stride).cast(), at.cast())
            };
            // Every mask byte is below 16 (`3·stride + 3 ≤ 15`), so lane
            // `k` is `hay[p + k·stride ..][..4]`.
            let found = hits(_mm256_shuffle_epi8(halves, pick));
            if found != 0 {
                if let Some(q) = first_confirmed(p, stride, found, &mut confirm) {
                    return Ok(q);
                }
            }
            p += 8 * stride;
        }
    }
    while p <= last {
        // SAFETY: lane `k` reads the four bytes at `p + k·stride`, the
        // last of them at most `p + 7·stride + 3 < hay.len()` because
        // `p ≤ last`; `read_unaligned` needs no alignment.
        let window = |k: usize| unsafe {
            hay.as_ptr()
                .add(p + k * stride)
                .cast::<i32>()
                .read_unaligned()
        };
        let found = hits(_mm256_setr_epi32(
            window(0),
            window(1),
            window(2),
            window(3),
            window(4),
            window(5),
            window(6),
            window(7),
        ));
        if found != 0 {
            if let Some(q) = first_confirmed(p, stride, found, &mut confirm) {
                return Ok(q);
            }
        }
        p += 8 * stride;
    }
    Err(p)
}

/// The first set lane of `found`, lowest first, whose position `p + k·stride`
/// `confirm` accepts. Out of line and cold: the loops call it only on a
/// block with a hit, and keep their constants in registers otherwise.
#[cfg(target_arch = "x86_64")]
#[cold]
#[inline(never)]
fn first_confirmed(
    p: usize,
    stride: usize,
    mut found: i32,
    confirm: &mut impl FnMut(usize) -> bool,
) -> Option<usize> {
    while found != 0 {
        let q = p + found.trailing_zeros() as usize * stride;
        if confirm(q) {
            return Some(q);
        }
        found &= found - 1;
    }
    None
}
