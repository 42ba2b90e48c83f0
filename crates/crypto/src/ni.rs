//! The AES-NI backend of [`crate::aes::Aes128`]: the only module in the
//! crate allowed `unsafe`.
//!
//! Its functions need the CPU's `aes` feature. An [`AesNi`] value is the
//! proof that the feature is present: [`AesNi::detect`] is the only way to
//! make one, and it checks CPUID. The safe methods on [`AesNi`] are the
//! module's whole interface; every intrinsic call sits behind them.
//!
//! All loads and stores are unaligned (`loadu`/`storeu`) and each one
//! covers exactly one borrowed 16-byte block, so no alignment or bounds
//! condition is left to the caller.

use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::{RoundKeys, INTERLEAVE};

/// Proof that the running CPU supports AES-NI.
#[derive(Clone, Copy)]
pub(crate) struct AesNi(());

impl AesNi {
    /// `Some` exactly when CPUID reports the `aes` feature.
    pub(crate) fn detect() -> Option<AesNi> {
        is_x86_feature_detected!("aes").then_some(AesNi(()))
    }

    /// Encrypt independent blocks in place, [`INTERLEAVE`] at a time.
    pub(crate) fn encrypt_blocks(self, rk: &RoundKeys, blocks: &mut [[u8; 16]]) {
        let mut groups = blocks.chunks_exact_mut(INTERLEAVE);
        for group in &mut groups {
            let group: &mut [[u8; 16]; INTERLEAVE] =
                group.try_into().expect("chunks_exact_mut yields INTERLEAVE blocks");
            // SAFETY: `self` exists only if `detect` found the `aes` feature
            // (called by `Aes128::new`); `encrypt_lanes` loads and stores
            // unaligned within the borrowed 16-byte blocks.
            unsafe { encrypt_lanes(rk, group) }
        }
        match groups.into_remainder() {
            [] => {}
            [block] => {
                // SAFETY: as above; one borrowed 16-byte block.
                unsafe { encrypt_lanes(rk, std::array::from_mut(block)) }
            }
            tail => {
                // A short group still costs about one block's latency when
                // padded to full width, less than its blocks one by one.
                let mut group = [[0u8; 16]; INTERLEAVE];
                group[..tail.len()].copy_from_slice(tail);
                // SAFETY: as above; `group` is a local array of 16-byte blocks.
                unsafe { encrypt_lanes(rk, &mut group) }
                tail.copy_from_slice(&group[..tail.len()]);
            }
        }
    }

    /// CBC-MAC chaining over whole blocks: `state = E(state ^ b)` for each
    /// 16-byte block `b`, with `state` held in a register for the whole run.
    /// A trailing partial block, if any, is ignored.
    pub(crate) fn cbc_mac(self, rk: &RoundKeys, state: &mut [u8; 16], blocks: &[u8]) {
        // SAFETY: `self` exists only if `detect` found the `aes` feature
        // (called by `Aes128::new`); `cbc_mac` loads and stores unaligned
        // within `state` and within 16-byte chunks of `blocks`.
        unsafe { cbc_mac(rk, state, blocks) }
    }
}

/// Load the 11 round keys into registers.
///
/// # Safety
/// The CPU must support SSE2, which every x86_64 CPU does.
#[inline(always)]
unsafe fn load_keys(rk: &RoundKeys) -> [__m128i; 11] {
    let mut k = [_mm_setzero_si128(); 11];
    for (reg, bytes) in k.iter_mut().zip(rk) {
        // Unaligned load of one borrowed 16-byte round key.
        *reg = _mm_loadu_si128(bytes.as_ptr().cast());
    }
    k
}

/// Encrypt `N` independent blocks in place, interleaving their rounds.
///
/// # Safety
/// The CPU must support AES-NI.
#[target_feature(enable = "aes")]
unsafe fn encrypt_lanes<const N: usize>(rk: &RoundKeys, blocks: &mut [[u8; 16]; N]) {
    let k = load_keys(rk);
    let mut s = [_mm_setzero_si128(); N];
    for (lane, block) in s.iter_mut().zip(blocks.iter()) {
        // Unaligned load of one borrowed 16-byte block.
        *lane = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast()), k[0]);
    }
    for key in &k[1..10] {
        for lane in &mut s {
            *lane = _mm_aesenc_si128(*lane, *key);
        }
    }
    for (lane, block) in s.iter().zip(blocks.iter_mut()) {
        // Unaligned store into one borrowed 16-byte block.
        _mm_storeu_si128(block.as_mut_ptr().cast(), _mm_aesenclast_si128(*lane, k[10]));
    }
}

/// See [`AesNi::cbc_mac`].
///
/// # Safety
/// The CPU must support AES-NI.
#[target_feature(enable = "aes")]
unsafe fn cbc_mac(rk: &RoundKeys, state: &mut [u8; 16], blocks: &[u8]) {
    let k = load_keys(rk);
    // Unaligned load of the borrowed 16-byte state.
    let mut s = _mm_loadu_si128(state.as_ptr().cast());
    for block in blocks.chunks_exact(16) {
        // Unaligned load of one 16-byte chunk of the borrowed input.
        s = _mm_xor_si128(s, _mm_loadu_si128(block.as_ptr().cast()));
        s = _mm_xor_si128(s, k[0]);
        for key in &k[1..10] {
            s = _mm_aesenc_si128(s, *key);
        }
        s = _mm_aesenclast_si128(s, k[10]);
    }
    // Unaligned store into the borrowed 16-byte state.
    _mm_storeu_si128(state.as_mut_ptr().cast(), s);
}
