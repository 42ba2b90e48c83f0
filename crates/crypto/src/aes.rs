//! AES-128 block cipher (encryption direction only), per FIPS-197.
//!
//! Only the forward cipher is provided because both of Aria's uses of AES —
//! CTR-mode encryption ([`crate::ctr`]) and CMAC ([`crate::cmac`]) — need
//! just the block-encrypt primitive.
//!
//! There are two backends behind one type, chosen once per key by
//! [`Aes128::new`] from CPUID, never by the caller:
//!
//! * **AES-NI** (x86_64 with the `aes` feature), the instructions the SGX
//!   SDK's `sgx_aes_ctr_encrypt` and `sgx_rijndael128_cmac` run on. It
//!   interleaves independent blocks (CTR keystream) and keeps the CBC-MAC
//!   chain in a register across a run of blocks (CMAC).
//! * **Portable T-table**, the only backend elsewhere and the reference the
//!   tests compare AES-NI against. It uses a single compile-time generated
//!   T-table (the classic 32-bit round-function lookup) with rotations
//!   standing in for the other three tables. The S-box and T-table are
//!   derived at compile time from the GF(2^8) field arithmetic, so there are
//!   no hand-transcribed constants to get wrong.
//!
//! Both backends share one software key schedule and one round-key array.
//! Correctness is pinned by the FIPS-197 appendix vectors on each backend.

#[cfg(target_arch = "x86_64")]
use crate::ni::AesNi;

/// Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// Multiplicative inverse in GF(2^8) (0 maps to 0), via a^254.
const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    let mut r = 1u8;
    let mut base = a;
    let mut e = 254u32;
    while e > 0 {
        if e & 1 == 1 {
            r = gf_mul(r, base);
        }
        base = gf_mul(base, base);
        e >>= 1;
    }
    r
}

const fn sbox_entry(i: u8) -> u8 {
    let x = gf_inv(i);
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = sbox_entry(i as u8);
        i += 1;
    }
    t
}

/// The AES substitution box.
pub(crate) const SBOX: [u8; 256] = build_sbox();

/// T0[x] packs the MixColumns-weighted S-box column `[2·S(x), S(x), S(x), 3·S(x)]`
/// as a big-endian u32; the other three tables are byte rotations of this one.
const fn build_t0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = gf_mul(s, 2);
        let s3 = gf_mul(s, 3);
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

const T0: [u32; 256] = build_t0();

/// Round constants for the key schedule.
const RCON: [u32; 10] = [
    0x0100_0000,
    0x0200_0000,
    0x0400_0000,
    0x0800_0000,
    0x1000_0000,
    0x2000_0000,
    0x4000_0000,
    0x8000_0000,
    0x1b00_0000,
    0x3600_0000,
];

#[inline]
fn sub_word(w: u32) -> u32 {
    ((SBOX[(w >> 24) as usize] as u32) << 24)
        | ((SBOX[((w >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((w >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(w & 0xff) as usize] as u32)
}

/// Independent blocks the AES-NI path encrypts side by side. AESENC has a
/// latency of several cycles but issues every cycle, so 8 blocks keep the
/// unit busy; CTR generates its keystream in groups of this size.
pub(crate) const INTERLEAVE: usize = 8;

/// The 11 round keys of AES-128, each in FIPS-197 byte order. This is the
/// only stored form: the T-table path reads them as big-endian words, the
/// AES-NI path loads them as 128-bit lanes.
pub(crate) type RoundKeys = [[u8; 16]; 11];

/// An expanded AES-128 encryption key.
///
/// Construction performs the full key schedule once and, on x86_64, checks
/// once whether the CPU has AES-NI. Every block operation then runs on
/// AES-NI when it was found and on the portable T-table otherwise, with no
/// per-call allocation either way.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: RoundKeys,
    #[cfg(target_arch = "x86_64")]
    ni: Option<AesNi>,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expand a 16-byte key into the 11 round keys, on AES-NI when the CPU
    /// has it.
    pub fn new(key: &[u8; 16]) -> Self {
        Aes128 {
            #[cfg(target_arch = "x86_64")]
            ni: AesNi::detect(),
            ..Self::portable(key)
        }
    }

    /// Expand a key for the portable T-table path only, whatever the CPU.
    /// The tests compare the hardware path against this one.
    pub(crate) fn portable(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (i, word) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ RCON[i / 4 - 1];
            }
            w[i] = w[i - 4] ^ t;
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
            for (bytes, word) in rk.chunks_exact_mut(4).zip(words) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
        }
        Aes128 {
            round_keys,
            #[cfg(target_arch = "x86_64")]
            ni: None,
        }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.encrypt_blocks(std::slice::from_mut(block));
    }

    /// Encrypt a block, returning the ciphertext instead of mutating.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypt independent blocks in place. AES-NI interleaves them, so a
    /// group costs little more than one block.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = self.ni {
            return ni.encrypt_blocks(&self.round_keys, blocks);
        }
        for block in blocks {
            self.encrypt_block_portable(block);
        }
    }

    /// CBC-MAC chaining: for each 16-byte block `b` of `blocks` in turn,
    /// `state = E(state ^ b)`. `blocks.len()` must be a multiple of 16.
    pub(crate) fn cbc_mac(&self, state: &mut [u8; 16], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 16, 0, "CBC-MAC takes whole blocks");
        if blocks.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = self.ni {
            return ni.cbc_mac(&self.round_keys, state, blocks);
        }
        for block in blocks.chunks_exact(16) {
            for (s, b) in state.iter_mut().zip(block) {
                *s ^= b;
            }
            self.encrypt_block_portable(state);
        }
    }

    /// The T-table round function: the reference implementation, and the
    /// only one off x86_64 or on a CPU without AES-NI.
    fn encrypt_block_portable(&self, block: &mut [u8; 16]) {
        let rk = |r: usize, c: usize| {
            let k = &self.round_keys[r][4 * c..4 * c + 4];
            u32::from_be_bytes([k[0], k[1], k[2], k[3]])
        };
        let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk(0, 0);
        let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk(0, 1);
        let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk(0, 2);
        let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk(0, 3);

        #[inline(always)]
        fn round(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            T0[(a >> 24) as usize]
                ^ T0[((b >> 16) & 0xff) as usize].rotate_right(8)
                ^ T0[((c >> 8) & 0xff) as usize].rotate_right(16)
                ^ T0[(d & 0xff) as usize].rotate_right(24)
                ^ k
        }

        for r in 1..10 {
            let t0 = round(s0, s1, s2, s3, rk(r, 0));
            let t1 = round(s1, s2, s3, s0, rk(r, 1));
            let t2 = round(s2, s3, s0, s1, rk(r, 2));
            let t3 = round(s3, s0, s1, s2, rk(r, 3));
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }

        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        #[inline(always)]
        fn last(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            (((SBOX[(a >> 24) as usize] as u32) << 24)
                | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
                | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
                | (SBOX[(d & 0xff) as usize] as u32))
                ^ k
        }

        let o0 = last(s0, s1, s2, s3, rk(10, 0));
        let o1 = last(s1, s2, s3, s0, rk(10, 1));
        let o2 = last(s2, s3, s0, s1, rk(10, 2));
        let o3 = last(s3, s0, s1, s2, rk(10, 3));

        block[0..4].copy_from_slice(&o0.to_be_bytes());
        block[4..8].copy_from_slice(&o1.to_be_bytes());
        block[8..12].copy_from_slice(&o2.to_be_bytes());
        block[12..16].copy_from_slice(&o3.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn sbox_known_entries() {
        // Spot-check against the published FIPS-197 S-box.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(SBOX[0x10], 0xca);
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let pt: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        for aes in [Aes128::new(&key), Aes128::portable(&key)] {
            assert_eq!(aes.encrypt(&pt).to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
        }
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        for aes in [Aes128::new(&key), Aes128::portable(&key)] {
            assert_eq!(aes.encrypt(&pt).to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        }
    }

    /// `new` takes AES-NI exactly when the CPU has it, so the differential
    /// tests really compare two backends on such a CPU.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn new_selects_aes_ni_from_cpuid() {
        assert_eq!(Aes128::new(&[0u8; 16]).ni.is_some(), is_x86_feature_detected!("aes"));
        assert!(Aes128::portable(&[0u8; 16]).ni.is_none());
    }

    #[test]
    fn encrypt_is_deterministic_and_key_dependent() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let block = [0x42u8; 16];
        assert_eq!(a.encrypt(&block), a.encrypt(&block));
        assert_ne!(a.encrypt(&block), b.encrypt(&block));
    }

    #[test]
    fn gf_mul_basics() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }

    #[test]
    fn gf_inv_roundtrip() {
        for x in 1..=255u8 {
            assert_eq!(gf_mul(x, gf_inv(x)), 1, "x = {x}");
        }
    }
}
