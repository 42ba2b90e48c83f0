//! AES counter-mode (CTR) encryption, mirroring `sgx_aes_ctr_encrypt`.
//!
//! Aria associates one 16-byte counter with each KV pair and bumps it on
//! every re-encryption, so a (key, counter) pair is never reused and the
//! keystream stays one-time. Encryption and decryption are the same
//! operation (xor with the keystream).

use crate::aes::{Aes128, INTERLEAVE};

/// Increment a 16-byte counter block as a big-endian 128-bit integer.
#[inline]
pub fn increment_counter(ctr: &mut [u8; 16]) {
    for byte in ctr.iter_mut().rev() {
        let (v, overflow) = byte.overflowing_add(1);
        *byte = v;
        if !overflow {
            return;
        }
    }
}

/// Encrypt or decrypt `data` in place with AES-CTR under `cipher`, starting
/// from counter block `iv`. The caller's `iv` is not modified; CTR blocks
/// are derived per 16-byte chunk, the counter counting as a big-endian
/// 128-bit integer exactly as [`increment_counter`] does, carries and
/// wrap-around included.
pub fn ctr_crypt(cipher: &Aes128, iv: &[u8; 16], data: &mut [u8]) {
    let mut counter = u128::from_be_bytes(*iv);
    let mut keystream = [[0u8; 16]; INTERLEAVE];
    for chunk in data.chunks_mut(INTERLEAVE * 16) {
        let blocks = &mut keystream[..chunk.len().div_ceil(16)];
        for block in blocks.iter_mut() {
            *block = counter.to_be_bytes();
            counter = counter.wrapping_add(1);
        }
        cipher.encrypt_blocks(blocks);
        for (d, k) in chunk.chunks_mut(16).zip(blocks.iter()) {
            for (d, k) in d.iter_mut().zip(k) {
                *d ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// NIST SP 800-38A F.5.1 (AES-128 CTR) — first two blocks.
    #[test]
    fn nist_sp800_38a_ctr() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let data = hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        for cipher in [Aes128::new(&key), Aes128::portable(&key)] {
            let mut out = data.clone();
            ctr_crypt(&cipher, &iv, &mut out);
            assert_eq!(
                out,
                hex("874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff")
            );
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let cipher = Aes128::new(&[7u8; 16]);
        let iv = [3u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 4096] {
            let original: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut data = original.clone();
            ctr_crypt(&cipher, &iv, &mut data);
            if len > 0 {
                assert_ne!(data, original, "ciphertext equals plaintext at len {len}");
            }
            ctr_crypt(&cipher, &iv, &mut data);
            assert_eq!(data, original, "roundtrip failed at len {len}");
        }
    }

    #[test]
    fn different_counters_produce_different_ciphertext() {
        let cipher = Aes128::new(&[9u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr_crypt(&cipher, &[0u8; 16], &mut a);
        ctr_crypt(&cipher, &[1u8; 16], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_increment_carries() {
        let mut c = [0xffu8; 16];
        increment_counter(&mut c);
        assert_eq!(c, [0u8; 16]);

        let mut c = [0u8; 16];
        c[15] = 0xff;
        increment_counter(&mut c);
        assert_eq!(c[15], 0);
        assert_eq!(c[14], 1);
    }
}
