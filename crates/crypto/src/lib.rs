//! Cryptographic primitives for the Aria secure in-memory KV store.
//!
//! The paper's implementation uses the Intel SGX SDK's
//! `sgx_aes_ctr_encrypt` (confidentiality) and `sgx_rijndael128_cmac`
//! (integrity), which run on AES-NI. This crate provides the same
//! algorithms, on AES-NI too where the CPU has it:
//!
//! * [`aes::Aes128`] — FIPS-197 AES-128 forward cipher. It runs on AES-NI
//!   when CPUID reports the `aes` feature on x86_64, and otherwise on a
//!   from-scratch T-table, which the tests also use as the reference. The
//!   choice is made once per key inside [`Aes128::new`]; there is no
//!   option for it.
//! * [`ctr`] — counter-mode encryption with 16-byte counter blocks, the
//!   keystream generated 8 blocks at a time,
//! * [`cmac`] — AES-CMAC per RFC 4493 with a streaming interface,
//! * [`suite::CipherSuite`] — the pluggable provider the rest of the
//!   workspace programs against, with the production [`suite::RealSuite`]
//!   and the harness-only [`suite::FastSuite`].
//!
//! All algorithms are validated against FIPS-197, NIST SP 800-38A and
//! RFC 4493 test vectors on both backends in the unit tests, by property
//! tests below, and by differential tests of AES-NI against the T-table.
//!
//! Which backend runs changes wall time only. The simulator charges crypto
//! cycles from `aria-sim`'s `CostModel`, so every paper-figure output is
//! the same on either.
//!
//! The AES-NI intrinsics are the crate's only `unsafe` code, all of it in
//! one private module.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod aes;
pub mod cmac;
pub mod ctr;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;
pub mod suite;

pub use aes::Aes128;
pub use cmac::{Cmac, CmacKey, MAC_LEN};
pub use ctr::{ctr_crypt, increment_counter};
pub use suite::{CipherSuite, FastSuite, Mac, RealSuite};

/// Compare two tags in time independent of where they differ: every byte
/// pair is XORed and the differences ORed together before the one test.
pub(crate) fn tags_equal(a: &Mac, b: &Mac) -> bool {
    let diff = a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y));
    std::hint::black_box(diff) == 0
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tag_compare_tests {
    use super::*;

    #[test]
    fn tags_equal_rejects_a_difference_in_every_byte() {
        let tag: Mac = std::array::from_fn(|i| (i as u8).wrapping_mul(37));
        assert!(tags_equal(&tag, &tag));
        for pos in 0..MAC_LEN {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = tag;
                bad[pos] ^= flip;
                assert!(!tags_equal(&tag, &bad), "byte {pos} flipped by {flip:#04x}");
                assert!(!tags_equal(&bad, &tag), "byte {pos} flipped by {flip:#04x}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ctr_roundtrip(key in any::<[u8; 16]>(), iv in any::<[u8; 16]>(),
                         data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let cipher = Aes128::new(&key);
            let mut buf = data.clone();
            ctr_crypt(&cipher, &iv, &mut buf);
            ctr_crypt(&cipher, &iv, &mut buf);
            prop_assert_eq!(buf, data);
        }

        #[test]
        fn cmac_single_bit_flip_changes_tag(
            key in any::<[u8; 16]>(),
            data in proptest::collection::vec(any::<u8>(), 1..256),
            flip in any::<usize>(),
        ) {
            let k = CmacKey::new(&key);
            let tag = k.mac(&data);
            let bit = flip % (data.len() * 8);
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(k.mac(&bad), tag);
        }

        #[test]
        fn cmac_streaming_equals_oneshot(
            key in any::<[u8; 16]>(),
            parts in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 0..8),
        ) {
            let k = CmacKey::new(&key);
            let concat: Vec<u8> = parts.iter().flatten().copied().collect();
            let slices: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            prop_assert_eq!(k.mac_parts(&slices), k.mac(&concat));
        }

        #[test]
        fn fast_suite_roundtrip(master in any::<[u8; 16]>(), ctr in any::<[u8; 16]>(),
                                data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let s = FastSuite::from_master(&master);
            let mut buf = data.clone();
            s.crypt(&ctr, &mut buf);
            s.crypt(&ctr, &mut buf);
            prop_assert_eq!(buf, data);
        }

        #[test]
        fn fast_suite_mac_tamper(master in any::<[u8; 16]>(),
                                 data in proptest::collection::vec(any::<u8>(), 1..256),
                                 flip in any::<usize>()) {
            let s = FastSuite::from_master(&master);
            let tag = s.mac(&data);
            let bit = flip % (data.len() * 8);
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(s.mac(&bad), tag);
        }
    }
}
