//! Differential tests: the backend [`Aes128::new`] selects (AES-NI where the
//! CPU has it) against the portable T-table, and both modes against
//! block-at-a-time references written straight from SP 800-38A and
//! RFC 4493, so a fault shared by the two backends' mode code shows too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aes::Aes128;
use crate::cmac::{Cmac, CmacKey};
use crate::ctr::{ctr_crypt, increment_counter};

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x5eed_ae51)
}

fn random_block(rng: &mut StdRng) -> [u8; 16] {
    let mut b = [0u8; 16];
    rng.fill(&mut b);
    b
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill(&mut v);
    v
}

/// CTR one block at a time with [`increment_counter`] and the T-table.
fn reference_ctr(key: &[u8; 16], iv: &[u8; 16], data: &mut [u8]) {
    let cipher = Aes128::portable(key);
    let mut counter = *iv;
    for chunk in data.chunks_mut(16) {
        let keystream = cipher.encrypt(&counter);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        increment_counter(&mut counter);
    }
}

/// RFC 4493 section 2.4, step by step, on the T-table.
fn reference_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
    let cipher = Aes128::portable(key);
    let double = |x: u128| (x << 1) ^ if x >> 127 == 1 { 0x87 } else { 0 };
    let k1 = double(u128::from_be_bytes(cipher.encrypt(&[0u8; 16])));
    let n = msg.len().div_ceil(16).max(1);
    let complete = !msg.is_empty() && msg.len() == n * 16;
    let mut last = [0u8; 16];
    let tail = &msg[(n - 1) * 16..];
    last[..tail.len()].copy_from_slice(tail);
    let subkey = if complete {
        k1
    } else {
        last[tail.len()] = 0x80;
        double(k1)
    };
    for (l, k) in last.iter_mut().zip(subkey.to_be_bytes()) {
        *l ^= k;
    }
    let mut x = [0u8; 16];
    for block in msg[..(n - 1) * 16].chunks_exact(16).chain([&last[..]]) {
        for (x, b) in x.iter_mut().zip(block) {
            *x ^= b;
        }
        x = cipher.encrypt(&x);
    }
    x
}

#[test]
fn block_cipher_matches_portable_on_random_keys_and_blocks() {
    let mut rng = rng();
    for _ in 0..256 {
        let key = random_block(&mut rng);
        let (fast, reference) = (Aes128::new(&key), Aes128::portable(&key));
        for _ in 0..16 {
            let block = random_block(&mut rng);
            assert_eq!(fast.encrypt(&block), reference.encrypt(&block), "key {key:02x?}");
        }
        // Every group width the interleaved path takes, full and padded.
        for n in 0..=17 {
            let mut blocks: Vec<[u8; 16]> = (0..n).map(|_| random_block(&mut rng)).collect();
            let expect: Vec<[u8; 16]> = blocks.iter().map(|b| reference.encrypt(b)).collect();
            fast.encrypt_blocks(&mut blocks);
            assert_eq!(blocks, expect, "{n} blocks");
        }
    }
}

#[test]
fn ctr_matches_reference_at_every_length() {
    let mut rng = rng();
    let key = random_block(&mut rng);
    let iv = random_block(&mut rng);
    let plain = random_bytes(&mut rng, 1040);
    let (fast, portable) = (Aes128::new(&key), Aes128::portable(&key));
    for len in 0..=plain.len() {
        let mut expect = plain[..len].to_vec();
        reference_ctr(&key, &iv, &mut expect);
        for cipher in [&fast, &portable] {
            let mut got = plain[..len].to_vec();
            ctr_crypt(cipher, &iv, &mut got);
            assert_eq!(got, expect, "len {len}");
        }
    }
}

#[test]
fn ctr_counter_carries_inside_one_group() {
    let mut rng = rng();
    let key = random_block(&mut rng);
    let plain = random_bytes(&mut rng, 8 * 16 * 3);
    let (fast, portable) = (Aes128::new(&key), Aes128::portable(&key));
    // Counters whose low 64 bits, or all 128 bits, wrap at each position
    // of the first 8-block group, plus carries out of a single byte.
    let mut ivs = Vec::new();
    for before_wrap in 1..=8u128 {
        ivs.push((u64::MAX as u128 + 1 - before_wrap) | (0x0123_4567_89ab_cdef_u128 << 64));
        ivs.push(u128::MAX - (before_wrap - 1));
        ivs.push(0x100 - before_wrap);
    }
    for iv in ivs.into_iter().map(u128::to_be_bytes) {
        let mut expect = plain.clone();
        reference_ctr(&key, &iv, &mut expect);
        for cipher in [&fast, &portable] {
            let mut got = plain.clone();
            ctr_crypt(cipher, &iv, &mut got);
            assert_eq!(got, expect, "iv {iv:02x?}");
        }
    }
}

#[test]
fn cmac_matches_reference_at_every_length_and_split() {
    let mut rng = rng();
    let key = random_block(&mut rng);
    let msg = random_bytes(&mut rng, 300);
    let (fast, portable) = (CmacKey::new(&key), CmacKey::with_cipher(Aes128::portable(&key)));
    for len in 0..=msg.len() {
        let msg = &msg[..len];
        let expect = reference_cmac(&key, msg);
        assert_eq!(portable.mac(msg), expect, "len {len}");
        for split in 0..=len {
            let mut ctx = Cmac::new(&fast);
            ctx.update(&msg[..split]);
            ctx.update(&msg[split..]);
            assert_eq!(ctx.finalize(), expect, "len {len} split {split}");
        }
    }
}

#[test]
fn mac_parts_with_empty_and_odd_parts_matches_reference() {
    let mut rng = rng();
    let key = random_block(&mut rng);
    let (fast, portable) = (CmacKey::new(&key), CmacKey::with_cipher(Aes128::portable(&key)));
    let sizes: [&[usize]; 8] = [
        &[],
        &[0],
        &[0, 0, 0],
        &[1, 0, 15, 0, 16, 17],
        &[8, 531, 16, 8],
        &[16, 0, 16, 0],
        &[3, 5, 7, 11, 13, 17, 19, 23, 29, 31],
        &[0, 255, 1, 0, 33],
    ];
    for shape in sizes {
        let parts: Vec<Vec<u8>> = shape.iter().map(|&n| random_bytes(&mut rng, n)).collect();
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let expect = reference_cmac(&key, &parts.concat());
        assert_eq!(fast.mac_parts(&slices), expect, "parts {shape:?}");
        assert_eq!(portable.mac_parts(&slices), expect, "parts {shape:?}");
    }
}
