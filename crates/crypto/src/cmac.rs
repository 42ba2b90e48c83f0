//! AES-CMAC (RFC 4493), mirroring `sgx_rijndael128_cmac`.
//!
//! Aria computes one 16-byte CMAC per KV pair over the concatenation of the
//! redirection pointer, the encrypted KV bytes, the counter value and the
//! index-protection additional field, and 16-byte CMACs over Merkle-tree
//! node contents. The streaming interface lets callers MAC multi-part
//! messages without concatenating into a scratch buffer.

use crate::aes::Aes128;

/// Size of a CMAC tag in bytes.
pub const MAC_LEN: usize = 16;

fn left_shift_one(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    out
}

/// Keyed CMAC context with the two RFC 4493 subkeys precomputed.
#[derive(Clone)]
pub struct CmacKey {
    cipher: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

impl std::fmt::Debug for CmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmacKey").finish_non_exhaustive()
    }
}

impl CmacKey {
    /// Derive the CMAC subkeys from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_cipher(Aes128::new(key))
    }

    /// Derive the subkeys under an already expanded cipher, on whichever
    /// backend it runs.
    pub(crate) fn with_cipher(cipher: Aes128) -> Self {
        let l = cipher.encrypt(&[0u8; 16]);
        let mut k1 = left_shift_one(&l);
        if l[0] & 0x80 != 0 {
            k1[15] ^= 0x87;
        }
        let mut k2 = left_shift_one(&k1);
        if k1[0] & 0x80 != 0 {
            k2[15] ^= 0x87;
        }
        CmacKey { cipher, k1, k2 }
    }

    /// MAC a single contiguous message.
    pub fn mac(&self, msg: &[u8]) -> [u8; MAC_LEN] {
        let mut ctx = Cmac::new(self);
        ctx.update(msg);
        ctx.finalize()
    }

    /// MAC the concatenation of `parts` without materializing it.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; MAC_LEN] {
        let mut ctx = Cmac::new(self);
        for p in parts {
            ctx.update(p);
        }
        ctx.finalize()
    }

    /// Recompute the tag and compare it in constant time, over the full
    /// tag so truncation attacks are impossible.
    pub fn verify(&self, msg: &[u8], tag: &[u8; MAC_LEN]) -> bool {
        crate::tags_equal(&self.mac(msg), tag)
    }
}

/// Streaming CMAC state over a [`CmacKey`].
pub struct Cmac<'k> {
    key: &'k CmacKey,
    /// The CBC-MAC chaining value.
    state: [u8; 16],
    /// Input not yet chained: 0 to 16 bytes. A full block waits here until
    /// more input shows it is not the last one, which gets subkey treatment.
    buf: [u8; 16],
    buf_len: usize,
}

impl<'k> Cmac<'k> {
    /// Start a new MAC computation.
    pub fn new(key: &'k CmacKey) -> Self {
        Cmac { key, state: [0u8; 16], buf: [0u8; 16], buf_len: 0 }
    }

    /// Absorb message bytes. Whole blocks are chained straight from `data`;
    /// only a partial block, or the block that may be the last, is copied.
    pub fn update(&mut self, mut data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let cipher = &self.key.cipher;
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if data.is_empty() {
                return;
            }
            // More input follows, so the full buffer is not the last block.
            cipher.cbc_mac(&mut self.state, &self.buf);
        }
        let keep = match data.len() % 16 {
            0 => 16,
            partial => partial,
        };
        let (whole, last) = data.split_at(data.len() - keep);
        cipher.cbc_mac(&mut self.state, whole);
        self.buf[..keep].copy_from_slice(last);
        self.buf_len = keep;
    }

    /// Finish and produce the 16-byte tag.
    pub fn finalize(mut self) -> [u8; MAC_LEN] {
        let mut last = [0u8; 16];
        if self.buf_len == 16 {
            // Complete final block: xor with K1.
            for (l, (b, k)) in last.iter_mut().zip(self.buf.iter().zip(self.key.k1.iter())) {
                *l = b ^ k;
            }
        } else {
            // Empty or partial final block: pad with 10^* and xor with K2.
            last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            last[self.buf_len] = 0x80;
            for (l, k) in last.iter_mut().zip(self.key.k2.iter()) {
                *l ^= k;
            }
        }
        self.key.cipher.cbc_mac(&mut self.state, &last);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn rfc_key() -> CmacKey {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        CmacKey::new(&key)
    }

    /// The RFC 4493 key on each backend: as selected, and portable.
    fn rfc_keys() -> [CmacKey; 2] {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        [CmacKey::new(&key), CmacKey::with_cipher(Aes128::portable(&key))]
    }

    #[test]
    fn rfc4493_subkeys() {
        for k in rfc_keys() {
            assert_eq!(k.k1.to_vec(), hex("fbeed618357133667c85e08f7236a8de"));
            assert_eq!(k.k2.to_vec(), hex("f7ddac306ae266ccf90bc11ee46d513b"));
        }
    }

    #[test]
    fn rfc4493_example_1_empty() {
        for k in rfc_keys() {
            assert_eq!(k.mac(&[]).to_vec(), hex("bb1d6929e95937287fa37d129b756746"));
        }
    }

    #[test]
    fn rfc4493_example_2_one_block() {
        let msg = hex("6bc1bee22e409f96e93d7e117393172a");
        for k in rfc_keys() {
            assert_eq!(k.mac(&msg).to_vec(), hex("070a16b46b4d4144f79bdd9dd04a287c"));
        }
    }

    #[test]
    fn rfc4493_example_3_40_bytes() {
        let msg =
            hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411");
        for k in rfc_keys() {
            assert_eq!(k.mac(&msg).to_vec(), hex("dfa66747de9ae63030ca32611497c827"));
        }
    }

    #[test]
    fn rfc4493_example_4_64_bytes() {
        let msg = hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
        for k in rfc_keys() {
            assert_eq!(k.mac(&msg).to_vec(), hex("51f0bebf7e3b9d92fc49741779363cfe"));
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_all_split_points() {
        let k = rfc_key();
        let msg: Vec<u8> = (0..100u8).collect();
        let expected = k.mac(&msg);
        for split in 0..=msg.len() {
            let mut ctx = Cmac::new(&k);
            ctx.update(&msg[..split]);
            ctx.update(&msg[split..]);
            assert_eq!(ctx.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn mac_parts_matches_concatenation() {
        let k = rfc_key();
        let a = b"redptr--";
        let b = b"encrypted kv bytes here";
        let c = b"ctr_value_16byte";
        let concat: Vec<u8> = [a.as_slice(), b.as_slice(), c.as_slice()].concat();
        assert_eq!(k.mac_parts(&[a, b, c]), k.mac(&concat));
    }

    #[test]
    fn tamper_detection() {
        let k = rfc_key();
        let msg = b"some protected kv pair".to_vec();
        let tag = k.mac(&msg);
        assert!(k.verify(&msg, &tag));
        for bit in [0usize, 7, 50, msg.len() * 8 - 1] {
            let mut bad = msg.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(!k.verify(&bad, &tag), "flip of bit {bit} went undetected");
        }
    }
}
