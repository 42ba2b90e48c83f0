//! Content roots for anti-entropy re-sync.
//!
//! Two replicas of the same logical shard hold the same *plaintext*
//! pairs but entirely different untrusted bytes: each replica seals its
//! entries under its own encryption-counter history, so ciphertexts,
//! entry MACs and counter-area Merkle roots are incomparable across
//! replicas by design. The quantity the replicas *can* agree on is a
//! digest over the verified plaintext contents, computed by each
//! enclave from its **own** MAC-verified reads — never from bytes the
//! untrusted host handed it directly.
//!
//! A [`ContentRoot`] is built as follows:
//!
//! 1. For every `(key, value)` pair, compute a CMAC under a fixed,
//!    public convention key over the length-prefixed pair (the length
//!    prefixes make the encoding injective — `("ab","c")` and
//!    `("a","bc")` digest differently).
//! 2. Sort the per-pair digests (the root must not depend on bucket
//!    layout or insertion order, which legitimately differ between
//!    replicas).
//! 3. CMAC the concatenation of the sorted digests, prefixed with the
//!    pair count.
//!
//! The fixed key means the root is *not* a secret or an authenticator
//! against the network — it is a collision-resistant-in-practice
//! fingerprint exchanged between two mutually-trusting enclaves. What
//! makes re-sync sound against a malicious host is *where the inputs
//! come from*: each side feeds the digest only pairs that already
//! survived its own entry-MAC + Merkle verification
//! ([`crate::KvStore::export_chunk`]). A production build would swap
//! the CMAC for SHA-256 and carry the root over an attested
//! enclave-to-enclave channel; the structure is identical (DESIGN.md
//! §13).

use std::sync::OnceLock;

use aria_crypto::CmacKey;

use crate::{KvStore, StoreError};

/// Fixed public convention key for content digests. Shared by every
/// replica; see the module docs for why this is not a secret.
const CONTENT_DIGEST_KEY: [u8; 16] = *b"aria-resync-root";

/// [`CONTENT_DIGEST_KEY`] expanded once per process: the digest helpers
/// run once per pair, and the key never changes.
fn content_digest_key() -> &'static CmacKey {
    static KEY: OnceLock<CmacKey> = OnceLock::new();
    KEY.get_or_init(|| CmacKey::new(&CONTENT_DIGEST_KEY))
}

/// How many pairs [`content_root_of`] pulls per `export_chunk` call.
pub const EXPORT_CHUNK_PAIRS: usize = 256;

/// An order-independent digest of a store's verified contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentRoot {
    /// Number of pairs the root covers.
    pub pairs: u64,
    /// The combined digest.
    pub digest: [u8; 16],
}

impl std::fmt::Display for ContentRoot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} pairs, root ", self.pairs)?;
        for b in self.digest {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Digest one verified pair under the fixed convention key
/// (length-prefixed, so the encoding is injective). Exposed so callers
/// that hold pairs in different places — e.g. the tiered store's hot
/// region and cold log — can digest incrementally and combine with
/// [`content_root_from_digests`] instead of materializing every pair
/// at once.
pub fn pair_digest_keyed(key: &[u8], value: &[u8]) -> [u8; 16] {
    pair_digest(content_digest_key(), key, value)
}

/// Digest one verified pair (length-prefixed, so the encoding is
/// injective).
fn pair_digest(mac: &CmacKey, key: &[u8], value: &[u8]) -> [u8; 16] {
    let klen = (key.len() as u64).to_le_bytes();
    let vlen = (value.len() as u64).to_le_bytes();
    mac.mac_parts(&[&klen, key, &vlen, value])
}

/// Combine per-pair digests (from [`pair_digest_keyed`]) into a
/// [`ContentRoot`]. Order-independent — the digests are sorted before
/// the final MAC, exactly as [`content_root`] does.
pub fn content_root_from_digests(mut digests: Vec<[u8; 16]>) -> ContentRoot {
    let mac = content_digest_key();
    digests.sort_unstable();
    let count = (digests.len() as u64).to_le_bytes();
    let mut parts: Vec<&[u8]> = Vec::with_capacity(digests.len() + 1);
    parts.push(&count);
    for d in &digests {
        parts.push(d);
    }
    ContentRoot { pairs: digests.len() as u64, digest: mac.mac_parts(&parts) }
}

/// Combine verified pairs into a [`ContentRoot`]. Order-independent:
/// any permutation of the same pairs yields the same root.
pub fn content_root(pairs: &[(Vec<u8>, Vec<u8>)]) -> ContentRoot {
    let mac = content_digest_key();
    let digests: Vec<[u8; 16]> = pairs.iter().map(|(k, v)| pair_digest(mac, k, v)).collect();
    content_root_from_digests(digests)
}

/// Stream a store's entire verified contents
/// ([`KvStore::export_chunk`]) and return both the pairs and their
/// [`ContentRoot`]. The store must not be mutated concurrently — the
/// sharded layer guarantees this by running the export on the shard's
/// own worker thread behind the group's write fence. Enclave MAC costs
/// for the digest are charged per pair.
#[allow(clippy::type_complexity)]
pub fn content_root_of<S: KvStore>(
    store: &mut S,
) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, ContentRoot), StoreError> {
    let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut cursor = 0u64;
    loop {
        let (mut pairs, next) = store.export_chunk(cursor, EXPORT_CHUNK_PAIRS)?;
        all.append(&mut pairs);
        match next {
            Some(c) => cursor = c,
            None => break,
        }
    }
    for (k, v) in &all {
        store.enclave().charge_mac(16 + k.len() + v.len());
    }
    let root = content_root(&all);
    Ok((all, root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(k: &str, v: &str) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn root_is_order_independent() {
        let a = content_root(&[p("k1", "v1"), p("k2", "v2"), p("k3", "v3")]);
        let b = content_root(&[p("k3", "v3"), p("k1", "v1"), p("k2", "v2")]);
        assert_eq!(a, b);
        assert_eq!(a.pairs, 3);
    }

    #[test]
    fn root_detects_any_difference() {
        let base = content_root(&[p("k1", "v1"), p("k2", "v2")]);
        assert_ne!(base, content_root(&[p("k1", "v1")]), "missing pair");
        assert_ne!(base, content_root(&[p("k1", "v1"), p("k2", "vX")]), "changed value");
        assert_ne!(base, content_root(&[p("k1", "v1"), p("kX", "v2")]), "changed key");
        assert_ne!(
            base,
            content_root(&[p("k1", "v1"), p("k2", "v2"), p("k3", "v3")]),
            "extra pair"
        );
    }

    /// Checkpoints on disk carry content roots, so the digest must stay
    /// byte-identical across releases and cipher backends.
    #[test]
    fn digests_are_pinned() {
        let pairs = [p("k1", "v1"), (b"key:000000000042".to_vec(), vec![0xa5; 300])];
        assert_eq!(
            content_root(&pairs).digest,
            [
                0x5f, 0x32, 0xa0, 0x99, 0xd4, 0x36, 0xd4, 0x0a, 0x54, 0x23, 0xc5, 0x2d, 0x3a, 0x8d,
                0x9b, 0x30
            ]
        );
        assert_eq!(
            pair_digest_keyed(b"k1", b"v1"),
            [
                0x36, 0xee, 0x12, 0xea, 0xe6, 0xa4, 0x49, 0x6b, 0xf0, 0xb1, 0xe9, 0x21, 0x46, 0xad,
                0x55, 0x99
            ]
        );
    }

    #[test]
    fn length_prefixing_is_injective() {
        // Same concatenated bytes, different key/value split.
        assert_ne!(content_root(&[p("ab", "c")]), content_root(&[p("a", "bc")]));
    }

    #[test]
    fn empty_root_is_stable() {
        assert_eq!(content_root(&[]), content_root(&[]));
        assert_eq!(content_root(&[]).pairs, 0);
    }
}
