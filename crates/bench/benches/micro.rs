//! Micro-benchmarks for the building blocks: crypto primitives, Merkle
//! verification, Secure Cache hit/miss paths, the user-space allocator,
//! store operations and workload sampling.
//!
//! These measure *wall time* of the implementation (the figure binaries
//! report simulated cycles); they exist to keep the harness fast and to
//! catch performance regressions in the hot paths. The harness is
//! self-contained (median-of-samples timing loop) so the workspace
//! builds offline, without criterion.

use std::sync::Arc;
use std::time::Instant;

use aria_cache::{CacheConfig, SecureCache};
use aria_crypto::{Aes128, CipherSuite, CmacKey, RealSuite};
use aria_mem::{AllocStrategy, UserHeap};
use aria_merkle::MerkleTree;
use aria_shieldstore::ShieldStore;
use aria_sim::{CostModel, Enclave};
use aria_store::{AriaHash, AriaTree, KvStore, StoreConfig};
use aria_workload::{encode_key, value_bytes, ScrambledZipfian};

const SAMPLES: usize = 7;
const MIN_SAMPLE_NANOS: u128 = 20_000_000; // 20 ms per sample

/// Time `f` (which must consume its result, e.g. via `std::hint::black_box`)
/// and print ns/iter as the median over `SAMPLES` batches.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up and size the batch so one sample runs ≥ MIN_SAMPLE_NANOS.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = t0.elapsed().as_nanos();
        if elapsed >= MIN_SAMPLE_NANOS || batch >= 1 << 30 {
            break;
        }
        batch = if elapsed == 0 { batch * 128 } else { (batch * 2).max(1) };
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[per_iter.len() / 2];
    println!("{name:<28} {median:>12.1} ns/iter   ({batch} iters/sample)");
}

fn enclave() -> Arc<Enclave> {
    Arc::new(Enclave::new(CostModel::default(), 512 << 20))
}

fn bench_crypto() {
    let aes = Aes128::new(&[7u8; 16]);
    let mut block = [0x42u8; 16];
    bench("aes128_block", || {
        aes.encrypt_block(&mut block);
        std::hint::black_box(block[0]);
    });

    let cmac = CmacKey::new(&[9u8; 16]);
    for (name, len) in [("cmac_128B", 128), ("cmac_1KiB", 1024)] {
        let msg = vec![0xabu8; len];
        bench(name, || {
            std::hint::black_box(cmac.mac(&msg));
        });
    }

    let suite = RealSuite::from_master(&[3u8; 16]);
    for (name, len) in [("ctr_crypt_512B", 512), ("ctr_crypt_4KiB", 4096)] {
        let mut data = vec![0u8; len];
        bench(name, || {
            suite.crypt(&[1u8; 16], &mut data);
            std::hint::black_box(data[0]);
        });
    }
}

/// Whether the CPU has AES-NI, which `Aes128` then runs on. Crypto rows
/// from a CPU with it and one without are not comparable.
fn aes_ni_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("aes");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

fn bench_merkle() {
    let suite = Arc::new(RealSuite::from_master(&[5u8; 16]));
    let tree = MerkleTree::new(100_000, 8, suite, 1);
    bench("merkle_verify_path", || {
        std::hint::black_box(tree.verify_path_plain(tree.locate_counter(42_424).0));
    });

    let suite = Arc::new(RealSuite::from_master(&[5u8; 16]));
    let mut tree = MerkleTree::new(100_000, 8, suite, 1);
    let mut i = 0u64;
    bench("merkle_update_counter", || {
        i = (i + 7919) % 100_000;
        tree.update_counter_plain(i, &[i as u8; 16]);
    });
}

fn bench_cache() {
    let suite = Arc::new(RealSuite::from_master(&[5u8; 16]));
    let tree = MerkleTree::new(100_000, 8, suite, 1);
    let mut cache = SecureCache::new(tree, enclave(), CacheConfig::with_capacity(8 << 20)).unwrap();
    cache.get_counter(1).unwrap();
    bench("secure_cache_hit", || {
        std::hint::black_box(cache.get_counter(1).unwrap());
    });

    let suite = Arc::new(RealSuite::from_master(&[5u8; 16]));
    let tree = MerkleTree::new(100_000, 8, suite, 1);
    let cfg = CacheConfig { capacity_bytes: 64 * 1024, ..CacheConfig::default() };
    let mut cache = SecureCache::new(tree, enclave(), cfg).unwrap();
    let mut i = 0u64;
    bench("secure_cache_miss_verify", || {
        // Stride large enough to defeat the tiny cache: every access
        // verifies.
        i = (i + 8_111) % 100_000;
        std::hint::black_box(cache.get_counter(i).unwrap());
    });
}

fn bench_alloc() {
    let mut heap = UserHeap::new(enclave(), AllocStrategy::UserSpace);
    bench("user_heap_alloc_free_128B", || {
        let p = heap.alloc(128).unwrap();
        heap.free(p).unwrap();
    });
}

fn bench_stores() {
    let mut cfg = StoreConfig::for_keys(100_000);
    cfg.cache = CacheConfig::with_capacity(16 << 20);
    let mut store = AriaHash::new(cfg, enclave()).unwrap();
    for i in 0..100_000u64 {
        store.put(&encode_key(i), &value_bytes(i, 16)).unwrap();
    }
    let mut i = 0u64;
    bench("aria_hash_get_hot", || {
        i = (i + 1) % 64;
        std::hint::black_box(store.get(&encode_key(i)).unwrap());
    });
    let mut i = 0u64;
    bench("aria_hash_put_16B", || {
        i = (i + 7919) % 100_000;
        store.put(&encode_key(i), &value_bytes(i ^ 1, 16)).unwrap();
    });

    let mut cfg = StoreConfig::for_keys(100_000);
    cfg.cache = CacheConfig::with_capacity(16 << 20);
    cfg.btree_order = 15;
    let mut tree = AriaTree::new(cfg, enclave()).unwrap();
    for i in 0..20_000u64 {
        tree.put(&encode_key(i), &value_bytes(i, 16)).unwrap();
    }
    let mut i = 0u64;
    bench("aria_tree_get", || {
        i = (i + 7919) % 20_000;
        std::hint::black_box(tree.get(&encode_key(i)).unwrap());
    });

    let mut shield = ShieldStore::new(50_000, enclave()).unwrap();
    for i in 0..100_000u64 {
        shield.put(&encode_key(i), &value_bytes(i, 16)).unwrap();
    }
    let mut i = 0u64;
    bench("shieldstore_get", || {
        i = (i + 7919) % 100_000;
        std::hint::black_box(shield.get(&encode_key(i)).unwrap());
    });
}

fn bench_workload() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let zipf = ScrambledZipfian::new(10_000_000, 0.99);
    let mut rng = StdRng::seed_from_u64(7);
    bench("zipf_sample_10M", || {
        let mut acc = 0u64;
        for _ in 0..100 {
            acc ^= zipf.next(&mut rng);
        }
        std::hint::black_box(acc);
    });
}

fn main() {
    println!("cpu feature aes: {}", if aes_ni_detected() { "detected" } else { "not detected" });
    println!("{:<28} {:>12}", "benchmark", "median");
    bench_crypto();
    bench_merkle();
    bench_cache();
    bench_alloc();
    bench_stores();
    bench_workload();
}
