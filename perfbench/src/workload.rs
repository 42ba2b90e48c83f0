//! The three named workloads, their seeded request streams, and the
//! correctness model every read is checked against.
//!
//! Values encode `(key id, version)`: bytes 0..8 are the id, 8..16 the
//! version (both little-endian), and the rest is a keystream derived from
//! the pair, so a read proves which write it came from. Each client thread
//! is the only writer of the keys with `id % threads == thread`, and one
//! connection applies its pipelined writes in order, so for every key the
//! latest acknowledged version is a sound lower bound and the latest sent
//! version a sound upper bound for any later read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Client threads (and connections): at most `nproc` on the 2-core host
/// the benchmark targets.
pub const THREADS: usize = 2;

/// Shards of the in-process server.
pub const SHARDS: usize = 2;

/// Key popularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Every key equally likely.
    Uniform,
    /// YCSB Zipfian over the key ranks with this exponent.
    Zipf(f64),
}

/// What each shard runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `AriaHash` with this Secure Cache capacity per shard.
    Hash { cache_bytes: usize },
    /// `TieredStore<AriaHash>` with this hot budget per shard and the
    /// program's maintenance ticker at this interval.
    Tiered { hot_budget_bytes: usize, maintain_ms: u64 },
}

/// One named workload. Rates are absolute ops/s, fixed here and never
/// derived at run time.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Keyspace size (all keys preloaded at version 1).
    pub keys: u64,
    /// Value length in bytes (at least 16).
    pub value_len: usize,
    /// Key popularity for reads and writes.
    pub dist: Dist,
    /// Fraction of GETs.
    pub read_ratio: f64,
    /// Closed-loop pipeline depth per connection.
    pub depth: usize,
    /// Open-loop fixed rate, ops/s across both connections.
    pub open_rate: f64,
    /// Lowest and highest step of the SLO rate ladder, ops/s.
    pub ladder: (f64, f64),
    /// p99 latency limit for the open loop and the ladder.
    pub tail_limit_us: f64,
    /// Shard store shape.
    pub shape: Shape,
}

/// Ratio between adjacent ladder steps.
pub const LADDER_STEP: f64 = 1.05;

/// All workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "wire-hot",
            keys: 20_000,
            value_len: 16,
            dist: Dist::Zipf(0.99),
            read_ratio: 0.95,
            depth: 1,
            open_rate: 18_000.0,
            ladder: (100_000.0, 400_000.0),
            tail_limit_us: 500.0,
            shape: Shape::Hash { cache_bytes: 64 << 20 },
        },
        Spec {
            name: "verify-uniform",
            keys: 400_000,
            value_len: 512,
            dist: Dist::Uniform,
            read_ratio: 0.5,
            depth: 32,
            open_rate: 12_000.0,
            ladder: (20_000.0, 100_000.0),
            tail_limit_us: 1_000.0,
            shape: Shape::Hash { cache_bytes: 1 << 20 },
        },
        Spec {
            name: "tier-churn",
            keys: 60_000,
            value_len: 256,
            dist: Dist::Zipf(0.9),
            read_ratio: 0.7,
            depth: 8,
            open_rate: 1_500.0,
            ladder: (2_000.0, 20_000.0),
            tail_limit_us: 10_000.0,
            shape: Shape::Tiered { hot_budget_bytes: 1 << 20, maintain_ms: 20 },
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// The ladder's steps: `lo * LADDER_STEP^i` up to `hi`.
pub fn ladder_steps(spec: &Spec) -> Vec<f64> {
    let (lo, hi) = spec.ladder;
    let mut steps = vec![lo];
    while let Some(&last) = steps.last() {
        let next = last * LADDER_STEP;
        if next > hi {
            break;
        }
        steps.push(next);
    }
    steps
}

/// The 16-byte wire key of a key id.
pub fn key(id: u64) -> Vec<u8> {
    format!("key:{id:012}").into_bytes()
}

/// splitmix64 step (the seed-to-stream mixer used throughout).
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The value written for `(id, version)`.
pub fn value(id: u64, version: u64, len: usize) -> Vec<u8> {
    assert!(len >= 16, "values carry a 16-byte (id, version) header");
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let mut state = mix(id ^ version.rotate_left(32));
    while v.len() < len {
        state = mix(state);
        let take = (len - v.len()).min(8);
        v.extend_from_slice(&state.to_le_bytes()[..take]);
    }
    v
}

/// Deterministic pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream for `seed`, separated by `lane` (thread, phase).
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x5eed))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap_secs(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// YCSB Zipfian rank generator (Gray et al.), rank 0 most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Generator over `n` ranks with exponent `theta` (0 < theta < 1).
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    /// Draw one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64).min(self.n - 1)
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read this key id.
    Get(u64),
    /// Write this key id (its version is drawn from the model at send).
    Put(u64),
}

/// Per-thread seeded operation stream. Reads draw over the whole
/// keyspace; writes draw over the thread's own keys (`id % THREADS ==
/// thread`) with the same popularity law, so every key has one writer.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    read_ratio: f64,
    keys: u64,
    thread: u64,
    reads: Option<Zipf>,
    writes: Option<Zipf>,
}

impl OpGen {
    /// Stream for `thread` in the phase identified by `lane`.
    pub fn new(spec: &Spec, seed: u64, thread: usize, lane: u64) -> OpGen {
        let own = spec.keys.div_ceil(THREADS as u64);
        let (reads, writes) = match spec.dist {
            Dist::Uniform => (None, None),
            Dist::Zipf(theta) => (Some(Zipf::new(spec.keys, theta)), Some(Zipf::new(own, theta))),
        };
        OpGen {
            rng: Rng::new(seed, lane.wrapping_mul(16).wrapping_add(thread as u64)),
            read_ratio: spec.read_ratio,
            keys: spec.keys,
            thread: thread as u64,
            reads,
            writes,
        }
    }

    /// Next operation.
    pub fn next_op(&mut self) -> Op {
        if self.rng.next_f64() < self.read_ratio {
            let id = match &self.reads {
                Some(z) => z.sample(&mut self.rng),
                None => self.rng.next_u64() % self.keys,
            };
            Op::Get(id)
        } else {
            let t = THREADS as u64;
            let own = (self.keys - self.thread).div_ceil(t);
            let rank = match &self.writes {
                Some(z) => z.sample(&mut self.rng).min(own - 1),
                None => self.rng.next_u64() % own,
            };
            Op::Put(rank * t + self.thread)
        }
    }

    /// The random stream (for arrival gaps).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// Why a read was refused by the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wrong {
    /// The key was absent, though every key is preloaded.
    Missing { id: u64 },
    /// The value is not one this benchmark ever wrote for this key.
    Foreign { id: u64 },
    /// Older than the last write acknowledged before the read was sent.
    Stale { id: u64, version: u64, floor: u64 },
    /// Newer than any write sent.
    FromFuture { id: u64, version: u64, ceiling: u64 },
}

impl std::fmt::Display for Wrong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Wrong::Missing { id } => write!(f, "key {id}: missing"),
            Wrong::Foreign { id } => write!(f, "key {id}: value not written by this run"),
            Wrong::Stale { id, version, floor } => {
                write!(f, "key {id}: stale version {version} < acknowledged {floor}")
            }
            Wrong::FromFuture { id, version, ceiling } => {
                write!(f, "key {id}: version {version} > latest sent {ceiling}")
            }
        }
    }
}

/// Shared per-key version state: the latest version sent and the latest
/// acknowledged.
#[derive(Debug)]
pub struct Model {
    value_len: usize,
    sent: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
}

impl Model {
    /// Every key preloaded at version 1.
    pub fn preloaded(keys: u64, value_len: usize) -> Model {
        Model {
            value_len,
            sent: (0..keys).map(|_| AtomicU64::new(1)).collect(),
            acked: (0..keys).map(|_| AtomicU64::new(1)).collect(),
        }
    }

    /// Keys in the model.
    pub fn keys(&self) -> u64 {
        self.sent.len() as u64
    }

    /// Draw the next version of `id` before sending its write; returns
    /// the value to send.
    pub fn begin_put(&self, id: u64) -> (u64, Vec<u8>) {
        let version = self.sent[id as usize].fetch_add(1, Ordering::SeqCst) + 1;
        (version, value(id, version, self.value_len))
    }

    /// Record the acknowledgement of `version` of `id`.
    pub fn ack_put(&self, id: u64, version: u64) {
        self.acked[id as usize].fetch_max(version, Ordering::SeqCst);
    }

    /// The floor for a read of `id` about to be sent.
    pub fn read_floor(&self, id: u64) -> u64 {
        self.acked[id as usize].load(Ordering::SeqCst)
    }

    /// Check a read of `id` sent with `floor`, once its reply arrived.
    pub fn check_read(&self, id: u64, floor: u64, got: Option<&[u8]>) -> Result<(), Wrong> {
        let got = got.ok_or(Wrong::Missing { id })?;
        if got.len() != self.value_len || got[..8] != id.to_le_bytes() {
            return Err(Wrong::Foreign { id });
        }
        let version = u64::from_le_bytes(got[8..16].try_into().expect("16-byte header"));
        if got != value(id, version, self.value_len).as_slice() {
            return Err(Wrong::Foreign { id });
        }
        if version < floor {
            return Err(Wrong::Stale { id, version, floor });
        }
        let ceiling = self.sent[id as usize].load(Ordering::SeqCst);
        if version > ceiling {
            return Err(Wrong::FromFuture { id, version, ceiling });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_the_model() {
        let m = Model::preloaded(10, 64);
        assert_eq!(m.check_read(3, 1, Some(&value(3, 1, 64))), Ok(()));
        let (v2, bytes) = m.begin_put(3);
        assert_eq!(v2, 2);
        // Sent but not acknowledged: both versions are acceptable.
        assert_eq!(m.check_read(3, m.read_floor(3), Some(&value(3, 1, 64))), Ok(()));
        assert_eq!(m.check_read(3, m.read_floor(3), Some(&bytes)), Ok(()));
        m.ack_put(3, v2);
        assert!(matches!(
            m.check_read(3, m.read_floor(3), Some(&value(3, 1, 64))),
            Err(Wrong::Stale { .. })
        ));
        assert!(matches!(
            m.check_read(3, 1, Some(&value(3, 9, 64))),
            Err(Wrong::FromFuture { .. })
        ));
        assert!(matches!(m.check_read(3, 1, Some(&value(4, 1, 64))), Err(Wrong::Foreign { .. })));
        assert_eq!(m.check_read(3, 1, None), Err(Wrong::Missing { id: 3 }));
    }

    #[test]
    fn writers_own_disjoint_keys() {
        let spec = by_name("tier-churn").unwrap();
        for t in 0..THREADS {
            let mut g = OpGen::new(&spec, 7, t, 0);
            for _ in 0..10_000 {
                match g.next_op() {
                    Op::Put(id) => {
                        assert_eq!(id % THREADS as u64, t as u64);
                        assert!(id < spec.keys);
                    }
                    Op::Get(id) => assert!(id < spec.keys),
                }
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let spec = by_name("wire-hot").unwrap();
        let draw = |seed| {
            let mut g = OpGen::new(&spec, seed, 1, 3);
            (0..100).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(20_000, 0.99);
        let mut rng = Rng::new(1, 0);
        let draws: Vec<u64> = (0..50_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 20_000));
        let top = draws.iter().filter(|&&r| r < 20).count();
        assert!(top > 50_000 / 5, "top-20 ranks draw {top} of 50000");
    }

    #[test]
    fn keys_are_16_bytes() {
        assert_eq!(key(42), b"key:000000000042");
    }
}
