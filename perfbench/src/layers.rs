//! Outside-in layer probes: wrappers that time calls into a layer's
//! public functions and count what passed through them, without any
//! tracing inside the program.
//!
//! * [`TimedSuite`] wraps a [`CipherSuite`] (the real AES-CTR + CMAC
//!   suite in every run) and is handed to `AriaHash::with_suite`.
//! * [`Layer`] wraps a shard's [`KvStore`]; for the tiered workload one
//!   wraps the `TieredStore` and another the `AriaHash` inside it.
//!
//! Both forward every trait method. They record only while the shared
//! [`Switch`] is on, so the untraced phases run the same program with
//! one relaxed load per call added.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use aria_crypto::{CipherSuite, Mac};
use aria_sim::Enclave;
use aria_store::{
    AriaHash, CacheStats, KvStore, MaintenanceReport, RecoveryReport, StoreError, TieredStore,
};

/// Process-wide on/off switch for every probe.
#[derive(Debug, Clone, Default)]
pub struct Switch(Arc<AtomicBool>);

impl Switch {
    /// Turn recording on or off.
    pub fn set(&self, on: bool) {
        self.0.store(on, Ordering::SeqCst);
    }

    /// Whether probes record.
    #[inline]
    pub fn on(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Crypto work seen by one [`TimedSuite`].
#[derive(Debug, Default)]
pub struct CryptoProbe {
    crypt_calls: AtomicU64,
    crypt_ns: AtomicU64,
    crypt_bytes: AtomicU64,
    mac_calls: AtomicU64,
    mac_ns: AtomicU64,
    mac_bytes: AtomicU64,
}

/// Plain copy of a [`CryptoProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CryptoCounts {
    /// `crypt` calls.
    pub crypt_calls: u64,
    /// Nanoseconds inside `crypt`.
    pub crypt_ns: u64,
    /// Bytes encrypted or decrypted.
    pub crypt_bytes: u64,
    /// MAC computations (`mac_parts`, `mac`, `verify_parts`).
    pub mac_calls: u64,
    /// Nanoseconds inside MAC computations.
    pub mac_ns: u64,
    /// Bytes authenticated.
    pub mac_bytes: u64,
}

impl CryptoCounts {
    /// Sum two counts.
    pub fn plus(self, o: CryptoCounts) -> CryptoCounts {
        CryptoCounts {
            crypt_calls: self.crypt_calls + o.crypt_calls,
            crypt_ns: self.crypt_ns + o.crypt_ns,
            crypt_bytes: self.crypt_bytes + o.crypt_bytes,
            mac_calls: self.mac_calls + o.mac_calls,
            mac_ns: self.mac_ns + o.mac_ns,
            mac_bytes: self.mac_bytes + o.mac_bytes,
        }
    }
}

impl CryptoProbe {
    /// Take the counts recorded so far and reset them.
    pub fn take(&self) -> CryptoCounts {
        let t = |a: &AtomicU64| a.swap(0, Ordering::Relaxed);
        CryptoCounts {
            crypt_calls: t(&self.crypt_calls),
            crypt_ns: t(&self.crypt_ns),
            crypt_bytes: t(&self.crypt_bytes),
            mac_calls: t(&self.mac_calls),
            mac_ns: t(&self.mac_ns),
            mac_bytes: t(&self.mac_bytes),
        }
    }

    fn mac(&self, ns: u64, bytes: usize) {
        self.mac_calls.fetch_add(1, Ordering::Relaxed);
        self.mac_ns.fetch_add(ns, Ordering::Relaxed);
        self.mac_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// A [`CipherSuite`] that times and counts every call into `C`.
#[derive(Debug)]
pub struct TimedSuite<C> {
    inner: C,
    switch: Switch,
    probe: Arc<CryptoProbe>,
}

impl<C: CipherSuite> TimedSuite<C> {
    /// Wrap `inner`, recording into `probe` while `switch` is on.
    pub fn new(inner: C, switch: Switch, probe: Arc<CryptoProbe>) -> TimedSuite<C> {
        TimedSuite { inner, switch, probe }
    }

    /// The wrapped suite.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

fn parts_len(parts: &[&[u8]]) -> usize {
    parts.iter().map(|p| p.len()).sum()
}

impl<C: CipherSuite> CipherSuite for TimedSuite<C> {
    fn crypt(&self, counter: &[u8; 16], data: &mut [u8]) {
        if !self.switch.on() {
            return self.inner.crypt(counter, data);
        }
        let t = Instant::now();
        self.inner.crypt(counter, data);
        let ns = t.elapsed().as_nanos() as u64;
        self.probe.crypt_calls.fetch_add(1, Ordering::Relaxed);
        self.probe.crypt_ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.crypt_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
    }

    fn mac_parts(&self, parts: &[&[u8]]) -> Mac {
        if !self.switch.on() {
            return self.inner.mac_parts(parts);
        }
        let t = Instant::now();
        let mac = self.inner.mac_parts(parts);
        self.probe.mac(t.elapsed().as_nanos() as u64, parts_len(parts));
        mac
    }

    fn mac(&self, data: &[u8]) -> Mac {
        if !self.switch.on() {
            return self.inner.mac(data);
        }
        let t = Instant::now();
        let mac = self.inner.mac(data);
        self.probe.mac(t.elapsed().as_nanos() as u64, data.len());
        mac
    }

    fn verify_parts(&self, parts: &[&[u8]], tag: &Mac) -> bool {
        if !self.switch.on() {
            return self.inner.verify_parts(parts, tag);
        }
        let t = Instant::now();
        let ok = self.inner.verify_parts(parts, tag);
        self.probe.mac(t.elapsed().as_nanos() as u64, parts_len(parts));
        ok
    }
}

/// Untrusted bytes a store holds, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Space {
    /// Untrusted heap chunks (sealed entries and index nodes).
    pub heap: u64,
    /// Untrusted counters and Merkle nodes.
    pub merkle: u64,
    /// Cold-log segment bytes.
    pub log: u64,
}

impl Space {
    /// Sum two footprints.
    pub fn plus(self, o: Space) -> Space {
        Space { heap: self.heap + o.heap, merkle: self.merkle + o.merkle, log: self.log + o.log }
    }

    /// All untrusted bytes.
    pub fn total(&self) -> u64 {
        self.heap + self.merkle + self.log
    }
}

/// Stores whose untrusted footprint a [`Layer`] can read from outside.
pub trait Footprint {
    /// The store's own untrusted bytes (not those of a store it wraps).
    fn space(&self) -> Space;
}

impl Footprint for AriaHash {
    fn space(&self) -> Space {
        let m = self.memory_breakdown();
        Space { heap: m.heap_chunks as u64, merkle: m.merkle_untrusted as u64, log: 0 }
    }
}

impl<S: KvStore> Footprint for TieredStore<S> {
    fn space(&self) -> Space {
        Space { log: self.tier_stats().log_bytes, ..Space::default() }
    }
}

/// One maintenance pass as seen from outside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pass {
    /// Wall nanoseconds of the `maintain` call.
    pub ns: u64,
    /// What the pass reported (zeroes when it failed).
    pub report: MaintenanceReport,
}

/// What one [`Layer`] recorded.
#[derive(Debug, Clone, Default)]
pub struct LayerData {
    /// Per-op nanoseconds of each `get`/`multi_get` call (call time
    /// divided by its keys).
    pub get_ns: Vec<u64>,
    /// Per-op nanoseconds of each `put`/`put_batch` call.
    pub put_ns: Vec<u64>,
    /// Data calls (`get`, `put`, `delete`, `multi_get`, `put_batch`).
    pub calls: u64,
    /// Keys carried by data calls.
    pub ops: u64,
    /// Keys read.
    pub gets: u64,
    /// Keys written.
    pub puts: u64,
    /// Nanoseconds inside data calls.
    pub data_ns: u64,
    /// Maintenance passes.
    pub passes: Vec<Pass>,
    /// Nanoseconds a nested [`Layer`] spent inside this one's
    /// maintenance passes (excluded from its data time).
    pub nested_maintain_ns: u64,
    /// Nanoseconds in every other forwarded call (recover, export,
    /// flush).
    pub other_ns: u64,
}

/// Shared handle to a [`Layer`]'s records.
#[derive(Debug, Default)]
pub struct LayerProbe {
    data: Mutex<LayerData>,
    space: Mutex<Space>,
}

impl LayerProbe {
    fn lock(&self) -> MutexGuard<'_, LayerData> {
        self.data.lock().expect("a probe holder panicked")
    }

    /// Take the records so far and reset them.
    pub fn take(&self) -> LayerData {
        std::mem::take(&mut *self.lock())
    }

    /// Nanoseconds inside data calls so far (not reset).
    pub fn data_ns(&self) -> u64 {
        self.lock().data_ns
    }

    /// The footprint captured by the last `cache_stats` call through the
    /// layer.
    pub fn space(&self) -> Space {
        *self.space.lock().expect("a probe holder panicked")
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Get,
    Put,
    Delete,
}

/// A [`KvStore`] that forwards every call to `S`, timing data and
/// maintenance calls while the switch is on.
pub struct Layer<S> {
    inner: S,
    switch: Switch,
    probe: Arc<LayerProbe>,
    nested: Option<Arc<LayerProbe>>,
}

impl<S> Layer<S> {
    /// Wrap `inner`. `nested` is the probe of a [`Layer`] inside
    /// `inner`, whose time during maintenance passes is accounted to
    /// maintenance rather than to its data calls.
    pub fn new(
        inner: S,
        switch: Switch,
        probe: Arc<LayerProbe>,
        nested: Option<Arc<LayerProbe>>,
    ) -> Layer<S> {
        Layer { inner, switch, probe, nested }
    }

    fn data<R>(&mut self, kind: Kind, n: usize, f: impl FnOnce(&mut S) -> R) -> R {
        if !self.switch.on() {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let r = f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        let mut d = self.probe.lock();
        d.calls += 1;
        d.ops += n as u64;
        d.data_ns += ns;
        let per_op = ns / n.max(1) as u64;
        match kind {
            Kind::Get => {
                d.gets += n as u64;
                d.get_ns.push(per_op);
            }
            Kind::Put => {
                d.puts += n as u64;
                d.put_ns.push(per_op);
            }
            Kind::Delete => {}
        }
        r
    }

    fn other<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        if !self.switch.on() {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.probe.lock().other_ns += t.elapsed().as_nanos() as u64;
        r
    }
}

impl<S: KvStore + Footprint> KvStore for Layer<S> {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.data(Kind::Put, 1, |s| s.put(key, value))
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.data(Kind::Get, 1, |s| s.get(key))
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool, StoreError> {
        self.data(Kind::Delete, 1, |s| s.delete(key))
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn enclave(&self) -> &Arc<Enclave> {
        self.inner.enclave()
    }

    /// Forwarded; also captures the wrapped store's footprint, since
    /// monitoring calls (`ShardedStore::aggregate_cache_stats`) reach
    /// every nested layer this way.
    fn cache_stats(&self) -> Option<CacheStats> {
        let stats = self.inner.cache_stats();
        *self.probe.space.lock().expect("a probe holder panicked") = self.inner.space();
        stats
    }

    fn multi_get(&mut self, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        self.data(Kind::Get, keys.len(), |s| s.multi_get(keys))
    }

    fn put_batch(&mut self, pairs: &[(&[u8], &[u8])]) -> Vec<Result<(), StoreError>> {
        self.data(Kind::Put, pairs.len(), |s| s.put_batch(pairs))
    }

    fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        self.other(|s| s.recover())
    }

    fn attach_telemetry(&mut self, tele: Arc<aria_telemetry::ShardTelemetry>) {
        self.inner.attach_telemetry(tele);
    }

    fn refresh_gauges(&self) {
        self.inner.refresh_gauges();
    }

    fn export_chunk(
        &mut self,
        cursor: u64,
        max: usize,
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, Option<u64>), StoreError> {
        self.other(|s| s.export_chunk(cursor, max))
    }

    fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        if !self.switch.on() {
            return self.inner.maintain();
        }
        let nested0 = self.nested.as_ref().map_or(0, |p| p.data_ns());
        let t = Instant::now();
        let r = self.inner.maintain();
        let ns = t.elapsed().as_nanos() as u64;
        let nested = self.nested.as_ref().map_or(0, |p| p.data_ns()).saturating_sub(nested0);
        let mut d = self.probe.lock();
        d.passes.push(Pass { ns, report: r.as_ref().map(|r| *r).unwrap_or_default() });
        d.nested_maintain_ns += nested;
        r
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.other(|s| s.flush())
    }
}
