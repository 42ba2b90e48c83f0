//! The probes must measure the same program: every trait method is
//! forwarded, and a seeded op sequence gives identical replies and
//! identical exported content with and without the wrappers.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aria_crypto::{CipherSuite, Mac, RealSuite};
use aria_perfbench::layers::{
    CryptoProbe, Footprint, Layer, LayerProbe, Space, Switch, TimedSuite,
};
use aria_perfbench::load::{closed_loop, from_schedule, open_loop, OpenCfg};
use aria_perfbench::report::percentile;
use aria_perfbench::rig::{setup, sweep, tier_options};
use aria_perfbench::workload::{by_name, key, value, Rng, Spec};
use aria_sim::Enclave;
use aria_store::{
    AriaHash, CacheStats, KvStore, MaintenanceReport, RecoveryReport, StoreConfig, StoreError,
    TieredStore,
};

type Calls = Arc<Mutex<Vec<&'static str>>>;

/// A store that records which trait methods reached it.
struct Spy {
    calls: Calls,
    enclave: Arc<Enclave>,
}

impl Spy {
    fn hit(&self, name: &'static str) {
        self.calls.lock().unwrap().push(name);
    }
}

impl Footprint for Spy {
    fn space(&self) -> Space {
        Space::default()
    }
}

impl KvStore for Spy {
    fn put(&mut self, _: &[u8], _: &[u8]) -> Result<(), StoreError> {
        self.hit("put");
        Ok(())
    }
    fn get(&mut self, _: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.hit("get");
        Ok(None)
    }
    fn delete(&mut self, _: &[u8]) -> Result<bool, StoreError> {
        self.hit("delete");
        Ok(false)
    }
    fn len(&self) -> u64 {
        self.hit("len");
        7
    }
    fn is_empty(&self) -> bool {
        self.hit("is_empty");
        false
    }
    fn enclave(&self) -> &Arc<Enclave> {
        self.hit("enclave");
        &self.enclave
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        self.hit("cache_stats");
        None
    }
    fn multi_get(&mut self, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        self.hit("multi_get");
        keys.iter().map(|_| Ok(None)).collect()
    }
    fn put_batch(&mut self, pairs: &[(&[u8], &[u8])]) -> Vec<Result<(), StoreError>> {
        self.hit("put_batch");
        pairs.iter().map(|_| Ok(())).collect()
    }
    fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        self.hit("recover");
        Ok(RecoveryReport::default())
    }
    fn attach_telemetry(&mut self, _: Arc<aria_telemetry::ShardTelemetry>) {
        self.hit("attach_telemetry");
    }
    fn refresh_gauges(&self) {
        self.hit("refresh_gauges");
    }
    #[allow(clippy::type_complexity)]
    fn export_chunk(
        &mut self,
        _: u64,
        _: usize,
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, Option<u64>), StoreError> {
        self.hit("export_chunk");
        Ok((Vec::new(), None))
    }
    fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        self.hit("maintain");
        Ok(MaintenanceReport { migrated: 3, ..MaintenanceReport::default() })
    }
    fn flush(&mut self) -> Result<(), StoreError> {
        self.hit("flush");
        Ok(())
    }
}

fn drive_every_method(s: &mut impl KvStore) {
    s.put(b"k", b"v").unwrap();
    s.get(b"k").unwrap();
    s.delete(b"k").unwrap();
    assert_eq!(s.len(), 7);
    assert!(!s.is_empty());
    let _ = s.enclave();
    s.cache_stats();
    assert_eq!(s.multi_get(&[b"a", b"b"]).len(), 2);
    assert_eq!(s.put_batch(&[(b"a", b"1")]).len(), 1);
    s.recover().unwrap();
    s.attach_telemetry(Arc::default());
    s.refresh_gauges();
    s.export_chunk(0, 10).unwrap();
    assert_eq!(s.maintain().unwrap().migrated, 3);
    s.flush().unwrap();
}

const EVERY_METHOD: [&str; 15] = [
    "put",
    "get",
    "delete",
    "len",
    "is_empty",
    "enclave",
    "cache_stats",
    "multi_get",
    "put_batch",
    "recover",
    "attach_telemetry",
    "refresh_gauges",
    "export_chunk",
    "maintain",
    "flush",
];

#[test]
fn layer_forwards_every_kvstore_method() {
    for on in [false, true] {
        let calls: Calls = Arc::default();
        let spy = Spy { calls: Arc::clone(&calls), enclave: Arc::new(Enclave::with_default_epc()) };
        let switch = Switch::default();
        switch.set(on);
        let probe = Arc::new(LayerProbe::default());
        let mut layer = Layer::new(spy, switch, Arc::clone(&probe), None);
        drive_every_method(&mut layer);
        assert_eq!(*calls.lock().unwrap(), EVERY_METHOD, "switch on: {on}");
        let d = probe.take();
        if on {
            assert_eq!((d.calls, d.ops, d.gets, d.puts), (5, 6, 3, 2));
            assert_eq!(d.passes.len(), 1);
            assert_eq!(d.passes[0].report.migrated, 3);
        } else {
            assert_eq!(d.calls, 0, "nothing is recorded while the switch is off");
        }
    }
}

/// A suite that records which trait methods reached it.
#[derive(Default)]
struct SpySuite {
    calls: Mutex<Vec<&'static str>>,
}

impl CipherSuite for SpySuite {
    fn crypt(&self, _: &[u8; 16], data: &mut [u8]) {
        self.calls.lock().unwrap().push("crypt");
        data.iter_mut().for_each(|b| *b ^= 0x5a);
    }
    fn mac_parts(&self, parts: &[&[u8]]) -> Mac {
        self.calls.lock().unwrap().push("mac_parts");
        [parts.len() as u8; 16]
    }
    fn mac(&self, _: &[u8]) -> Mac {
        self.calls.lock().unwrap().push("mac");
        [9; 16]
    }
    fn verify_parts(&self, _: &[&[u8]], tag: &Mac) -> bool {
        self.calls.lock().unwrap().push("verify_parts");
        tag[0] == 1
    }
}

#[test]
fn timed_suite_forwards_every_cipher_method() {
    for on in [false, true] {
        let switch = Switch::default();
        switch.set(on);
        let probe = Arc::new(CryptoProbe::default());
        let suite = TimedSuite::new(SpySuite::default(), switch, Arc::clone(&probe));
        let mut data = [1u8; 20];
        suite.crypt(&[0; 16], &mut data);
        assert_eq!(data, [1 ^ 0x5a; 20]);
        assert_eq!(suite.mac_parts(&[b"a", b"bc"]), [2; 16]);
        assert_eq!(suite.mac(b"abc"), [9; 16]);
        assert!(suite.verify_parts(&[b"a"], &[1; 16]));
        let c = probe.take();
        if on {
            assert_eq!((c.crypt_calls, c.crypt_bytes), (1, 20));
            assert_eq!((c.mac_calls, c.mac_bytes), (3, 7));
        } else {
            assert_eq!(c.crypt_calls + c.mac_calls, 0);
        }
    }
    let switch = Switch::default();
    let suite = TimedSuite::new(SpySuite::default(), switch, Arc::default());
    suite.mac(b"x");
    suite.verify_parts(&[b"x"], &[0; 16]);
    assert_eq!(*suite.inner().calls.lock().unwrap(), ["mac", "verify_parts"]);
}

fn small_config() -> StoreConfig {
    let mut cfg = StoreConfig::for_keys(4_096);
    cfg.cache = aria_cache::CacheConfig::with_capacity(64 << 10);
    cfg
}

fn bare_hash() -> AriaHash {
    AriaHash::new(small_config(), Arc::new(Enclave::with_default_epc())).unwrap()
}

fn wrapped_hash(switch: &Switch, probe: &Arc<LayerProbe>) -> Layer<AriaHash> {
    let cfg = small_config();
    let suite = TimedSuite::new(
        RealSuite::from_master(&cfg.master_key),
        switch.clone(),
        Arc::new(CryptoProbe::default()),
    );
    let s = AriaHash::with_suite(cfg, Arc::new(Enclave::with_default_epc()), Some(Arc::new(suite)))
        .unwrap();
    Layer::new(s, switch.clone(), Arc::clone(probe), None)
}

/// Every reply of a seeded op sequence, rendered for comparison.
fn replay(s: &mut impl KvStore, seed: u64, ops: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0);
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        let id = rng.next_u64() % 600;
        let k = key(id);
        let r = match rng.next_u64() % 8 {
            0..=2 => format!("{:?}", s.get(&k)),
            3..=4 => format!("{:?}", s.put(&k, &value(id, i as u64, 16 + (id % 5) as usize * 40))),
            5 => format!("{:?}", s.delete(&k)),
            6 => {
                let ks: Vec<Vec<u8>> = (0..4).map(|j| key((id + j) % 600)).collect();
                let refs: Vec<&[u8]> = ks.iter().map(|k| k.as_slice()).collect();
                format!("{:?}", s.multi_get(&refs))
            }
            _ => {
                let pairs: Vec<(Vec<u8>, Vec<u8>)> =
                    (0..3).map(|j| (key((id + j) % 600), value(id + j, i as u64, 48))).collect();
                let refs: Vec<(&[u8], &[u8])> =
                    pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
                format!("{:?}", s.put_batch(&refs))
            }
        };
        out.push(r);
        if i % 500 == 499 {
            out.push(format!("{:?}", s.maintain()));
        }
    }
    out.push(format!("len {}", s.len()));
    out
}

/// Digest of everything `export_chunk` streams.
fn export_digest(s: &mut impl KvStore) -> (usize, u64) {
    let mut pairs = Vec::new();
    let mut cursor = 0;
    loop {
        let (chunk, next) = s.export_chunk(cursor, 64).unwrap();
        pairs.extend(chunk);
        match next {
            Some(c) => cursor = c,
            None => break,
        }
    }
    pairs.sort();
    let digest = pairs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, (k, v)| {
        k.iter().chain(v).fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    });
    (pairs.len(), digest)
}

#[test]
fn wrapped_hash_store_matches_the_bare_store() {
    let switch = Switch::default();
    switch.set(true);
    let probe = Arc::new(LayerProbe::default());
    let mut bare = bare_hash();
    let mut wrapped = wrapped_hash(&switch, &probe);
    assert_eq!(replay(&mut bare, 42, 3_000), replay(&mut wrapped, 42, 3_000));
    assert_eq!(export_digest(&mut bare), export_digest(&mut wrapped));
    let d = probe.take();
    assert!(d.ops > 3_000 && d.data_ns > 0, "the traced store recorded its work");
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fidelity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn wrapped_tiered_store_matches_the_bare_store() {
    let master = StoreConfig::default().master_key;
    let (da, db) = (tmp("bare"), tmp("wrapped"));
    let budget = 8 << 10;
    let mut bare = TieredStore::open(bare_hash(), &master, tier_options(&da, budget)).unwrap();
    let switch = Switch::default();
    switch.set(true);
    let (outer, inner) = (Arc::new(LayerProbe::default()), Arc::new(LayerProbe::default()));
    let hot = wrapped_hash(&switch, &inner);
    let tiered = TieredStore::open(hot, &master, tier_options(&db, budget)).unwrap();
    let mut wrapped = Layer::new(tiered, switch, Arc::clone(&outer), Some(Arc::clone(&inner)));
    assert_eq!(replay(&mut bare, 7, 3_000), replay(&mut wrapped, 7, 3_000));
    assert_eq!(export_digest(&mut bare), export_digest(&mut wrapped));
    let (o, i) = (outer.take(), inner.take());
    assert_eq!(o.passes.len(), 6);
    assert!(o.passes.iter().any(|p| p.report.migrated > 0), "hot budget forces migration");
    assert!(i.ops > 0, "the inner AriaHash layer saw the hot-tier calls");
    let _ = (std::fs::remove_dir_all(&da), std::fs::remove_dir_all(&db));
}

#[test]
fn percentiles_are_nearest_rank_with_their_count() {
    let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(percentile(&mut v, 0.5), Some((500.0, 1000)));
    assert_eq!(percentile(&mut v, 0.99), Some((990.0, 1000)));
    assert_eq!(percentile(&mut [], 0.99), None);
}

#[test]
fn open_loop_latency_counts_the_schedule_lag() {
    let due = Instant::now();
    let sent = due + Duration::from_millis(5);
    let received = sent + Duration::from_millis(1);
    assert_eq!(from_schedule(due, received), Duration::from_millis(6));
    assert!(from_schedule(due, received) > received - sent);
}

fn tiny(name: &str, keys: u64) -> Spec {
    let mut spec = by_name(name).unwrap();
    spec.keys = keys;
    spec.open_rate = 2_000.0;
    spec
}

#[test]
fn a_short_run_is_checked_end_to_end() {
    for spec in [tiny("wire-hot", 2_000), tiny("tier-churn", 4_000)] {
        let dir = tmp(spec.name);
        let (rig, _) = setup(&spec, &Switch::default(), &dir).unwrap();
        let model = aria_perfbench::workload::Model::preloaded(spec.keys, spec.value_len);
        let addr = rig.server.local_addr();
        let c = closed_loop(addr, &spec, &model, 1, 0, 0.3, 4);
        assert!(c.tally.ok > 0 && c.tally.wrong == 0 && c.tally.failed == 0, "{:?}", c.tally);
        let cfg = OpenCfg { rate: 2_000.0, secs: 0.3, sample_every: 4 };
        let o = open_loop(addr, &spec, &model, 1, 1, cfg);
        assert_eq!(o.tally.wrong, 0, "{:?}", o.tally.first_wrong);
        assert_eq!(o.tally.failed, 0);
        assert_eq!((o.get_us.len() + o.put_us.len()) as u64, o.tally.attempted);
        assert_eq!(o.late_us.len() as u64, o.tally.attempted);
        assert!(!o.traced.is_empty() && !o.spans.is_empty(), "traced ids and spans came back");
        let (wrong, first) = sweep(&rig.store, &model);
        assert_eq!(wrong, 0, "{first:?}");
        rig.server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
