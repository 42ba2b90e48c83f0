//! The system under test: an in-process `AriaServer` over a 2-shard
//! `ShardedStore` with the real cipher suite, every shard wrapped in
//! the benchmark's [`Layer`] probes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aria_cache::CacheConfig;
use aria_crypto::RealSuite;
use aria_net::{AriaServer, ServerConfig};
use aria_sim::{Enclave, EnclaveSnapshot};
use aria_store::sharded::{BatchOp, BatchReply, ShardedStore};
use aria_store::{AriaHash, KvStore, StoreConfig, StoreError, TieredOptions, TieredStore};
use aria_telemetry::TelemetrySnapshot;

use crate::layers::{CryptoProbe, Layer, LayerProbe, Space, Switch, TimedSuite};
use crate::workload::{key, value, Model, Shape, Spec, SHARDS};

/// Keys per preload batch.
const PRELOAD_BATCH: usize = 512;

/// The probes of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardProbes {
    /// The layer around the shard's store.
    pub outer: Arc<LayerProbe>,
    /// The layer around the `AriaHash` inside a `TieredStore`.
    pub inner: Option<Arc<LayerProbe>>,
    /// The cipher suite of the shard's `AriaHash`.
    pub crypto: Arc<CryptoProbe>,
}

/// Every probe of one store instance.
#[derive(Debug, Clone)]
pub struct Probes {
    /// Shared recording switch.
    pub switch: Switch,
    /// Per shard, index = shard.
    pub shards: Vec<ShardProbes>,
}

impl Probes {
    fn new(switch: &Switch, tiered: bool) -> Probes {
        let shards = (0..SHARDS)
            .map(|_| ShardProbes { inner: tiered.then(Arc::default), ..ShardProbes::default() })
            .collect();
        Probes { switch: switch.clone(), shards }
    }

    /// Untrusted bytes across every shard and nested layer, as captured
    /// by the last `aggregate_cache_stats` call.
    pub fn space(&self) -> Space {
        self.shards.iter().fold(Space::default(), |acc, p| {
            let inner = p.inner.as_ref().map_or(Space::default(), |i| i.space());
            acc.plus(p.outer.space()).plus(inner)
        })
    }
}

/// Shard store of the hash workloads.
pub type HashShard = Layer<AriaHash>;
/// Shard store of the tiered workload.
pub type TierShard = Layer<TieredStore<Layer<AriaHash>>>;

fn aria(spec: &Spec, switch: &Switch, crypto: &Arc<CryptoProbe>) -> Result<AriaHash, StoreError> {
    // Routing spreads keys over slots, so size each shard with headroom.
    let per_shard = spec.keys / SHARDS as u64;
    let mut cfg = StoreConfig::for_keys(per_shard + per_shard / 4 + 1024);
    if let Shape::Hash { cache_bytes } = spec.shape {
        cfg.cache = CacheConfig::with_capacity(cache_bytes);
    }
    let suite = TimedSuite::new(
        RealSuite::from_master(&cfg.master_key),
        switch.clone(),
        Arc::clone(crypto),
    );
    AriaHash::with_suite(cfg, Arc::new(Enclave::with_default_epc()), Some(Arc::new(suite)))
}

/// Tiering options: the `TieredOptions` defaults (8 MiB segments,
/// compaction at 40 % dead, checkpoint every 4096 mutations, no fsync
/// before acknowledging) with the workload's hot budget.
pub fn tier_options(dir: &Path, hot_budget_bytes: usize) -> TieredOptions {
    TieredOptions::new(dir.to_path_buf()).hot_budget_bytes(hot_budget_bytes)
}

/// A built store: either shape.
pub enum Store {
    /// `AriaHash` shards.
    Hash(Arc<ShardedStore<HashShard>>),
    /// `TieredStore<AriaHash>` shards.
    Tiered(Arc<ShardedStore<TierShard>>),
}

macro_rules! each {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            Store::Hash($s) => $body,
            Store::Tiered($s) => $body,
        }
    };
}

impl Store {
    /// Build the shards. A tiered store opens (and recovers) the logs
    /// under `dir`.
    pub fn open(spec: &Spec, probes: &Probes, dir: &Path) -> Result<Store, StoreError> {
        let spec2 = spec.clone();
        let probes2 = probes.clone();
        match spec.shape {
            Shape::Hash { .. } => ShardedStore::with_shards(SHARDS, move |slot| {
                let p = &probes2.shards[slot];
                let s = aria(&spec2, &probes2.switch, &p.crypto)?;
                Ok(Layer::new(s, probes2.switch.clone(), Arc::clone(&p.outer), None))
            })
            .map(|s| Store::Hash(Arc::new(s))),
            Shape::Tiered { hot_budget_bytes, .. } => {
                let dir = dir.to_path_buf();
                ShardedStore::with_shards(SHARDS, move |slot| {
                    let p = &probes2.shards[slot];
                    let inner = p.inner.clone().expect("tiered probes carry an inner layer");
                    let hot = Layer::new(
                        aria(&spec2, &probes2.switch, &p.crypto)?,
                        probes2.switch.clone(),
                        Arc::clone(&inner),
                        None,
                    );
                    let master = StoreConfig::default().master_key;
                    let opts = tier_options(&dir.join(format!("shard-{slot}")), hot_budget_bytes);
                    let tiered = TieredStore::open(hot, &master, opts)?;
                    Ok(Layer::new(
                        tiered,
                        probes2.switch.clone(),
                        Arc::clone(&p.outer),
                        Some(inner),
                    ))
                })
                .map(|s| Store::Tiered(Arc::new(s)))
            }
        }
    }

    /// Run one in-process batch.
    pub fn run_batch(&self, ops: Vec<BatchOp>) -> Vec<BatchReply> {
        each!(self, s => s.run_batch(ops))
    }

    /// Serve the store over loopback with the default server config.
    pub fn serve(&self) -> std::io::Result<AriaServer> {
        each!(self, s => AriaServer::bind("127.0.0.1:0", Arc::clone(s), ServerConfig::default()))
    }

    /// Refresh every layer's footprint (through `cache_stats`) and
    /// return each shard's cache statistics.
    pub fn cache_stats(&self) -> Vec<Option<aria_store::CacheStats>> {
        each!(self, s => s.cache_stats())
    }

    /// Enclave counters summed over shards.
    pub fn enclave(&self) -> EnclaveSnapshot {
        each!(self, s => s.stats().totals)
    }

    /// One maintenance pass on every shard; returns entries migrated.
    pub fn maintain_all(&self) -> Result<u64, StoreError> {
        let reports = each!(self, s => s.map_shards(|st| st.maintain()));
        reports.into_iter().map(|r| r.map(|r| r.migrated)).sum()
    }

    /// Start the program's maintenance ticker.
    pub fn start_maintenance(&self, every: Duration) {
        each!(self, s => s.start_maintenance(every))
    }

    /// Audit-recover every shard (`KvStore::recover`).
    pub fn recover_all(&self) -> Result<(), StoreError> {
        let reports = each!(self, s => s.map_shards(|st| st.recover()));
        reports.into_iter().try_for_each(|r| r.map(|_| ()))
    }
}

/// A running instance.
pub struct Rig {
    /// The store.
    pub store: Store,
    /// The server over it.
    pub server: AriaServer,
    /// Its probes.
    pub probes: Probes,
    /// Where tiered logs live.
    pub dir: PathBuf,
}

/// Build the store, preload every key at version 1, run the first
/// migration (tiered), bind the server, and start the maintenance
/// ticker (tiered). Returns the rig and the seconds it took.
pub fn setup(spec: &Spec, switch: &Switch, dir: &Path) -> Result<(Rig, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let tiered = matches!(spec.shape, Shape::Tiered { .. });
    let probes = Probes::new(switch, tiered);
    let store = Store::open(spec, &probes, dir).map_err(|e| format!("open store: {e}"))?;
    let mut batch = Vec::with_capacity(PRELOAD_BATCH);
    for id in 0..spec.keys {
        batch.push(BatchOp::Put(key(id), value(id, 1, spec.value_len)));
        if batch.len() == PRELOAD_BATCH || id + 1 == spec.keys {
            for r in store.run_batch(std::mem::take(&mut batch)) {
                if let Some(e) = r.error() {
                    return Err(format!("preload failed: {e}"));
                }
            }
        }
    }
    if let Shape::Tiered { maintain_ms, .. } = spec.shape {
        while store.maintain_all().map_err(|e| format!("first migration: {e}"))? > 0 {}
        store.start_maintenance(Duration::from_millis(maintain_ms));
    }
    let server = store.serve().map_err(|e| format!("bind: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((Rig { store, server, probes, dir: dir.to_path_buf() }, secs))
}

/// Read every key in-process and check it against the model. Returns
/// the number of wrong keys and the first few descriptions.
pub fn sweep(store: &Store, model: &Model) -> (u64, Vec<String>) {
    let mut wrong = 0;
    let mut first = Vec::new();
    let keys = model.keys();
    let mut id = 0;
    while id < keys {
        let ids: Vec<u64> = (id..(id + PRELOAD_BATCH as u64).min(keys)).collect();
        let floors: Vec<u64> = ids.iter().map(|&i| model.read_floor(i)).collect();
        let replies = store.run_batch(ids.iter().map(|&i| BatchOp::Get(key(i))).collect());
        for ((&i, &floor), r) in ids.iter().zip(&floors).zip(replies) {
            let verdict = match r {
                BatchReply::Get(Ok(v)) => {
                    model.check_read(i, floor, v.as_deref()).map_err(|w| w.to_string())
                }
                other => Err(format!("key {i}: sweep read failed: {other:?}")),
            };
            if let Err(w) = verdict {
                wrong += 1;
                if first.len() < 8 {
                    first.push(w);
                }
            }
        }
        id += ids.len() as u64;
    }
    (wrong, first)
}

/// Measure recovery at least `min_reps` times, and more (up to nine)
/// while the repetitions add up to under `budget_s`: for a tiered store, shut down and
/// reopen every shard's log (the checkpoint is verified on open);
/// otherwise run the audit-recovery pass on every shard. Each
/// repetition ends with a full sweep against the model. Consumes the
/// rig; returns the seconds of each repetition and the wrong keys.
pub fn recover(
    spec: &Spec,
    rig: Rig,
    model: &Model,
    min_reps: usize,
    budget_s: f64,
) -> Result<(Vec<f64>, u64, Vec<String>), String> {
    let Rig { store, server, dir, .. } = rig;
    server.shutdown();
    let mut times: Vec<f64> = Vec::new();
    let (mut wrong, mut first) = (0, Vec::new());
    let mut store = Some(store);
    while times.len() < min_reps || (times.len() < 9 && times.iter().sum::<f64>() < budget_s) {
        let t0 = Instant::now();
        let s = match store.take() {
            Some(s @ Store::Hash(_)) => {
                s.recover_all().map_err(|e| format!("recover: {e}"))?;
                s
            }
            prev => {
                drop(prev);
                let probes = Probes::new(&Switch::default(), true);
                Store::open(spec, &probes, &dir).map_err(|e| format!("reopen: {e}"))?
            }
        };
        let (w, f) = sweep(&s, model);
        times.push(t0.elapsed().as_secs_f64());
        wrong += w;
        first.extend(f);
        store = Some(s);
    }
    Ok((times, wrong, first))
}

/// Counters read at a phase boundary.
#[derive(Debug, Clone)]
pub struct Mark {
    /// Server telemetry (shares the store's recorders).
    pub tele: TelemetrySnapshot,
    /// Enclave cost-model counters summed over shards.
    pub enclave: EnclaveSnapshot,
    /// Process counters.
    pub proc: crate::report::Proc,
}

impl Mark {
    /// Read every counter now.
    pub fn take(rig: &Rig) -> Mark {
        Mark {
            tele: rig.server.telemetry().snapshot(),
            enclave: rig.store.enclave(),
            proc: crate::report::Proc::now(),
        }
    }
}
