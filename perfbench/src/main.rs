//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against an in-process `AriaServer` (2 shards, real
//! cipher suite, default server config) and prints every metric by name
//! and unit, then one JSON result line. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics. Exits non-zero
//! on any wrong or stale read. See `README.md` in this directory.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use aria_net::proto::{self, Decoded, Request, Response, TraceContext};
use aria_perfbench::layers::{CryptoCounts, LayerData, Switch};
use aria_perfbench::load::{
    closed_loop, open_loop, priority_report, slo_rate, OpenCfg, Tally, TAIL_Q,
};
use aria_perfbench::report::{
    fingerprint, host_ticks, json_num, json_str, median, nproc, percentile, rss_peak_mb, windowed,
    Metrics, Proc,
};
use aria_perfbench::rig::{recover, setup, Mark, Rig};
use aria_perfbench::workload::{
    by_name, key, ladder_steps, value, Model, Op, OpGen, Shape, Spec, SHARDS, THREADS,
};
use aria_telemetry::{stage, HistSnapshot, Span};

/// Set-ups per end-to-end run (`setup_s` is their median): at least
/// `MIN_SETUPS`, more while they add up to under `SETUP_BUDGET_S`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;
/// Recovery measurements per end-to-end run (`recovery_s` is their
/// median): at least this many, more while they add up to under
/// `SETUP_BUDGET_S`.
const MIN_RECOVERIES: usize = 3;
/// Windows the end-to-end run's fixed-rate open loop is split into.
/// Latency percentiles are the medians of the per-window values, so one
/// disturbed stretch does not set the result.
const ROUNDS: usize = 5;
/// Sub-windows of the traced run's open loop, for its tail reports.
const WINDOWS: usize = 5;
/// One closed-loop request in this many carries a trace context in the
/// traced phases.
const CLOSED_TRACE_SAMPLE: u32 = 16;
/// Untraced/traced slice pairs in a traced run.
const TRACE_PAIRS: usize = 6;
/// Every n-th open-loop request of a user carries a generator-chosen
/// trace id in the traced run.
const OPEN_TRACE_EVERY: u64 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <wire-hot|verify-uniform|tier-churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--suite real]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad("expected 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--suite" if val == "real" => {}
            "--suite" => {
                return Err(format!(
                    "--suite {val}: only the real AES-CTR + CMAC suite is benchmarked"
                ))
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
struct Outcome {
    tally: Tally,
    wrong_at_end: u64,
    metrics: Metrics,
    record: Vec<(String, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let base = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = base.join(".work").join(format!("{}-{}", spec.name, std::process::id()));
    let mode = if args.trace { "trace" } else { "e2e" };
    println!("perfbench {} ({mode}, seed {}, {} s)", spec.name, args.seed, args.seconds);
    let fp = fingerprint();
    let params = params(&spec, args.seed);
    for (k, v) in fp.iter().map(|(k, v)| (*k, v.clone())).chain(params.clone()) {
        println!("  {k}: {v}");
    }
    let host0 = host_ticks();
    let result =
        if args.trace { traced(&spec, &args, &work) } else { end_to_end(&spec, &args, &work) };
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let priority = priority_report();
    println!("  generator_priority: {priority}");
    let host1 = host_ticks();
    let steal = (host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64;
    println!("  host_steal_share: {steal:.4} of the machine's CPU time during the run");
    println!("metrics ({mode}):");
    out.metrics.print();
    let wrong = out.tally.wrong + out.wrong_at_end;
    for w in &out.tally.first_wrong {
        eprintln!("WRONG READ: {w}");
    }
    let correct = wrong == 0;
    let failed = out.tally.failed + wrong;
    let mut record: Vec<(String, String)> = fp
        .iter()
        .map(|(k, v)| (k.to_string(), json_str(v)))
        .chain(params.into_iter().map(|(k, v)| (k.to_string(), json_str(&v))))
        .collect();
    record.push(("mode".into(), json_str(mode)));
    record.push(("generator_priority".into(), json_str(&priority)));
    record.push(("host_steal_share".into(), json_num(steal)));
    record.push(("correct".into(), correct.to_string()));
    record.push(("attempted".into(), out.tally.attempted.to_string()));
    record.push(("failed".into(), failed.to_string()));
    record.push(("metrics".into(), out.metrics.json_with_samples()));
    record.extend(out.record);
    let rec_path = base.join("out").join(format!("{}-s{}-{mode}.json", spec.name, args.seed));
    write_record(&rec_path, &record);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        out.tally.attempted.max(1),
        out.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {wrong} wrong or stale reads");
        ExitCode::FAILURE
    }
}

/// The workload parameters and fixed settings every record carries.
fn params(spec: &Spec, seed: u64) -> Vec<(&'static str, String)> {
    let shape = match spec.shape {
        Shape::Hash { cache_bytes } => format!("AriaHash, Secure Cache {cache_bytes} B per shard"),
        Shape::Tiered { hot_budget_bytes, maintain_ms } => format!(
            "TieredStore<AriaHash>, hot budget {hot_budget_bytes} B per shard, \
             maintenance ticker every {maintain_ms} ms"
        ),
    };
    let steps = ladder_steps(spec);
    vec![
        ("workload", spec.name.to_string()),
        ("seed", seed.to_string()),
        ("cipher_suite", "real (AES-128-CTR + AES-CMAC)".into()),
        ("flush_policy", "TieredOptions default: no fsync before ack, 8 MiB segments, checkpoint every 4096 mutations".into()),
        ("shards", SHARDS.to_string()),
        ("client_threads", THREADS.to_string()),
        ("server", "default ServerConfig (reactor engine)".into()),
        ("store", shape),
        ("keys", spec.keys.to_string()),
        ("value_bytes", spec.value_len.to_string()),
        ("distribution", format!("{:?}", spec.dist)),
        ("read_ratio", spec.read_ratio.to_string()),
        ("closed_depth", spec.depth.to_string()),
        ("open_rate_ops_s", spec.open_rate.to_string()),
        (
            "ladder_ops_s",
            format!("{} steps x1.05 from {} to {:.0}", steps.len(), spec.ladder.0, steps[steps.len() - 1]),
        ),
        ("tail_limit_us", spec.tail_limit_us.to_string()),
    ]
}

fn write_record(path: &Path, fields: &[(String, String)]) {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("  {}: {v}", json_str(k))).collect();
    let doc = format!("{{\n{}\n}}\n", body.join(",\n"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn teardown(rig: Rig) {
    let Rig { store, server, .. } = rig;
    server.shutdown();
    drop(store);
}

/// Warm-up: a closed loop for half of `secs`, continued in half-second
/// slices while some shard's Secure Cache is still swapping and evicted
/// during the last slice (at most `MAX_SWAP_WARM_UP` more), so no
/// measured phase straddles the switch to stop-swap. A cache that swaps
/// without evicting (its working set fits) stays swapping for good and
/// ends the loop at once. Then the open loop at the fixed rate for the
/// other half, so the measured open loop starts from that rate's steady
/// state rather than from the backlog of maintenance work a closed loop
/// leaves behind.
fn warm_up(rig: &Rig, spec: &Spec, model: &Model, seed: u64, secs: f64) -> Tally {
    const MAX_SWAP_WARM_UP: Duration = Duration::from_secs(10);
    let addr = rig.server.local_addr();
    // Evictions so far over the shards whose cache is swapping, each
    // counted one more so that a shard leaving swap mode changes the sum.
    let swap_evictions = || -> u64 {
        rig.store.cache_stats().iter().flatten().filter(|c| c.swapping).map(|c| c.swaps + 1).sum()
    };
    let mut before = swap_evictions();
    let mut tally = closed_loop(addr, spec, model, seed, 1, secs / 2.0, 0).tally;
    let t0 = Instant::now();
    loop {
        let now = swap_evictions();
        if now == before || t0.elapsed() >= MAX_SWAP_WARM_UP {
            break;
        }
        before = now;
        tally.absorb(&closed_loop(addr, spec, model, seed, 1, 0.5, 0).tally);
    }
    println!(
        "  warm-up: {:.1} s past the first closed loop; Secure Cache swapping on {} of {SHARDS} shards",
        t0.elapsed().as_secs_f64(),
        rig.store.cache_stats().iter().flatten().filter(|c| c.swapping).count()
    );
    let cfg = OpenCfg { rate: spec.open_rate, secs: secs / 2.0, sample_every: 0 };
    tally.absorb(&open_loop(addr, spec, model, seed, 4, cfg).tally);
    tally
}

fn json_list(v: &[f64]) -> String {
    format!("[{}]", v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(", "))
}

fn pct(samples: &[f64], q: f64) -> (f64, usize) {
    let mut v = samples.to_vec();
    percentile(&mut v, q).unwrap_or((0.0, 0))
}

fn end_to_end(spec: &Spec, args: &Args, work: &Path) -> Result<Outcome, String> {
    let s = args.seconds;
    let switch = Switch::default();
    let mut setups = Vec::new();
    let rig = loop {
        let (r, secs) = setup(spec, &switch, work)?;
        setups.push(secs);
        let n = setups.len();
        if n >= MIN_SETUPS && (n >= MAX_SETUPS || setups.iter().sum::<f64>() >= SETUP_BUDGET_S) {
            break r;
        }
        teardown(r);
    };
    let model = Model::preloaded(spec.keys, spec.value_len);
    let addr = rig.server.local_addr();
    let mut all = Tally::default();

    all.absorb(&warm_up(&rig, spec, &model, args.seed, 0.10 * s));

    // The fixed-rate open loop runs first, straight after the warm-up
    // that ended at the same rate, so it measures that rate's steady
    // state. After a closed loop, `tier-churn`'s shards spend seconds
    // working off the migration and compaction debt the closed loop's
    // writes left behind, and an open loop then measures that debt.
    let mut lat: [Vec<f64>; 6] = Default::default();
    let (mut gn, mut pn, mut late) = (0, 0, Vec::new());
    for r in 0..ROUNDS as u64 {
        let cfg = OpenCfg { rate: spec.open_rate, secs: 0.25 * s / ROUNDS as f64, sample_every: 0 };
        let open = open_loop(addr, spec, &model, args.seed, 3 + r, cfg);
        all.absorb(&open.tally);
        let (get, put): (Vec<f64>, Vec<f64>) = (
            open.get_us.iter().map(|&(_, us)| us).collect(),
            open.put_us.iter().map(|&(_, us)| us).collect(),
        );
        for (i, q) in [0.5, TAIL_Q, 0.99].into_iter().enumerate() {
            lat[i].push(pct(&get, q).0);
            lat[3 + i].push(pct(&put, q).0);
        }
        gn += get.len();
        pn += put.len();
        late.extend(open.late_us);
    }
    let p0 = Proc::now();
    let closed = closed_loop(addr, spec, &model, args.seed, 3 + ROUNDS as u64, 0.45 * s, 0);
    let cpu_s = Proc::now().since(&p0).cpu_s;
    all.absorb(&closed.tally);
    let served = closed.tally.ok;
    let closed_s = closed.wall.as_secs_f64();
    println!("  open-loop GET p50 per window (us): {:?}", lat[0]);
    // Peak RSS under load, read before the ladder, whose per-request
    // samples live in this process too.
    let rss = rss_peak_mb();
    let tput = served as f64 / closed_s;
    let cpu_us = cpu_s * 1e6 / served.max(1) as f64;
    let [g50, g90, g99, p50, p90, p99] = lat.map(|v| median(&v));

    let steps = ladder_steps(spec);
    let (slo, probes) = slo_rate(addr, spec, &model, args.seed, &steps, 0.20 * s, &mut all);

    let swapping = rig.store.cache_stats().iter().flatten().filter(|c| c.swapping).count();
    println!("  before recovery: Secure Cache swapping on {swapping} of {SHARDS} shards");
    let space = rig.probes.space();
    let user_bytes = spec.keys as f64 * (16 + spec.value_len) as f64;
    let (recoveries, wrong_at_end, first) =
        recover(spec, rig, &model, MIN_RECOVERIES, SETUP_BUDGET_S)?;
    all.first_wrong.extend(first);

    let mut m = Metrics::default();
    m.add("setup_s", "s", median(&setups), setups.len());
    m.add("tput_ops_s", "ops/s", tput, served as usize);
    m.add("cpu_us_per_op", "us", cpu_us, served as usize);
    m.add("get_p50_us", "us", g50, gn);
    m.add("put_p50_us", "us", p50, pn);
    let attempted = all.attempted.max(1) as f64;
    m.add("ok_ratio", "ratio", all.ok as f64 / attempted, all.attempted as usize);
    m.add("rss_peak_mb", "MiB", rss, 0);
    m.add("space_bytes_per_user_byte", "ratio", space.total() as f64 / user_bytes, 0);
    m.add("recovery_s", "s", median(&recoveries), recoveries.len());

    println!(
        "  fail_ratio {:.6} ({} failed of {} attempted, all phases)",
        all.failed as f64 / attempted,
        all.failed,
        all.attempted
    );
    println!(
        "  open loop at {} ops/s: {gn} GETs (p90 {g90:.0} us, p99 {g99:.0} us), \
         {pn} PUTs (p90 {p90:.0} us, p99 {p99:.0} us), generator late p99 {:.1} us",
        spec.open_rate,
        pct(&late, 0.99).0
    );
    println!(
        "  slo_rate_ops_s {slo:.0} ops/s (p90 within {} us; unbounded report, see README)",
        spec.tail_limit_us
    );
    for p in &probes {
        println!(
            "  ladder {:>9.0} ops/s: {} p90 {:.0} us over {} requests, backlog {:?}",
            p.rate,
            if p.pass { "meets SLO" } else { "misses SLO" },
            p.tail_us,
            p.samples,
            p.backlog
        );
    }
    let ladder_json: Vec<String> = probes
        .iter()
        .map(|p| {
            format!(
                "{{\"rate\": {}, \"pass\": {}, \"p90_us\": {}, \"samples\": {}, \"backlog\": {:?}}}",
                json_num(p.rate),
                p.pass,
                json_num(p.tail_us),
                p.samples,
                p.backlog
            )
        })
        .collect();
    let record = vec![
        ("setups_s".into(), json_list(&setups)),
        ("recoveries_s".into(), json_list(&recoveries)),
        ("ladder".into(), format!("[{}]", ladder_json.join(", "))),
        ("fail_ratio".into(), json_num(all.failed as f64 / attempted)),
        ("slo_rate_ops_s".into(), json_num(slo)),
    ];
    Ok(Outcome { tally: all, wrong_at_end, metrics: m, record })
}

/// Totals over the traced closed-loop slices.
#[derive(Default)]
struct Slices {
    wall_s: f64,
    tally: Tally,
    tele: Vec<aria_telemetry::TelemetrySnapshot>,
    enclave: aria_sim::EnclaveSnapshot,
    ctx_switches: u64,
    wchar: u64,
    cpu_s: f64,
}

impl Slices {
    fn add(&mut self, a: &Mark, b: &Mark, tally: &Tally, wall: Duration) {
        self.wall_s += wall.as_secs_f64();
        self.tally.absorb(tally);
        self.tele.push(b.tele.delta(&a.tele));
        let (x, y) = (&a.enclave, &b.enclave);
        self.enclave.cycles += y.cycles.saturating_sub(x.cycles);
        self.enclave.macs_computed += y.macs_computed.saturating_sub(x.macs_computed);
        self.enclave.page_faults += y.page_faults.saturating_sub(x.page_faults);
        let p = b.proc.since(&a.proc);
        self.ctx_switches += p.ctx_switches;
        self.wchar += p.wchar;
        self.cpu_s += p.cpu_s;
    }

    fn shards(&self) -> aria_telemetry::ShardSnapshot {
        let mut agg = aria_telemetry::ShardSnapshot::default();
        for t in &self.tele {
            agg.merge(&t.aggregate());
        }
        agg
    }

    fn net(&self, f: impl Fn(&aria_telemetry::NetSnapshot) -> u64) -> u64 {
        self.tele.iter().map(|t| f(&t.net)).sum()
    }
}

fn hist_pct(h: &HistSnapshot, q: f64) -> f64 {
    h.percentile(q) as f64
}

fn traced(spec: &Spec, args: &Args, work: &Path) -> Result<Outcome, String> {
    let s = args.seconds;
    let switch = Switch::default();
    let (rig, _) = setup(spec, &switch, work)?;
    let model = Model::preloaded(spec.keys, spec.value_len);
    let addr = rig.server.local_addr();
    let mut all = Tally::default();
    all.absorb(&warm_up(&rig, spec, &model, args.seed, 0.10 * s));

    // Traced open loop at the fixed rate: generator-chosen trace ids.
    let cfg = OpenCfg { rate: spec.open_rate, secs: 0.24 * s, sample_every: OPEN_TRACE_EVERY };
    let open = open_loop(addr, spec, &model, args.seed, 20, cfg);
    all.absorb(&open.tally);

    // Pairs of untraced and traced closed-loop slices, the order
    // alternating between pairs, so drift in the store's state (cache
    // fill, hot-set churn) and in the host hits both sides alike. The
    // overhead is the median per-pair ratio of CPU time per op
    // (untraced / traced): the throughput ratio a CPU-bound closed loop
    // sees, without the multi-hundred-millisecond maintenance stalls
    // that decide the raw throughput of a one-second slice.
    let slice = 0.54 * s / (2 * TRACE_PAIRS) as f64;
    let (mut pair_cpu, mut pair_tput) = ([0f64; 2], [0f64; 2]);
    let (mut ratios, mut tput_ratios) = (Vec::new(), Vec::new());
    let mut sl = Slices::default();
    let mut closed_spans: Vec<Span> = Vec::new();
    for k in 0..(2 * TRACE_PAIRS) as u64 {
        let on = (k % 2 == 1) != ((k / 2) % 2 == 1);
        let sample = if on { CLOSED_TRACE_SAMPLE } else { 0 };
        switch.set(on);
        let a = Mark::take(&rig);
        let c = closed_loop(addr, spec, &model, args.seed, 10 + k, slice, sample);
        switch.set(false);
        let b = Mark::take(&rig);
        all.absorb(&c.tally);
        let ops = c.tally.ok.max(1) as f64;
        pair_cpu[usize::from(on)] = b.proc.since(&a.proc).cpu_s / ops;
        pair_tput[usize::from(on)] = ops / c.wall.as_secs_f64();
        if k % 2 == 1 {
            ratios.push(pair_cpu[0] / pair_cpu[1].max(1e-12));
            tput_ratios.push(pair_tput[1] / pair_tput[0].max(1e-9));
        }
        if on {
            sl.add(&a, &b, &c.tally, c.wall);
            closed_spans.extend(c.spans);
        }
    }
    let shards = &rig.probes.shards;
    let outer: Vec<LayerData> = shards.iter().map(|p| p.outer.take()).collect();
    let inner: Vec<LayerData> =
        shards.iter().map(|p| p.inner.as_ref().map(|i| i.take()).unwrap_or_default()).collect();
    let crypto = shards.iter().fold(CryptoCounts::default(), |c, p| c.plus(p.crypto.take()));
    let cache_now = rig.store.cache_stats();
    let space = rig.probes.space();

    let codec_ns = codec_ns_per_op(spec, args.seed, &sl.tally);
    let (recoveries, wrong_at_end, first) = recover(spec, rig, &model, 1, 0.0)?;
    all.first_wrong.extend(first);
    let recovery_s = recoveries[0];

    let tiered = matches!(spec.shape, Shape::Tiered { .. });
    let ops = sl.tally.ok.max(1) as f64;
    let wall = sl.wall_s.max(1e-9);
    let agg = sl.shards();
    let mut m = Metrics::default();

    // --- net: spans of the traced open loop, joined by trace id with
    // the generator's own send/receive stamps.
    let sent: HashMap<u64, (u64, u64)> =
        open.traced.iter().map(|&(id, s, r)| (id, (s, r))).collect();
    let data_spans: Vec<&Span> = open
        .spans
        .iter()
        .filter(|sp| sent.contains_key(&sp.trace_id) && sp.stages[stage::FLUSH] != 0)
        .collect();
    let us = |f: &dyn Fn(&Span) -> u64| -> Vec<f64> {
        data_spans.iter().map(|sp| f(sp) as f64 / 1e3).collect()
    };
    let server = us(&|sp| sp.stage_delta(stage::DECODE, stage::FLUSH));
    let outside: Vec<f64> = data_spans
        .iter()
        .map(|sp| {
            let (snd, rcv) = sent[&sp.trace_id];
            (rcv.saturating_sub(snd) as f64 - sp.stage_delta(stage::DECODE, stage::FLUSH) as f64)
                / 1e3
        })
        .collect();
    let (v, n) = pct(&server, 0.5);
    m.add("net.server_p50_us", "us", v, n);
    let (v, n) = pct(&us(&|sp| sp.stage_delta(stage::DECODE, stage::ADMIT)), 0.5);
    m.add("net.decode_admit_p50_us", "us", v, n);
    let qw = us(&|sp| sp.stage_delta(stage::ENQUEUE, stage::DEQUEUE));
    let (v, n) = pct(&qw, 0.5);
    m.add("net.queue_wait_p50_us", "us", v, n);
    let (v, n) = pct(&qw, 0.99);
    m.add("net.queue_wait_p99_us", "us", v, n);
    let (v, n) = pct(&us(&|sp| sp.stage_delta(stage::EXEC_END, stage::ENCODE)), 0.5);
    m.add("net.tick_barrier_p50_us", "us", v, n);
    let (v, n) = pct(&us(&|sp| sp.stage_delta(stage::ENCODE, stage::FLUSH)), 0.5);
    m.add("net.flush_p50_us", "us", v, n);
    let (v, n) = pct(&outside, 0.5);
    m.add("net.outside_server_p50_us", "us", v, n);
    m.add("net.ctx_switches_per_op", "count", sl.ctx_switches as f64 / ops, 0);
    let submissions = sl.net(|n| n.reactor_submissions).max(1) as f64;
    m.add("net.ops_per_submission", "count", sl.net(|n| n.reactor_ops) as f64 / submissions, 0);
    m.add("net.codec_ns_per_op", "ns", codec_ns, 0);

    // --- sharded: outer layer busy time and op counts per shard.
    let busy: Vec<f64> = outer
        .iter()
        .map(|d| (d.data_ns + d.other_ns + d.passes.iter().map(|p| p.ns).sum::<u64>()) as f64)
        .collect();
    let busy_total: f64 = busy.iter().sum();
    m.add(
        "sharded.exec_busy_max",
        "ratio",
        busy.iter().fold(0.0, |a: f64, b| a.max(*b)) / 1e9 / wall,
        0,
    );
    let shard_ops: Vec<f64> = outer.iter().map(|d| d.ops as f64).collect();
    let mean_ops = shard_ops.iter().sum::<f64>() / SHARDS as f64;
    m.add(
        "sharded.imbalance",
        "ratio",
        shard_ops.iter().fold(0.0, |a: f64, b| a.max(*b)) / mean_ops.max(1.0),
        0,
    );
    m.add(
        "sharded.batch_ops_p50",
        "count",
        hist_pct(&agg.store.batch_size, 0.5),
        agg.store.batch_size.count() as usize,
    );
    let shed = agg.store.admission_shed
        + sl.net(|n| n.ops_shed_deadline)
        + sl.net(|n| n.ops_shed_overload);
    m.add("sharded.shed_ratio", "ratio", shed as f64 / sl.tally.attempted.max(1) as f64, 0);

    // --- store: the layer directly around each AriaHash.
    let aria: Vec<&LayerData> =
        if tiered { inner.iter().collect() } else { outer.iter().collect() };
    let cat = |f: &dyn Fn(&LayerData) -> &Vec<u64>| -> Vec<f64> {
        aria.iter().flat_map(|d| f(d).iter().map(|&v| v as f64)).collect()
    };
    let get_ns = cat(&|d| &d.get_ns);
    let put_ns = cat(&|d| &d.put_ns);
    let aria_ops: u64 = aria.iter().map(|d| d.ops).sum();
    let aria_busy: u64 = aria.iter().map(|d| d.data_ns + d.other_ns).sum();
    let crypto_ns = crypto.crypt_ns + crypto.mac_ns;
    let (v, n) = pct(&get_ns, 0.5);
    m.add("store.get_ns_p50", "ns", v, n);
    let (v, n) = pct(&get_ns, 0.99);
    m.add("store.get_ns_p99", "ns", v, n);
    let (v, n) = pct(&put_ns, 0.5);
    m.add("store.put_ns_p50", "ns", v, n);
    let (v, n) = pct(&put_ns, 0.99);
    m.add("store.put_ns_p99", "ns", v, n);
    m.add(
        "store.self_ns_per_op",
        "ns",
        aria_busy.saturating_sub(crypto_ns) as f64 / aria_ops.max(1) as f64,
        0,
    );
    m.add(
        "store.index_probes_per_op",
        "count",
        agg.store.index_probes as f64 / aria_ops.max(1) as f64,
        0,
    );

    // --- crypto.
    m.add("crypto.crypt_ns_per_op", "ns", crypto.crypt_ns as f64 / ops, 0);
    m.add("crypto.crypt_bytes_per_op", "B", crypto.crypt_bytes as f64 / ops, 0);
    m.add("crypto.mac_ns_per_op", "ns", crypto.mac_ns as f64 / ops, 0);
    m.add("crypto.mac_calls_per_op", "count", crypto.mac_calls as f64 / ops, 0);
    m.add("crypto.mac_bytes_per_op", "B", crypto.mac_bytes as f64 / ops, 0);
    let crypto_share = crypto_ns as f64 / busy_total.max(1.0);
    m.add("crypto.share_of_exec", "ratio", crypto_share, 0);

    // --- cache and merkle.
    let lookups = (agg.cache.hits + agg.cache.misses).max(1) as f64;
    let hit_ratio = agg.cache.hits as f64 / lookups;
    m.add("cache.hit_ratio", "ratio", hit_ratio, 0);
    m.add("cache.evictions_per_op", "count", agg.cache.evictions as f64 / ops, 0);
    m.add("cache.writebacks_per_op", "count", agg.cache.writebacks as f64 / ops, 0);
    let swapping = cache_now.iter().flatten().filter(|c| c.swapping).count() as f64;
    m.add("cache.swapping", "ratio", swapping / SHARDS as f64, 0);
    m.add("merkle.hash_ops_per_op", "count", agg.merkle.hash_ops as f64 / ops, 0);
    m.add(
        "merkle.verify_depth_mean",
        "count",
        agg.cache.verify_depth.mean(),
        agg.cache.verify_depth.count() as usize,
    );

    // --- mem.
    m.add("mem.allocs_per_op", "count", agg.mem.allocs as f64 / ops, 0);
    m.add("mem.heap_bytes_per_key", "B", space.heap as f64 / spec.keys as f64, 0);

    // --- tiered and log (zero where the layer does not run).
    let cold = &agg.store.cold_read_latency;
    let gets = sl.tally.gets.max(1) as f64;
    let passes: Vec<f64> =
        outer.iter().flat_map(|d| d.passes.iter().map(|p| p.ns as f64 / 1e6)).collect();
    let report_sum = |f: &dyn Fn(&aria_store::MaintenanceReport) -> u64| -> f64 {
        outer.iter().flat_map(|d| d.passes.iter().map(|p| f(&p.report))).sum::<u64>() as f64
    };
    let hot_in_data: u64 = inner
        .iter()
        .map(|d| (d.data_ns + d.other_ns).saturating_sub(d.nested_maintain_ns))
        .sum::<u64>()
        .saturating_sub(outer.iter().map(|d| d.nested_maintain_ns).sum::<u64>());
    let outer_data: u64 = outer.iter().map(|d| d.data_ns).sum();
    let maintain_busy = outer
        .iter()
        .map(|d| d.passes.iter().map(|p| p.ns).sum::<u64>() as f64 / 1e9 / wall)
        .fold(0.0, f64::max);
    let user_bytes = spec.keys as f64 * (16 + spec.value_len) as f64;
    let puts = sl.tally.puts.max(1) as f64;
    let t = |v: f64| if tiered { v } else { 0.0 };
    m.add("tiered.hot_hit_ratio", "ratio", t(1.0 - cold.count() as f64 / gets), 0);
    m.add("tiered.cold_read_p50_us", "us", hist_pct(cold, 0.5) / 1e3, cold.count() as usize);
    m.add("tiered.cold_read_p99_us", "us", hist_pct(cold, 0.99) / 1e3, cold.count() as usize);
    m.add("tiered.hot_ns_per_op", "ns", t(hot_in_data as f64 / ops), 0);
    m.add("tiered.self_ns_per_op", "ns", t(outer_data.saturating_sub(hot_in_data) as f64 / ops), 0);
    m.add("tiered.maintain_busy", "ratio", t(maintain_busy), 0);
    let (v, n) = pct(&passes, 0.5);
    m.add("tiered.maintain_ms_p50", "ms", v, n);
    let (v, n) = pct(&passes, 1.0);
    m.add("tiered.maintain_ms_max", "ms", v, n);
    m.add("tiered.migrated_per_op", "count", report_sum(&|r| r.migrated) / ops, 0);
    m.add("tiered.rewritten_per_op", "count", report_sum(&|r| r.records_rewritten) / ops, 0);
    m.add(
        "tiered.checkpoints_per_kop",
        "count",
        report_sum(&|r| u64::from(r.checkpointed)) * 1e3 / ops,
        0,
    );
    m.add("log.bytes_per_user_byte", "ratio", space.log as f64 / user_bytes, 0);
    m.add("log.write_bytes_per_put", "B", t(sl.wchar as f64 / puts), 0);

    // --- sim: the cost model's charges for the same ops.
    let ghz = aria_sim::CostModel::default().clock_ghz;
    let model_ns = sl.enclave.cycles as f64 / ghz;
    m.add("sim.cycles_per_op", "count", sl.enclave.cycles as f64 / ops, 0);
    m.add("sim.macs_per_op", "count", sl.enclave.macs_computed as f64 / ops, 0);
    m.add("sim.page_faults_per_op", "count", sl.enclave.page_faults as f64 / ops, 0);
    m.add("sim.wall_over_model", "ratio", busy_total / model_ns.max(1.0), 0);

    // --- harness validity.
    let (v, n) = pct(&open.late_us, 0.99);
    m.add("loadgen.late_p99_us", "us", v, n);
    // Tails of the fixed-rate open loop: reports, not bounded (see
    // `TAIL_Q`).
    let open_secs = cfg.secs;
    let win = |v: &[(f64, f64)], q| windowed(v, open_secs, WINDOWS, q).unwrap_or((0.0, 0));
    let (v, n) = win(&open.get_us, TAIL_Q);
    m.add("open.get_p90_us", "us", v, n);
    let (v, n) = win(&open.get_us, 0.99);
    m.add("open.get_p99_us", "us", v, n);
    let (v, n) = win(&open.put_us, TAIL_Q);
    m.add("open.put_p90_us", "us", v, n);
    let (v, n) = win(&open.put_us, 0.99);
    m.add("open.put_p99_us", "us", v, n);
    m.add("proc.cpu_util", "ratio", sl.cpu_s / (wall * nproc() as f64), 0);
    m.add("trace.overhead_ratio", "ratio", median(&ratios), ratios.len());

    // Purpose lines: reports, not gates.
    let open_get: Vec<f64> = open.get_us.iter().map(|&(_, us)| us).collect();
    let (get_p50_us, _) = pct(&open_get, 0.5);
    let (store_get_ns, _) = pct(&get_ns, 0.5);
    println!("purpose:");
    match spec.name {
        "wire-hot" => println!(
            "  wire-hot: store exec {:.2} us = {:.1} % of the open-loop GET p50 {:.1} us",
            store_get_ns / 1e3,
            100.0 * store_get_ns / 1e3 / get_p50_us.max(1e-9),
            get_p50_us
        ),
        "verify-uniform" => println!(
            "  verify-uniform: Secure Cache hit ratio {:.3}, crypto {:.1} % of shard exec",
            hit_ratio,
            100.0 * crypto_share
        ),
        _ => println!(
            "  tier-churn: {} cold reads over {} GETs (hot hit ratio {:.3}), {} migrated, {} checkpoints, {} maintenance passes",
            cold.count(),
            sl.tally.gets,
            1.0 - cold.count() as f64 / gets,
            report_sum(&|r| r.migrated),
            report_sum(&|r| u64::from(r.checkpointed)),
            passes.len()
        ),
    }
    println!(
        "  traced slices {:.2} s, {} ops; {} open-loop spans joined; recovery {:.3} s; \
         traced/untraced throughput, median of pairs {:.3}",
        wall,
        sl.tally.ok,
        data_spans.len(),
        recovery_s,
        median(&tput_ratios)
    );

    let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-s{}-spans.jsonl", spec.name, args.seed));
    write_spans(&spans_path, &open.spans, &closed_spans);
    let record = vec![(
        "spans_file".into(),
        json_str(&spans_path.file_name().map_or(String::new(), |f| f.to_string_lossy().into())),
    )];
    Ok(Outcome { tally: all, wrong_at_end, metrics: m, record })
}

/// Replay the traced slices' GET/PUT mix through the versioned wire
/// codec: encode and decode each request and its response. Median of
/// five passes over the same requests, nanoseconds per op.
fn codec_ns_per_op(spec: &Spec, seed: u64, mix: &Tally) -> f64 {
    const N: usize = 20_000;
    let version = proto::PROTOCOL_VERSION;
    let read_share = mix.gets as f64 / (mix.gets + mix.puts).max(1) as f64;
    let mut gen = OpGen::new(spec, seed, 0, 99);
    let mut pairs = Vec::with_capacity(N);
    for _ in 0..N {
        let id = match gen.next_op() {
            Op::Get(id) | Op::Put(id) => id,
        };
        let v = value(id, 2, spec.value_len);
        pairs.push(if gen.rng().next_f64() < read_share {
            (Request::Get { key: key(id) }, Response::Value(Some(v)))
        } else {
            (Request::Put { key: key(id), value: v }, Response::PutOk)
        });
    }
    let trace = TraceContext::NONE;
    let mut passes = Vec::new();
    let mut buf = Vec::with_capacity(1 << 20);
    for _ in 0..5 {
        let t0 = Instant::now();
        for (i, (req, resp)) in pairs.iter().enumerate() {
            buf.clear();
            proto::encode_request_traced(&mut buf, i as u64, req, 0, trace, version)
                .expect("request fits a frame");
            let decoded = proto::decode_request_ref_versioned(&buf, version);
            assert!(matches!(decoded, Ok(Decoded::Frame(..))), "request round trip");
            buf.clear();
            proto::encode_response_versioned(&mut buf, i as u64, resp, version)
                .expect("response fits a frame");
            let decoded = proto::decode_response_versioned(&buf, version);
            assert!(matches!(decoded, Ok(Decoded::Frame(..))), "response round trip");
        }
        passes.push(t0.elapsed().as_nanos() as f64 / N as f64);
    }
    median(&passes)
}

/// Spans go to the traced run's own file, never into the result line.
fn write_spans(path: &PathBuf, open: &[Span], closed: &[Span]) {
    const CAP: usize = 5_000;
    let mut doc = String::new();
    for (phase, spans) in [("open", open), ("closed", closed)] {
        for sp in spans.iter().take(CAP) {
            let stages: Vec<String> = sp.stages.iter().map(|s| s.to_string()).collect();
            doc.push_str(&format!(
                "{{\"phase\": \"{phase}\", \"trace_id\": {}, \"shard\": {}, \"kind\": {}, \"outcome\": {}, \"ops\": {}, \"stages_ns\": [{}], \"verify_depth\": {}, \"cold_reads\": {}}}\n",
                sp.trace_id,
                sp.shard,
                sp.kind,
                sp.outcome,
                sp.ops,
                stages.join(", "),
                sp.verify_depth,
                sp.cold_reads
            ));
        }
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
