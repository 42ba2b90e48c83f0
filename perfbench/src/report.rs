//! Statistics, process counters, the host fingerprint, and the result
//! printer.

use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (sorted in place), with the
/// sample count it rests on. `None` when there are no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((samples[rank - 1], n))
}

/// Percentile `q` of each of `windows` equal sub-windows of a
/// `secs`-long phase (samples are `(offset seconds, value)`), then the
/// median of those per-window values, with the total sample count.
pub fn windowed(samples: &[(f64, f64)], secs: f64, windows: usize, q: f64) -> Option<(f64, usize)> {
    let mut buckets = vec![Vec::new(); windows];
    for &(at, v) in samples {
        let w = ((at / secs * windows as f64) as usize).min(windows - 1);
        buckets[w].push(v);
    }
    let per: Vec<f64> =
        buckets.iter_mut().filter_map(|b| percentile(b, q).map(|(v, _)| v)).collect();
    (!per.is_empty()).then(|| (median(&per), samples.len()))
}

/// Median of a few values (the middle one, or the mean of the two
/// middle ones).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process-wide counters: `getrusage(RUSAGE_SELF)` (which keeps the
/// totals of threads that already exited) and `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Proc {
    /// Bytes passed to write-family syscalls (`wchar`; socket `send`
    /// is not among them).
    pub wchar: u64,
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Proc {
    /// Read the current counters (zeroes where a source is unreadable).
    pub fn now() -> Proc {
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let wchar =
            io.lines().find_map(|l| l.strip_prefix("wchar:")?.trim().parse().ok()).unwrap_or(0);
        let (cpu_s, ctx_switches) = rusage::self_usage();
        Proc { wchar, cpu_s, ctx_switches }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Proc) -> Proc {
        Proc {
            wchar: self.wchar.saturating_sub(earlier.wchar),
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

mod rusage {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }

    const RUSAGE_SELF: i32 = 0;
    /// Indexes of `ru_nvcsw` and `ru_nivcsw` among the fourteen longs.
    const NVCSW: usize = 12;
    const NIVCSW: usize = 13;

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    /// (CPU seconds, context switches) of the whole process.
    pub fn self_usage() -> (f64, u64) {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `repr(C)` value laid out as
        // the kernel's `struct rusage` on 64-bit Linux.
        if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
            return (0.0, 0);
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        let switches = ru.longs[NVCSW] + ru.longs[NIVCSW];
        (secs(&ru.utime) + secs(&ru.stime), switches.max(0) as u64)
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`: (steal,
/// all). Steal is time the hypervisor gave this VM's CPUs to someone
/// else while they had work; a run with much of it is slow for reasons
/// outside the program.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host and build facts every result records.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let aes = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .is_some_and(|l| l.split_whitespace().any(|f| f == "aes"));
    // The checkout is the benchmark directory's parent; git must not
    // look above it for a repository.
    let checkout = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rev = std::process::Command::new("git")
        .arg("-C")
        .arg(&checkout)
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", checkout.join(".."))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("rev", rev),
        ("nproc", nproc().to_string()),
        ("cpu_model", model),
        ("cpu_aes_flag", aes.to_string()),
    ]
}

/// Quote a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number for JSON (non-finite values print as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One named metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value rests on (0 when it is a ratio of totals).
    pub samples: usize,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record a metric.
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.0.push(Metric { name, unit, value, samples });
    }

    /// Print one line per metric.
    pub fn print(&self) {
        for m in &self.0 {
            if m.samples > 0 {
                println!("  {:<28} {:>14.4} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
            } else {
                println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The metrics with their sample counts, for the side record.
    pub fn json_with_samples(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_their_count() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some((50.0, 100)));
        assert_eq!(percentile(&mut v, 0.99), Some((99.0, 100)));
        assert_eq!(percentile(&mut v, 1.0), Some((100.0, 100)));
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 0.99), Some((7.0, 1)));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
