//! Small numeric and process helpers: quantiles, seed derivation, and
//! the `/proc` readings the end-to-end metrics use.

use std::fmt::Write as _;

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Time calls of `f` in batches of at least 100 µs, so a set-up far
/// shorter than a clock read is still resolved, for at least 20 ms and
/// five batches; push the time per call of each batch onto `samples`
/// and return the last result.
pub fn time_setup<T>(samples: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let t0 = std::time::Instant::now();
    let mut built = vec![f()];
    let once = t0.elapsed().as_secs_f64();
    let batch = (100e-6 / once.max(1e-9)).ceil().max(1.0) as usize;
    let start = std::time::Instant::now();
    let mut taken = 0;
    while taken < 5 || start.elapsed().as_millis() < 20 {
        // The previous batch is torn down before the clock starts.
        built.clear();
        built.reserve(batch);
        let t0 = std::time::Instant::now();
        for _ in 0..batch {
            built.push(f());
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
        taken += 1;
    }
    built.pop().expect("a batch is never empty")
}

/// The rate of a run read off its samples: the fastest. On a shared
/// host noise only slows a sample down, and the host alternates between
/// spells up to 1.8x apart that last from a second to a minute, longer
/// than some runs. The median or a low quantile follows how a run's
/// samples fall across those spells; the fastest sample approaches the
/// uncontended speed, which moves with the program's own cost.
pub fn best_rate(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// The set-up figure of a run, read like the rate: the time per call of
/// its fastest batch.
pub fn setup_figure(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The reference's best time on the host these figures are scaled to,
/// a 2-vCPU Xeon VM.
const REFERENCE_S: f64 = 0.009;

/// The host's speed over a run, measured by a fixed reference kernel
/// run between samples of the workload.
///
/// Some runs spend every sample in one of the host's slow spells, and
/// then not even their fastest sample reaches the uncontended speed. The
/// reference slows down with the workloads in those spells (to ~0.55x,
/// as the checker does, and the simulator to ~0.6x), so a run's fastest
/// sample scaled by the run's fastest reference is steadier than either.
/// The kernel is the benchmark's own and uses only the standard library,
/// so no change to the program moves it, and it runs in a child process
/// (`perfbench reference`), so it adds nothing to the workload's memory.
pub struct HostSpeed {
    best: f64,
    last: Option<std::time::Instant>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            best: f64::INFINITY,
            last: None,
        }
    }

    /// Time the reference, unless it ran less than 0.25 s ago.
    pub fn sample(&mut self) {
        if self.last.is_some_and(|t| t.elapsed().as_secs_f64() < 0.25) {
            return;
        }
        let out = std::env::current_exe()
            .and_then(|exe| std::process::Command::new(exe).arg("reference").output());
        let secs = out
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok());
        if let Some(secs) = secs {
            self.best = self.best.min(secs);
        }
        self.last = Some(std::time::Instant::now());
    }

    /// How many times slower than the reference host this run's host
    /// was at its fastest: multiply a rate by it, divide a time by it.
    /// `None` when the reference never ran.
    pub fn factor(&mut self) -> Option<f64> {
        if self.last.is_none() {
            self.sample();
        }
        self.best.is_finite().then(|| self.best / REFERENCE_S)
    }
}

/// The best of three runs of the reference kernel, in seconds; the body
/// of `perfbench reference`.
pub fn reference() -> f64 {
    (0..3).map(|_| reference_once()).fold(f64::INFINITY, f64::min)
}

/// One run of the reference kernel: interning 60,000 pseudo-random
/// 96-byte keys, a quarter of them repeats, into a deterministically
/// hashed map, the way a checker's state store does.
fn reference_once() -> f64 {
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, DefaultHasher};
    const KEYS: u64 = 60_000;
    let t0 = std::time::Instant::now();
    let mut map: HashMap<Box<[u8]>, u32, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut acc = 0u64;
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut y = x % (KEYS * 3 / 4);
        let mut key = Vec::with_capacity(96);
        for _ in 0..12 {
            y = y.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            key.extend_from_slice(&y.to_le_bytes());
        }
        let next = map.len() as u32;
        let id = *map.entry(key.into_boxed_slice()).or_insert(next);
        acc = acc.wrapping_add(u64::from(id) ^ i);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this thread has run, in ns (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// The machine-readable result of one workload run: metrics, operation
/// counts, failed checks and report lines, printed as one JSON line.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that broke a failure rule.
    pub failed: u64,
    /// Output checks that did not hold (empty when correct).
    pub errors: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a failed output check.
    pub fn error(&mut self, e: String) {
        self.errors.push(e);
    }

    /// The JSON line.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":{},\"attempted\":{},\"failed\":{},\"errors\":[",
            quote(workload),
            self.attempted,
            self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            let _ = write!(s, "{}{}", if i > 0 { "," } else { "" }, quote(e));
        }
        s.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            let _ = write!(s, "{}{}", if i > 0 { "," } else { "" }, quote(n));
        }
        s.push_str("],\"metrics\":{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{}{}:{{\"value\":{:?},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                quote(name),
                v,
                quote(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

fn quote(s: &str) -> String {
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
