//! The raw record one workload run emits: samples, counts and facts,
//! as one JSON object on standard output. Reducing samples
//! to medians, percentiles and rates is `run.py`'s job, so the numbers
//! and their rendering stay separate.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything one workload run measured.
#[derive(Default)]
pub struct Record {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Untraced time to verdict per operation, in milliseconds.
    pub verdict_ms: Vec<f64>,
    /// Checks decided by the untraced operations.
    pub checks: u64,
    /// Wall-clock seconds of the untraced closed loop.
    pub loop_s: f64,
    /// Operations attempted / failed (error, refusal or panic) /
    /// answered with a verdict or report that differs from the known one.
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The first few failure and mismatch messages.
    pub errors: Vec<String>,
    /// VmHWM of the verifying process, in kB.
    pub peak_rss_kb: u64,
    /// Traced time to verdict per operation (trace runs only).
    pub traced_verdict_ms: Vec<f64>,
    /// Per-layer samples, one per traced operation (trace runs only).
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Workload facts worth keeping beside the numbers.
    pub facts: Vec<(&'static str, Value)>,
}

impl Record {
    /// Count an operation that failed outright.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    /// Count an operation whose answer differs from the known answer.
    pub fn mismatch(&mut self, msg: String) {
        self.wrong += 1;
        self.note(msg);
    }

    fn note(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Add one per-layer sample.
    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.entry(name).or_default().push(v);
    }

    /// `obs.trace_overhead_pct`: the traced against the untraced median
    /// time to verdict of the same operations.
    pub fn trace_overhead(&mut self, untraced: &[f64]) {
        if !untraced.is_empty() && !self.traced_verdict_ms.is_empty() {
            let (t, u) = (median(&self.traced_verdict_ms), median(untraced));
            self.layer("obs.trace_overhead_pct", (t - u) / u * 100.0);
        }
    }

    pub fn fact(&mut self, name: &'static str, v: Value) {
        self.facts.push((name, v));
    }

    pub fn to_value(&self) -> Value {
        let nums = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        let fields = vec![
            ("setup_s".to_string(), nums(&self.setup_s)),
            ("verdict_ms".to_string(), nums(&self.verdict_ms)),
            ("checks".to_string(), Value::UInt(self.checks)),
            ("loop_s".to_string(), Value::Float(self.loop_s)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("wrong".to_string(), Value::UInt(self.wrong)),
            (
                "errors".to_string(),
                Value::Array(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            ("peak_rss_kb".to_string(), Value::UInt(self.peak_rss_kb)),
            (
                "traced_verdict_ms".to_string(),
                nums(&self.traced_verdict_ms),
            ),
            (
                "layers".to_string(),
                Value::Object(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.to_string(), nums(v)))
                        .collect(),
                ),
            ),
            (
                "facts".to_string(),
                Value::Object(
                    self.facts
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
        ];
        Value::Object(fields)
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f` and return its result with its duration in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// splitmix64: the benchmark's only randomness, a pure function of the
/// workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set (VmHWM, kB) of another process, like
/// `obs::peak_rss_kb` for this one; 0 when unreadable.
pub fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The obs counters of one traced operation: install a fresh registry,
/// run `f`, and read the counters back.
pub fn with_registry<T>(f: impl FnOnce() -> T) -> (T, obs::MetricsSnapshot) {
    let reg = obs::install();
    let out = f();
    obs::uninstall();
    (out, reg.snapshot())
}
