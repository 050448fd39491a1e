//! Summary statistics, correctness bookkeeping and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail quantile a sample of `n` supports: 0.99 once `n ≥ 1000`,
/// otherwise the highest quantile with at least ten samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a 64 digest of a byte string, for printing report digests.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Correctness bookkeeping: every checked operation counts as
/// attempted; a failed check is printed and counted.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failing it (with `what` on stderr) unless
    /// `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Prints one `name value unit` line per metric to stderr, then the
/// result object as the last line of stdout.
pub fn emit(metrics: &[(&str, f64, &str)], checks: &Checks) {
    let mut json = String::new();
    write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    )
    .expect("write to string");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        eprintln!("  {name:<36} {value:>18.6} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    json.push_str("}}");
    println!("{json}");
}
