//! What every workload shares: input scale, the op sample, the workload
//! interface the runners drive, and small statistics helpers.

use parallex::introspect::Trace;
use parallex::runtime::Runtime;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How large a workload's generated inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size (sized for a 2-CPU host).
    Full,
    /// Small enough that one op's runtime trace fits the tracer's
    /// per-lane ring without dropping events.
    Traced,
    /// Smoke-test size: every op takes milliseconds.
    Tiny,
}

/// One completed operation: `units` of work (halo steps, parcels,
/// lattice updates, tree nodes) done in `secs` of wall time.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub units: f64,
    pub secs: f64,
}

impl Sample {
    pub fn rate(&self) -> f64 {
        self.units / self.secs.max(1e-12)
    }
}

/// An op slower than this counts as failed (a hang is caught by the
/// process watchdog instead).
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A benchmark workload: seeded inputs, a set-up the benchmark times,
/// and one or more variants of a checked operation.
pub trait Workload: Sized {
    /// Everything generated from the seed, plus the reference answer.
    type Inputs;
    const NAME: &'static str;
    /// Variant names, e.g. the transports an op runs on.
    const VARIANTS: &'static [&'static str];
    /// Variants that enter `units_per_s`; the rest are only reported.
    const COUNTED: &'static [usize];

    fn inputs(seed: u64, scale: Scale) -> Self::Inputs;
    /// Build the runtime state an op needs (timed as `setup_s`).
    fn setup(inp: &Self::Inputs) -> Self;
    /// Run one op of variant `v` and check its output against the
    /// reference: `Err` carries why the answer was wrong.
    fn op(&mut self, inp: &Self::Inputs, v: usize) -> Result<Sample, String>;
    /// The per-variant metric a user reads: `(name, unit, value)` from
    /// the variant's median rate in units per second.
    fn variant_metric(v: usize, rate: f64) -> (String, &'static str, f64);
    /// Turn on the runtime tracer of the runtime(s) variant `v` uses.
    fn trace_start(&self, v: usize);
    /// Stop it and return the `(locality, trace)` pairs.
    fn trace_stop(&self, v: usize) -> Vec<(u32, Trace)>;
    fn shutdown(self);
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value, and the percentile it stands for. With ten
/// or fewer samples there is no such percentile; the maximum is
/// returned with percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n <= 10 {
        return (s[n - 1], 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Harmonic mean: the rate of doing one unit of each variant in turn.
pub fn harmonic_mean(rates: &[f64]) -> f64 {
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f` as one task on a worker of `rt`, as an HPX application's main
/// task runs, so the parallel loops it starts fork from a busy worker.
/// The caller blocks on a channel until the task has ended, because
/// `Future::get` outside the pool polls and would take CPU from the
/// workers.
pub fn on_worker<R: Send + 'static>(
    rt: &Runtime,
    f: impl FnOnce(&Runtime) -> R + Send + 'static,
) -> R {
    let (ended_tx, ended) = mpsc::channel::<()>();
    let worker_rt = rt.clone();
    let future = rt.async_task(move || {
        let r = f(&worker_rt);
        drop(ended_tx);
        r
    });
    // Disconnects when the task drops its sender, also by panicking.
    let _ = ended.recv();
    future.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(pct, 90.0);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }

    #[test]
    fn median_and_harmonic_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(harmonic_mean(&[1.0, 1.0]), 1.0);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }
}
