//! Drives a workload: repeated set-up, a closed loop of checked ops
//! (one client, the next op starts when the last one ended), and the
//! traced-against-untraced comparison.

use crate::common::{harmonic_mean, median, secs, Sample, Scale, Workload, OP_TIMEOUT};
use crate::report::Report;
use crate::spans::{self, span};
use parallex::introspect::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A run measures in rounds, each on a fresh set-up: a cluster's threads
/// and sockets settle into a state that lasts as long as the cluster, so
/// one set-up per run would sample only one state. A round measures for
/// `1/ROUNDS` of the run, or for five times its set-up and warm-up if
/// that is longer, so they cost at most a fifth of the run.
const ROUNDS: f64 = 10.0;
/// While set-up is cheap, it is repeated (up to this many times, within
/// [`SETUP_BUDGET_S`]) so that `setup_s`, the median, is steady.
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET_S: f64 = 1.0;
/// Every variant gets at least this many timed ops, however long they take.
const MIN_OPS: usize = 3;

/// One checked op: a wrong answer, an error, a panic or an op slower
/// than [`OP_TIMEOUT`] counts as a failed op.
pub fn checked_op<W: Workload>(
    w: &mut W,
    inp: &W::Inputs,
    v: usize,
    rep: &mut Report,
) -> Option<Sample> {
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        span("op", W::VARIANTS[v], || w.op(inp, v))
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", msg.unwrap_or_default()))
    })
    .and_then(|s| {
        if t0.elapsed() > OP_TIMEOUT {
            Err(format!("took {:?}", t0.elapsed()))
        } else {
            Ok(s)
        }
    });
    let r = r.map_err(|e| format!("{} {}: {e}", W::NAME, W::VARIANTS[v]));
    match r {
        Ok(s) => rep.check(Ok(())).then_some(s),
        Err(e) => {
            rep.check(Err(e));
            None
        }
    }
}

/// One timed set-up: seconds and the workload.
fn timed_setup<W: Workload>(inp: &W::Inputs) -> (f64, W) {
    let t0 = Instant::now();
    let w = span("setup", W::NAME, || W::setup(inp));
    (secs(t0), w)
}

/// One checked but untimed op per variant: the first ops on a fresh
/// set-up pay for lazy initialisation and cold caches.
pub fn warm_up<W: Workload>(w: &mut W, inp: &W::Inputs, rep: &mut Report) {
    for v in 0..W::VARIANTS.len() {
        checked_op(w, inp, v, rep);
    }
}

/// Ops round-robin over the variants until `seconds` have passed and
/// each has [`MIN_OPS`] samples. Returns each variant's op rates (units
/// per second).
pub fn measure<W: Workload>(
    w: &mut W,
    inp: &W::Inputs,
    seconds: f64,
    rep: &mut Report,
) -> Vec<Vec<f64>> {
    let nv = W::VARIANTS.len();
    let mut rates = vec![Vec::new(); nv];
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut attempts = 0;
    while Instant::now() < end || attempts < MIN_OPS * nv {
        let v = attempts % nv;
        attempts += 1;
        if let Some(s) = checked_op(w, inp, v, rep) {
            rates[v].push(s.rate());
        }
    }
    rates
}

/// Report each variant's metric from its median rate; return the
/// medians (NaN for a variant with no successful op).
pub fn variant_metrics<W: Workload>(rates: &[Vec<f64>], rep: &mut Report) -> Vec<f64> {
    rates
        .iter()
        .enumerate()
        .map(|(v, r)| {
            if r.is_empty() {
                return f64::NAN;
            }
            let m = median(r);
            let (name, unit, value) = W::variant_metric(v, m);
            rep.add(name, value, unit, r.len());
            m
        })
        .collect()
}

/// The harmonic mean of the counted variants' median rates.
pub fn counted_rate<W: Workload>(medians: &[f64]) -> f64 {
    harmonic_mean(&W::COUNTED.iter().map(|&v| medians[v]).collect::<Vec<_>>())
}

/// An untraced run: the end-to-end metrics of workload `W`.
pub fn run_e2e<W: Workload>(seed: u64, seconds: f64, scale: Scale, rep: &mut Report) {
    let inp = span("inputs", W::NAME, || W::inputs(seed, scale));
    let mut setups = Vec::new();
    let mut rates = vec![Vec::new(); W::VARIANTS.len()];
    let mut measured = 0.0;
    while measured < seconds {
        let (s, mut w) = timed_setup::<W>(&inp);
        setups.push(s);
        let t0 = Instant::now();
        warm_up(&mut w, &inp, rep);
        let round_s = (seconds / ROUNDS)
            .max(5.0 * (s + secs(t0)))
            .min(seconds - measured);
        measured += round_s;
        let round = measure(&mut w, &inp, round_s, rep);
        w.shutdown();
        for (all, r) in rates.iter_mut().zip(round) {
            all.extend(r);
        }
    }
    let t0 = Instant::now();
    while setups.len() < MAX_SETUPS && secs(t0) < SETUP_BUDGET_S {
        let (s, w) = timed_setup::<W>(&inp);
        setups.push(s);
        w.shutdown();
    }
    rep.add("setup_s", median(&setups), "s", setups.len());
    let medians = variant_metrics::<W>(&rates, rep);
    let counted: usize = W::COUNTED.iter().map(|&v| rates[v].len()).sum();
    rep.add("units_per_s", counted_rate::<W>(&medians), "1/s", counted);
}

/// Alternate untraced and traced ops (runtime tracer and the
/// benchmark's own spans on) at `scale` for `seconds`, and
/// report `trace.overhead_pct.<workload>`: how much slower the traced
/// ops ran. `on_trace` receives each traced op's variant and traces.
pub fn trace_overhead<W: Workload>(
    seed: u64,
    scale: Scale,
    seconds: f64,
    rep: &mut Report,
    on_trace: &mut dyn FnMut(usize, Vec<(u32, Trace)>),
) {
    let inp = W::inputs(seed, scale);
    let mut w = W::setup(&inp);
    let nv = W::VARIANTS.len();
    warm_up(&mut w, &inp, rep);
    let (mut plain, mut traced) = (vec![Vec::new(); nv], vec![Vec::new(); nv]);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0;
    while Instant::now() < end || round < MIN_OPS {
        round += 1;
        for v in 0..nv {
            spans::disable();
            if let Some(s) = checked_op(&mut w, &inp, v, rep) {
                plain[v].push(s.rate());
            }
            spans::enable();
            w.trace_start(v);
            let s = checked_op(&mut w, &inp, v, rep);
            let traces = w.trace_stop(v);
            if let Some(s) = s {
                traced[v].push(s.rate());
                on_trace(v, traces);
            }
        }
    }
    w.shutdown();
    let rate = |r: &[Vec<f64>]| -> f64 {
        if W::COUNTED.iter().any(|&v| r[v].is_empty()) {
            return f64::NAN;
        }
        counted_rate::<W>(
            &r.iter()
                .map(|x| if x.is_empty() { f64::NAN } else { median(x) })
                .collect::<Vec<_>>(),
        )
    };
    let n = traced.iter().map(Vec::len).sum();
    rep.add(
        format!("trace.overhead_pct.{}", W::NAME),
        100.0 * (rate(&plain) / rate(&traced) - 1.0),
        "%",
        n,
    );
}
