//! The traced run: every per-layer metric, whichever workload is named.
//! Each workload's layers are measured on that workload, so the run
//! visits all four; the named workload contributes the attribution
//! (`attr.*`) of one traced op, and its runtime trace is written out.

use crate::burst::Burst;
use crate::common::{median, secs, tail, Scale, Workload};
use crate::halo::{Halo, TRANSPORTS};
use crate::jacobi::{self, Jacobi, PRECISIONS};
use crate::layers::{self, counter_sum, worker_counter_sum, WireStats};
use crate::report::Report;
use crate::runner::{measure, trace_overhead, variant_metrics, warm_up};
use crate::spans::span;
use crate::uts::Uts;
use parallex::introspect::{analyze, Trace};
use parallex::locality::Cluster;
use parallex_workloads::uts::uts_count_sequential;
use std::time::Instant;

/// Traces of the named workload's attribution op.
pub type Traces = Vec<(u32, Trace)>;

/// Measure every per-layer metric; `seconds` is split across the
/// workloads' timed loops. Returns the runtime trace of the named
/// workload's attribution op.
pub fn census(workload: &str, seed: u64, seconds: f64, scale: Scale, rep: &mut Report) -> Traces {
    let slice = seconds / 8.0;
    let traced = if scale == Scale::Tiny {
        Scale::Tiny
    } else {
        Scale::Traced
    };
    // The named workload's attribution op: a traced op of its tcp
    // variant for the parcel workloads, of its first variant otherwise.
    let mut attr_traces = Traces::new();

    span("layer", "parcel", || layers::codec(rep));
    span("layer", "runtime", || layers::runtime_micro(rep));
    let mut ledger = span("layer", "locality", || layers::call_rtt(rep));

    // halo-latency: step times, wire and reliable-layer deltas, step tails.
    let inp = Halo::inputs(seed, scale);
    let mut w = Halo::setup(&inp);
    let (rates, halo) = measure_wire(&mut w, &inp, |h| &h.clusters, slice, rep);
    w.shutdown();
    let step = variant_metrics::<Halo>(&rates, rep);
    rep.add(
        "reliable.overhead_pct",
        100.0 * (step[1] / step[2] - 1.0),
        "%",
        rates[2].len(),
    );
    per_parcel(rep, "halo", &halo[1]);
    ledger = halo.iter().fold(ledger, |l, d| l.plus(d));
    let mut reliable = halo[2];
    let mut intervals = vec![Vec::new(); TRANSPORTS.len()];
    trace_overhead::<Halo>(seed, traced, slice, rep, &mut |v, t| {
        intervals[v].extend(layers::step_intervals(&t));
        if workload == Halo::NAME && v == 1 {
            attr_traces = t;
        }
    });
    for (v, name) in TRANSPORTS.iter().enumerate() {
        if !intervals[v].is_empty() {
            let (value, pct) = tail(&intervals[v]);
            rep.add_note(
                format!("step_us_tail.{name}"),
                value,
                "us",
                intervals[v].len(),
                format!("p{pct:.1} of traced steps"),
            );
        }
    }

    // parcel-burst: throughput and the wire cost of a coalesced stream.
    let inp = Burst::inputs(seed, scale);
    let mut w = Burst::setup(&inp);
    let (rates, burst) = measure_wire(&mut w, &inp, |b| &b.clusters, slice, rep);
    w.shutdown();
    variant_metrics::<Burst>(&rates, rep);
    per_parcel(rep, "burst", &burst[0]);
    ledger = burst.iter().fold(ledger, |l, d| l.plus(d));
    reliable = reliable.plus(&burst[1]);
    trace_overhead::<Burst>(seed, traced, slice, rep, &mut |v, t| {
        if workload == Burst::NAME && v == 0 {
            attr_traces = t;
        }
    });

    rep.add(
        "reliable.acks_per_data",
        reliable.acks as f64 / reliable.data.max(1) as f64,
        "ratio",
        1,
    );
    rep.add(
        "reliable.retransmits",
        reliable.retransmits as f64,
        "count",
        1,
    );
    rep.add(
        "locality.sent_minus_received",
        ledger.sent as f64 - ledger.received as f64,
        "count",
        1,
    );

    // jacobi2d: VNS throughput, then the kernel ladder above the LLC,
    // STREAM and the roofline.
    let inp = Jacobi::inputs(seed, scale);
    let mut w = Jacobi::setup(&inp);
    let rates = span("workload", Jacobi::NAME, || {
        warm_up(&mut w, &inp, rep);
        measure(&mut w, &inp, slice, rep)
    });
    variant_metrics::<Jacobi>(&rates, rep);
    let inp = jacobi::ladder_inputs(seed, scale);
    let ladders = span("layer", "kernel", || jacobi::ladders(&inp, &w.rt));
    drop(inp);
    let copy_gbs = span("layer", "memory", || layers::stream(rep, &w.rt, scale));
    w.shutdown();
    match ladders {
        Ok(ladders) => {
            rep.check(Ok(()));
            for ((p, bytes), ladder) in PRECISIONS.iter().zip([8.0, 4.0]).zip(ladders) {
                for (k, g) in ["seq_scalar", "par_scalar", "par_tiled", "par_vns"]
                    .iter()
                    .zip(ladder)
                {
                    rep.add(format!("kernel.glups.{p}.{k}"), g, "GLUP/s", 1);
                }
                // Computed, not measured: one read and one write per
                // update, with neighbours reused from cache.
                let per_lup = 2.0 * bytes;
                rep.add_note(
                    format!("kernel.bytes_per_lup.{p}"),
                    per_lup,
                    "B",
                    1,
                    "computed".to_string(),
                );
                rep.add(
                    format!("kernel.roofline_frac.{p}"),
                    ladder[3] * per_lup / copy_gbs,
                    "ratio",
                    1,
                );
            }
        }
        Err(e) => {
            rep.check(Err(e));
        }
    }
    trace_overhead::<Jacobi>(seed, traced, slice, rep, &mut |v, t| {
        if workload == Jacobi::NAME && v == 0 {
            attr_traces = t;
        }
    });

    // uts: parallel against sequential, and the scheduler's counters.
    let inp = Uts::inputs(seed, scale);
    let seq: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let n = span("uts-count", "seq", || uts_count_sequential(inp.params));
            let s = secs(t0);
            rep.check(if n == inp.expected {
                Ok(())
            } else {
                Err(format!("sequential uts counted {n}"))
            });
            n as f64 / s / 1e6
        })
        .collect();
    let mut w = Uts::setup(&inp);
    let snap0 = w.rt.counter_snapshot();
    let (t0, ops0) = (Instant::now(), rep.attempted);
    let rates = span("workload", Uts::NAME, || {
        warm_up(&mut w, &inp, rep);
        measure(&mut w, &inp, slice, rep)
    });
    let wall_ns = secs(t0) * 1e9;
    let ops = (rep.attempted - ops0) as f64;
    let d = |name: &str| {
        (counter_sum(&w.rt.counter_snapshot(), "threads", name)
            - counter_sum(&snap0, "threads", name)) as f64
    };
    let busy = (worker_counter_sum(&w.rt.counter_snapshot(), "threads", "time/busy-ns")
        - worker_counter_sum(&snap0, "threads", "time/busy-ns")) as f64;
    let ktasks = d("count/cumulative") / 1e3;
    rep.add(
        "sched.steal_success",
        d("count/stolen") / d("count/steal-attempts").max(1.0),
        "ratio",
        1,
    );
    rep.add(
        "sched.parks_per_ktask",
        d("count/parks") / ktasks,
        "count",
        1,
    );
    rep.add(
        "sched.wakes_per_ktask",
        d("count/wakes") / ktasks,
        "count",
        1,
    );
    // A task that help-executes others while it waits counts their time
    // again, so under nesting this can exceed 1.
    rep.add_note(
        "sched.busy_frac",
        busy / (wall_ns * w.rt.workers() as f64),
        "ratio",
        1,
        "nested tasks count twice".to_string(),
    );
    rep.add(
        "uts.tasks_per_node",
        d("count/spawned") / (ops * inp.expected as f64),
        "ratio",
        ops as usize,
    );
    w.shutdown();
    let par = variant_metrics::<Uts>(&rates, rep);
    let seq = median(&seq);
    rep.add("uts.seq_mnodes_per_s", seq, "Mnodes/s", 3);
    rep.add("uts.speedup", par[0] / 1e6 / seq, "ratio", rates[0].len());
    trace_overhead::<Uts>(seed, traced, slice, rep, &mut |v, t| {
        if workload == Uts::NAME && v == 0 {
            attr_traces = t;
        }
    });

    if attr_traces.is_empty() {
        rep.check(Err(format!("no traced {workload} op to attribute")));
    } else {
        layers::attribution(
            rep,
            &span("analyze", "attribution", || analyze(&attr_traces)),
        );
    }
    attr_traces
}

/// Warm up and measure `w` for `seconds`: each variant's op rates and
/// each cluster's wire delta over the measurement.
fn measure_wire<W: Workload>(
    w: &mut W,
    inp: &W::Inputs,
    clusters: fn(&W) -> &Vec<Cluster>,
    seconds: f64,
    rep: &mut Report,
) -> (Vec<Vec<f64>>, Vec<WireStats>) {
    let before: Vec<WireStats> = clusters(w).iter().map(WireStats::of).collect();
    let rates = span("workload", W::NAME, || {
        warm_up(w, inp, rep);
        measure(w, inp, seconds, rep)
    });
    let delta = clusters(w)
        .iter()
        .zip(&before)
        .map(|(c, b)| {
            c.wait_idle();
            WireStats::of(c).minus(b)
        })
        .collect();
    (rates, delta)
}

/// Socket writes and bytes per parcel handed to the TCP ports.
fn per_parcel(rep: &mut Report, label: &str, d: &WireStats) {
    let parcels = d.tcp_parcels.max(1) as f64;
    rep.add(
        format!("tcp.writes_per_parcel.{label}"),
        d.writes as f64 / parcels,
        "ratio",
        d.tcp_parcels as usize,
    );
    rep.add(
        format!("tcp.bytes_per_parcel.{label}"),
        d.bytes as f64 / parcels,
        "B",
        d.tcp_parcels as usize,
    );
}
