//! Per-layer probes: each times one public entry point of a layer from
//! outside, or reads the runtime's counter registry around a workload op.

use crate::common::{median, on_worker, secs, tail, Scale};
use crate::halo::{build_cluster, TRANSPORTS};
use crate::report::Report;
use crate::spans::span;
use bytes::Bytes;
use parallex::agas::Gid;
use parallex::algorithms::par;
use parallex::introspect::{Analysis, CounterSnapshot, EventKind, Instance, Trace};
use parallex::locality::Cluster;
use parallex::parcel::{frame, serialize, ActionId, Parcel, Parcelport};
use parallex::runtime::Runtime;
use parallex_stencil::heat1d::{Side, HALO_PUSH};
use parallex_stencil::stream::{stream_host, StreamKernel};
use std::hint::black_box;
use std::time::Instant;

/// Wire and delivery totals of a cluster, for deltas around an op.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireStats {
    /// Physical socket writes, bytes written and parcels handed to the
    /// TCP ports (acks included on the reliable transport).
    pub writes: u64,
    pub bytes: u64,
    pub tcp_parcels: u64,
    /// Reliable layer: acks sent, data parcels sent, retransmissions.
    pub acks: u64,
    pub data: u64,
    pub retransmits: u64,
    /// `/parcels{locality#*/total}/count/sent` and `.../received`.
    pub sent: u64,
    pub received: u64,
}

impl WireStats {
    pub fn of(c: &Cluster) -> WireStats {
        let mut w = WireStats::default();
        for p in c.tcp_ports() {
            w.writes += p.writes();
            w.bytes += p.bytes_sent();
            w.tcp_parcels += p.parcels_sent();
        }
        for r in c.reliable_ports() {
            w.acks += r.acks_sent();
            w.data += r.data_sent();
            w.retransmits += r.retransmits();
        }
        w.sent = counter_sum(&c.counter_snapshot(), "parcels", "count/sent");
        w.received = counter_sum(&c.counter_snapshot(), "parcels", "count/received");
        w
    }

    pub fn minus(&self, o: &WireStats) -> WireStats {
        WireStats {
            writes: self.writes - o.writes,
            bytes: self.bytes - o.bytes,
            tcp_parcels: self.tcp_parcels - o.tcp_parcels,
            acks: self.acks - o.acks,
            data: self.data - o.data,
            retransmits: self.retransmits - o.retransmits,
            sent: self.sent - o.sent,
            received: self.received - o.received,
        }
    }

    pub fn plus(&self, o: &WireStats) -> WireStats {
        WireStats {
            writes: self.writes + o.writes,
            bytes: self.bytes + o.bytes,
            tcp_parcels: self.tcp_parcels + o.tcp_parcels,
            acks: self.acks + o.acks,
            data: self.data + o.data,
            retransmits: self.retransmits + o.retransmits,
            sent: self.sent + o.sent,
            received: self.received + o.received,
        }
    }
}

/// Sum of the locality-total counters `/{object}{locality#*/total}/{name}`.
pub fn counter_sum(snap: &CounterSnapshot, object: &str, name: &str) -> u64 {
    snap.iter()
        .filter(|(p, _)| {
            p.object == object && p.name == name && matches!(p.instance, Instance::Total)
        })
        .map(|(_, v)| v)
        .sum()
}

/// Sum of a per-worker counter over every worker.
pub fn worker_counter_sum(snap: &CounterSnapshot, object: &str, name: &str) -> u64 {
    snap.iter()
        .filter(|(p, _)| {
            p.object == object && p.name == name && matches!(p.instance, Instance::Worker(_))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Median ns per call of `f`, over 9 batches of `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            secs(t0) * 1e9 / iters as f64
        })
        .collect();
    median(&batches)
}

/// `parcel`: frame encode and decode of a halo-sized parcel, and the
/// serialize round trip of the halo argument.
pub fn codec(rep: &mut Report) {
    let arg = (Side::Right, 12_345u64, 0.625f64);
    let parcel = Parcel {
        source: 0,
        dest_locality: 1,
        dest: Gid { origin: 1, lid: 7 },
        action: HALO_PUSH,
        payload: Bytes::from(serialize::to_bytes(&arg).expect("halo argument serializes")),
        response_token: None,
    };
    let mut buf = Vec::with_capacity(frame::encoded_len(&parcel));
    let encode_ns = span("probe", "parcel.encode", || {
        ns_per_call(20_000, || {
            buf.clear();
            frame::encode(black_box(&parcel), &mut buf);
        })
    });
    let decode_ns = span("probe", "parcel.decode", || {
        ns_per_call(20_000, || {
            black_box(
                frame::decode(black_box(&buf))
                    .map(|(p, _)| p.payload.len())
                    .ok(),
            );
        })
    });
    let serialize_ns = span("probe", "parcel.serialize", || {
        ns_per_call(20_000, || {
            let bytes = serialize::to_bytes(black_box(&arg)).ok();
            let back: Option<(Side, u64, f64)> = bytes.and_then(|b| serialize::from_bytes(&b).ok());
            black_box(back);
        })
    });
    let decoded = frame::decode(&buf).map(|(p, used)| (p, used == buf.len()));
    let round =
        serialize::to_bytes(&arg).and_then(|b| serialize::from_bytes::<(Side, u64, f64)>(&b));
    let ok = matches!(&decoded, Ok((p, true)) if p.payload == parcel.payload && p.dest == parcel.dest && p.action == parcel.action)
        && matches!(round, Ok(a) if a == arg);
    rep.check(if ok {
        Ok(())
    } else {
        Err("parcel codec round trip changed the parcel".to_string())
    });
    rep.add("parcel.encode_ns", encode_ns, "ns", 9);
    rep.add("parcel.decode_ns", decode_ns, "ns", 9);
    rep.add("parcel.serialize_ns", serialize_ns, "ns", 9);
}

/// `sched`: spawn-drain of empty tasks; `lcos`: promise-set to waiter
/// resume; `algorithms`: fork-join of a near-empty `for_each`.
pub fn runtime_micro(rep: &mut Report) {
    let rt = Runtime::builder().worker_threads(2).build();
    let spawn_ns = span("probe", "sched.spawn", || {
        ns_per_call(1, || {
            for _ in 0..20_000 {
                rt.spawn(|| {});
            }
            rt.wait_idle();
        }) / 20_000.0
    });
    let handoffs: Vec<f64> = span("probe", "lcos.future_handoff", || {
        (0..200)
            .map(|_| {
                let mut promise = rt.make_promise::<Instant>();
                let future = promise.future();
                let waiter = rt.async_task(move || future.get().elapsed());
                // Let the waiter block before the value is set.
                std::thread::sleep(std::time::Duration::from_micros(200));
                promise.set_value(Instant::now());
                waiter.get().as_secs_f64() * 1e6
            })
            .collect()
    });
    // Forked from a worker, as the jacobi2d sweeps are.
    let (fork_join_us, data) = span("probe", "algorithms.par_for_each", || {
        on_worker(&rt, |rt| {
            let mut data = vec![0u64; 256];
            let us = ns_per_call(200, || {
                par(rt).for_each_mut(&mut data, |i, x| *x = i as u64)
            }) / 1e3;
            (us, data)
        })
    });
    rep.check(if data.iter().enumerate().all(|(i, &x)| x == i as u64) {
        Ok(())
    } else {
        Err("par for_each left wrong values".to_string())
    });
    rt.shutdown();
    rep.add("sched.spawn_ns", spawn_ns, "ns", 9);
    rep.add(
        "lcos.future_handoff_us",
        median(&handoffs),
        "us",
        handoffs.len(),
    );
    rep.add("algorithms.par_for_each_us", fork_join_us, "us", 9);
}

/// Action id of the echo handler used for call round trips ("EC").
const ECHO: ActionId = 0x4543;

/// `locality`: `Locality::call` round trip of an echo action from
/// locality 0 to locality 1 on each transport. Returns the parcel
/// ledger of the three clusters.
pub fn call_rtt(rep: &mut Report) -> WireStats {
    let mut ledger = WireStats::default();
    for (t, name) in TRANSPORTS.iter().enumerate() {
        let c = build_cluster(t);
        c.register_action(
            ECHO,
            "perfbench::echo",
            |_, _, payload| Ok(payload.to_vec()),
        );
        let loc = c.locality(0);
        let gid = c.system_gid(1);
        let mut rtts = Vec::new();
        for i in 0..400u64 {
            let t0 = Instant::now();
            let got = span("locality-call", name, || {
                loc.call::<u64, u64>(gid, ECHO, &i)
                    .and_then(|f| f.try_get())
            });
            let us = secs(t0) * 1e6;
            if rep.check(match got {
                Ok(v) if v == i => Ok(()),
                Ok(v) => Err(format!("{name} echo returned {v} for {i}")),
                Err(e) => Err(format!("{name} call failed: {e}")),
            }) {
                rtts.push(us);
            }
        }
        c.wait_idle();
        ledger = ledger.plus(&WireStats::of(&c));
        c.shutdown();
        if !rtts.is_empty() {
            let (tail_us, pct) = tail(&rtts);
            rep.add(
                format!("locality.call_rtt_us.{name}"),
                median(&rtts),
                "us",
                rtts.len(),
            );
            rep.add_note(
                format!("call_rtt_us_tail.{name}"),
                tail_us,
                "us",
                rtts.len(),
                format!("p{pct:.1}"),
            );
        }
    }
    ledger
}

/// Last-level cache size in MiB as the OS reports it, if it does.
fn llc_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let kib: f64 = text.trim().strip_suffix('K')?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `memory`: STREAM copy and triad bandwidth with each array at least
/// four times the last-level cache, timing only the kernel. Returns
/// the copy bandwidth in GB/s.
pub fn stream(rep: &mut Report, rt: &Runtime, scale: Scale) -> f64 {
    // Without an OS report, assume a cache no larger than 128 MiB.
    let llc = llc_mib().unwrap_or(128.0);
    let elems = match scale {
        Scale::Tiny => 1 << 16,
        _ => ((4.0 * llc * 1024.0 * 1024.0) / 8.0).ceil() as usize,
    };
    let copy = span("probe", "memory.stream_copy", || {
        on_worker(rt, move |rt| stream_host(rt, StreamKernel::Copy, elems, 5))
    });
    let triad = span("probe", "memory.stream_triad", || {
        on_worker(rt, move |rt| stream_host(rt, StreamKernel::Triad, elems, 5))
    });
    rep.add("memory.llc_mib", llc, "MiB", 1);
    rep.add(
        "memory.stream_array_mib",
        (elems * 8) as f64 / (1024.0 * 1024.0),
        "MiB",
        1,
    );
    rep.add("memory.stream_copy_gbs", copy.best_gbs, "GB/s", copy.reps);
    rep.add(
        "memory.stream_triad_gbs",
        triad.best_gbs,
        "GB/s",
        triad.reps,
    );
    copy.best_gbs
}

/// `introspect`: where the traced op's worker time went, the worst
/// per-lane conservation error, and the median parcel flight time.
pub fn attribution(rep: &mut Report, a: &Analysis) {
    let lanes: Vec<_> = a.worker_lanes().collect();
    let wall: f64 = lanes.iter().map(|l| l.wall_us).sum();
    let pct = |f: &dyn Fn(&parallex::introspect::LaneAttribution) -> f64| {
        100.0 * lanes.iter().map(|l| f(l)).sum::<f64>() / wall.max(1e-9)
    };
    let n = lanes.len();
    rep.add("attr.compute_pct", pct(&|l| l.compute_us), "%", n);
    rep.add("attr.parcel_pct", pct(&|l| l.parcel_us), "%", n);
    rep.add("attr.exposed_wait_pct", pct(&|l| l.exposed_wait_us), "%", n);
    rep.add("attr.steal_pct", pct(&|l| l.steal_us), "%", n);
    rep.add("attr.park_pct", pct(&|l| l.park_us), "%", n);
    rep.add("attr.idle_pct", pct(&|l| l.idle_us), "%", n);
    rep.add(
        "attr.conservation_err_pct",
        100.0 * a.max_conservation_error(),
        "%",
        n,
    );
    rep.add(
        "attr.parcel_flight_us",
        a.parcels.p50_us,
        "us",
        a.parcels.matched,
    );
}

/// Step-to-step intervals (µs) of a traced heat1d solve: the gaps
/// between consecutive halo-exchange ends on each locality.
pub fn step_intervals(traces: &[(u32, Trace)]) -> Vec<f64> {
    let mut out = Vec::new();
    for (_, t) in traces {
        let ends: Vec<f64> = t
            .of_kind(EventKind::HaloExchange)
            .map(|e| e.t_us + e.dur_us.unwrap_or(0.0))
            .collect();
        out.extend(ends.windows(2).map(|w| w[1] - w[0]));
    }
    out
}
