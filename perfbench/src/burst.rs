//! `parcel-burst`: the same two-locality cluster as `halo-latency`, on
//! `tcp` and `reliable`. One sender task on locality 0 fires a long
//! stream of small `apply` parcels at a counting action on locality 1 as
//! fast as backpressure allows, and the op ends when the last one has
//! been handled. It uses the halo path's parcel layer for throughput
//! instead of latency: a latency fix that stops batching loses here.

use crate::common::{Sample, Scale, Workload, OP_TIMEOUT};
use crate::halo::{build_cluster, TRANSPORTS};
use crate::layers::WireStats;
use crate::spans::span;
use parallex::agas::Gid;
use parallex::introspect::Trace;
use parallex::locality::Cluster;
use parallex::parcel::{serialize, ActionId};
use parallex::resilience::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Action id of the counting handler ("BU").
const BURST_COUNT: ActionId = 0x4255;

/// Receiver-side tally of one burst.
#[derive(Default)]
struct Tally {
    count: AtomicU64,
    sum: AtomicU64,
    target: AtomicU64,
    /// When the `target`-th parcel was handled.
    done: Mutex<Option<Instant>>,
}

pub struct Inputs {
    values: Arc<Vec<u64>>,
    checksum: u64,
}

/// Make the expected checksum wrong, so a correct burst fails its check.
#[cfg(test)]
pub fn corrupt(inp: &mut Inputs) {
    inp.checksum ^= 1;
}

pub struct Burst {
    pub clusters: Vec<Cluster>,
    tallies: Vec<Gid>,
}

impl Workload for Burst {
    type Inputs = Inputs;
    const NAME: &'static str = "parcel-burst";
    const VARIANTS: &'static [&'static str] = &["tcp", "reliable"];
    const COUNTED: &'static [usize] = &[0, 1];

    fn inputs(seed: u64, scale: Scale) -> Inputs {
        let n = match scale {
            Scale::Full => 100_000,
            Scale::Traced => 4_000,
            Scale::Tiny => 200,
        };
        let mut rng = SplitMix64::new(seed ^ 0x4255_5253);
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let checksum = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        Inputs {
            values: Arc::new(values),
            checksum,
        }
    }

    fn setup(_inp: &Inputs) -> Burst {
        let mut clusters = Vec::new();
        let mut tallies = Vec::new();
        // TRANSPORTS[1..] = tcp, reliable: the variants' order.
        for (t, name) in TRANSPORTS.iter().enumerate().skip(1) {
            let c = build_cluster(t);
            span("action-install", name, || {
                c.register_action(
                    BURST_COUNT,
                    "perfbench::burst_count",
                    |loc, gid, payload| {
                        let v: u64 = serialize::from_bytes(payload)?;
                        let tally = loc.components().get::<Tally>(gid)?;
                        tally.sum.fetch_add(v, Ordering::Relaxed);
                        let n = tally.count.fetch_add(1, Ordering::AcqRel) + 1;
                        if n == tally.target.load(Ordering::Acquire) {
                            *tally.done.lock().expect("tally lock poisoned") = Some(Instant::now());
                        }
                        Ok(Vec::new())
                    },
                )
            });
            tallies.push(c.new_component(1, Tally::default()));
            clusters.push(c);
        }
        Burst { clusters, tallies }
    }

    fn op(&mut self, inp: &Inputs, v: usize) -> Result<Sample, String> {
        let name = Self::VARIANTS[v];
        let cluster = &self.clusters[v];
        let gid = self.tallies[v];
        let tally = cluster
            .get_component::<Tally>(gid)
            .map_err(|e| e.to_string())?;
        let n = inp.values.len() as u64;
        tally.count.store(0, Ordering::Relaxed);
        tally.sum.store(0, Ordering::Relaxed);
        *tally.done.lock().expect("tally lock poisoned") = None;
        tally.target.store(n, Ordering::Release);
        let before = WireStats::of(cluster);

        let sender = cluster.locality(0);
        let rt = sender.runtime().clone();
        let values = inp.values.clone();
        let t0 = Instant::now();
        let sent = span("burst-send", name, || {
            rt.async_task(move || {
                values
                    .iter()
                    .try_for_each(|v| sender.apply(gid, BURST_COUNT, v))
            })
            .try_get()
        });
        match sent {
            Ok(Ok(())) => {}
            Ok(Err(e)) | Err(e) => return Err(format!("{name}: send failed: {e}")),
        }
        let done = span("burst-drain", name, || loop {
            if let Some(t) = *tally.done.lock().expect("tally lock poisoned") {
                return Some(t);
            }
            if t0.elapsed() > OP_TIMEOUT {
                return None;
            }
            std::thread::sleep(Duration::from_micros(20));
        });
        let Some(done) = done else {
            return Err(format!(
                "{name}: timed out with {} of {n} parcels",
                tally.count.load(Ordering::Relaxed)
            ));
        };
        let secs = done.duration_since(t0).as_secs_f64();
        span("wait-idle", name, || cluster.wait_idle());
        let wire = WireStats::of(cluster).minus(&before);
        let (count, sum) = (
            tally.count.load(Ordering::Relaxed),
            tally.sum.load(Ordering::Relaxed),
        );
        if count != n || sum != inp.checksum {
            return Err(format!(
                "{name}: delivered {count}/{n} parcels, checksum {sum:#x} != {:#x}",
                inp.checksum
            ));
        }
        if wire.sent != wire.received {
            return Err(format!(
                "{name}: {} parcels sent but {} received",
                wire.sent, wire.received
            ));
        }
        Ok(Sample {
            units: n as f64,
            secs,
        })
    }

    fn variant_metric(v: usize, rate: f64) -> (String, &'static str, f64) {
        (format!("parcels_per_s.{}", Self::VARIANTS[v]), "1/s", rate)
    }

    fn trace_start(&self, v: usize) {
        self.clusters[v].start_trace();
    }

    fn trace_stop(&self, v: usize) -> Vec<(u32, Trace)> {
        self.clusters[v].stop_trace()
    }

    fn shutdown(self) {
        for c in &self.clusters {
            c.shutdown();
        }
    }
}
