//! `halo-latency`: the distributed 1D heat stencil on two localities
//! with one worker each, on three transports. The domain is ~1k points,
//! so the interior update costs almost nothing and every microsecond of
//! encode, queueing, coalescing, socket, decode, dispatch and wake-up on
//! the halo path lands in the step time (the paper's Fig. 3 argument).

use crate::common::{secs, Sample, Scale, Workload};
use crate::spans::span;
use parallex::introspect::Trace;
use parallex::locality::Cluster;
use parallex::resilience::SplitMix64;
use parallex_stencil::heat1d::{self, Heat1dParams, Heat1dSolver};
use parallex_stencil::verify::heat1d_reference;
use std::sync::Arc;
use std::time::Instant;

/// The transports, in variant order.
pub const TRANSPORTS: [&str; 3] = ["inproc", "tcp", "reliable"];

/// A two-locality, one-worker-each cluster on transport `t` (an index
/// into [`TRANSPORTS`]). Loopback TCP: traffic never leaves the host.
pub fn build_cluster(t: usize) -> Cluster {
    span("cluster-build", TRANSPORTS[t], || match t {
        0 => Cluster::new(2, 1),
        1 => Cluster::new_tcp(2, 1),
        _ => Cluster::new_resilient(2, 1, None),
    })
}

pub struct Inputs {
    pub params: Heat1dParams,
    init: Arc<Vec<f64>>,
    reference: Vec<f64>,
}

/// Make the reference wrong, so a correct solve fails its check.
#[cfg(test)]
pub fn corrupt(inp: &mut Inputs) {
    inp.reference[0] += 1.0;
}

pub struct Halo {
    pub clusters: Vec<Cluster>,
    solvers: Vec<Heat1dSolver>,
}

impl Workload for Halo {
    type Inputs = Inputs;
    const NAME: &'static str = "halo-latency";
    const VARIANTS: &'static [&'static str] = &TRANSPORTS;
    // In-process step time is bimodal (worker wake-up either hits or
    // misses), so it is reported but left out of the bounded metric.
    const COUNTED: &'static [usize] = &[1, 2];

    fn inputs(seed: u64, scale: Scale) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x4841_4c4f);
        let (base, steps) = match scale {
            Scale::Full | Scale::Traced => (1024, 200),
            Scale::Tiny => (64, 10),
        };
        let n = base - 32 + (rng.next_u64() % 64) as usize;
        let r = 0.2 + 0.3 * rng.next_f64();
        let init: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let params = Heat1dParams::new(n, steps, r);
        let reference = heat1d_reference(n, steps, r, params.left_bc, params.right_bc, |i| init[i]);
        Inputs {
            params,
            init: Arc::new(init),
            reference,
        }
    }

    fn setup(inp: &Inputs) -> Halo {
        let clusters: Vec<Cluster> = (0..TRANSPORTS.len()).map(build_cluster).collect();
        let solvers = clusters
            .iter()
            .zip(TRANSPORTS)
            .map(|(c, t)| {
                span("heat1d-install", t, || heat1d::install(c));
                Heat1dSolver::new(c, inp.params)
            })
            .collect();
        Halo { clusters, solvers }
    }

    fn op(&mut self, inp: &Inputs, v: usize) -> Result<Sample, String> {
        let init = inp.init.clone();
        let t0 = Instant::now();
        let field = span("heat1d-solve", TRANSPORTS[v], || {
            self.solvers[v].run(move |i| init[i])
        });
        let secs = secs(t0);
        let same = span("verify", TRANSPORTS[v], || {
            field.len() == inp.reference.len()
                && field
                    .iter()
                    .zip(&inp.reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !same {
            return Err(format!(
                "{} field differs from heat1d_reference",
                TRANSPORTS[v]
            ));
        }
        Ok(Sample {
            units: inp.params.steps as f64,
            secs,
        })
    }

    fn variant_metric(v: usize, rate: f64) -> (String, &'static str, f64) {
        (format!("step_us.{}", TRANSPORTS[v]), "us", 1e6 / rate)
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
