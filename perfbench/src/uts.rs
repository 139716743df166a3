//! `uts`: unbalanced tree search on a 2-worker runtime, one task per
//! node in the top levels of the tree. Fine-grained tasks make the
//! scheduler's spawn/steal/park path and the `when_all` LCO the main
//! cost — the layers the other workloads use only at coarse grain. The
//! root's large fan-out averages the subtrees, so tree size varies
//! little by seed.

use crate::common::{secs, Sample, Scale, Workload};
use crate::spans::span;
use parallex::introspect::Trace;
use parallex::runtime::Runtime;
use parallex_workloads::uts::{uts_count, uts_count_sequential, UtsParams};
use std::time::Instant;

pub struct Inputs {
    pub params: UtsParams,
    pub expected: u64,
}

/// Make the expected count wrong, so a correct count fails its check.
#[cfg(test)]
pub fn corrupt(inp: &mut Inputs) {
    inp.expected += 1;
}

pub struct Uts {
    pub rt: Runtime,
}

/// The tree for `seed` with `root_branches` root children. Nodes branch
/// 4 ways with probability 0.246, just below critical (0.984 children
/// per node), so subtrees are irregular; the depth cap of 20 keeps a
/// rare giant subtree from setting the run's rate (~17 nodes per root
/// child on average). Nodes above depth 4 are tasks; deeper subtrees
/// are counted inline.
pub fn params(seed: u64, root_branches: u64) -> UtsParams {
    UtsParams {
        seed,
        root_branches,
        branching: 4,
        q_bp: 2460,
        max_depth: 20,
        sequential_below: 4,
    }
}

impl Workload for Uts {
    type Inputs = Inputs;
    const NAME: &'static str = "uts";
    const VARIANTS: &'static [&'static str] = &["2 workers"];
    const COUNTED: &'static [usize] = &[0];

    fn inputs(seed: u64, scale: Scale) -> Inputs {
        let root = match scale {
            Scale::Full => 100_000,
            Scale::Traced => 1_000,
            Scale::Tiny => 64,
        };
        let params = params(seed, root);
        let expected = span("uts-reference", "seq", || uts_count_sequential(params));
        Inputs { params, expected }
    }

    fn setup(_inp: &Inputs) -> Uts {
        Uts {
            rt: span("runtime-build", "2 workers", || {
                Runtime::builder().worker_threads(2).build()
            }),
        }
    }

    fn op(&mut self, inp: &Inputs, _v: usize) -> Result<Sample, String> {
        let t0 = Instant::now();
        let count = span("uts-count", "par", || uts_count(&self.rt, inp.params));
        let secs = secs(t0);
        if count != inp.expected {
            return Err(format!(
                "uts counted {count} nodes, sequential reference {}",
                inp.expected
            ));
        }
        Ok(Sample {
            units: count as f64,
            secs,
        })
    }

    fn variant_metric(_v: usize, rate: f64) -> (String, &'static str, f64) {
        ("mnodes_per_s".to_string(), "Mnodes/s", rate / 1e6)
    }

    fn trace_start(&self, _v: usize) {
        self.rt.tracer().start();
    }

    fn trace_stop(&self, _v: usize) -> Vec<(u32, Trace)> {
        vec![(0, self.rt.tracer().stop())]
    }

    fn shutdown(self) {
        self.rt.shutdown();
    }
}
