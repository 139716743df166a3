//! `jacobi2d`: the shared-memory 2D Jacobi sweep in the explicit-SIMD
//! Virtual Node Scheme layout (`Jacobi2dVns`, rows split by
//! `algorithms::par`) on a 2-worker runtime, in f64 and f32; no parcel
//! is sent. The sweeps run as one task on a worker (`on_worker`).
//!
//! The op's grids fit in the workers' private L2 caches, so its rate is
//! set by the kernel, `algorithms::par` and the scheduler. A grid above
//! the last-level cache streams from memory that the host shares with
//! its neighbours, and its rate drifts with their load from run to run
//! (a 4096² op spread 17–26% over ten runs on a shared 2-CPU host).
//! That regime, the paper's Figs. 4–8, is measured by the kernel ladder
//! of the traced run ([`ladder_inputs`]), against the host's STREAM.

use crate::common::{on_worker, secs, Sample, Scale, Workload};
use crate::spans::span;
use parallex::algorithms::{par, seq, ExecutionPolicy};
use parallex::introspect::Trace;
use parallex::resilience::SplitMix64;
use parallex::runtime::Runtime;
use parallex_simd::Element;
use parallex_stencil::jacobi2d::{jacobi_step_scalar_tiled, Jacobi2d, Jacobi2dVns};
use parallex_stencil::ScalarGrid;
use std::time::Instant;

pub const PRECISIONS: [&str; 2] = ["f64", "f32"];
/// VNS pack widths: 64-byte packs in both precisions.
const W64: usize = 8;
const W32: usize = 16;
/// Rows per task of the cache-blocked scalar kernel.
const TILE_ROWS: usize = 16;

/// One precision's seeded initial field, boundary and reference answer.
pub struct Field<T: Element> {
    init: Vec<T>,
    boundary: T,
    reference: ScalarGrid<T>,
}

pub struct Inputs {
    pub n: usize,
    pub steps: usize,
    pub f64: Field<f64>,
    pub f32: Field<f32>,
}

impl Inputs {
    /// Lattice updates in one op.
    pub fn lups(&self) -> f64 {
        (self.n * self.n * self.steps) as f64
    }
}

fn field<T: Element>(rng: &mut SplitMix64, n: usize, steps: usize) -> Field<T> {
    let init: Vec<T> = (0..n * n).map(|_| T::from_f64(rng.next_f64())).collect();
    let boundary = T::from_f64(rng.next_f64());
    let mut f = Field {
        init,
        boundary,
        reference: ScalarGrid::zeros(1, 1),
    };
    f.reference = span("jacobi-reference", T::NAME, || seq_scalar(n, &f, steps).1);
    f
}

/// Both precisions' fields for an `n`² grid and `steps` sweeps.
fn generate(seed: u64, n: usize, steps: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x4a41_434f);
    let f64 = field(&mut rng, n, steps);
    let f32 = field(&mut rng, n, steps);
    Inputs { n, steps, f64, f32 }
}

/// The kernel ladder's inputs: a 4096² grid, whose two f32 grids are
/// 128 MiB and two f64 grids 256 MiB, above the host's last-level cache.
pub fn ladder_inputs(seed: u64, scale: Scale) -> Inputs {
    match scale {
        Scale::Tiny => generate(seed, 64, 3),
        Scale::Full | Scale::Traced => generate(seed, 4096, 8),
    }
}

/// Whether `got` equals the reference bit for bit (interior and halo).
fn matches<T: Element>(f: &Field<T>, got: &ScalarGrid<T>) -> bool {
    let r = &f.reference;
    (r.nx(), r.ny()) == (got.nx(), got.ny())
        && (0..r.ny() + 2).all(|hy| {
            r.raw_row(hy)
                .iter()
                .zip(got.raw_row(hy))
                .all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits())
        })
}

fn check<T: Element>(f: &Field<T>, got: &ScalarGrid<T>, what: &str) -> Result<(), String> {
    if span("verify", T::NAME, || matches(f, got)) {
        Ok(())
    } else {
        Err(format!(
            "{} {what} grid differs from the seq scalar reference",
            T::NAME
        ))
    }
}

/// `steps` sweeps of `state` by `step` under `par`, run as one task on
/// a worker of `rt`: `(seconds, final state)`, timed by the caller.
fn par_sweeps<S: Send + 'static>(
    rt: &Runtime,
    mut state: S,
    steps: usize,
    step: fn(&mut S, &ExecutionPolicy),
) -> (f64, S) {
    let t0 = Instant::now();
    let state = on_worker(rt, move |rt| {
        let policy = par(rt);
        for _ in 0..steps {
            step(&mut state, &policy);
        }
        state
    });
    (secs(t0), state)
}

fn scalar_grid<T: Element>(n: usize, f: &Field<T>) -> Jacobi2d<T> {
    Jacobi2d::new(n, n, f.boundary, |x, y| f.init[y * n + x])
}

/// Scalar-layout sweeps on the calling thread: `(seconds, final grid)`.
fn seq_scalar<T: Element>(n: usize, f: &Field<T>, steps: usize) -> (f64, ScalarGrid<T>) {
    let mut j = scalar_grid(n, f);
    let t0 = Instant::now();
    for _ in 0..steps {
        j.step(&seq());
    }
    (secs(t0), j.grid().clone())
}

/// Scalar-layout sweeps under `par`: `(seconds, final grid)`.
fn par_scalar<T: Element>(
    n: usize,
    f: &Field<T>,
    steps: usize,
    rt: &Runtime,
) -> (f64, ScalarGrid<T>) {
    let (s, j) = par_sweeps(rt, scalar_grid(n, f), steps, |j, p| j.step(p));
    (s, j.grid().clone())
}

/// Cache-blocked scalar sweeps under `par`: `(seconds, final grid)`.
fn par_tiled<T: Element>(
    n: usize,
    f: &Field<T>,
    steps: usize,
    rt: &Runtime,
) -> (f64, ScalarGrid<T>) {
    let mut cur = ScalarGrid::from_fn(n, n, |x, y| f.init[y * n + x]);
    cur.set_boundary(f.boundary);
    let mut next = ScalarGrid::zeros(n, n);
    next.set_boundary(f.boundary);
    let (s, (cur, _)) = par_sweeps(rt, (cur, next), steps, |(cur, next), p| {
        jacobi_step_scalar_tiled(cur, next, p, TILE_ROWS);
        std::mem::swap(cur, next);
    });
    (s, cur)
}

fn vns<T: Element, const W: usize>(n: usize, f: &Field<T>) -> Jacobi2dVns<T, W> {
    span("grid-alloc", T::NAME, || {
        Jacobi2dVns::new(n, n, f.boundary, |x, y| f.init[y * n + x])
    })
}

/// Run `steps` VNS sweeps on `j` and check the result: seconds swept.
fn vns_op<T: Element, const W: usize>(
    j: Jacobi2dVns<T, W>,
    f: &Field<T>,
    steps: usize,
    rt: &Runtime,
) -> Result<f64, String> {
    let (s, j) = span("jacobi-sweeps", T::NAME, || {
        par_sweeps(rt, j, steps, |j, p| j.step(p))
    });
    check(f, &j.grid(), "par_vns")?;
    Ok(s)
}

/// The optimisation ladder for one precision: GLUP/s of
/// `seq_scalar`, `par_scalar`, `par_tiled` and `par_vns`, each checked
/// against the reference.
pub fn ladder<T: Element, const W: usize>(
    inp: &Inputs,
    f: &Field<T>,
    rt: &Runtime,
) -> Result<[f64; 4], String> {
    let (n, steps) = (inp.n, inp.steps);
    let (s_seq, g) = span("ladder", "seq_scalar", || seq_scalar(n, f, steps));
    check(f, &g, "seq_scalar")?;
    let (s_par, g) = span("ladder", "par_scalar", || par_scalar(n, f, steps, rt));
    check(f, &g, "par_scalar")?;
    let (s_tiled, g) = span("ladder", "par_tiled", || par_tiled(n, f, steps, rt));
    check(f, &g, "par_tiled")?;
    let s_vns = span("ladder", "par_vns", || {
        vns_op(vns::<T, W>(n, f), f, steps, rt)
    })?;
    Ok([s_seq, s_par, s_tiled, s_vns].map(|s| inp.lups() / s / 1e9))
}

/// The f64 and f32 ladders.
pub fn ladders(inp: &Inputs, rt: &Runtime) -> Result<[[f64; 4]; 2], String> {
    Ok([
        ladder::<f64, W64>(inp, &inp.f64, rt)?,
        ladder::<f32, W32>(inp, &inp.f32, rt)?,
    ])
}

/// Make the f32 reference wrong, so a correct sweep fails its check.
#[cfg(test)]
pub fn corrupt(inp: &mut Inputs) {
    let r = &mut inp.f32.reference;
    r.set(0, 0, r.get(0, 0) + 1.0);
}

pub struct Jacobi {
    pub rt: Runtime,
    /// A grid built during set-up, used by the first op of its precision.
    spare64: Option<Jacobi2dVns<f64, W64>>,
    spare32: Option<Jacobi2dVns<f32, W32>>,
}

impl Workload for Jacobi {
    type Inputs = Inputs;
    const NAME: &'static str = "jacobi2d";
    const VARIANTS: &'static [&'static str] = &PRECISIONS;
    const COUNTED: &'static [usize] = &[0, 1];

    fn inputs(seed: u64, scale: Scale) -> Inputs {
        // 384² cells: the two f64 grids are 2.25 MiB, so each worker's
        // half of them fits in a 2 MiB per-core L2.
        match scale {
            Scale::Full => generate(seed, 384, 500),
            Scale::Traced => generate(seed, 384, 100),
            Scale::Tiny => generate(seed, 64, 3),
        }
    }

    fn setup(inp: &Inputs) -> Jacobi {
        let rt = span("runtime-build", "2 workers", || {
            Runtime::builder().worker_threads(2).build()
        });
        let spare64 = Some(vns(inp.n, &inp.f64));
        let spare32 = Some(vns(inp.n, &inp.f32));
        Jacobi {
            rt,
            spare64,
            spare32,
        }
    }

    fn op(&mut self, inp: &Inputs, v: usize) -> Result<Sample, String> {
        let secs = if v == 0 {
            let j = self.spare64.take().unwrap_or_else(|| vns(inp.n, &inp.f64));
            vns_op(j, &inp.f64, inp.steps, &self.rt)?
        } else {
            let j = self.spare32.take().unwrap_or_else(|| vns(inp.n, &inp.f32));
            vns_op(j, &inp.f32, inp.steps, &self.rt)?
        };
        Ok(Sample {
            units: inp.lups(),
            secs,
        })
    }

    fn variant_metric(v: usize, rate: f64) -> (String, &'static str, f64) {
        (format!("glups.{}", PRECISIONS[v]), "GLUP/s", rate / 1e9)
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
