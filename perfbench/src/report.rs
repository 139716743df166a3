//! Metric collection, failure accounting and output: a human-readable
//! table (name, value, unit, sample count) followed by the one-line JSON
//! result the benchmark contract asks for.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [&str; 2] = ["setup_s", "units_per_s"];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[&str] = &[
    "parcel.encode_ns",
    "parcel.decode_ns",
    "parcel.serialize_ns",
    "tcp.writes_per_parcel.halo",
    "tcp.bytes_per_parcel.halo",
    "tcp.writes_per_parcel.burst",
    "tcp.bytes_per_parcel.burst",
    "locality.call_rtt_us.inproc",
    "locality.call_rtt_us.tcp",
    "locality.call_rtt_us.reliable",
    "call_rtt_us_tail.inproc",
    "call_rtt_us_tail.tcp",
    "call_rtt_us_tail.reliable",
    "locality.sent_minus_received",
    "reliable.overhead_pct",
    "reliable.acks_per_data",
    "reliable.retransmits",
    "sched.spawn_ns",
    "sched.steal_success",
    "sched.parks_per_ktask",
    "sched.wakes_per_ktask",
    "sched.busy_frac",
    "lcos.future_handoff_us",
    "algorithms.par_for_each_us",
    "kernel.glups.f64.seq_scalar",
    "kernel.glups.f64.par_scalar",
    "kernel.glups.f64.par_tiled",
    "kernel.glups.f64.par_vns",
    "kernel.glups.f32.seq_scalar",
    "kernel.glups.f32.par_scalar",
    "kernel.glups.f32.par_tiled",
    "kernel.glups.f32.par_vns",
    "kernel.bytes_per_lup.f64",
    "kernel.bytes_per_lup.f32",
    "kernel.roofline_frac.f64",
    "kernel.roofline_frac.f32",
    "memory.llc_mib",
    "memory.stream_array_mib",
    "memory.stream_copy_gbs",
    "memory.stream_triad_gbs",
    "uts.seq_mnodes_per_s",
    "uts.speedup",
    "uts.tasks_per_node",
    "step_us.inproc",
    "step_us.tcp",
    "step_us.reliable",
    "step_us_tail.inproc",
    "step_us_tail.tcp",
    "step_us_tail.reliable",
    "parcels_per_s.tcp",
    "parcels_per_s.reliable",
    "glups.f64",
    "glups.f32",
    "mnodes_per_s",
    "attr.compute_pct",
    "attr.parcel_pct",
    "attr.exposed_wait_pct",
    "attr.steal_pct",
    "attr.park_pct",
    "attr.idle_pct",
    "attr.conservation_err_pct",
    "attr.parcel_flight_us",
    "trace.overhead_pct.halo-latency",
    "trace.overhead_pct.parcel-burst",
    "trace.overhead_pct.jacobi2d",
    "trace.overhead_pct.uts",
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises.
    pub n: usize,
    /// Free-text qualifier, e.g. which percentile a tail is.
    pub note: String,
}

/// Everything one run measured, and its operation ledger.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.add_note(name, value, unit, n, String::new());
    }

    pub fn add_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        n: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
            note,
        });
    }

    /// Count one operation: a failure when `r` is an error. Returns
    /// whether it succeeded.
    pub fn check(&mut self, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                false
            }
        }
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The table of every metric, then the JSON result line carrying
    /// the metrics named in `keys`. The result is correct only if no op
    /// failed and every key was measured with a finite value.
    pub fn render(&self, keys: &[&str]) -> String {
        let mut out = String::new();
        for e in &self.errors {
            writeln!(out, "FAILED: {e}").expect("String write");
        }
        for m in &self.metrics {
            writeln!(
                out,
                "{:<34} {:>16.6} {:<9} n={}{}{}",
                m.name,
                m.value,
                m.unit,
                m.n,
                if m.note.is_empty() { "" } else { " " },
                m.note
            )
            .expect("String write");
        }
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut json = String::new();
        for key in keys {
            match self
                .metrics
                .iter()
                .find(|m| m.name == *key && m.value.is_finite())
            {
                Some(m) => {
                    if !json.is_empty() {
                        json.push_str(", ");
                    }
                    write!(
                        json,
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                    .expect("String write");
                }
                None => {
                    correct = false;
                    writeln!(out, "MISSING: {key}").expect("String write");
                }
            }
        }
        // A run that attempted nothing is a failed run, not an empty one.
        let (attempted, failed) = if self.attempted == 0 {
            (1, 1)
        } else {
            (self.attempted, self.failed)
        };
        writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
        )
        .expect("String write");
        out
    }
}
