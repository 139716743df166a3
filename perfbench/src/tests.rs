//! The benchmark's own checks: metric names, agreement with
//! `BENCHMARK.json`, tiny smoke runs, and failure accounting.

use crate::common::{Scale, Workload};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::runner::checked_op;
use crate::{burst, census, halo, jacobi, run_workload, uts, WORKLOADS};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric object in one section of
/// `BENCHMARK.json` (a flat scan: the file is written by hand, one
/// metric object per line group, with `name` before `unit`).
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("string ends")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_use_only_the_allowed_characters() {
    for name in END_TO_END.iter().chain(PER_LAYER).chain(&WORKLOADS) {
        assert!(valid_name(name), "bad metric or workload name {name:?}");
    }
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a metric name is used twice"
    );
}

#[test]
fn benchmark_json_declares_the_metrics_the_program_prints() {
    let names = |s: &str| declared(s).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
    let workloads: Vec<String> = BENCHMARK_JSON
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .take(WORKLOADS.len())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Run `workload` at tiny size and return its report.
fn smoke(workload: &str) -> Report {
    let mut rep = Report::default();
    run_workload(workload, 7, 0.05, Scale::Tiny, &mut rep);
    rep
}

fn assert_clean(rep: &Report, keys: &[&str]) {
    assert!(rep.attempted > 0);
    assert_eq!(rep.failed, 0, "failed ops: {:?}", rep.errors);
    let out = rep.render(keys);
    let last = out.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true"), "{out}");
}

#[test]
fn smoke_halo_latency() {
    assert_clean(&smoke("halo-latency"), &END_TO_END);
}

#[test]
fn smoke_parcel_burst() {
    assert_clean(&smoke("parcel-burst"), &END_TO_END);
}

#[test]
fn smoke_jacobi2d() {
    assert_clean(&smoke("jacobi2d"), &END_TO_END);
}

#[test]
fn smoke_uts() {
    assert_clean(&smoke("uts"), &END_TO_END);
}

#[test]
fn smoke_traced_census_reports_every_declared_per_layer_metric() {
    let mut rep = Report::default();
    let traces = census::census("halo-latency", 7, 0.2, Scale::Tiny, &mut rep);
    assert!(!traces.is_empty());
    assert_clean(&rep, PER_LAYER);
    for (name, unit) in declared("per_layer") {
        let m = rep
            .metrics
            .iter()
            .find(|m| m.name == name)
            .expect("measured");
        assert_eq!(m.unit, unit, "unit of {name}");
    }
    assert_eq!(rep.get("locality.sent_minus_received"), Some(0.0));
    assert_eq!(rep.get("reliable.retransmits"), Some(0.0));
    assert!(rep.get("attr.conservation_err_pct").unwrap() <= 1.0);
}

/// One op of variant `v` against inputs whose reference was corrupted
/// must count as failed.
fn corrupted_op_fails<W: Workload>(
    mut inp: W::Inputs,
    corrupt: impl FnOnce(&mut W::Inputs),
    v: usize,
) {
    let mut w = W::setup(&inp);
    let mut rep = Report::default();
    assert!(
        checked_op(&mut w, &inp, v, &mut rep).is_some(),
        "{:?}",
        rep.errors
    );
    corrupt(&mut inp);
    assert!(checked_op(&mut w, &inp, v, &mut rep).is_none());
    w.shutdown();
    assert_eq!((rep.attempted, rep.failed), (2, 1));
    let out = rep.render(&[]);
    assert!(
        out.lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"),
        "{out}"
    );
}

#[test]
fn corrupted_results_count_as_failed_ops() {
    corrupted_op_fails::<halo::Halo>(halo::Halo::inputs(3, Scale::Tiny), halo::corrupt, 1);
    corrupted_op_fails::<burst::Burst>(burst::Burst::inputs(3, Scale::Tiny), burst::corrupt, 0);
    corrupted_op_fails::<jacobi::Jacobi>(
        jacobi::Jacobi::inputs(3, Scale::Tiny),
        jacobi::corrupt,
        1,
    );
    corrupted_op_fails::<uts::Uts>(uts::Uts::inputs(3, Scale::Tiny), uts::corrupt, 0);
}

#[test]
fn inputs_depend_only_on_the_seed() {
    let params = |seed| halo::Halo::inputs(seed, Scale::Tiny).params;
    let (a, b, c) = (params(11), params(11), params(12));
    assert_eq!(
        (a.total_points, a.r.to_bits()),
        (b.total_points, b.r.to_bits())
    );
    assert_ne!(a.r.to_bits(), c.r.to_bits());
    assert_eq!(
        uts::Uts::inputs(11, Scale::Tiny).expected,
        uts::Uts::inputs(11, Scale::Tiny).expected
    );
}
