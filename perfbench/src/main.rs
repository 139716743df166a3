//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <halo-latency|parcel-burst|jacobi2d|uts> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a workload runs untraced for `--seconds` and prints
//! its end-to-end metrics; with `--trace 1` the run measures every
//! per-layer metric instead (see `census`) and writes the benchmark's
//! own spans and the named workload's runtime trace, both loadable in
//! Perfetto, under `.bench_out/`. Every metric is printed as a table
//! row with its unit and sample count; the last line is the JSON result.
//! Inputs come only from `--seed`. Each run uses at most two runtime
//! worker threads and two loopback connections per cluster.

mod burst;
mod census;
mod common;
mod halo;
mod jacobi;
mod layers;
mod report;
mod runner;
mod spans;
#[cfg(test)]
mod tests;
mod uts;

use common::Scale;
use parallex::introspect::chrome_trace_json;
use report::{Report, END_TO_END, PER_LAYER};
use std::time::Duration;

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 4] = ["halo-latency", "parcel-burst", "jacobi2d", "uts"];

/// A run that has not finished by then is hung: it exits without a result.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds {value}: must be in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Run one untraced workload at `scale` into `rep`.
pub fn run_workload(workload: &str, seed: u64, seconds: f64, scale: Scale, rep: &mut Report) {
    match workload {
        "halo-latency" => runner::run_e2e::<halo::Halo>(seed, seconds, scale, rep),
        "parcel-burst" => runner::run_e2e::<burst::Burst>(seed, seconds, scale, rep),
        "jacobi2d" => runner::run_e2e::<jacobi::Jacobi>(seed, seconds, scale, rep),
        "uts" => runner::run_e2e::<uts::Uts>(seed, seconds, scale, rep),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

fn write_out(name: &str, text: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("perfbench: no result after {HARD_LIMIT:?}; an op is hung");
        std::process::exit(3);
    });
    let mut rep = Report::default();
    let text = if args.trace {
        spans::enable();
        let traces = census::census(
            &args.workload,
            args.seed,
            args.seconds,
            Scale::Full,
            &mut rep,
        );
        let stem = format!("{}-seed{}", args.workload, args.seed);
        for (file, body) in [
            (format!("{stem}.spans.json"), spans::chrome_json()),
            (format!("{stem}.runtime.json"), chrome_trace_json(&traces)),
        ] {
            match write_out(&file, &body) {
                Ok(path) => eprintln!("perfbench: wrote {path}"),
                Err(e) => {
                    rep.check(Err(format!("writing {file}: {e}")));
                }
            }
        }
        rep.render(PER_LAYER)
    } else {
        run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            Scale::Full,
            &mut rep,
        );
        rep.render(&END_TO_END)
    };
    print!("{text}");
}
