//! End-to-end and per-layer benchmark of the TGLite reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced loop and reports the per-layer ledger.
//! Both run the correctness checks. Human-readable lines come first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `e2ebench/README.md`.

mod ledger;
mod runs;
mod stats;
mod workload;

use std::process::ExitCode;

use runs::{Metric, Outcome};
use workload::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: tgl-e2ebench --workload <name> --seed <u64> --seconds <n> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".to_string(),
    }
}

fn json_result(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that could not be
            // measured makes the run incorrect (checked by the caller).
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every knob is pinned through public setters below; an inherited
    // TGL_* variable would change behaviour behind them.
    let stray: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("TGL_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if !stray.is_empty() {
        eprintln!(
            "refusing to run with TGL_* environment variables set: {}",
            stray.join(" ")
        );
        return ExitCode::from(2);
    }
    let w = args.workload;
    tgl_runtime::set_threads(w.threads);
    tgl_tensor::kernel::set_mode(tgl_tensor::kernel::KernelMode::Exact);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: nproc={nproc} simd={} kernel={} threads={} pipeline={} transfer={} commit={} env TGL_*: none",
        tgl_tensor::kernel::simd_label(),
        tgl_tensor::kernel::mode().label(),
        tgl_runtime::current_threads(),
        w.pipeline,
        if w.host_resident { "pcie_v100 x400" } else { "disabled" },
        commit()
    );
    println!(
        "workload: {} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut out = Outcome::default();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.trace {
            runs::traced(&w, args.seed, args.seconds, &mut out)
        } else {
            runs::end_to_end(&w, args.seed, args.seconds, &mut out)
        }
    }));
    let metrics = match run {
        Ok(metrics) => metrics,
        Err(payload) => {
            let why = if let Some(oom) = payload.downcast_ref::<tgl_tensor::DeviceOom>() {
                format!("device OOM: {}", oom.0)
            } else if let Some(s) = payload.downcast_ref::<String>() {
                format!("panic: {s}")
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                format!("panic: {s}")
            } else {
                "panic".to_string()
            };
            out.abort(why);
            Vec::new()
        }
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        let detail = format!("{} = {}", bad.name, bad.value);
        out.checks.push(("metrics_finite".into(), false, detail));
    }
    for line in &out.notes {
        println!("{line}");
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "check {name}: {} ({detail})",
            if *ok { "ok" } else { "FAIL" }
        );
    }
    for mt in &metrics {
        println!("metric {} = {} {}", mt.name, mt.value, mt.unit);
    }
    println!("{}", json_result(&out, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let metrics = [Metric {
            name: "epoch_s",
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            json_result(&out, &metrics),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"epoch_s": {"value": 1.25, "unit": "s"}}}"#
        );
    }

    #[test]
    fn work_is_fixed_by_seconds_with_minimums() {
        let by = |n| Workload::by_name(n).expect("known workload");
        assert_eq!(by("train-tgat-wiki").units(30.0), 3);
        assert_eq!(by("train-tgn-move-pipe").units(30.0), 3);
        assert_eq!(by("infer-tgat-gdelt").units(30.0), 60);
        assert_eq!(by("train-tgat-wiki").units(1.0), 2);
        assert_eq!(by("infer-tgat-gdelt").units(1.0), 12);
    }

    #[test]
    fn a_panic_fails_every_planned_operation() {
        let mut out = Outcome {
            attempted: 10,
            planned: 30,
            ..Outcome::default()
        };
        out.abort("panic: boom".into());
        assert_eq!((out.attempted, out.failed, out.planned), (40, 30, 0));
        assert!(!out.correct());
        // Nothing left in the plan: the operation in flight still fails.
        let mut out = Outcome::default();
        out.abort("panic".into());
        assert_eq!((out.attempted, out.failed), (1, 1));
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert!(Workload::by_name("nosuch").is_none());
    }
}
