//! Quickstart: train TGAT on a Wiki-shaped CTDG for temporal link
//! prediction, then evaluate on the held-out chronological test split.
//!
//! ```sh
//! cargo run --release -p tgl-examples --bin quickstart
//! # with observability:
//! cargo run --release -p tgl-examples --bin quickstart -- \
//!     --prof --trace-out trace.json --metrics-out report.json
//! ```
//!
//! This walks through the full TGLite workflow from the paper:
//! build a `TGraph`, wrap a `TContext`, construct a model from the
//! framework's composable pieces, and drive epochs with the harness.
//! The observability flags mirror the `tgl` CLI: `--prof` prints the
//! per-phase breakdown, `--profile` prints the per-operator roofline
//! table (with `--profile-out <PATH>` writing the `tgl-profile/v1`
//! JSON artifact), `--trace-out` writes a Chrome trace (open in
//! chrome://tracing or ui.perfetto.dev), `--metrics-out` writes a
//! structured JSON run report, `--critpath` prints the per-stage
//! critical-path table after the run (`--critpath-out <PATH>` writes
//! the `tgl-critpath/v1` artifact), `--flight-out <PATH>` writes a
//! flight-recorder dump (`--flight off` disables the always-on
//! recorder), `--serve-metrics <ADDR>` serves live `/metrics`,
//! `/healthz`, `/report.json`, `/critpath.json`, `/flight.json`,
//! `/timeseries.json`, `/alerts.json`, and the live `/dashboard`
//! page over HTTP while training (`--serve-hold` keeps serving until
//! `GET /quit`; serving also enables the time-series store and a
//! background sampler so the dashboard stays live), and `--move`
//! exercises the CPU-to-GPU placement (per-batch metered transfers).
//! `--slo <PATH>` (or `TGL_SLO`) loads SLO alert rules evaluated each
//! training step against the retained series, with firings routed
//! through the `--health <off|warn|fail>` policy (`TGL_HEALTH`) and
//! summarized at end of run; `--lr <F>` overrides the Adam learning
//! rate (handy for deliberately diverging a run to watch an alert
//! fire). `--insight` turns on the model & data introspection layer
//! (per-parameter-group gradient/weight norms and update ratios,
//! dead-activation fractions, memory staleness, neighbor time-delta
//! spread, negative-sampling collisions, dedup effectiveness) and
//! prints the per-layer table at end of run; `--insight-out <PATH>`
//! also writes the `tgl-insight/v1` artifact.
//! `--kernel <exact|fast>` (or `TGL_KERNEL`) selects the tensor
//! kernel contract: `exact` (default) is bitwise identical to the
//! scalar reference kernels, `fast` enables the FMA/vector-exp SIMD
//! paths with tolerance-level differences.
//! `--pipeline <N>` turns on the pipelined
//! trainer: a sampler stage prefetches up to N batches (negative
//! draws, neighbor sampling, transfer staging) ahead of the compute
//! stage over a bounded channel; 0 (the default) is the sequential
//! reference, and losses are bitwise identical at any depth.

use tgl_data::{generate, DatasetKind, DatasetSpec, Split};
use tgl_device::{Device, TransferModel};
use tgl_harness::{RunReporter, TrainConfig, Trainer};
use tgl_models::{ModelConfig, OptFlags, TemporalModel, Tgat};
use tglite::TContext;

/// Minimal `--key value` / `--flag` scan, so the example stays free of
/// the CLI crate.
fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    let scale: usize = arg_value("--scale").map_or(2, |v| v.parse().expect("--scale"));
    let epochs: usize = arg_value("--epochs").map_or(3, |v| v.parse().expect("--epochs"));
    let custom_lr = arg_value("--lr");
    let lr: f32 = custom_lr.as_deref().map_or(1e-3, |v| v.parse().expect("--lr"));
    let show_prof = arg_flag("--prof");
    let trace_out = arg_value("--trace-out").map(std::path::PathBuf::from);
    let metrics_out = arg_value("--metrics-out").map(std::path::PathBuf::from);
    let profile_out = arg_value("--profile-out").map(std::path::PathBuf::from);
    let profiling = arg_flag("--profile") || profile_out.is_some();
    let critpath_out = arg_value("--critpath-out").map(std::path::PathBuf::from);
    let critpath = arg_flag("--critpath") || critpath_out.is_some();
    let host_resident = arg_flag("--move");
    tgl_harness::install_flight_hook();
    if let Some(v) = arg_value("--flight") {
        tglite::obs::flight::enable(!matches!(v.as_str(), "off" | "0"));
    }
    if let Some(mode) = arg_value("--kernel") {
        let m = tgl_tensor::kernel::parse(&mode).expect("--kernel: use exact or fast");
        tgl_tensor::kernel::set_mode(m);
    }
    println!(
        "kernel: {} mode, simd {}",
        tgl_tensor::kernel::mode().label(),
        tgl_tensor::kernel::simd_label()
    );
    if trace_out.is_some() || critpath {
        tglite::obs::trace::enable(true);
    }
    if profiling {
        tglite::obs::profile::enable(true);
    }
    if let Some(policy) = arg_value("--health") {
        // Through the environment so the trainer picks the policy up.
        std::env::set_var("TGL_HEALTH", policy);
    }
    let serving = if let Some(addr) = arg_value("--serve-metrics") {
        let bound = tglite::obs::expo::start(&addr).expect("--serve-metrics bind");
        println!("metrics server listening on http://{bound}/metrics");
        Some(bound)
    } else {
        tglite::obs::expo::start_from_env().inspect(|bound| {
            println!("metrics server listening on http://{bound}/metrics");
        })
    };
    // SLO alert rules: installed before the first step; implies the
    // time-series store the rules evaluate against.
    let slo_path =
        arg_value("--slo").or_else(|| std::env::var("TGL_SLO").ok().filter(|p| !p.is_empty()));
    if let Some(path) = &slo_path {
        let rules = tglite::obs::alert::RuleSet::from_file(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("--slo {path}: {e}"));
        println!("slo: loaded {} alert rule(s) from {path}", rules.rules.len());
        tglite::obs::alert::install(rules);
        tglite::obs::timeseries::enable(true);
    }
    if serving.is_some() {
        // The live /dashboard needs retained series and a background
        // sampler so it keeps moving between (and after) train steps.
        tglite::obs::timeseries::enable(true);
        tglite::obs::timeseries::start_sampler(500);
    }
    let insight_out = arg_value("--insight-out").map(std::path::PathBuf::from);
    let insight = arg_flag("--insight") || insight_out.is_some();
    if insight {
        // Insight series flow through the time-series store, so the
        // flag implies retention (same as --slo).
        tglite::obs::insight::enable(true);
        tglite::obs::timeseries::enable(true);
    }

    // 1. A continuous-time dynamic graph. Here: a synthetic stream
    //    shaped like the paper's Wiki dataset (bipartite user–page
    //    edits with heavy repeat interactions). Swap in
    //    `tgl_data::load_csv` for your own `src,dst,time` data.
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(scale);
    let (graph, stats) = generate(&spec);
    println!(
        "graph: {} nodes, {} edges, d_v={}, d_e={}, {:.0}% repeat interactions",
        stats.num_nodes,
        stats.num_edges,
        stats.d_node,
        stats.d_edge,
        stats.repeat_fraction * 100.0
    );

    // 2. The TGLite runtime context: target device, pinned pool,
    //    embedding/time caches. With `--move`, features stay on the
    //    host while compute targets the accelerator, so every batch
    //    crosses the (simulated, scaled) PCIe link — the paper's
    //    CPU-to-GPU placement.
    let ctx = if host_resident {
        tgl_device::set_transfer_model(TransferModel::scaled(TransferModel::pcie_v100(), 400.0));
        TContext::with_device(graph.clone(), Device::Accel)
    } else {
        TContext::new(graph.clone())
    };

    // 3. A model composed from TGLite building blocks: 2 layers of
    //    temporal attention over 10 recent neighbors, with the paper's
    //    "TGLite+opt" operators (preload/dedup/cache/time-precompute).
    let mut model = Tgat::new(
        &ctx,
        ModelConfig {
            emb_dim: 32,
            time_dim: 16,
            heads: 2,
            n_layers: 2,
            n_neighbors: 10,
            mailbox_slots: 1,
        },
        OptFlags::all(),
        42,
    );
    println!(
        "model: {} with {} parameters",
        model.name(),
        model
            .parameters()
            .iter()
            .map(tglite::tensor::Tensor::numel)
            .sum::<usize>()
    );

    // 4. Chronological 70/15/15 split and the training loop, with an
    //    optional run reporter snapshotting phases + counters per epoch.
    let split = Split::standard(&graph);
    let mut trainer = Trainer::new(
        TrainConfig {
            batch_size: 200,
            epochs,
            lr,
            seed: 0,
        },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    );
    // `--pipeline N` overlaps sampling/staging with compute over a
    // bounded channel of depth N; losses stay bitwise identical to the
    // sequential default (depth 0).
    if let Some(depth) = arg_value("--pipeline") {
        trainer = trainer.with_pipeline(depth.parse().expect("--pipeline"));
    }
    if trainer.pipeline_depth() > 0 {
        println!("pipeline: sampler stage prefetching up to {} batches", trainer.pipeline_depth());
    }
    let mut reporter = (show_prof || profiling || metrics_out.is_some() || serving.is_some()).then(|| {
        let mut rep = RunReporter::start();
        rep.set_meta("model", "TGAT");
        rep.set_meta("dataset", "Wiki");
        rep.set_meta_num("scale", scale as f64);
        rep
    });
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), lr);
    let mut best_val = 0.0f64;
    for e in 0..epochs {
        let s = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, e);
        best_val = best_val.max(s.val_ap);
        println!(
            "epoch {}: loss {:.4}  val AP {:.2}%  ({:.1}s)",
            e + 1,
            s.loss,
            s.val_ap * 100.0,
            s.train_time_s
        );
        if let Some(rep) = reporter.as_mut() {
            rep.record_epoch(e, &s);
            if show_prof {
                if let Some(er) = rep.epochs_so_far().last() {
                    for (phase, secs) in &er.phases_s {
                        println!("    {phase:<14} {secs:8.3}s");
                    }
                }
            }
        }
    }
    let (test_ap, test_s) = trainer.evaluate(&mut model, &ctx, split.test.clone());
    println!("best val AP: {:.2}%", best_val * 100.0);
    println!("test AP: {:.2}% (inference took {test_s:.2}s)", test_ap * 100.0);

    if let Some(rep) = reporter {
        let report = rep.finish(test_ap, test_s);
        if let Some(path) = &metrics_out {
            report.save(path).expect("write run report");
            println!("run report written to {}", path.display());
        }
        if profiling {
            tglite::obs::profile::enable(false);
            let roof = tgl_harness::profrep::Roofline::detect();
            let rows = tgl_harness::profrep::analyze(&report.profile, &roof);
            print!("{}", tgl_harness::profrep::render_table(&rows, &roof, 15));
            let coverage =
                tgl_harness::profrep::phase_coverage(&report.profile, &report.phases_total_s);
            print!("{}", tgl_harness::profrep::render_coverage(&coverage));
            if let Some(path) = &profile_out {
                std::fs::write(path, tglite::obs::profile::to_json(&report.profile))
                    .expect("write op profile");
                println!("op profile written to {}", path.display());
            }
        }
    }
    if trace_out.is_some() || critpath {
        let spans = tglite::obs::trace::take();
        tglite::obs::trace::enable(false);
        if let Some(path) = &trace_out {
            std::fs::write(path, tglite::obs::trace::to_chrome_json(&spans)).expect("write trace");
            println!(
                "chrome trace with {} spans written to {}",
                spans.len(),
                path.display()
            );
        }
        if critpath {
            let analysis = tglite::obs::critpath::analyze(&spans);
            print!("{}", tglite::obs::critpath::render_table(&analysis));
            if let Some(path) = &critpath_out {
                std::fs::write(path, tglite::obs::critpath::to_json(&analysis))
                    .expect("write critpath artifact");
                println!("critpath artifact written to {}", path.display());
            }
        }
    }
    if let Some(path) = arg_value("--flight-out") {
        std::fs::write(&path, tglite::obs::flight::to_json("request")).expect("write flight dump");
        println!("flight dump written to {path}");
    }
    if insight {
        print!("{}", tglite::obs::insight::render_table(8));
        if let Some(path) = &insight_out {
            std::fs::write(path, tglite::obs::insight::to_json()).expect("write insight artifact");
            println!("insight artifact written to {}", path.display());
        }
    }

    // The learning signal needs the full-size stream, all epochs, and
    // the default learning rate; a scaled-down quick run (or a
    // deliberately diverged one) only checks the plumbing.
    if scale <= 2 && epochs >= 3 && !host_resident && custom_lr.is_none() {
        assert!(test_ap > 0.5, "model should beat random");
    }

    if tglite::obs::alert::installed() {
        for st in tglite::obs::alert::status() {
            println!(
                "alert {}: fired {}x on {} ({})",
                st.rule.name,
                st.fired_total,
                st.rule.metric,
                if st.firing { "firing" } else { "ok" }
            );
        }
    }
    if serving.is_some() && arg_flag("--serve-hold") {
        println!("holding for scrape: GET /quit to release (10 min timeout)");
        tglite::obs::expo::wait_for_quit(std::time::Duration::from_secs(600));
    }
    tglite::obs::timeseries::stop_sampler();
    tgl_device::set_transfer_model(TransferModel::disabled());
}
