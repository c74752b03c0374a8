//! Acceptance suite for the pipelined dataflow trainer: a sampler
//! stage prefetching batches over a bounded channel must be
//! *observationally invisible* next to the sequential reference —
//! bitwise-identical epoch losses and validation AP at every queue
//! depth and worker-pool width, identical deltas on the work counters
//! the prefetched stages own (sampling, dedup, preload, transfers),
//! and unchanged health semantics (a poisoned batch is skipped, not
//! crashed, and the flight recorder still yields a parseable dump).
//!
//! The counters and the thread pool are process-global, so every test
//! holds the `serial()` lock and restores a single-threaded pool.

use std::sync::{Mutex, MutexGuard};

use tgl_data::{generate, DatasetKind, DatasetSpec, Json, Split};
use tgl_harness::{HealthPolicy, TrainConfig, Trainer};
use tgl_models::{ModelConfig, OptFlags, TemporalModel, Tgat, Tgn};
use tgl_runtime::set_threads;
use tglite::obs::metrics;
use tglite::TContext;

/// Serializes tests: counters, health events, and pool size are global.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The counters owned by the stages the pipeline moves off-thread.
/// `tensor.pool.*` is deliberately absent: pool hit/miss depends on
/// allocation interleaving across threads, not on the work performed.
const TRACKED: [&str; 8] = [
    "sampler.queries",
    "sampler.neighbors",
    "dedup.rows_in",
    "dedup.rows_saved",
    "preload.calls",
    "preload.tensors_moved",
    "transfer.count",
    "transfer.h2d_bytes",
];

fn counters() -> Vec<u64> {
    TRACKED.iter().map(|n| metrics::get(n)).collect()
}

/// Per-epoch `(loss, val_ap)` bits plus tracked counter deltas.
type RunResult = (Vec<(u32, u64)>, Vec<u64>);

/// Builds a model (all operators on) for a context.
type Build = fn(&TContext) -> Box<dyn TemporalModel>;

/// The models whose block chain the sampler stage prefetches.
const MODELS: [(&str, Build); 2] = [
    ("TGAT", |ctx| Box::new(Tgat::new(ctx, ModelConfig::tiny(), OptFlags::all(), 5))),
    ("TGN", |ctx| Box::new(Tgn::new(ctx, ModelConfig::tiny(), OptFlags::all(), 5))),
];

/// Trains 2 epochs of `build`'s model at the given pipeline depth,
/// returning per-epoch `(loss, val_ap)` bits and the tracked counter
/// deltas.
fn run(build: Build, depth: usize) -> RunResult {
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(20);
    let (g, _) = generate(&spec);
    let split = Split::standard(&g);
    let ctx = TContext::new(g.clone());
    let mut model = build(&ctx);
    let trainer = Trainer::new(
        TrainConfig {
            batch_size: 60,
            epochs: 2,
            lr: 1e-3,
            seed: 9,
        },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_pipeline(depth);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    let before = counters();
    let stats = (0..2)
        .map(|e| {
            let s = trainer.train_epoch(model.as_mut(), &ctx, &split, &mut opt, e);
            (s.loss.to_bits(), s.val_ap.to_bits())
        })
        .collect();
    let after = counters();
    let deltas = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    (stats, deltas)
}

/// The tentpole contract, for TGAT and TGN (whose whole block chain
/// the sampler stage builds): at queue depths 1, 2, and 4 and pool
/// widths 1 and 4, the pipelined trainer reproduces the sequential
/// epoch losses and validation AP *bitwise*, and fires each stage
/// counter exactly as often — sampling/dedup/staging moved threads,
/// but not semantics. The sequential reference itself must also be
/// invariant across pool widths (the runtime's determinism contract).
#[test]
fn pipelined_matches_sequential_bitwise_across_depths_and_threads() {
    let _g = serial();
    for (name, build) in MODELS {
        let mut baseline: Option<RunResult> = None;
        for threads in [1usize, 4] {
            set_threads(threads);
            let sequential = run(build, 0);
            assert!(
                sequential.1[0] > 0 && sequential.1[2] > 0,
                "{name}: reference run exercised no sampling/dedup work: {:?}",
                sequential.1
            );
            match &baseline {
                None => baseline = Some(sequential.clone()),
                Some(b) => assert_eq!(
                    b, &sequential,
                    "{name}: sequential reference not invariant across thread counts"
                ),
            }
            for depth in [1usize, 2, 4] {
                let piped = run(build, depth);
                assert_eq!(
                    sequential.0, piped.0,
                    "{name}: losses/val-AP diverged at depth {depth}, {threads} threads"
                );
                assert_eq!(
                    sequential.1, piped.1,
                    "{name}: counter deltas {TRACKED:?} diverged at depth {depth}, {threads} threads"
                );
            }
        }
    }
    set_threads(1);
}

/// Health semantics survive pipelining: with poisoned parameters every
/// prefetched batch produces a NaN loss, and the `warn` policy must
/// skip each one (recording `trainer.loss` events) while the epoch —
/// including the sampler-stage shutdown — completes cleanly, and the
/// flight recorder still renders a parseable dump.
#[test]
fn pipelined_nan_batches_are_skipped_not_crashed() {
    let _g = serial();
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(20);
    let (g, _) = generate(&spec);
    let split = Split::standard(&g);
    let ctx = TContext::new(g.clone());
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 7);
    for p in model.parameters() {
        p.with_data_mut(|d| d.fill(f32::NAN));
    }
    let trainer = Trainer::new(
        TrainConfig {
            batch_size: 60,
            epochs: 1,
            lr: 1e-3,
            seed: 3,
        },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_health(HealthPolicy::Warn)
    .with_pipeline(2);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    let events0 = tglite::obs::health::events().len();
    let nonfinite0 = metrics::get("health.nonfinite_loss");
    let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
    assert_eq!(stats.loss, 0.0, "skipped batches should contribute no loss");
    let events = tglite::obs::health::events();
    assert!(
        events[events0..].iter().any(|e| e.source == "trainer.loss"),
        "pipelined NaN loss recorded no trainer.loss health event"
    );
    assert!(
        metrics::get("health.nonfinite_loss") > nonfinite0,
        "health.nonfinite_loss counter did not advance under pipelining"
    );
    let dump = tglite::obs::flight::to_json("pipeline-test");
    let doc = Json::parse(&dump).expect("flight dump must stay parseable");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("tgl-flight/v1"),
        "unexpected flight dump schema"
    );
}
