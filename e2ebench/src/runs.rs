//! The two kinds of run: end-to-end (untraced, `--trace 0`) and traced
//! (`--trace 1`), each with its correctness checks.

use std::collections::BTreeMap;
use std::time::Instant;

use tgl_harness::{HealthMonitor, HealthPolicy};

use crate::ledger::Ledger;
use crate::stats;
use crate::workload::{
    epoch_traced, epoch_untraced, score_prefix, score_range, setup, trainer, Epoch, Fingerprint,
    Scored, Setup, Workload, BATCH, MODEL_CFG,
};

/// Set-ups timed at the start of every run; `setup_s` is the median of
/// these and of the training repetitions' own set-ups.
const SETUPS: usize = 9;
/// Cold scoring passes after each training epoch. Interleaving them
/// with the epochs spreads the inference samples over the whole run.
const PASSES_PER_EPOCH: usize = 2;
/// Cold passes between fresh set-ups on the inference workload. Its
/// set-up lasts tens of milliseconds, so set-ups timed only at the start
/// of a run would sample one moment of the host's speed; interleaving
/// them spreads the `setup_s` samples over the run, as the passes are.
const PASSES_PER_SETUP: usize = 5;
/// Untrained models whose mean AP is the inference workload's `val_ap`.
/// An untrained model's AP is set mostly by its parameter
/// initialisation (0.40 to 0.61 over seeds), so one model's AP spreads
/// across seeds about as widely as the metric's bound.
const AP_INITS: u64 = 4;
/// Batches compared bitwise between TGLite+opt and TGLite.
const SEMANTIC_PREFIX: usize = 10;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed, correctness checks, and the lines
/// printed ahead of the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Training steps and inference batches attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Operations the run still plans at minimum; a caught panic counts
    /// them all as failed.
    pub planned: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Human-readable lines (ledger, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    fn epoch(&mut self, e: &Epoch) {
        let ops = e.steps + e.val_batches;
        self.attempted += ops;
        self.failed += e.failed_steps + e.failed_val_batches;
        self.planned = self.planned.saturating_sub(ops);
    }

    fn pass(&mut self, p: &Scored) {
        self.attempted += p.batches;
        self.failed += p.failed_batches;
        self.planned = self.planned.saturating_sub(p.batches);
    }

    /// Charges a caught panic: every operation still planned, and at
    /// least the one in flight, failed.
    pub fn abort(&mut self, why: String) {
        let lost = self.planned.max(1);
        self.attempted += lost;
        self.failed += lost;
        self.planned = 0;
        self.check("no_panic", false, why);
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }
}

fn epoch_ops(s: &Setup) -> u64 {
    (s.split.train.len().div_ceil(BATCH) + s.split.val.len().div_ceil(BATCH)) as u64
}

fn pass_ops(w: &Workload, s: &Setup) -> u64 {
    w.scored_range(&s.split).len().div_ceil(BATCH) as u64
}

fn timed_setup(w: &Workload, seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let s = setup(w, seed, &mut Ledger::new(false));
    (s, t.elapsed().as_secs_f64())
}

fn all_equal<T: PartialEq>(xs: &[T]) -> bool {
    xs.windows(2).all(|p| p[0] == p[1])
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Checks that TGLite+opt's scores equal preload-only TGLite's bitwise
/// on the first batches of the test split, both starting cold.
fn check_semantics(w: &Workload, s: &mut Setup, seed: u64, out: &mut Outcome) {
    let range = s.split.test.clone();
    let opt_scores = score_prefix(
        s.model.as_mut(),
        &s.ctx,
        s.negs,
        seed,
        range.clone(),
        SEMANTIC_PREFIX,
    );
    let mut plain = tgl_harness::runner::build_model(
        tgl_harness::Framework::TgLite,
        w.model,
        &s.ctx,
        MODEL_CFG,
        seed,
    );
    let plain_scores = score_prefix(plain.as_mut(), &s.ctx, s.negs, seed, range, SEMANTIC_PREFIX);
    let bits = |v: &[(Vec<f32>, Vec<f32>)]| {
        let mut fp = Fingerprint::default();
        for (p, n) in v {
            fp.add_scores(p);
            fp.add_scores(n);
        }
        fp
    };
    let ok = !opt_scores.is_empty() && bits(&opt_scores) == bits(&plain_scores);
    out.check(
        "opt_scores_equal_tglite",
        ok,
        format!("{} batches compared bitwise", opt_scores.len()),
    );
}

/// The inference workload's `val_ap`: the mean AP of cold passes by
/// [`AP_INITS`] untrained models, the run's own (which scored `first`)
/// and ones with parameter seeds `seed + 1`, `seed + 2`, …, all on the
/// same data and negatives. These passes are untimed.
fn untrained_ap(w: &Workload, s: &mut Setup, seed: u64, first: f64, out: &mut Outcome) -> f64 {
    out.planned += (AP_INITS - 1) * pass_ops(w, s);
    let mut health = HealthMonitor::new(HealthPolicy::Warn);
    let mut sum = first;
    for k in 1..AP_INITS {
        s.model = tgl_harness::runner::build_model(
            tgl_harness::Framework::TgLiteOpt,
            w.model,
            &s.ctx,
            MODEL_CFG,
            seed.wrapping_add(k),
        );
        let range = w.scored_range(&s.split);
        let p = score_range(
            &mut Ledger::new(false),
            s,
            &mut health,
            seed,
            range,
            true,
            &mut Vec::new(),
        );
        out.pass(&p);
        sum += p.ap;
    }
    sum / AP_INITS as f64
}

fn check_ap(w: &Workload, ap: f64, out: &mut Outcome) {
    out.check(
        "val_ap_floor",
        ap >= w.ap_floor,
        format!("val_ap {ap:.4} vs floor {:.2}", w.ap_floor),
    );
}

/// Checks that every epoch's loss is finite and that the mean training
/// loss falls from the first epoch of each repetition to its last. The
/// fall is the learning guard on every seed: two epochs leave some
/// seeds' validation AP close to chance, but none measured failed to
/// lower the loss.
fn check_losses(w: &Workload, epochs: &[Epoch], out: &mut Outcome) {
    let bad = epochs
        .iter()
        .filter(|e| !e.loss.is_finite() || e.failed_steps > 0)
        .count();
    out.check(
        "losses_finite",
        bad == 0,
        format!("{bad} of {} epochs with a non-finite loss", epochs.len()),
    );
    let reps: Vec<&[Epoch]> = epochs.chunks(w.epochs).collect();
    let falls = reps.iter().all(|r| r[r.len() - 1].loss < r[0].loss);
    let (first, last) = (reps[0][0].loss, reps[0][reps[0].len() - 1].loss);
    out.check(
        "loss_falls",
        falls,
        format!(
            "mean loss {first:.4} -> {last:.4} over {} epochs, {} repetitions",
            w.epochs,
            reps.len()
        ),
    );
}

fn summary(label: &str, xs: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "{label}: n={} median={:.6} q1={q1:.6} q3={q3:.6} [{}]",
        xs.len(),
        stats::median(xs),
        all.join(" ")
    )
}

/// The end-to-end run: every `end_to_end` metric, tracing off.
///
/// A training workload makes [`Workload::units`] repetitions of: a
/// fresh set-up, then its epochs, each followed by
/// [`PASSES_PER_EPOCH`] cold scoring passes. The inference workload
/// makes that many cold test passes, with a fresh set-up after every
/// [`PASSES_PER_SETUP`].
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Vec<Metric> {
    let units = w.units(seconds);
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (s, dt) = timed_setup(w, seed);
        setups.push(dt);
        last = Some(s);
    }
    let mut s = last.expect("SETUPS is positive");
    let mut health = HealthMonitor::new(HealthPolicy::Warn);
    let mut lat = Vec::new();
    let mut passes: Vec<Scored> = Vec::new();
    let mut pass = |s: &mut Setup, out: &mut Outcome, lat: &mut Vec<f64>| {
        let range = w.scored_range(&s.split);
        let p = score_range(
            &mut Ledger::new(false),
            s,
            &mut health,
            seed,
            range,
            true,
            lat,
        );
        out.pass(&p);
        p
    };
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut rep_fps = Vec::new();
    let mut peak = 0u64;
    if w.trains() {
        out.planned +=
            (units * w.epochs) as u64 * (epoch_ops(&s) + PASSES_PER_EPOCH as u64 * pass_ops(w, &s));
        for rep in 0..units {
            if rep > 0 {
                drop(s);
                let (fresh, dt) = timed_setup(w, seed);
                setups.push(dt);
                s = fresh;
            }
            let tr = trainer(w, &s, seed);
            tgl_device::reset_stats();
            let mut fp = Fingerprint::default();
            for e in 0..w.epochs {
                let ep = epoch_untraced(&mut s, &tr, e, &mut lat);
                out.epoch(&ep);
                fp.add_epoch(ep.loss, ep.val_ap);
                epochs.push(ep);
                for _ in 0..PASSES_PER_EPOCH {
                    passes.push(pass(&mut s, out, &mut lat));
                }
            }
            peak = peak.max(tgl_device::stats().accel_peak_bytes);
            rep_fps.push(fp);
        }
        check_losses(w, &epochs, out);
        out.check(
            "fingerprint_repeats",
            all_equal(&rep_fps),
            format!(
                "{units} repetitions of {} epochs, fingerprint {:016x}",
                w.epochs, rep_fps[0].0
            ),
        );
    } else {
        out.planned += units as u64 * pass_ops(w, &s);
        tgl_device::reset_stats();
        for i in 0..units {
            if i > 0 && i % PASSES_PER_SETUP == 0 {
                peak = peak.max(tgl_device::stats().accel_peak_bytes);
                drop(s);
                let (fresh, dt) = timed_setup(w, seed);
                setups.push(dt);
                s = fresh;
                tgl_device::reset_stats();
            }
            passes.push(pass(&mut s, out, &mut lat));
        }
        peak = peak.max(tgl_device::stats().accel_peak_bytes);
        check_semantics(w, &mut s, seed, out);
    }
    let fps: Vec<Fingerprint> = passes.iter().map(|p| p.fp).collect();
    // Each training repetition must repeat the first one's sequence of
    // pass scores; a stateless model also scores the passes after one
    // epoch alike (a memory model advances its state between them).
    let period = if w.trains() {
        PASSES_PER_EPOCH * w.epochs
    } else {
        1
    };
    let same = if w.stateless {
        PASSES_PER_EPOCH.min(period)
    } else {
        1
    };
    let repeats = fps.chunks(period).all(|c| c == &fps[..period])
        && fps.chunks(same).all(|c| c.iter().all(|f| *f == c[0]));
    out.check(
        "pass_scores_repeat",
        repeats,
        format!(
            "{} cold passes, first fingerprint {:016x}",
            fps.len(),
            fps[0].0
        ),
    );
    let unit_walls: Vec<f64> = if w.trains() {
        epochs.iter().map(|e| e.wall_s).collect()
    } else {
        passes.iter().map(|p| p.wall_s).collect()
    };
    let val_ap = match epochs.last() {
        Some(e) => e.val_ap,
        None => untrained_ap(w, &mut s, seed, passes[0].ap, out),
    };
    check_ap(w, val_ap, out);
    let eps: Vec<f64> = passes.iter().map(|p| p.edges as f64 / p.wall_s).collect();
    let (tail_p, tail) = stats::tail(&lat).unwrap_or((f64::NAN, f64::NAN));
    out.notes.push(summary("setup_s samples", &setups));
    out.notes.push(summary(
        if w.trains() {
            "epoch_s samples"
        } else {
            "pass_s samples"
        },
        &unit_walls,
    ));
    out.notes.push(summary("infer_edges_per_s samples", &eps));
    out.notes.push(format!(
        "infer batches: n={} p50={:.4}ms tail=p{tail_p:.2} {:.4}ms ({} passes)",
        lat.len(),
        stats::percentile(&lat, 50.0),
        tail,
        passes.len()
    ));
    vec![
        m("setup_s", stats::median(&setups), "s"),
        m("epoch_s", stats::median(&unit_walls), "s"),
        m("val_ap", val_ap, "ratio"),
        m("infer_edges_per_s", stats::median(&eps), "edges/s"),
        m("infer_batch_p50_ms", stats::percentile(&lat, 50.0), "ms"),
        m("infer_batch_p99_ms", tail, "ms"),
        m("peak_device_mb", mib(peak), "MiB"),
        m("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// Snapshot of every program counter, for deltas across a phase.
struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn take() -> Counters {
        Counters(tgl_obs::metrics::snapshot().into_iter().collect())
    }

    /// Sum of counters whose name starts with `prefix`, since `earlier`.
    fn delta(&self, earlier: &Counters, prefix: &str) -> f64 {
        let sum = |c: &Counters| -> u64 {
            c.0.iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(_, v)| *v)
                .sum()
        };
        sum(self).saturating_sub(sum(earlier)) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: an untraced reference, then the same work with
/// spans, which must reproduce the reference bitwise. Reports every
/// `per_layer` metric.
pub fn traced(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Vec<Metric> {
    // Untraced reference.
    let (mut s, _) = timed_setup(w, seed);
    let mut untraced_walls = Vec::new();
    let mut reference = Vec::new();
    let units = if w.trains() {
        out.planned += 2 * w.epochs as u64 * epoch_ops(&s);
        let tr = trainer(w, &s, seed);
        let mut fp = Fingerprint::default();
        for e in 0..w.epochs {
            let ep = epoch_untraced(&mut s, &tr, e, &mut Vec::new());
            out.epoch(&ep);
            fp.add_epoch(ep.loss, ep.val_ap);
            untraced_walls.push(ep.wall_s);
        }
        reference.push(fp);
        w.epochs
    } else {
        // Half the end-to-end run's passes untraced, half traced.
        let units = w.units(seconds).div_ceil(2);
        out.planned += 2 * units as u64 * pass_ops(w, &s);
        let range = w.scored_range(&s.split);
        let mut health = HealthMonitor::new(HealthPolicy::Warn);
        for _ in 0..units {
            let mut led = Ledger::new(false);
            let p = score_range(
                &mut led,
                &mut s,
                &mut health,
                seed,
                range.clone(),
                true,
                &mut Vec::new(),
            );
            out.pass(&p);
            untraced_walls.push(p.wall_s);
            reference.push(p.fp);
        }
        units
    };
    drop(s);

    // Traced set-up and work.
    let mut setup_led = Ledger::new(true);
    let mut s = setup(w, seed, &mut setup_led);
    let mut led = Ledger::new(true);
    let mut health = HealthMonitor::new(HealthPolicy::Warn);
    let before = Counters::take();
    tgl_device::reset_stats();
    let mut traced_walls = Vec::new();
    let mut traced_fps = Vec::new();
    let mut traced_ap = 0.0;
    let mut epochs = Vec::new();
    if w.trains() {
        let mut fp = Fingerprint::default();
        for e in 0..w.epochs {
            let ep = epoch_traced(&mut led, w, &mut s, &mut health, seed, e);
            out.epoch(&ep);
            fp.add_epoch(ep.loss, ep.val_ap);
            traced_walls.push(ep.wall_s);
            epochs.push(ep);
        }
        traced_fps.push(fp);
        traced_ap = epochs.last().map_or(0.0, |e| e.val_ap);
    } else {
        let range = w.scored_range(&s.split);
        for _ in 0..units {
            let p = score_range(
                &mut led,
                &mut s,
                &mut health,
                seed,
                range.clone(),
                true,
                &mut Vec::new(),
            );
            out.pass(&p);
            traced_walls.push(p.wall_s);
            traced_fps.push(p.fp);
            traced_ap = p.ap;
        }
    }
    let dev = tgl_device::stats();
    let after = Counters::take();
    let d = |prefix: &str| after.delta(&before, prefix);

    if w.trains() {
        check_losses(w, &epochs, out);
    } else {
        check_semantics(w, &mut s, seed, out);
        traced_ap = untrained_ap(w, &mut s, seed, traced_ap, out);
    }
    check_ap(w, traced_ap, out);
    let same = reference
        .iter()
        .chain(&traced_fps)
        .all(|fp| *fp == reference[0]);
    out.check(
        "traced_reproduces_untraced",
        same,
        format!(
            "fingerprint {:016x} over {units} untraced and {units} traced units",
            reference[0].0
        ),
    );

    // Normalise to one epoch (training) or one pass (inference).
    let n = units as f64;
    let per = |x: f64| x / n;
    let traced_wall: f64 = traced_walls.iter().sum();
    let cov = led.coverage(&["harness.step", "harness.eval"]);
    let overhead = 100.0 * (stats::median(&traced_walls) / stats::median(&untraced_walls) - 1.0);
    let pool_busy_s = d("pool.busy_ns.t") * 1e-9;
    let threads = tgl_runtime::current_threads() as f64;

    out.notes.push(format!(
        "ledger (seconds per {}; self time, wall time and count of each span):",
        if w.trains() { "epoch" } else { "pass" }
    ));
    out.notes.push(format!(
        "  {:<28} {:>10} {:>10} {:>9}",
        "span", "self_s", "wall_s", "count"
    ));
    for (name, t) in led.entries() {
        out.notes.push(format!(
            "  {name:<28} {:>10.5} {:>10.5} {:>9.1}",
            per(t.self_ns as f64 * 1e-9),
            per(t.wall_ns as f64 * 1e-9),
            per(t.count as f64)
        ));
    }
    out.notes.push(format!(
        "  {:<28} {:>10.5}   (container residue; coverage {:.4})",
        "other",
        per(cov.other_s),
        cov.ratio()
    ));
    out.notes
        .push("set-up ledger (seconds, one set-up):".to_string());
    for (name, t) in setup_led.entries() {
        out.notes
            .push(format!("  {name:<28} {:>10.5}", t.self_ns as f64 * 1e-9));
    }
    out.notes
        .push(summary("untraced unit wall", &untraced_walls));
    out.notes.push(summary("traced unit wall", &traced_walls));

    vec![
        m("data.generate_s", setup_led.self_s("data.generate"), "s"),
        m("data.negatives_s", per(led.self_s("data.negatives")), "s"),
        m(
            "graph.tcsr_build_s",
            setup_led.self_s("graph.tcsr_build"),
            "s",
        ),
        m(
            "graph.memory_rows_read",
            per(d("memory.rows_read")),
            "count",
        ),
        m(
            "graph.memory_rows_written",
            per(d("memory.rows_written")),
            "count",
        ),
        m(
            "graph.mailbox_mails_stored",
            per(d("mailbox.mails_stored")),
            "count",
        ),
        m(
            "graph.memory_stale_read_ratio",
            ratio(d("memory.stale_reads"), d("memory.rows_read")),
            "ratio",
        ),
        m("sampler.queries", per(d("sampler.queries")), "count"),
        m(
            "sampler.neighbors_per_query",
            ratio(d("sampler.neighbors"), d("sampler.queries")),
            "count",
        ),
        m("core.batch_s", per(led.self_s("core.batch")), "s"),
        m("core.plan_s", per(led.self_s("core.plan")), "s"),
        m(
            "core.clear_caches_s",
            per(led.self_s("core.clear_caches")),
            "s",
        ),
        m(
            "core.dedup_saved_ratio",
            ratio(d("dedup.rows_saved"), d("dedup.rows_in")),
            "ratio",
        ),
        m(
            "core.cache_hit_ratio",
            ratio(d("cache.hits"), d("cache.hits") + d("cache.misses")),
            "ratio",
        ),
        m(
            "core.preload_tensors_moved",
            per(d("preload.tensors_moved")),
            "count",
        ),
        m("device.h2d_bytes", per(dev.h2d_bytes as f64), "bytes"),
        m(
            "device.transfer_count",
            per(dev.transfer_count as f64),
            "count",
        ),
        m(
            "device.sim_transfer_s",
            per(dev.simulated_transfer_ns as f64 * 1e-9),
            "s",
        ),
        m(
            "device.pinned_share",
            ratio(
                d("transfer.pinned_count"),
                d("transfer.pinned_count") + d("transfer.pageable_count"),
            ),
            "ratio",
        ),
        m("models.forward_s", per(led.self_s("models.forward")), "s"),
        m(
            "models.infer_forward_s",
            per(led.self_s("models.infer_forward")),
            "s",
        ),
        m("tensor.loss_s", per(led.self_s("tensor.loss")), "s"),
        m("tensor.backward_s", per(led.self_s("tensor.backward")), "s"),
        m("tensor.opt_s", per(led.self_s("tensor.opt")), "s"),
        m(
            "tensor.pool_hit_ratio",
            ratio(d("tensor.pool.hit"), d("tensor.pool.request")),
            "ratio",
        ),
        m(
            "tensor.pool_alloc_bytes",
            per(d("tensor.pool.alloc_bytes")),
            "bytes",
        ),
        m("runtime.pool_busy_s", per(pool_busy_s), "s"),
        m(
            "runtime.pool_busy_share",
            ratio(pool_busy_s, threads * traced_wall),
            "ratio",
        ),
        m(
            "runtime.seq_fast_path_ratio",
            ratio(
                d("pool.seq_fast_path"),
                d("pool.seq_fast_path") + d("pool.regions"),
            ),
            "ratio",
        ),
        m(
            "runtime.queue_recv_wait_s",
            per(led.self_s("runtime.queue_recv_wait")),
            "s",
        ),
        m(
            "runtime.queue_send_wait_s",
            per(led.self_s("runtime.queue_send_wait")),
            "s",
        ),
        m("harness.step_s", per(led.wall_s("harness.step")), "s"),
        m("harness.eval_s", per(led.wall_s("harness.eval")), "s"),
        m("obs.trace_overhead_pct", overhead, "pct"),
        m("obs.ledger_coverage", cov.ratio(), "ratio"),
        m("obs.other_s", per(cov.other_s), "s"),
    ]
}
