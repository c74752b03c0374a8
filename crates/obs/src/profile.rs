//! Per-operator profiler: time / FLOP / byte attribution below phase
//! granularity.
//!
//! Every tensor-op dispatch opens an [`op`] guard; on drop the guard
//! records self time (wall time minus enclosed child ops), call count,
//! analytic FLOPs, bytes read/written, the input-shape signature, and
//! any pool hits/misses or device-transfer bytes that occurred while
//! the op was the innermost active frame. Records are keyed by
//! `(op name, phase scope)` — the innermost enclosing [`crate::span`]
//! name — so the Fig-7 phase breakdown decomposes into operators.
//!
//! Two invariants shape the design:
//!
//! * **Thread-count invariance.** Ops are dispatched on the caller
//!   thread (only kernels fan out via `parallel_for`), so call counts,
//!   FLOPs, and byte totals are identical at 1 and N threads. The
//!   sink is sharded by thread id purely to avoid lock contention;
//!   [`take`] merges shards into one canonical view.
//!
//! * **Near-zero disabled cost.** Profiling is off by default; a
//!   disabled [`op`] site is a single relaxed atomic load returning an
//!   inert guard — no `Instant::now`, no thread-local access. The
//!   obs_overhead bench guards this stays within the ≤2% budget.
//!
//! Attribution frames live in a thread-local stack, so nested ops
//! (e.g. `mean_all` calling `sum_all`) each account their own self
//! time and a parent never double-counts a child.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{intern, trace};

static ENABLED: AtomicBool = AtomicBool::new(false);

const SHARDS: usize = 16;

/// One shard of totals keyed by `(op, phase)`, lazily allocated.
type Shard = Mutex<Option<HashMap<(&'static str, &'static str), OpTotals>>>;

/// Sharded accumulator; sharding mirrors the trace sink so concurrent
/// recorders rarely contend.
static SINK: [Shard; SHARDS] = [const { Mutex::new(None) }; SHARDS];

/// Phase key used when an op runs outside any [`crate::span`] scope.
pub const NO_PHASE: &str = "(no-phase)";

/// Turns op profiling on or off.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether op profiling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Debug)]
struct Frame {
    op: &'static str,
    phase: &'static str,
    start: Instant,
    /// Nanoseconds spent in ops nested inside this one.
    child_ns: u64,
    flops: u64,
    bytes_read: u64,
    bytes_written: u64,
    pool_hits: u64,
    pool_misses: u64,
    transfer_bytes: u64,
    /// Shape signature, e.g. `2x3,3x4` (empty when not reported).
    shape: &'static str,
    /// Enriched trace-span name, e.g. `matmul[2x3,3x4]`.
    trace_name: &'static str,
    /// Analytic cost of this op's *backward* pass, harvested by
    /// [`node_info`] when an autograd node is attached.
    bwd_flops: u64,
    bwd_read: u64,
    bwd_write: u64,
}

thread_local! {
    /// Stack of in-flight op frames on this thread (innermost last).
    static FRAMES: std::cell::RefCell<Vec<Frame>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Stack of enclosing span names (innermost last), maintained by
    /// [`crate::SpanGuard`] while profiling is enabled.
    static PHASES: std::cell::RefCell<Vec<&'static str>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Pushes a phase-scope name. Called by [`crate::span`]; pair with
/// [`pop_phase`].
pub fn push_phase(name: &'static str) {
    PHASES.with(|p| p.borrow_mut().push(name));
}

/// Pops the innermost phase-scope name.
pub fn pop_phase() {
    PHASES.with(|p| {
        p.borrow_mut().pop();
    });
}

fn current_phase() -> &'static str {
    PHASES.with(|p| p.borrow().last().copied().unwrap_or(NO_PHASE))
}

/// Opens a profiling frame for op `name`. Report analytic costs with
/// the builder methods, then let the guard drop at the end of the op:
///
/// ```
/// tgl_obs::profile::enable(true);
/// {
///     let _g = tgl_obs::profile::op("matmul")
///         .flops(2 * 2 * 3 * 4)
///         .io(4 * (2 * 3 + 3 * 4), 4 * 2 * 4)
///         .shape(&[&[2, 3], &[3, 4]]);
///     // ... kernel work ...
/// }
/// let stats = tgl_obs::profile::take();
/// tgl_obs::profile::enable(false);
/// assert_eq!(stats.iter().find(|s| s.op == "matmul").unwrap().flops, 48);
/// ```
#[inline]
pub fn op(name: &'static str) -> OpGuard {
    if !enabled() {
        return OpGuard { active: false };
    }
    open(name, name, "", 0, 0, 0)
}

/// Opens a profiling frame for the backward pass of the forward op
/// described by `fwd` (as captured by [`node_info`]), named
/// `{op}.bwd`, carrying the forward shape signature and pre-charged
/// with the analytic costs the forward op declared via
/// [`OpGuard::backward_cost`].
#[inline]
pub fn op_backward(fwd: &NodeInfo) -> OpGuard {
    if !enabled() {
        return OpGuard { active: false };
    }
    let name = intern::intern(&format!("{}.bwd", fwd.op));
    let trace_name = if fwd.shape.is_empty() {
        name
    } else {
        intern::intern(&format!("{name}[{}]", fwd.shape))
    };
    open(name, trace_name, fwd.shape, fwd.flops, fwd.read, fwd.write)
}

fn open(
    op: &'static str,
    trace_name: &'static str,
    shape: &'static str,
    flops: u64,
    bytes_read: u64,
    bytes_written: u64,
) -> OpGuard {
    let frame = Frame {
        op,
        phase: current_phase(),
        start: Instant::now(),
        child_ns: 0,
        flops,
        bytes_read,
        bytes_written,
        pool_hits: 0,
        pool_misses: 0,
        transfer_bytes: 0,
        shape,
        trace_name,
        bwd_flops: 0,
        bwd_read: 0,
        bwd_write: 0,
    };
    FRAMES.with(|f| f.borrow_mut().push(frame));
    OpGuard { active: true }
}

/// RAII guard produced by [`op`] / [`op_backward`]; records the frame
/// into the sharded sink on drop.
#[derive(Debug)]
pub struct OpGuard {
    active: bool,
}

impl OpGuard {
    fn with_top(&self, f: impl FnOnce(&mut Frame)) {
        if self.active {
            FRAMES.with(|frames| {
                if let Some(top) = frames.borrow_mut().last_mut() {
                    f(top);
                }
            });
        }
    }

    /// Adds analytic floating-point operations for this call.
    #[must_use]
    pub fn flops(self, n: u64) -> Self {
        self.with_top(|t| t.flops += n);
        self
    }

    /// Adds analytic bytes read / written for this call.
    #[must_use]
    pub fn io(self, read: u64, written: u64) -> Self {
        self.with_top(|t| {
            t.bytes_read += read;
            t.bytes_written += written;
        });
        self
    }

    /// Records the input-shape signature (e.g. `&[&[2,3], &[3,4]]` →
    /// `2x3,3x4`) and derives the enriched trace-span name
    /// `op[shapes]`. Formatting and interning only happen while the
    /// profiler is enabled.
    #[must_use]
    pub fn shape(self, shapes: &[&[usize]]) -> Self {
        if self.active {
            let mut sig = String::new();
            for (i, s) in shapes.iter().enumerate() {
                if i > 0 {
                    sig.push(',');
                }
                for (j, d) in s.iter().enumerate() {
                    if j > 0 {
                        sig.push('x');
                    }
                    let _ = write!(sig, "{d}");
                }
            }
            let shape = intern::intern(&sig);
            self.with_top(|t| {
                t.shape = shape;
                t.trace_name = intern::intern(&format!("{}[{}]", t.op, shape));
            });
        }
        self
    }

    /// Declares the analytic cost of this op's backward pass, for
    /// [`node_info`] to stash on the autograd node it is building.
    #[must_use]
    pub fn backward_cost(self, flops: u64, read: u64, written: u64) -> Self {
        self.with_top(|t| {
            t.bwd_flops = flops;
            t.bwd_read = read;
            t.bwd_write = written;
        });
        self
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(frame) = FRAMES.with(|f| f.borrow_mut().pop()) else {
            return;
        };
        let elapsed_ns = frame.start.elapsed().as_nanos() as u64;
        let self_ns = elapsed_ns.saturating_sub(frame.child_ns);
        // A parent op must not re-count time spent inside this one.
        FRAMES.with(|f| {
            if let Some(parent) = f.borrow_mut().last_mut() {
                parent.child_ns += elapsed_ns;
            }
        });
        if trace::enabled() {
            trace::record_with(
                frame.trace_name,
                frame.start,
                frame.start.elapsed(),
                Some(trace::SpanArgs {
                    flops: frame.flops,
                    bytes: frame.bytes_read + frame.bytes_written,
                    shape: frame.shape,
                    ..Default::default()
                }),
            );
        }
        let shard = crate::thread_id() as usize % SHARDS;
        let mut sink = SINK[shard].lock().unwrap_or_else(|e| e.into_inner());
        let totals = sink
            .get_or_insert_with(HashMap::new)
            .entry((frame.op, frame.phase))
            .or_default();
        totals.calls += 1;
        totals.self_ns += self_ns;
        totals.total_ns += elapsed_ns;
        totals.flops += frame.flops;
        totals.bytes_read += frame.bytes_read;
        totals.bytes_written += frame.bytes_written;
        totals.pool_hits += frame.pool_hits;
        totals.pool_misses += frame.pool_misses;
        totals.transfer_bytes += frame.transfer_bytes;
        if !frame.shape.is_empty() {
            totals.shape = frame.shape;
        }
    }
}

/// What an autograd node keeps of the forward op that built it, for
/// [`op_backward`] to attribute the backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// Forward op name (`"op"` when no profiled op built the node).
    pub op: &'static str,
    /// Forward input-shape signature, e.g. `2x3,3x4` (may be empty).
    pub shape: &'static str,
    /// Declared analytic backward FLOPs.
    pub flops: u64,
    /// Declared analytic backward bytes read.
    pub read: u64,
    /// Declared analytic backward bytes written.
    pub write: u64,
}

impl NodeInfo {
    /// The info of a node built while profiling was off or outside
    /// any op frame.
    pub const NONE: NodeInfo = NodeInfo { op: "op", shape: "", flops: 0, read: 0, write: 0 };
}

/// Reports the op name, shape signature and declared backward cost of
/// the innermost active frame, for attaching to an autograd node — and
/// *consumes* the backward cost so a second node built inside the same
/// frame cannot double-charge it. Returns [`NodeInfo::NONE`] when
/// profiling is disabled or no op frame is active.
pub fn node_info() -> NodeInfo {
    if !enabled() {
        return NodeInfo::NONE;
    }
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let Some(top) = frames.last_mut() else {
            return NodeInfo::NONE;
        };
        NodeInfo {
            op: top.op,
            shape: top.shape,
            flops: std::mem::take(&mut top.bwd_flops),
            read: std::mem::take(&mut top.bwd_read),
            write: std::mem::take(&mut top.bwd_write),
        }
    })
}

/// Attributes one pool request (hit or miss, `bytes` requested) to the
/// innermost active op frame, if any.
#[inline]
pub fn note_pool(hit: bool, bytes: u64) {
    if !enabled() {
        return;
    }
    let _ = bytes;
    FRAMES.with(|f| {
        if let Some(top) = f.borrow_mut().last_mut() {
            if hit {
                top.pool_hits += 1;
            } else {
                top.pool_misses += 1;
            }
        } else {
            // Attribution arrived outside any op frame (e.g. a pool
            // request from harness bookkeeping). Count the drop so
            // `/metrics` shows how much activity escapes the profiler.
            crate::counter!("profile.dropped").incr();
        }
    });
}

/// Attributes `bytes` of device-transfer traffic to the innermost
/// active op frame, if any.
#[inline]
pub fn note_transfer(bytes: u64) {
    if !enabled() {
        return;
    }
    FRAMES.with(|f| {
        if let Some(top) = f.borrow_mut().last_mut() {
            top.transfer_bytes += bytes;
        } else {
            crate::counter!("profile.dropped").incr();
        }
    });
}

/// Per-`(op, phase)` accumulated totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OpTotals {
    calls: u64,
    self_ns: u64,
    total_ns: u64,
    flops: u64,
    bytes_read: u64,
    bytes_written: u64,
    pool_hits: u64,
    pool_misses: u64,
    transfer_bytes: u64,
    shape: &'static str,
}

/// One row of the profiler report: totals for an `(op, phase)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStat {
    /// Operator name, e.g. `matmul` or `matmul.bwd`.
    pub op: &'static str,
    /// Innermost enclosing span name, or [`NO_PHASE`].
    pub phase: &'static str,
    /// Number of completed calls.
    pub calls: u64,
    /// Wall nanoseconds excluding nested ops.
    pub self_ns: u64,
    /// Wall nanoseconds including nested ops.
    pub total_ns: u64,
    /// Analytic floating-point operations.
    pub flops: u64,
    /// Analytic bytes read.
    pub bytes_read: u64,
    /// Analytic bytes written.
    pub bytes_written: u64,
    /// Pool requests served from the free list while this op was the
    /// innermost frame.
    pub pool_hits: u64,
    /// Pool requests that fell through to the allocator.
    pub pool_misses: u64,
    /// Metered device-transfer bytes attributed to this op.
    pub transfer_bytes: u64,
    /// Most recent input-shape signature (empty if never reported).
    pub shape: &'static str,
}

fn collect(drain: bool) -> Vec<OpStat> {
    let mut merged: HashMap<(&'static str, &'static str), OpTotals> = HashMap::new();
    for shard in &SINK {
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let iter: Vec<((&'static str, &'static str), OpTotals)> = if drain {
            guard.take().map(HashMap::into_iter).map(Iterator::collect).unwrap_or_default()
        } else {
            guard
                .as_ref()
                .map(|m| m.iter().map(|(k, v)| (*k, v.clone())).collect())
                .unwrap_or_default()
        };
        for (key, t) in iter {
            let e = merged.entry(key).or_default();
            e.calls += t.calls;
            e.self_ns += t.self_ns;
            e.total_ns += t.total_ns;
            e.flops += t.flops;
            e.bytes_read += t.bytes_read;
            e.bytes_written += t.bytes_written;
            e.pool_hits += t.pool_hits;
            e.pool_misses += t.pool_misses;
            e.transfer_bytes += t.transfer_bytes;
            if !t.shape.is_empty() {
                e.shape = t.shape;
            }
        }
    }
    let mut out: Vec<OpStat> = merged
        .into_iter()
        .map(|((op, phase), t)| OpStat {
            op,
            phase,
            calls: t.calls,
            self_ns: t.self_ns,
            total_ns: t.total_ns,
            flops: t.flops,
            bytes_read: t.bytes_read,
            bytes_written: t.bytes_written,
            pool_hits: t.pool_hits,
            pool_misses: t.pool_misses,
            transfer_bytes: t.transfer_bytes,
            shape: t.shape,
        })
        .collect();
    // Heaviest self-time first; (op, phase) tiebreak keeps output
    // deterministic when times collide (e.g. all-zero in tests).
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.op.cmp(b.op)).then(a.phase.cmp(b.phase)));
    out
}

/// Drains every shard, returning merged per-`(op, phase)` stats sorted
/// by self time (heaviest first).
pub fn take() -> Vec<OpStat> {
    collect(true)
}

/// Returns the same merged view as [`take`] without draining — for
/// live scraping (`/profile.json`) while a run is in flight.
pub fn snapshot() -> Vec<OpStat> {
    collect(false)
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders stats as a `tgl-profile/v1` JSON document.
pub fn to_json(stats: &[OpStat]) -> String {
    let mut out = String::from("{\n  \"schema\": \"tgl-profile/v1\",\n  \"ops\": [");
    for (i, s) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"op\": \"");
        escape_into(&mut out, s.op);
        out.push_str("\", \"phase\": \"");
        escape_into(&mut out, s.phase);
        let _ = write!(
            out,
            "\", \"calls\": {}, \"self_ns\": {}, \"total_ns\": {}, \"flops\": {}, \
             \"bytes_read\": {}, \"bytes_written\": {}, \"pool_hits\": {}, \
             \"pool_misses\": {}, \"transfer_bytes\": {}, \"shape\": \"",
            s.calls,
            s.self_ns,
            s.total_ns,
            s.flops,
            s.bytes_read,
            s.bytes_written,
            s.pool_hits,
            s.pool_misses,
            s.transfer_bytes,
        );
        escape_into(&mut out, s.shape);
        out.push_str("\"}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    #[test]
    fn disabled_op_records_nothing() {
        let _g = serial();
        enable(false);
        take();
        {
            let _op = op("profile-test-disabled").flops(100);
        }
        assert!(!take().iter().any(|s| s.op == "profile-test-disabled"));
    }

    #[test]
    fn op_accumulates_flops_bytes_and_calls() {
        let _g = serial();
        enable(true);
        take();
        for _ in 0..3 {
            let _op = op("profile-test-acc").flops(10).io(64, 32).shape(&[&[2, 8]]);
        }
        let stats = take();
        enable(false);
        let s = stats.iter().find(|s| s.op == "profile-test-acc").unwrap();
        assert_eq!(s.calls, 3);
        assert_eq!(s.flops, 30);
        assert_eq!(s.bytes_read, 192);
        assert_eq!(s.bytes_written, 96);
        assert_eq!(s.shape, "2x8");
        assert_eq!(s.phase, NO_PHASE);
    }

    #[test]
    fn nested_ops_split_self_time() {
        let _g = serial();
        enable(true);
        take();
        {
            let _outer = op("profile-test-outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = op("profile-test-inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let stats = take();
        enable(false);
        let outer = stats.iter().find(|s| s.op == "profile-test-outer").unwrap();
        let inner = stats.iter().find(|s| s.op == "profile-test-inner").unwrap();
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns < inner.self_ns,
            "outer self time ({}) must exclude the longer inner op ({})",
            outer.self_ns,
            inner.self_ns
        );
        assert!(outer.self_ns + inner.total_ns <= outer.total_ns + 1_000_000);
    }

    #[test]
    fn ops_are_keyed_by_enclosing_span_phase() {
        let _g = serial();
        enable(true);
        take();
        {
            let _p = crate::span("profile-test-phase");
            let _op = op("profile-test-scoped");
        }
        let stats = take();
        enable(false);
        let s = stats.iter().find(|s| s.op == "profile-test-scoped").unwrap();
        assert_eq!(s.phase, "profile-test-phase");
    }

    #[test]
    fn node_info_consumes_backward_cost() {
        let _g = serial();
        enable(true);
        take();
        {
            let _op = op("profile-test-bwd").shape(&[&[2, 3]]).backward_cost(42, 7, 3);
            let info = |flops, read, write| NodeInfo {
                op: "profile-test-bwd",
                shape: "2x3",
                flops,
                read,
                write,
            };
            assert_eq!(node_info(), info(42, 7, 3));
            // Consumed: a second node inside the same frame gets zeros.
            assert_eq!(node_info(), info(0, 0, 0));
        }
        enable(false);
        take();
        assert_eq!(node_info(), NodeInfo::NONE);
    }

    #[test]
    fn pool_and_transfer_attribute_to_innermost_frame() {
        let _g = serial();
        enable(true);
        take();
        {
            let _op = op("profile-test-attr");
            note_pool(true, 1024);
            note_pool(false, 2048);
            note_transfer(4096);
        }
        // Outside any frame: dropped from op attribution, but counted
        // so `/metrics` can expose the escape rate.
        let dropped0 = crate::metrics::get("profile.dropped");
        note_pool(true, 8);
        note_transfer(8);
        let stats = take();
        enable(false);
        assert_eq!(crate::metrics::get("profile.dropped"), dropped0 + 2);
        let s = stats.iter().find(|s| s.op == "profile-test-attr").unwrap();
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.pool_misses, 1);
        assert_eq!(s.transfer_bytes, 4096);
    }

    #[test]
    fn backward_guard_uses_interned_bwd_name() {
        let _g = serial();
        enable(true);
        take();
        {
            let fwd = NodeInfo { op: "profile-test-fwd", shape: "5x6", flops: 12, read: 8, write: 4 };
            let _op = op_backward(&fwd);
        }
        let stats = take();
        enable(false);
        let s = stats.iter().find(|s| s.op == "profile-test-fwd.bwd").unwrap();
        assert_eq!(s.shape, "5x6", "backward rows carry the forward shape");
        assert_eq!(s.flops, 12);
        assert_eq!(s.bytes_read, 8);
        assert_eq!(s.bytes_written, 4);
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _g = serial();
        enable(true);
        take();
        {
            let _op = op("profile-test-snap");
        }
        assert!(snapshot().iter().any(|s| s.op == "profile-test-snap"));
        assert!(take().iter().any(|s| s.op == "profile-test-snap"));
        enable(false);
    }

    #[test]
    fn json_has_schema_and_rows() {
        let stats = vec![OpStat {
            op: "matmul",
            phase: "attention",
            calls: 2,
            self_ns: 1000,
            total_ns: 1200,
            flops: 48,
            bytes_read: 96,
            bytes_written: 32,
            pool_hits: 1,
            pool_misses: 0,
            transfer_bytes: 0,
            shape: "2x3,3x4",
        }];
        let json = to_json(&stats);
        assert!(json.contains("\"schema\": \"tgl-profile/v1\""));
        assert!(json.contains("\"op\": \"matmul\""));
        assert!(json.contains("\"phase\": \"attention\""));
        assert!(json.contains("\"flops\": 48"));
        assert!(json.contains("\"shape\": \"2x3,3x4\""));
    }
}
