//! The benchmark's own span ledger.
//!
//! Spans wrap calls into the workspace's public functions from the
//! benchmark's code; the program itself is not instrumented. Each span
//! name accumulates its wall time, its self time (wall minus the time
//! its direct children cover) and a call count. A ledger belongs to one
//! thread; ledgers of several threads are merged after they join.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one span name, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Wall time of all spans of this name.
    pub wall_ns: u64,
    /// Wall time minus the time covered by direct children.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Per-name span totals of one thread (or several, once merged).
#[derive(Debug)]
pub struct Ledger {
    /// Clock origin; `None` disables recording entirely, so the same
    /// code runs untraced at the cost of one branch per span.
    origin: Option<Instant>,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Ledger {
    /// A ledger that records spans when `enabled`, else does nothing.
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            origin: enabled.then(Instant::now),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> R) -> R {
        let Some(origin) = self.origin else {
            return f(self);
        };
        self.enter(name, origin.elapsed().as_nanos() as u64);
        let out = f(self);
        self.exit(origin.elapsed().as_nanos() as u64);
        out
    }

    /// Opens a span at `t_ns` (nanoseconds on this ledger's clock).
    pub fn enter(&mut self, name: &'static str, t_ns: u64) {
        self.stack.push(Open {
            name,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at `t_ns`, charging its wall
    /// time to its parent's children.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter and exit must pair up.
    pub fn exit(&mut self, t_ns: u64) {
        let open = self
            .stack
            .pop()
            .expect("ledger exit without a matching enter");
        let wall = t_ns.saturating_sub(open.start_ns);
        let t = self.totals.entry(open.name).or_default();
        t.wall_ns += wall;
        t.self_ns += wall.saturating_sub(open.child_ns);
        t.count += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += wall;
        }
    }

    /// Totals of `name` (zero when never recorded).
    pub fn get(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self seconds of `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 * 1e-9
    }

    /// Wall seconds of `name`.
    pub fn wall_s(&self, name: &str) -> f64 {
        self.get(name).wall_ns as f64 * 1e-9
    }

    /// Every recorded name with its totals, in name order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, Totals)> + '_ {
        self.totals.iter().map(|(&n, &t)| (n, t))
    }

    /// Adds another ledger's totals (e.g. a joined thread's) to this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (name, t) in other.entries() {
            let mine = self.totals.entry(name).or_default();
            mine.wall_ns += t.wall_ns;
            mine.self_ns += t.self_ns;
            mine.count += t.count;
        }
    }

    /// How much of the containers' wall time named child spans cover.
    /// The containers' own self time is the unattributed residue.
    /// Containers must not nest inside each other.
    pub fn coverage(&self, containers: &[&str]) -> Coverage {
        let (wall, other) = containers.iter().fold((0u64, 0u64), |(w, o), c| {
            let t = self.get(c);
            (w + t.wall_ns, o + t.self_ns)
        });
        Coverage {
            wall_s: wall as f64 * 1e-9,
            other_s: other as f64 * 1e-9,
        }
    }
}

/// Result of [`Ledger::coverage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Total container wall time.
    pub wall_s: f64,
    /// Container wall time no named child span covers.
    pub other_s: f64,
}

impl Coverage {
    /// Covered share of the container wall, in `[0, 1]`; 0 for an
    /// empty ledger.
    pub fn ratio(&self) -> f64 {
        if self.wall_s > 0.0 {
            1.0 - self.other_s / self.wall_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(wall_ns: u64, self_ns: u64, count: u64) -> Totals {
        Totals {
            wall_ns,
            self_ns,
            count,
        }
    }

    /// step [0,100] ⊃ forward [10,50], backward [50,90] ⊃ loss [60,70]
    fn sample() -> Ledger {
        let mut l = Ledger::new(true);
        l.enter("step", 0);
        l.enter("forward", 10);
        l.exit(50);
        l.enter("backward", 50);
        l.enter("loss", 60);
        l.exit(70);
        l.exit(90);
        l.exit(100);
        l
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let l = sample();
        assert_eq!(l.get("step"), t(100, 20, 1));
        assert_eq!(l.get("forward"), t(40, 40, 1));
        assert_eq!(l.get("backward"), t(40, 30, 1));
        assert_eq!(l.get("loss"), t(10, 10, 1));
        assert_eq!(l.get("absent"), Totals::default());
        // Self times of a closed tree add up to the root's wall.
        let total_self: u64 = l.entries().map(|(_, t)| t.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn coverage_reports_container_residue_as_other() {
        let c = sample().coverage(&["step"]);
        assert!((c.wall_s - 100e-9).abs() < 1e-18);
        assert!((c.other_s - 20e-9).abs() < 1e-18);
        assert!((c.ratio() - 0.8).abs() < 1e-12);
        assert_eq!(Ledger::new(true).coverage(&["step"]).ratio(), 0.0);
    }

    #[test]
    fn coverage_sums_several_containers() {
        let mut l = sample();
        // eval [200,300] ⊃ infer [200,295]
        l.enter("eval", 200);
        l.enter("infer", 200);
        l.exit(295);
        l.exit(300);
        let c = l.coverage(&["step", "eval"]);
        assert!((c.ratio() - 175.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_totals_across_threads() {
        let mut a = sample();
        let mut b = Ledger::new(true);
        b.enter("forward", 0);
        b.exit(5);
        b.enter("plan", 5);
        b.exit(8);
        a.merge(&b);
        assert_eq!(a.get("forward"), t(45, 45, 2));
        assert_eq!(a.get("plan"), t(3, 3, 1));
    }

    #[test]
    fn repeated_spans_accumulate() {
        let mut l = Ledger::new(true);
        for i in 0..3u64 {
            l.enter("step", i * 10);
            l.exit(i * 10 + 4);
        }
        assert_eq!(l.get("step"), t(12, 12, 3));
    }

    #[test]
    fn disabled_ledger_runs_the_closure_and_records_nothing() {
        let mut l = Ledger::new(false);
        let v = l.time("step", |l| l.time("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(l.entries().count(), 0);
    }

    #[test]
    fn timed_spans_nest() {
        let mut l = Ledger::new(true);
        l.time("outer", |l| {
            l.time("inner", |_| std::hint::black_box(1 + 1))
        });
        let (outer, inner) = (l.get("outer"), l.get("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.wall_ns >= inner.wall_ns);
        assert_eq!(outer.self_ns, outer.wall_ns - inner.wall_ns);
    }
}
