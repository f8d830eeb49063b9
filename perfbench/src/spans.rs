//! Spans recorded in the benchmark's own code around each call into a
//! layer, and the ledger built from them.
//!
//! A span carries a `layer/operation` name, start and end offsets from the
//! tracer's origin, and the span that encloses it. Spans are kept in
//! memory and only read once the traced replay has finished. A disabled
//! tracer runs the wrapped call and records nothing, so the same replay
//! code measures the tracing overhead against itself.
//!
//! The ledger is exact in integer nanoseconds: a span's self time is its
//! duration minus the part its children cover, and the self times of all
//! spans, grouped by layer, plus the root's own self time (the stated
//! residual: benchmark glue between calls) equal the root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer/operation`, e.g. `core.machine/run`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer half of the name (everything before the `/`).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('/')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every method a pass-through.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, in seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// The ledger of the first root span (see [`Ledger::from_spans`]).
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    #[must_use]
    pub fn ledger(&self) -> Ledger {
        assert!(self.open.is_empty(), "ledger of a trace with open spans");
        Ledger::from_spans(&self.spans)
    }
}

/// Self time per layer under one root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// The root span's duration.
    pub wall_ns: u64,
    /// Self time summed per layer, root excluded.
    pub layers: BTreeMap<&'static str, u64>,
    /// The root's own self time: time in the benchmark between calls.
    pub residual_ns: u64,
}

impl Ledger {
    /// Builds the ledger of `spans[0]` (the root) and every span under it.
    /// Self time is computed by interval coverage, so a child that
    /// overlaps a sibling or leaks outside its parent shows up as a
    /// ledger that fails [`Ledger::closes`].
    ///
    /// # Panics
    ///
    /// Panics if `spans` is empty.
    #[must_use]
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let root = &spans[0];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate().skip(1) {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let self_ns = |i: usize| {
            let s = &spans[i];
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        };
        let mut layers = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(1) {
            *layers.entry(s.layer()).or_insert(0) += self_ns(i);
        }
        Ledger {
            wall_ns: root.duration_ns(),
            layers,
            residual_ns: self_ns(0),
        }
    }

    /// Whether layer self times plus the residual equal the wall time.
    #[must_use]
    pub fn closes(&self) -> bool {
        self.layers.values().sum::<u64>() + self.residual_ns == self.wall_ns
    }

    /// A layer's share of the wall time (0 for a layer with no spans).
    #[must_use]
    pub fn share(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0) as f64 / self.wall_ns.max(1) as f64
    }

    /// The layer with the most self time.
    #[must_use]
    pub fn dominant(&self) -> Option<&'static str> {
        self.layers
            .iter()
            .max_by_key(|(_, &ns)| ns)
            .map(|(&l, _)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_spans_close_the_ledger() {
        let spans = vec![
            span("root", 0, 100, None),
            span("core.machine/run", 10, 40, Some(0)),
            span("core.machine/new", 40, 45, Some(0)),
            span("bench.report/to_json", 60, 70, Some(0)),
        ];
        let l = Ledger::from_spans(&spans);
        assert_eq!(l.wall_ns, 100);
        assert_eq!(l.layers["core.machine"], 35);
        assert_eq!(l.layers["bench.report"], 10);
        assert_eq!(l.residual_ns, 55);
        assert!(l.closes());
        assert_eq!(l.dominant(), Some("core.machine"));
    }

    #[test]
    fn overlapping_children_break_closure() {
        // Two siblings covering the same 20 ns are counted twice in the
        // layer sums but once in the root's coverage.
        let spans = vec![
            span("root", 0, 100, None),
            span("core.machine/run", 10, 40, Some(0)),
            span("core.refmodel/sweep", 20, 50, Some(0)),
        ];
        assert!(!Ledger::from_spans(&spans).closes());
    }

    #[test]
    fn recorded_spans_nest_and_close() {
        let mut t = Tracer::new(true);
        t.enter("root");
        let x = t.span("core.refmodel/sweep", || (0..10_000u64).sum::<u64>());
        t.span("core.machine/run", || std::hint::black_box(x));
        t.exit();
        assert_eq!(t.spans().len(), 3);
        assert!(t.ledger().closes());
        let off = Tracer::new(false);
        assert!(off.spans().is_empty());
    }
}
