//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, and the arithmetic over them: self time per layer and
//! the share of a root span no layer call covers.
//!
//! Spans are written out once, when the benchmark ends
//! ([`Tracer::to_jsonl`]); nothing is written while a run is timed.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The root span this one belongs to; spans of one traced pipeline
    /// run or one query share it.
    pub run: usize,
    /// The layer (crate) the call went into, or `None` for work the
    /// benchmark itself does between layer calls.
    pub layer: Option<&'static str>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans with nesting taken from the order of `open`/`close`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }
}

/// What [`Tracer::open`] returns when the tracer is off.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    /// A tracer that records nothing: the same calls run with no span
    /// bookkeeping, the baseline of the tracing overhead.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one (a root if none is).
    pub fn open(&mut self, layer: Option<&'static str>, name: impl Into<String>) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let run = parent.map_or(id, |p| self.spans[p].run);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            run,
            layer,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth`, e.g. after an error
    /// returned from inside them.
    pub fn unwind(&mut self, depth: usize) {
        while self.open.len() > depth {
            let top = *self.open.last().expect("len > depth");
            self.close(top);
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn call<T>(
        &mut self,
        layer: Option<&'static str>,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open(layer, name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            s.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"layer\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}\n",
                sp.id,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.run,
                sp.layer.map_or("null".to_string(), |l| format!("\"{l}\"")),
                sp.name.replace('\\', "\\\\").replace('"', "\\\""),
                sp.start_ns,
                sp.end_ns,
            ));
        }
        s
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Each span's children, indexed by span id.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push(s.id);
        }
    }
    kids
}

/// A span's self time: its length minus the part its children cover.
pub fn self_ns(spans: &[Span], kids: &[Vec<usize>], id: usize) -> u64 {
    let s = &spans[id];
    let covered = covered_ns(
        kids[id]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns)),
        s.start_ns,
        s.end_ns,
    );
    s.dur_ns() - covered
}

/// Where a root span's time went: self time summed per layer, self
/// time of the benchmark's own (layer-less) spans by name, and the
/// share of the root that no layer span covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub wall_ns: u64,
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    pub uncovered_by_name: BTreeMap<String, u64>,
    pub unattributed_frac: f64,
}

pub fn attribute(spans: &[Span], kids: &[Vec<usize>], root: usize) -> Attribution {
    let r = &spans[root];
    let mut layer_self_ns = BTreeMap::new();
    let mut uncovered_by_name = BTreeMap::new();
    let mut layer_ivs = Vec::new();
    let mut todo = vec![root];
    while let Some(id) = todo.pop() {
        todo.extend(&kids[id]);
        let s = &spans[id];
        match s.layer {
            Some(l) => {
                *layer_self_ns.entry(l).or_insert(0) += self_ns(spans, kids, id);
                layer_ivs.push((s.start_ns, s.end_ns));
            }
            None => {
                // Strip per-item suffixes ("io.read trace.3.ivl") so the
                // residual list groups by kind of work.
                let kind = s.name.split(' ').next().unwrap_or("").to_string();
                *uncovered_by_name.entry(kind).or_insert(0) += self_ns(spans, kids, id);
            }
        }
    }
    let wall_ns = r.dur_ns();
    let covered = covered_ns(layer_ivs, r.start_ns, r.end_ns);
    Attribution {
        wall_ns,
        layer_self_ns,
        uncovered_by_name,
        unattributed_frac: if wall_ns == 0 {
            0.0
        } else {
            (wall_ns - covered) as f64 / wall_ns as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: Option<&'static str>, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            layer,
            name: format!("s{id}"),
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered_ns([(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns([(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(covered_ns([(3, 3)], 0, 10), 0);
        assert_eq!(covered_ns(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100, two overlapping children 10..40 and 30..50, and a
        // grandchild that must not be subtracted from the root again.
        let spans = vec![
            span(0, None, None, 0, 100),
            span(1, Some(0), Some("a"), 10, 40),
            span(2, Some(0), Some("b"), 30, 50),
            span(3, Some(1), Some("c"), 12, 20),
        ];
        let kids = children(&spans);
        assert_eq!(self_ns(&spans, &kids, 0), 60);
        assert_eq!(self_ns(&spans, &kids, 1), 22);
        assert_eq!(self_ns(&spans, &kids, 3), 8);
    }

    #[test]
    fn residual_is_root_time_outside_every_layer_span() {
        // root 0..100 > stage 0..90 (benchmark-side) > layers 10..30 and
        // 30..50 and an io read 60..70: layers cover 40% of the root.
        let spans = vec![
            span(0, None, None, 0, 100),
            span(1, Some(0), None, 0, 90),
            span(2, Some(1), Some("convert"), 10, 30),
            span(3, Some(1), Some("merge"), 30, 50),
            Span {
                name: "io.read trace.0.ivl".into(),
                ..span(4, Some(1), None, 60, 70)
            },
            span(5, None, Some("view"), 200, 300),
        ];
        let a = attribute(&spans, &children(&spans), 0);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.layer_self_ns["convert"], 20);
        assert_eq!(a.layer_self_ns["merge"], 20);
        assert!(
            !a.layer_self_ns.contains_key("view"),
            "other roots excluded"
        );
        assert_eq!(a.uncovered_by_name["io.read"], 10);
        assert_eq!(a.uncovered_by_name["s0"], 10);
        assert_eq!(a.uncovered_by_name["s1"], 40);
        assert!((a.unattributed_frac - 0.6).abs() < 1e-12);
        // Self times partition the root's wall time.
        let total: u64 = a
            .layer_self_ns
            .values()
            .chain(a.uncovered_by_name.values())
            .sum();
        assert_eq!(total, a.wall_ns);
    }

    #[test]
    fn tracer_nests_and_tags_runs() {
        let mut t = Tracer::default();
        let root = t.open(None, "root");
        t.call(Some("convert"), "c", || ());
        t.close(root);
        let other = t.open(None, "query");
        t.close(other);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[1].run, root);
        assert_eq!(s[2].run, other);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn an_off_tracer_runs_the_calls_and_records_nothing() {
        let mut t = Tracer::off();
        let root = t.open(None, "root");
        assert_eq!(t.call(Some("convert"), "c", || 7), 7);
        assert_eq!(t.depth(), 0);
        t.close(root);
        assert!(t.spans().is_empty());
    }
}
