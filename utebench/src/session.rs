//! The analyst queries of a view session: a seeded pool, each query
//! answered through `ute_cli::run` exactly as the `ute` binary would.

use std::path::Path;

use crate::workload::Rng;
use crate::Res;

/// Distinct queries per session. Each is answered once during set-up
/// for reference, then replayed in seeded order while timed.
pub const POOL_SIZE: usize = 20;

/// One analyst request. Times are seconds, formatted once so that the
/// reference answer and every timed answer parse the same text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `ute preview --slog run.slog`.
    Preview,
    /// `ute view --slog run.slog --kind KIND --window A,B`.
    View { kind: &'static str, window: String },
    /// `ute view --slog run.slog --frame-at T`.
    FrameAt { at: String },
    /// `ute analyze DIR --all --window A:B`.
    Analyze { window: String },
    /// `ute analyze DIR --all` over the whole run.
    AnalyzeFull,
}

impl Query {
    pub fn argv(&self, dir: &Path) -> Vec<String> {
        let slog = dir.join("run.slog").display().to_string();
        let dir = dir.display().to_string();
        let v: Vec<&str> = match self {
            Query::Preview => vec!["preview", "--slog", &slog],
            Query::View { kind, window } => {
                vec!["view", "--slog", &slog, "--kind", kind, "--window", window]
            }
            Query::FrameAt { at } => vec!["view", "--slog", &slog, "--frame-at", at],
            Query::Analyze { window } => vec!["analyze", &dir, "--all", "--window", window],
            Query::AnalyzeFull => vec!["analyze", &dir, "--all"],
        };
        v.into_iter().map(String::from).collect()
    }

    /// A short label for span names and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Preview => "preview",
            Query::View { kind: "cpu", .. } => "view_cpu",
            Query::View { .. } => "view_thread",
            Query::FrameAt { .. } => "frame_at",
            Query::Analyze { .. } => "analyze",
            Query::AnalyzeFull => "analyze_full",
        }
    }

    /// Answers the query the way the `ute` binary does.
    pub fn answer(&self, dir: &Path) -> Res<String> {
        ute_cli::run(&self.argv(dir)).map_err(|e| format!("{self:?}: {e}"))
    }
}

/// Draws one query over a run spanning the given seconds.
type MakeQuery = fn(&mut Rng, (f64, f64)) -> Query;

/// One pass of the session's query kinds. Eight of ten open the SLOG
/// (preview, thread and cpu views of a window, the frame at an
/// instant), so the median lands on a SLOG-reading query whatever the
/// seed; one is an analysis of a window, read through the frame
/// directory; and one analyzes the whole run. The whole-run analyses
/// are the slowest tenth, so the 95th percentile falls in the middle of
/// them rather than on whichever query met a scheduling hiccup.
const DECK: [MakeQuery; 10] = [
    |_, _| Query::Preview,
    |rng, span| view("thread", rng, span),
    |rng, span| view("cpu", rng, span),
    frame_at,
    |rng, span| Query::Analyze {
        window: window(rng, span, ":"),
    },
    |_, _| Query::Preview,
    |rng, span| view("thread", rng, span),
    |rng, span| view("cpu", rng, span),
    frame_at,
    |_, _| Query::AnalyzeFull,
];

fn view(kind: &'static str, rng: &mut Rng, span: (f64, f64)) -> Query {
    Query::View {
        kind,
        window: window(rng, span, ","),
    }
}

fn frame_at(rng: &mut Rng, (t0, t1): (f64, f64)) -> Query {
    Query::FrameAt {
        at: format!("{:.6}", t0 + (t1 - t0) * (0.01 + 0.98 * rng.unit())),
    }
}

/// A random window of 2-20% of the run `[t0, t1]` (seconds).
fn window(rng: &mut Rng, (t0, t1): (f64, f64), sep: &str) -> String {
    let len = (t1 - t0) * (0.02 + 0.18 * rng.unit());
    let a = t0 + (t1 - t0 - len) * rng.unit();
    format!("{a:.6}{sep}{:.6}", a + len)
}

/// [`POOL_SIZE`] queries over a run spanning `span` seconds.
pub fn pool(seed: u64, span: (f64, f64)) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x0e1e_55e0);
    (0..POOL_SIZE)
        .map(|i| DECK[i % DECK.len()](&mut rng, span))
        .collect()
}

/// The order queries are issued in: the pool reshuffled every pass, so
/// each kind keeps its share in every window of `POOL_SIZE` queries.
pub struct Order {
    rng: Rng,
    pass: Vec<usize>,
}

impl Order {
    pub fn new(seed: u64) -> Order {
        Order {
            rng: Rng::new(seed ^ 0x0bde_0f00),
            pass: Vec::new(),
        }
    }

    pub fn next_index(&mut self) -> usize {
        if self.pass.is_empty() {
            self.pass = (0..POOL_SIZE).collect();
            for i in (1..POOL_SIZE).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.pass.swap(i, j);
            }
        }
        self.pass.pop().expect("refilled above")
    }
}

/// The run's time span in seconds, from its SLOG preview.
pub fn run_span(dir: &Path) -> Res<(f64, f64)> {
    let slog = ute_slog::file::SlogFile::read_from(&dir.join("run.slog"))
        .map_err(|e| format!("run.slog: {e}"))?;
    Ok((
        slog.preview.span_start as f64 / 1e9,
        slog.preview.span_end as f64 / 1e9,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_and_balanced() {
        let a = pool(7, (0.0, 2.0));
        assert_eq!(a, pool(7, (0.0, 2.0)));
        assert_ne!(a, pool(8, (0.0, 2.0)));
        let count = |k: &str| a.iter().filter(|q| q.kind() == k).count();
        assert_eq!(count("preview"), POOL_SIZE / 5);
        assert_eq!(count("analyze_full"), POOL_SIZE / 10);
    }

    #[test]
    fn windows_stay_inside_the_run() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let w = window(&mut rng, (0.5, 2.5), ",");
            let (a, b) = w.split_once(',').expect("a,b");
            let (a, b): (f64, f64) = (a.parse().unwrap(), b.parse().unwrap());
            assert!(0.5 <= a && a < b && b <= 2.5 + 1e-6, "{w}");
        }
    }

    #[test]
    fn order_visits_each_query_once_per_pass() {
        let mut o = Order::new(3);
        let mut seen: Vec<usize> = (0..POOL_SIZE).map(|_| o.next_index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..POOL_SIZE).collect::<Vec<_>>());
    }
}
