//! The UTE benchmark: journaled `ute pipeline` wall time, view-query
//! latency, and (with `--trace 1`) a per-layer ledger from a traced
//! replay of the same work. README.md in this directory documents the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! utebench --workload table1_deep|view_session
//!          --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! The last line of stdout is the result as one JSON object; a report
//! for people goes to stderr.

mod ingest;
mod layers;
pub mod metrics;
mod session;
mod spans;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ingest::{PipelineRun, Reference};
use session::{Order, Query};
use spans::Tracer;
use workload::{Input, Kind};

pub type Res<T> = Result<T, String>;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Pipeline runs at least made per untraced run, whatever the time
/// budget.
const MIN_PIPELINES: usize = 15;
/// Share of an untraced run's timed window spent on pipeline runs; the
/// rest goes to queries.
const INGEST_PIPELINE_SHARE: f64 = 0.75;
const VIEW_PIPELINE_SHARE: f64 = 0.6;
/// No timed phase runs longer than this, so a much slower program still
/// ends well inside the three minutes a run may take.
const PHASE_CAP_SECS: f64 = 80.0;

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Opts {
    fn parse(argv: &[String]) -> Res<Opts> {
        let mut kind = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tiny = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let need = |what: &str| format!("missing --{what}");
        Ok(Opts {
            kind: kind.ok_or_else(|| need("workload"))?,
            seed: seed.ok_or_else(|| need("seed"))?,
            seconds: seconds.ok_or_else(|| need("seconds"))?,
            trace: trace.ok_or_else(|| need("trace"))?,
            tiny,
        })
    }
}

/// The binary's entry point: runs the benchmark (or, when the binary
/// was started as a pipeline child, the child) and returns the exit
/// code.
pub fn main(argv: &[String]) -> i32 {
    if argv.first().map(String::as_str) == Some(ingest::CHILD_ARG) {
        return ingest::child_main(&argv[1..]);
    }
    let opts = match Opts::parse(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("utebench: {e}");
            return 2;
        }
    };
    match run(&opts) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("utebench: {e}");
            1
        }
    }
}

fn run(opts: &Opts) -> Res<String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
    let mut work = WorkDir::create(out_dir.join(format!(
        "work-{}-{}-{}",
        opts.kind.name(),
        opts.seed,
        std::process::id()
    )))?;
    let input = Input::from_seed(opts.seed, opts.tiny);
    eprintln!(
        "utebench: {} seed {} ({}), {} s, --jobs {}, trace {}",
        opts.kind.name(),
        opts.seed,
        input.cli_args().join(" "),
        opts.seconds,
        jobs(),
        u8::from(opts.trace)
    );
    if opts.trace {
        let mut tr = Tracer::default();
        let result = traced::run(opts, &mut work, &input, &mut tr);
        let spans = out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.kind.name(),
            opts.seed
        ));
        std::fs::write(&spans, tr.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
        eprintln!(
            "utebench: wrote {} spans to {}",
            tr.spans().len(),
            spans.display()
        );
        result
    } else {
        end_to_end(opts, &mut work, &input)
    }
}

/// `--jobs` for every run: the machine's parallelism, as `ute` defaults.
fn jobs() -> usize {
    ute_pipeline::default_jobs()
}

/// Scratch space of one benchmark run, removed when dropped. Run
/// directories are only deleted then: deleting hundreds of files between
/// timed runs would put the file system's deferred work (journal
/// commits, discards) into the next run's fsyncs.
struct WorkDir {
    root: PathBuf,
    made: usize,
}

impl WorkDir {
    fn create(root: PathBuf) -> Res<WorkDir> {
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir { root, made: 0 })
    }

    /// A path for a new run directory, not used before in this run.
    fn next(&mut self, name: &str) -> PathBuf {
        self.made += 1;
        self.root.join(format!("{name}-{}", self.made))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Pipeline,
    Query,
}

/// Interleaves pipeline runs and queries over the timed window of an
/// untraced run, giving pipelines a fixed share of the time spent. Both
/// kinds of samples are spread over the whole window, so a phase in
/// which the shared machine runs slow moves both medians a little rather
/// than one of them a lot.
struct Schedule {
    start: Instant,
    secs: f64,
    share: f64,
    spent: [f64; 2],
    done: [usize; 2],
    min: [usize; 2],
}

impl Schedule {
    fn new(opts: &Opts) -> Schedule {
        Schedule {
            start: Instant::now(),
            secs: opts.seconds,
            share: match opts.kind {
                Kind::ViewSession => VIEW_PIPELINE_SHARE,
                Kind::Table1Deep => INGEST_PIPELINE_SHARE,
            },
            spent: [0.0; 2],
            done: [0; 2],
            min: [MIN_PIPELINES, stats::min_samples(95, stats::MIN_BEYOND)],
        }
    }

    /// The next operation, or `None` when the window has passed and both
    /// minimum counts are met. Queries wait for a correct pipeline run.
    fn next(&self, can_query: bool) -> Option<Op> {
        let t = self.start.elapsed().as_secs_f64();
        let need = |op: Op| self.done[op as usize] < self.min[op as usize];
        let over = t >= self.secs;
        if t >= PHASE_CAP_SECS || (over && !need(Op::Pipeline) && !need(Op::Query)) {
            return None;
        }
        let by_share = || {
            let total = self.spent[0] + self.spent[1];
            match self.spent[0] <= self.share * total {
                true => Op::Pipeline,
                false => Op::Query,
            }
        };
        Some(match (can_query, over) {
            (false, _) => Op::Pipeline,
            (true, true) if !need(Op::Query) => Op::Pipeline,
            (true, true) if !need(Op::Pipeline) => Op::Query,
            _ => by_share(),
        })
    }

    fn spent(&mut self, op: Op, secs: f64) {
        self.spent[op as usize] += secs;
        self.done[op as usize] += 1;
    }
}

/// Attempted and failed operations; every failure is also reported.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Counts one operation; true if it succeeded.
    fn check(&mut self, what: &str, r: Res<()>) -> bool {
        self.attempted += 1;
        if let Err(e) = &r {
            self.failed += 1;
            eprintln!("utebench: FAILED {what}: {e}");
        }
        r.is_ok()
    }
}

/// The inputs built before timing starts: the `--jobs 1` reference run
/// directory's hashes, the query pool and each query's reference answer.
struct Setup {
    dir: PathBuf,
    reference: Reference,
    pool: Vec<Query>,
    answers: Vec<String>,
}

fn set_up(work: &mut WorkDir, input: &Input, seed: u64) -> Res<Setup> {
    let dir = work.next("ref");
    ingest::run_child(&dir, input, 1)?;
    let reference = Reference::scan(&dir)?;
    let pool = session::pool(seed, session::run_span(&dir)?);
    let answers = pool.iter().map(|q| q.answer(&dir)).collect::<Res<_>>()?;
    Ok(Setup {
        dir,
        reference,
        pool,
        answers,
    })
}

impl Setup {
    /// Whether two set-ups built the same inputs (wherever they live).
    fn same_inputs(&self, other: &Setup) -> bool {
        (&self.reference, &self.pool, &self.answers)
            == (&other.reference, &other.pool, &other.answers)
    }
}

/// Runs the pipeline at `--jobs nproc` into `dir` and checks it.
/// Returns the run's figures if it ran, and whether its output is right.
fn timed_pipeline(
    dir: &Path,
    input: &Input,
    setup: &Setup,
    tally: &mut Tally,
) -> (Option<PipelineRun>, bool) {
    let mut run = None;
    let r = ingest::run_child(dir, input, jobs()).and_then(|r| {
        run = Some(r);
        ingest::verify(dir, &setup.reference)
    });
    let ok = tally.check("pipeline", r);
    (run, ok)
}

fn end_to_end(opts: &Opts, work: &mut WorkDir, input: &Input) -> Res<String> {
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..if opts.tiny { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let s = set_up(work, input, opts.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup.as_ref().is_some_and(|prev| !prev.same_inputs(&s)) {
            return Err("two set-ups of the same seed disagree".into());
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let mut tally = Tally::default();
    let mut sched = Schedule::new(opts);
    let mut order = Order::new(opts.seed);
    // Queries read the directory of the last correct pipeline run.
    let mut run_dir: Option<PathBuf> = None;
    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = Vec::new();
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    while let Some(op) = sched.next(run_dir.is_some()) {
        let t0 = Instant::now();
        match op {
            Op::Pipeline => {
                let dir = work.next("run");
                let (run, ok) = timed_pipeline(&dir, input, &setup, &mut tally);
                if let Some(r) = run {
                    walls.push(r.wall_s);
                    cpus.push(r.cpu_s);
                    rss.push(r.peak_rss_mib);
                }
                if ok {
                    run_dir = Some(dir);
                } else if tally.failed == tally.attempted {
                    return Err("the first pipeline run failed".into());
                }
            }
            Op::Query => {
                let dir = run_dir.as_ref().expect("scheduled after a correct run");
                let i = order.next_index();
                let q = &setup.pool[i];
                let t = Instant::now();
                let answer = q.answer(dir);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let r = answer.and_then(|a| {
                    latencies.push(ms);
                    by_kind.entry(q.kind()).or_default().push(ms);
                    match a == setup.answers[i] {
                        true => Ok(()),
                        false => Err(format!("{q:?} answered differently from its reference")),
                    }
                });
                tally.check("query", r);
            }
        }
        sched.spent(op, t0.elapsed().as_secs_f64());
    }
    if walls.is_empty() || latencies.is_empty() {
        return Err("no pipeline run or no query completed".into());
    }

    let r = &setup.reference;
    let values: BTreeMap<String, f64> = [
        ("pipeline_s", stats::median(&walls)),
        ("pipeline_cpu_s", stats::median(&cpus)),
        ("peak_rss_mb", stats::median(&rss)),
        (
            "artifact_bytes_per_event",
            r.bytes as f64 / r.raw_records as f64,
        ),
        ("query_p50_ms", stats::median(&latencies)),
        ("query_p95_ms", stats::percentile(&latencies, 95)),
        ("setup_s", stats::median(&setup_s)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    eprintln!(
        "utebench: {} pipeline runs, {} queries (p95 keeps {} beyond), {} set-ups; \
         {} of {} operations failed",
        walls.len(),
        latencies.len(),
        stats::samples_beyond(latencies.len(), 95),
        setup_s.len(),
        tally.failed,
        tally.attempted
    );
    for (what, xs) in [("pipeline wall", &walls), ("pipeline CPU", &cpus)] {
        eprintln!(
            "  {what:<14} s: min {:.3}, p25 {:.3}, median {:.3}, max {:.3}",
            stats::percentile(xs, 0),
            stats::percentile(xs, 25),
            stats::median(xs),
            stats::percentile(xs, 100)
        );
    }
    for (kind, ms) in &by_kind {
        eprintln!(
            "  {kind:<14} {:>4} queries, median {:>8.2} ms, max {:>8.2} ms",
            ms.len(),
            stats::median(ms),
            stats::percentile(ms, 100)
        );
    }
    report(&metrics::end_to_end(), &values);
    metrics::result_line(
        tally.attempted,
        tally.failed,
        &metrics::end_to_end(),
        &values,
    )
}

fn report(catalog: &[metrics::Metric], values: &BTreeMap<String, f64>) {
    for m in catalog {
        if let Some(v) = values.get(&m.name) {
            eprintln!("  {:<28} {:>16.4} {}", m.name, v, m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(secs: f64, share: f64) -> Schedule {
        Schedule {
            start: Instant::now(),
            secs,
            share,
            spent: [0.0; 2],
            done: [0; 2],
            min: [3, 5],
        }
    }

    #[test]
    fn schedule_meets_both_minimums_after_the_window() {
        let mut s = schedule(0.0, 0.5);
        let mut ops = Vec::new();
        while let Some(op) = s.next(!ops.is_empty()) {
            ops.push(op);
            s.spent(op, 1.0);
        }
        assert_eq!(ops[0], Op::Pipeline, "queries wait for a run");
        assert_eq!(ops.iter().filter(|&&o| o == Op::Pipeline).count(), 3);
        assert_eq!(ops.iter().filter(|&&o| o == Op::Query).count(), 5);
    }

    #[test]
    fn schedule_keeps_the_pipeline_share_inside_the_window() {
        let mut s = schedule(3600.0, 0.25);
        for _ in 0..400 {
            let op = s.next(true).expect("window still open");
            s.spent(op, if op == Op::Pipeline { 3.0 } else { 1.0 });
        }
        let share = s.spent[0] / (s.spent[0] + s.spent[1]);
        assert!((share - 0.25).abs() < 0.02, "{share}");
    }
}
