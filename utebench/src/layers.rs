//! The traced run: the benchmark re-issues the calls `ute pipeline` and
//! the query commands make, layer by layer, with a span around each
//! call into a layer's public functions. The sequence mirrors
//! `crates/cli/src/stages.rs` and the `cmd_*` functions it drives, and
//! its artifacts are checked against the same reference as the
//! untraced runs, so a drift between the two shows up as a failure.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ute_analyze::{DiagOptions, LoadOptions};
use ute_clock::ratio::RatioEstimator;
use ute_cluster::Simulator;
use ute_convert::{convert_job_pooled, ConvertOptions};
use ute_format::codecio::{read_thread_table_file, thread_table_to_bytes};
use ute_format::file::{FramePolicy, IntervalFileReader};
use ute_format::profile::Profile;
use ute_format::record::Interval;
use ute_format::thread_table::ThreadTable;
use ute_merge::MergeOptions;
use ute_pipeline::{merge_files_jobs, slogmerge_jobs};
use ute_rawtrace::RawTraceFile;
use ute_slog::builder::BuildOptions;
use ute_slog::file::SlogFile;
use ute_store::{ArtifactStore, JournalRecord, RunJournal};
use ute_view::model::{build_view, frame_view, ViewConfig, ViewKind};

use crate::session::Query;
use crate::spans::Tracer;
use crate::workload::Input;
use crate::Res;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Counts gathered while a traced pipeline runs.
#[derive(Debug, Clone, Default)]
pub struct IngestCounts {
    pub records: u64,
    pub raw_bytes: u64,
    pub convert_in: u64,
    pub convert_out: u64,
    pub merge_in: u64,
    pub merge_out: u64,
    pub slog_in: u64,
    pub slog_bytes: u64,
    pub slog_frames: u64,
    pub ivl_bytes: u64,
    pub stats_records: u64,
    pub artifacts: u64,
    pub store_bytes: u64,
    pub permit_wait_ns: u64,
    pub recv_wait_ns: u64,
}

/// Wait time the pipeline crate has recorded so far in its histograms.
fn pipeline_waits() -> (u64, u64) {
    (
        ute_obs::histogram("pipeline/permit_wait_ns").sum(),
        ute_obs::histogram("pipeline/recv_wait_ns").sum(),
    )
}

/// What `ute convert` passes in its default (salvaging) mode.
fn convert_options() -> ConvertOptions {
    ConvertOptions {
        policy: FramePolicy::default(),
        lenient: true,
        salvage: true,
    }
}

/// What `ute merge` and `ute slogmerge` pass by default.
fn merge_options() -> MergeOptions {
    MergeOptions {
        estimator: RatioEstimator::RmsSegments,
        filter_outliers: true,
        salvage: true,
        gap_nodes: Vec::new(),
        ..MergeOptions::default()
    }
}

/// Runs the five journaled stages of `input` into `dir` under one root
/// span. Returns the root span's id and the counts.
pub fn traced_pipeline(
    tr: &mut Tracer,
    dir: &Path,
    input: &Input,
    jobs: usize,
) -> Res<(usize, IngestCounts)> {
    let root = tr.open(None, "pipeline");
    let waits = pipeline_waits();
    let depth = tr.depth();
    let result = Replica::start(tr, dir, jobs, &input.config_pairs()).and_then(|mut r| {
        r.trace(input)?;
        r.convert()?;
        r.merge()?;
        r.slogmerge()?;
        r.stats()?;
        r.append(JournalRecord::RunEnd)?;
        Ok(r.n)
    });
    tr.unwind(depth);
    tr.close(root);
    let mut n = result?;
    let after = pipeline_waits();
    n.permit_wait_ns = after.0 - waits.0;
    n.recv_wait_ns = after.1 - waits.1;
    Ok((root, n))
}

struct Replica<'t> {
    tr: &'t mut Tracer,
    dir: PathBuf,
    jobs: usize,
    store: ArtifactStore,
    journal: RunJournal,
    n: IngestCounts,
}

impl<'t> Replica<'t> {
    fn start(
        tr: &'t mut Tracer,
        dir: &Path,
        jobs: usize,
        config: &[(String, String)],
    ) -> Res<Replica<'t>> {
        tr.call(None, "io.mkdir", || std::fs::create_dir_all(dir))
            .map_err(err("create run directory"))?;
        let store = ArtifactStore::new(dir);
        tr.call(Some("store"), "store.gc", || store.gc_stale_temps(&[]))
            .map_err(err("gc"))?;
        let journal = tr
            .call(Some("store"), "store.journal_append run-start", || {
                RunJournal::create(dir, config)
            })
            .map_err(err("journal"))?;
        Ok(Replica {
            tr,
            dir: dir.to_path_buf(),
            jobs,
            store,
            journal,
            n: IngestCounts::default(),
        })
    }

    fn append(&mut self, rec: JournalRecord) -> Res<()> {
        let journal = &mut self.journal;
        self.tr
            .call(Some("store"), "store.journal_append", || {
                journal.append(&rec)
            })
            .map_err(err("journal append"))
    }

    fn begin(&mut self, stage: &str) -> Res<usize> {
        let id = self.tr.open(None, format!("stage.{stage}"));
        self.append(JournalRecord::StageStart {
            stage: stage.to_string(),
        })?;
        Ok(id)
    }

    /// The store's publish protocol: durable temps, commit record,
    /// renames, publish record.
    fn publish(&mut self, stage: &str, span: usize, artifacts: Vec<(String, Vec<u8>)>) -> Res<()> {
        let pid = std::process::id();
        let mut metas = Vec::with_capacity(artifacts.len());
        for (name, bytes) in &artifacts {
            let store = &mut self.store;
            let meta = self
                .tr
                .call(Some("store"), format!("store.write_temp {name}"), || {
                    store.write_temp(stage, name, bytes)
                })
                .map_err(err("write temp"))?;
            self.n.artifacts += 1;
            self.n.store_bytes += meta.len;
            metas.push(meta);
        }
        self.append(JournalRecord::StageCommit {
            stage: stage.to_string(),
            pid,
            artifacts: metas.clone(),
            removes: Vec::new(),
        })?;
        for m in &metas {
            let store = &self.store;
            self.tr
                .call(Some("store"), format!("store.promote {}", m.name), || {
                    store.promote(stage, m, pid)
                })
                .map_err(err("promote"))?;
        }
        self.append(JournalRecord::StagePublish {
            stage: stage.to_string(),
        })?;
        self.tr.call(None, "free artifacts", || drop(artifacts));
        self.tr.close(span);
        Ok(())
    }

    fn profile(&mut self) -> Res<Profile> {
        let path = self.dir.join("profile.ute");
        self.tr
            .call(Some("format"), "format.profile_read", || {
                Profile::read_from(&path)
            })
            .map_err(err("profile.ute"))
    }

    /// Node numbers N with a `trace.N.EXT` file, sorted.
    fn scan(&mut self, ext: &str) -> Res<Vec<u16>> {
        let dir = self.dir.clone();
        self.tr
            .call(None, "io.scan", || scan_nodes(&dir, ext))
            .map_err(err("scan"))
    }

    fn read_ivls(&mut self) -> Res<Vec<Vec<u8>>> {
        let mut files = Vec::new();
        for node in self.scan("ivl")? {
            let name = format!("trace.{node}.ivl");
            let path = self.dir.join(&name);
            let bytes = self
                .tr
                .call(None, format!("io.read {name}"), || std::fs::read(&path))
                .map_err(err("read ivl"))?;
            files.push(bytes);
        }
        Ok(files)
    }

    fn trace(&mut self, input: &Input) -> Res<()> {
        let span = self.begin("trace")?;
        // The program is built inside the stage, as `ute pipeline` does,
        // by the crate that defines it.
        let (config, job) = self
            .tr
            .call(Some("workloads"), "workloads.build", || input.program());
        let res = self
            .tr
            .call(Some("cluster"), "cluster.simulate", || {
                Simulator::new(config, &job).and_then(|s| s.run())
            })
            .map_err(err("simulate"))?;
        self.n.records = res.raw_files.iter().map(|f| f.events.len() as u64).sum();
        let mut artifacts = Vec::new();
        for f in &res.raw_files {
            let bytes = self
                .tr
                .call(Some("rawtrace"), "rawtrace.encode", || f.to_bytes())
                .map_err(err("encode raw"))?;
            self.n.raw_bytes += bytes.len() as u64;
            artifacts.push((RawTraceFile::file_name("trace", f.node), bytes));
        }
        let threads = self
            .tr
            .call(Some("format"), "format.thread_table_encode", || {
                thread_table_to_bytes(&res.threads)
            });
        artifacts.push(("threads.utt".to_string(), threads));
        let profile = self.tr.call(Some("format"), "format.profile_encode", || {
            Profile::standard().to_bytes()
        });
        artifacts.push(("profile.ute".to_string(), profile));
        self.tr.call(None, "free simulation", || drop(res));
        self.publish("trace", span, artifacts)
    }

    fn convert(&mut self) -> Res<()> {
        let span = self.begin("convert")?;
        let jobs = self.jobs;
        let threads_path = self.dir.join("threads.utt");
        let threads: ThreadTable = self
            .tr
            .call(Some("format"), "format.thread_table_read", || {
                read_thread_table_file(&threads_path)
            })
            .map_err(err("threads.utt"))?;
        let profile = self.profile()?;
        let mut files = Vec::new();
        for node in self.scan("raw")? {
            let path = self.dir.join(format!("trace.{node}.raw"));
            let (f, _report) = self
                .tr
                .call(Some("rawtrace"), "rawtrace.decode", || {
                    RawTraceFile::read_from_salvage(&path)
                })
                .map_err(err("decode raw"))?;
            files.push(f);
        }
        let outputs = self
            .tr
            .call(Some("convert"), "convert.convert_job_pooled", || {
                convert_job_pooled(&files, &threads, &profile, &convert_options(), jobs)
            })
            .map_err(err("convert"))?;
        self.tr.call(None, "free raw", || drop(files));
        let mut artifacts = Vec::new();
        for o in outputs {
            self.n.convert_in += o.stats.events_in;
            self.n.convert_out += o.stats.intervals_out;
            artifacts.push((format!("trace.{}.ivl", o.node.raw()), o.interval_file));
        }
        self.publish("convert", span, artifacts)
    }

    fn merge(&mut self) -> Res<()> {
        let span = self.begin("merge")?;
        let jobs = self.jobs;
        let profile = self.profile()?;
        let files = self.read_ivls()?;
        let refs: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
        let merged = self
            .tr
            .call(Some("merge"), "merge.merge_files_jobs", || {
                merge_files_jobs(&refs, &profile, &merge_options(), jobs)
            })
            .map_err(err("merge"))?;
        self.n.merge_in += merged.stats.records_in;
        self.n.merge_out += merged.stats.records_out;
        drop(files);
        self.publish(
            "merge",
            span,
            vec![("merged.ivl".to_string(), merged.merged)],
        )
    }

    fn slogmerge(&mut self) -> Res<()> {
        let span = self.begin("slogmerge")?;
        let jobs = self.jobs;
        let profile = self.profile()?;
        let files = self.read_ivls()?;
        let refs: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
        let (slog, st) = self
            .tr
            .call(Some("slog"), "slog.slogmerge_jobs", || {
                slogmerge_jobs(
                    &refs,
                    &profile,
                    &merge_options(),
                    BuildOptions::default(),
                    jobs,
                )
            })
            .map_err(err("slogmerge"))?;
        drop(files);
        let bytes = self
            .tr
            .call(Some("slog"), "slog.encode", || slog.to_bytes());
        self.n.slog_in += st.records_in;
        self.n.slog_frames = slog.frames.len() as u64;
        self.n.slog_bytes = bytes.len() as u64;
        drop(slog);
        self.publish("slogmerge", span, vec![("run.slog".to_string(), bytes)])
    }

    fn stats(&mut self) -> Res<()> {
        let span = self.begin("stats")?;
        let path = self.dir.join("merged.ivl");
        let merged = self
            .tr
            .call(None, "io.read merged.ivl", || std::fs::read(&path))
            .map_err(err("read merged.ivl"))?;
        let profile = self.profile()?;
        let intervals = self
            .tr
            .call(Some("format"), "format.ivl_decode", || {
                decode_ivl(&merged, &profile)
            })
            .map_err(err("decode merged.ivl"))?;
        self.n.ivl_bytes = merged.len() as u64;
        self.n.stats_records = intervals.len() as u64;
        let tables = self
            .tr
            .call(Some("stats"), "stats.run_tables", || {
                let specs = ute_stats::predefined::predefined_tables();
                ute_stats::run_tables(&specs, &profile, &intervals)
            })
            .map_err(err("stats"))?;
        self.tr
            .call(Some("stats"), "stats.render", || render_tables(&tables))
            .map_err(err("render tables"))?;
        self.tr
            .call(None, "free intervals", || drop((merged, intervals, tables)));
        self.publish("stats", span, Vec::new())
    }
}

fn decode_ivl(bytes: &[u8], profile: &Profile) -> ute_core::error::Result<Vec<Interval>> {
    IntervalFileReader::open(bytes, profile)?
        .intervals()
        .collect()
}

/// The text `ute stats` prints for its tables.
fn render_tables(tables: &[ute_stats::Table]) -> ute_core::error::Result<String> {
    let mut msg = String::new();
    for t in tables {
        msg.push_str(&format!("=== {} ===\n", t.name));
        if t.x_labels.first().map(String::as_str) == Some("routine") {
            msg.push_str(&ute_stats::viewer::named_routine_table(t)?);
        } else {
            msg.push_str(&t.to_tsv());
        }
        if t.x_labels.len() == 2 {
            if let Ok(hm) = ute_stats::viewer::heatmap_ascii(t, 0) {
                msg.push_str(&hm);
            }
        }
        msg.push('\n');
    }
    Ok(msg)
}

fn scan_nodes(dir: &Path, ext: &str) -> std::io::Result<Vec<u16>> {
    let mut nodes = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let num = name
            .strip_prefix("trace.")
            .and_then(|r| r.strip_suffix(ext))
            .and_then(|r| r.strip_suffix('.'));
        if let Some(n) = num.and_then(|n| n.parse().ok()) {
            nodes.push(n);
        }
    }
    nodes.sort_unstable();
    Ok(nodes)
}

/// Clock fitting alone, which `merge_files_jobs` does inside its
/// workers: decode each node's interval file, then time
/// `fit_node_intervals` per node. Returns the root span.
pub fn traced_clockfit(tr: &mut Tracer, dir: &Path) -> Res<usize> {
    let root = tr.open(None, "probe.clockfit");
    let depth = tr.depth();
    let result = (|| -> Res<()> {
        let profile = Profile::read_from(&dir.join("profile.ute")).map_err(err("profile"))?;
        for node in scan_nodes(dir, "ivl").map_err(err("scan"))? {
            let bytes =
                std::fs::read(dir.join(format!("trace.{node}.ivl"))).map_err(err("read"))?;
            let ivs = tr
                .call(Some("format"), "format.ivl_decode", || {
                    decode_ivl(&bytes, &profile)
                })
                .map_err(err("decode"))?;
            tr.call(Some("merge"), "merge.clockfit", || {
                ute_merge::clockfit::fit_node_intervals(
                    node,
                    &ivs,
                    &profile,
                    RatioEstimator::RmsSegments,
                    true,
                )
            })
            .map_err(err("clock fit"))?;
        }
        Ok(())
    })();
    tr.unwind(depth);
    tr.close(root);
    result.map(|()| root)
}

/// Inputs of the convert+merge speedup probe, decoded once.
pub struct RawInputs {
    files: Vec<RawTraceFile>,
    threads: ThreadTable,
    profile: Profile,
}

impl RawInputs {
    pub fn load(dir: &Path) -> Res<RawInputs> {
        let mut files = Vec::new();
        for node in scan_nodes(dir, "raw").map_err(err("scan"))? {
            let path = dir.join(format!("trace.{node}.raw"));
            files.push(RawTraceFile::read_from(&path).map_err(err("raw"))?);
        }
        Ok(RawInputs {
            files,
            threads: read_thread_table_file(&dir.join("threads.utt")).map_err(err("threads"))?,
            profile: Profile::read_from(&dir.join("profile.ute")).map_err(err("profile"))?,
        })
    }

    /// Staged convert then merge at `jobs`, as `ute pipeline` runs them
    /// (without the disk in between). Returns wall ns and the merged
    /// file's hash.
    pub fn convert_merge(&self, jobs: usize) -> Res<(f64, u64)> {
        let t = Instant::now();
        let outs = convert_job_pooled(
            &self.files,
            &self.threads,
            &self.profile,
            &convert_options(),
            jobs,
        )
        .map_err(err("convert"))?;
        let refs: Vec<&[u8]> = outs.iter().map(|o| o.interval_file.as_slice()).collect();
        let merged =
            merge_files_jobs(&refs, &self.profile, &merge_options(), jobs).map_err(err("merge"))?;
        let ns = t.elapsed().as_nanos() as f64;
        Ok((ns, ute_store::fnv64(&merged.merged)))
    }
}

/// Answers `q` over `dir` the way its `ute` command does, under one
/// root span. Returns the root span and the answer text.
pub fn traced_query(tr: &mut Tracer, dir: &Path, q: &Query) -> Res<(usize, String)> {
    let root = tr.open(None, format!("query.{}", q.kind()));
    let depth = tr.depth();
    let result = answer(tr, dir, q);
    tr.unwind(depth);
    tr.close(root);
    result.map(|a| (root, a))
}

fn answer(tr: &mut Tracer, dir: &Path, q: &Query) -> Res<String> {
    match q {
        Query::Preview => {
            let slog = load_slog(tr, dir)?;
            Ok(tr.call(Some("view"), "view.preview", || {
                let mut msg = ute_view::preview::render_ascii(&slog.preview, 8);
                msg.push_str("interesting ranges:");
                for (a, b) in ute_view::preview::interesting_ranges(&slog.preview, 0.25) {
                    msg.push_str(&format!(" [{a:.3}s..{b:.3}s]"));
                }
                msg.push('\n');
                msg
            }))
        }
        Query::View { kind, window } => {
            let slog = load_slog(tr, dir)?;
            let cfg = ViewConfig {
                kind: match *kind {
                    "cpu" => ViewKind::ProcessorActivity,
                    _ => ViewKind::ThreadActivity,
                },
                window: Some(parse_window(window, ',')?),
                ..ViewConfig::default()
            };
            let view = tr
                .call(Some("view"), "view.build", || build_view(&slog, &cfg))
                .map_err(err("build view"))?;
            Ok(tr.call(Some("view"), "view.render", || {
                ute_view::ascii::render(&view, 100)
            }))
        }
        Query::FrameAt { at } => {
            let slog = load_slog(tr, dir)?;
            let t = (parse_secs(at)? * 1e9) as u64;
            let view = tr
                .call(Some("view"), "view.build", || {
                    frame_view(&slog, t, &ViewConfig::default())
                })
                .map_err(err("frame view"))?;
            Ok(tr.call(Some("view"), "view.render", || {
                ute_view::ascii::render(&view, 100)
            }))
        }
        Query::Analyze { .. } | Query::AnalyzeFull => {
            let window = match q {
                Query::Analyze { window } => Some(parse_window(window, ':')?),
                _ => None,
            };
            let merged = dir.join("merged.ivl");
            let profile_path = dir.join("profile.ute");
            let profile = tr
                .call(Some("format"), "format.profile_read", || {
                    Profile::read_from(&profile_path)
                })
                .map_err(err("profile"))?;
            let load = LoadOptions {
                window,
                nodes: None,
            };
            let table = tr
                .call(Some("analyze"), "analyze.load_table", || {
                    ute_analyze::load_table(&merged, &profile, &load)
                })
                .map_err(err("load table"))?;
            let opts = DiagOptions {
                imbalance_threshold: 1.25,
                ..DiagOptions::default()
            };
            let findings = tr.call(Some("analyze"), "analyze.run_all", || {
                ute_analyze::run_all(&table, &opts)
            });
            let mut msg = format!(
                "analyzed {} rows ({} diagnostic(s)): {} finding(s)\n",
                table.len(),
                ute_analyze::DIAGNOSTICS.len(),
                findings.len()
            );
            for f in &findings {
                msg.push_str(&f.to_text());
                msg.push('\n');
            }
            Ok(msg)
        }
    }
}

fn load_slog(tr: &mut Tracer, dir: &Path) -> Res<SlogFile> {
    let path = dir.join("run.slog");
    let data = tr
        .call(None, "io.read run.slog", || std::fs::read(&path))
        .map_err(err("read run.slog"))?;
    tr.call(Some("slog"), "slog.decode", || SlogFile::from_bytes(&data))
        .map_err(err("decode run.slog"))
}

fn parse_secs(s: &str) -> Res<f64> {
    s.parse().map_err(|_| format!("bad seconds `{s}`"))
}

/// `A<sep>B` seconds to a tick window, as the CLI converts it.
fn parse_window(w: &str, sep: char) -> Res<(u64, u64)> {
    let (a, b) = w
        .split_once(sep)
        .ok_or_else(|| format!("bad window `{w}`"))?;
    Ok(((parse_secs(a)? * 1e9) as u64, (parse_secs(b)? * 1e9) as u64))
}
