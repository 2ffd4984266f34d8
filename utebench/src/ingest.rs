//! Timed `ute pipeline` runs, each in a fresh child process, and the
//! check of every artifact they publish against a `--jobs 1` reference.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use ute_rawtrace::RawTraceFile;
use ute_store::{RunJournal, StageStatus};

use crate::workload::Input;
use crate::Res;

/// First argument that makes the benchmark binary act as the child.
pub const CHILD_ARG: &str = "__pipeline-child";

/// The journal is the one file whose bytes legitimately differ between
/// runs (it records the writer's pid); it is checked by replay instead.
const JOURNAL: &str = "journal.utj";

/// The stages a finished `ute pipeline` run has published, in order.
const STAGES: [&str; 5] = ["trace", "convert", "merge", "slogmerge", "stats"];

/// What one child reported.
#[derive(Debug, Clone, Copy)]
pub struct PipelineRun {
    pub wall_s: f64,
    /// User plus system CPU time of all the child's threads.
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

/// Runs `ute pipeline --out OUT --jobs JOBS <input>` in a fresh process.
pub fn run_child(out: &Path, input: &Input, jobs: usize) -> Res<PipelineRun> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_str = out.to_str().ok_or("work path is not UTF-8")?;
    let output = Command::new(exe)
        .arg(CHILD_ARG)
        .args(["pipeline", "--out", out_str, "--jobs", &jobs.to_string()])
        .args(input.cli_args())
        .output()
        .map_err(|e| format!("spawn pipeline child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "pipeline child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| -> Res<f64> {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
            .ok_or_else(|| format!("pipeline child printed no `{key}`: {text}"))
    };
    Ok(PipelineRun {
        wall_s: field("wall_ns")? / 1e9,
        cpu_s: field("cpu_ticks")? / CLOCK_TICKS_PER_S,
        peak_rss_mib: field("vmhwm_kb")? / 1024.0,
    })
}

/// The child: runs one `ute` command through the binary's entry point
/// and prints its wall time, its CPU time and the process's peak
/// resident set.
pub fn child_main(argv: &[String]) -> i32 {
    let (Some(cpu0), Some(_)) = (cpu_ticks(), vm_hwm_kb()) else {
        eprintln!("no CPU times in /proc/self/stat or no VmHWM in /proc/self/status");
        return 1;
    };
    let t = Instant::now();
    let result = ute_cli::run(argv);
    let wall_ns = t.elapsed().as_nanos();
    if let Err(e) = result {
        eprintln!("ute: {e}");
        return 1;
    }
    let (Some(cpu1), Some(kb)) = (cpu_ticks(), vm_hwm_kb()) else {
        return 1;
    };
    println!(
        "wall_ns {wall_ns}\ncpu_ticks {}\nvmhwm_kb {kb}",
        cpu1 - cpu0
    );
    0
}

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on every Linux architecture).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system time of every thread the process has run, live or
/// ended, in clock ticks.
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let mut rest = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some(utime + stime)
}

fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Content hashes of a finished run directory's artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// File name -> FNV-64 of its bytes, for every file but the journal.
    pub hashes: BTreeMap<String, u64>,
    /// Total bytes of those files.
    pub bytes: u64,
    /// Records in the `trace.N.raw` files.
    pub raw_records: u64,
}

impl Reference {
    pub fn scan(dir: &Path) -> Res<Reference> {
        let mut hashes = BTreeMap::new();
        let mut bytes = 0;
        let mut raw_records = 0;
        for name in list_dir(dir)? {
            if name == JOURNAL {
                continue;
            }
            let data = read(&dir.join(&name))?;
            bytes += data.len() as u64;
            if name.ends_with(".raw") {
                let f = RawTraceFile::from_bytes(&data).map_err(|e| format!("{name}: {e}"))?;
                raw_records += f.events.len() as u64;
            }
            hashes.insert(name, ute_store::fnv64(&data));
        }
        if raw_records == 0 {
            return Err(format!("{}: no raw records", dir.display()));
        }
        Ok(Reference {
            hashes,
            bytes,
            raw_records,
        })
    }

    pub fn merged_hash(&self) -> Option<u64> {
        self.hashes.get("merged.ivl").copied()
    }
}

/// Checks a run directory against the reference: the same files with
/// the same bytes, and a journal that replays to a finished run whose
/// every stage published exactly those artifacts.
pub fn verify(dir: &Path, want: &Reference) -> Res<()> {
    let names = list_dir(dir)?;
    let got: Vec<&String> = names.iter().filter(|n| *n != JOURNAL).collect();
    if !got.iter().copied().eq(want.hashes.keys()) {
        return Err(format!(
            "{}: files {got:?}, want {:?}",
            dir.display(),
            want.hashes.keys().collect::<Vec<_>>()
        ));
    }
    for (name, &hash) in &want.hashes {
        if ute_store::fnv64(&read(&dir.join(name))?) != hash {
            return Err(format!(
                "{}: {name} differs from the reference",
                dir.display()
            ));
        }
    }
    let (_, state) = RunJournal::open_for_resume(dir).map_err(|e| format!("journal: {e}"))?;
    if !state.run_ended || state.torn_tail {
        return Err(format!(
            "{}: journal does not record a finished run",
            dir.display()
        ));
    }
    let mut journaled = 0;
    for stage in STAGES {
        match state.status(stage) {
            Some(StageStatus::Published { artifacts }) => {
                for a in artifacts {
                    if want.hashes.get(&a.name) != Some(&a.hash) {
                        return Err(format!("journal: {stage} published a stale {}", a.name));
                    }
                }
                journaled += artifacts.len();
            }
            other => return Err(format!("journal: stage {stage} is {other:?}")),
        }
    }
    if journaled != want.hashes.len() {
        return Err(format!(
            "journal lists {journaled} artifacts, the directory holds {}",
            want.hashes.len()
        ));
    }
    Ok(())
}

fn list_dir(dir: &Path) -> Res<Vec<String>> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

fn read(path: &Path) -> Res<Vec<u8>> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}
