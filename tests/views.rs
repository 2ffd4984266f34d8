//! View-layer integration tests on real pipeline data: the connected
//! nested thread-activity mode, windowed rendering through pseudo
//! records, golden ASCII/SVG snapshots of the sPPM and FLASH renders
//! (checked-in baselines under `tests/snapshots/`, regenerated with
//! `UPDATE_SNAPSHOTS=1 cargo test --test views`), a golden ASCII
//! snapshot of a tiny deterministic view, and a differential sweep
//! showing that frame-indexed reads (decode only the frames a view
//! shows) answer exactly like a fully decoded file.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ute::cluster::Simulator;
use ute::convert::convert_job;
use ute::core::bebits::BeBits;
use ute::format::file::FramePolicy;
use ute::format::profile::Profile;
use ute::format::state::StateCode;
use ute::merge::{slogmerge, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::slog::file::{SlogFile, SlogFrame, SlogReader};
use ute::slog::preview::Preview;
use ute::slog::record::{SlogRecord, SlogState};
use ute::view::ascii;
use ute::view::model::{build_view, frame_view, ViewConfig, ViewKind};
use ute::workloads::flash::{workload, FlashParams};
use ute::workloads::{scaling, sppm, Workload};

fn workload_slog(w: Workload) -> (Profile, SlogFile) {
    let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    let converted = convert_job(
        &result.raw_files,
        &result.threads,
        &profile,
        FramePolicy::default(),
        true,
    )
    .unwrap();
    let files: Vec<&[u8]> = converted
        .iter()
        .map(|c| c.interval_file.as_slice())
        .collect();
    let (slog, _) = slogmerge(
        &files,
        &profile,
        &MergeOptions::default(),
        BuildOptions {
            nframes: 24,
            preview_bins: 48,
            arrows: true,
        },
    )
    .unwrap();
    (profile, slog)
}

fn flash_slog() -> (Profile, SlogFile) {
    workload_slog(workload(FlashParams {
        iters_per_phase: 3,
        ..FlashParams::default()
    }))
}

/// Compares rendered output to the checked-in baseline, or rewrites the
/// baseline when `UPDATE_SNAPSHOTS` is set. On mismatch, reports the
/// first differing line rather than dumping both renders whole.
fn snapshot_check(name: &str, content: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots");
    let path = dir.join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, content).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; generate it with UPDATE_SNAPSHOTS=1 cargo test --test views",
            path.display()
        )
    });
    if content == want {
        return;
    }
    let mismatch = content
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want);
    match mismatch {
        Some((i, (got, want))) => panic!(
            "snapshot {name} drifted at line {}:\n  got:  {got}\n  want: {want}\n\
             (re-run with UPDATE_SNAPSHOTS=1 if the change is intended)",
            i + 1
        ),
        None => panic!(
            "snapshot {name} drifted in length: got {} lines, want {} \
             (re-run with UPDATE_SNAPSHOTS=1 if the change is intended)",
            content.lines().count(),
            want.lines().count()
        ),
    }
}

/// Renders a workload's thread-activity view both ways and checks the
/// pair of baselines.
fn snapshot_workload(stem: &str, profile_slog: (Profile, SlogFile)) {
    let (_, slog) = profile_slog;
    let view = build_view(&slog, &ViewConfig::default()).unwrap();
    snapshot_check(&format!("{stem}_thread.txt"), &ascii::render(&view, 100));
    snapshot_check(
        &format!("{stem}_thread.svg"),
        &ute::view::svg::render(&view, &ute::view::svg::SvgOptions::default()),
    );
}

#[test]
fn sppm_view_snapshots() {
    snapshot_workload(
        "sppm",
        workload_slog(sppm::workload(sppm::SppmParams::default())),
    );
}

#[test]
fn flash_view_snapshots() {
    snapshot_workload("flash", flash_slog());
}

#[test]
fn connected_view_nests_markers_above_mpi() {
    let (_, slog) = flash_slog();
    let connected = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            connected: true,
            hide_running: true,
            ..ViewConfig::default()
        },
    )
    .unwrap();
    // Marker bars exist and carry depth 0; MPI bars inside them carry
    // depth ≥ 1 (connected mode reconstructs nesting).
    let marker_bars: Vec<_> = connected
        .bars
        .iter()
        .filter(|b| b.color.starts_with("Marker:"))
        .collect();
    assert!(!marker_bars.is_empty(), "connected markers missing");
    assert!(
        connected
            .bars
            .iter()
            .any(|b| b.color.starts_with("MPI_") && b.depth >= 1),
        "MPI bars should nest inside markers"
    );
    // Marker labels resolve through the unified marker table.
    assert!(
        connected.legend.iter().any(|k| k == "Marker:Evolution"),
        "legend: {:?}",
        connected.legend
    );
    // The piece view of the same data has no depth.
    let pieces = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            connected: false,
            hide_running: true,
            ..ViewConfig::default()
        },
    )
    .unwrap();
    assert!(pieces.bars.iter().all(|b| b.depth == 0));
}

#[test]
fn windowed_connected_view_shows_enclosing_state_via_pseudo_records() {
    let (_, slog) = flash_slog();
    // Find a frame strictly inside the Evolution phase: it contains a
    // zero-duration pseudo continuation for the marker, and the connected
    // view must stretch the marker across the whole window.
    let marker_frames: Vec<&SlogFrame> = slog
        .frames
        .iter()
        .filter(|f| {
            f.records.iter().any(|r| {
                matches!(
                    r,
                    SlogRecord::State(s)
                        if s.state == StateCode::MARKER
                            && s.bebits == BeBits::Continuation
                )
            })
        })
        .collect();
    assert!(
        !marker_frames.is_empty(),
        "no frames with marker continuations"
    );
    let f = marker_frames[0];
    let view = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            window: Some((f.t_start, f.t_end)),
            connected: true,
            hide_running: true,
            ..ViewConfig::default()
        },
    )
    .unwrap();
    let full_span_marker = view
        .bars
        .iter()
        .any(|b| b.color.starts_with("Marker:") && b.start == f.t_start && b.end == f.t_end);
    assert!(
        full_span_marker,
        "enclosing marker should span the window: {:?}",
        view.bars
            .iter()
            .filter(|b| b.color.starts_with("Marker:"))
            .collect::<Vec<_>>()
    );
}

#[test]
fn golden_ascii_snapshot() {
    // A tiny handcrafted SLOG with one thread, one nested call, rendered
    // at fixed width: the exact output is pinned so rendering regressions
    // are caught immediately.
    let mut threads = ute::format::thread_table::ThreadTable::new();
    threads
        .register(ute::format::thread_table::ThreadEntry {
            task: ute::core::ids::TaskId(0),
            pid: ute::core::ids::Pid(1),
            system_tid: ute::core::ids::SystemThreadId(1),
            node: ute::core::ids::NodeId(0),
            logical: ute::core::ids::LogicalThreadId(0),
            ttype: ute::core::ids::ThreadType::Mpi,
        })
        .unwrap();
    let state = |st: StateCode, start: u64, dur: u64| {
        SlogRecord::State(SlogState {
            timeline: 0,
            state: st,
            bebits: BeBits::Complete,
            pseudo: false,
            start,
            duration: dur,
            node: 0,
            cpu: 0,
            marker_id: 0,
        })
    };
    let slog = SlogFile {
        threads,
        markers: vec![],
        preview: Preview::new(0, 40, 4),
        frames: vec![SlogFrame {
            t_start: 0,
            t_end: 40,
            records: vec![
                state(StateCode::RUNNING, 0, 40),
                state(StateCode::mpi(ute::core::event::MpiOp::Send), 10, 10),
            ],
        }],
    };
    let view = build_view(&slog, &ViewConfig::default()).unwrap();
    let got = ascii::render(&view, 20);
    // Fill characters are assigned positionally by legend order, so the
    // snapshot is checked structurally rather than byte-for-byte.
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 4, "{got}");
    let bar: Vec<char> = lines[0]
        .chars()
        .skip("n0 t0 (mpi rank 0) |".len())
        .collect();
    assert_eq!(bar.len(), 20);
    // Columns 5..10 are the nested Send (25%..50% of 40 ticks).
    assert_ne!(bar[6], bar[2], "nested call must differ from Running fill");
    assert_eq!(bar[2], bar[15], "Running on both sides");
    assert!(lines[3].starts_with("legend:"));
    assert!(lines[3].contains("Running") && lines[3].contains("MPI_Send"));
}

const KINDS: [(&str, ViewKind); 5] = [
    ("thread", ViewKind::ThreadActivity),
    ("cpu", ViewKind::ProcessorActivity),
    ("threadcpu", ViewKind::ThreadProcessor),
    ("cputhread", ViewKind::ProcessorThread),
    ("type", ViewKind::TypeActivity),
];

/// Seconds as the CLI prints and parses them, and the ticks the CLI
/// derives from that text.
fn secs(ticks: u64) -> (String, u64) {
    let text = format!("{:.9}", ticks as f64 / 1e9);
    let back = (text.parse::<f64>().unwrap() * 1e9) as u64;
    (text, back)
}

/// The `ute view` answer rendered from a fully decoded file.
fn render(view: ute::core::error::Result<ute::view::model::View>) -> Result<String, String> {
    view.map(|v| ascii::render(&v, 100))
        .map_err(|e| e.to_string())
}

/// Sweeps seeded windows and `--frame-at` instants over all five view
/// kinds with and without `--connected` / `--hide-running`. A windowed
/// load must build the same `View` as the full file, and `ute view` /
/// `ute preview` must print exactly what rendering the full file prints.
fn differential_sweep(name: &str, slog: &SlogFile, seed: u64) {
    let bytes = slog.to_bytes();
    let full = SlogFile::from_bytes(&bytes).unwrap();
    assert_eq!(&full, slog);
    assert!(full.frames.len() > 4, "{name}: want several frames");
    let path = std::env::temp_dir().join(format!("ute_views_{name}_{}.slog", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let path_s = path.to_str().unwrap().to_string();
    let cli = |extra: &[&str]| -> Result<String, String> {
        let mut argv = vec!["view".to_string(), "--slog".into(), path_s.clone()];
        argv.extend(extra.iter().map(|s| s.to_string()));
        ute::cli::run(&argv).map_err(|e| e.to_string())
    };

    // The preview needs no frame at all.
    let reader = SlogReader::open(&bytes).unwrap();
    assert_eq!(reader.preview, full.preview);
    let mut want = ute::view::preview::render_ascii(&full.preview, 8);
    want.push_str("interesting ranges:");
    for (a, b) in ute::view::preview::interesting_ranges(&full.preview, 0.25) {
        want.push_str(&format!(" [{a:.3}s..{b:.3}s]"));
    }
    want.push('\n');
    let got = ute::cli::run(&["preview".to_string(), "--slog".into(), path_s.clone()]);
    assert_eq!(got.unwrap(), want, "{name}: preview");

    let (t0, t1) = (full.preview.span_start, full.preview.span_end);
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..60 {
        let (kind_name, kind) = KINDS[i % KINDS.len()];
        let connected = rng.gen_bool(0.5);
        let hide_running = rng.gen_bool(0.5);
        let mut flags = vec!["--kind", kind_name];
        if connected {
            flags.push("--connected");
        }
        if hide_running {
            flags.push("--hide-running");
        }
        let cfg = ViewConfig {
            kind,
            connected,
            hide_running,
            ..ViewConfig::default()
        };

        // A window: every third one snapped to frame boundaries, the
        // rest anywhere in (and a little past) the run.
        let (a, b) = if i % 3 == 0 {
            let f = rng.gen_range(0..full.frames.len());
            let g = (f + rng.gen_range(0..3usize)).min(full.frames.len() - 1);
            (full.frames[f].t_start, full.frames[g].t_end)
        } else {
            let a = rng.gen_range(t0..t1);
            (a, a + rng.gen_range(1..(t1 - t0) / 4))
        };
        let ((a_text, a), (b_text, b)) = (secs(a), secs(b));
        let window = format!("{a_text},{b_text}");
        let wcfg = ViewConfig {
            window: Some((a, b)),
            ..cfg
        };
        let part = SlogReader::open(&bytes)
            .unwrap()
            .load(Some((a, b)))
            .unwrap();
        let want = build_view(&full, &wcfg).map_err(|e| e.to_string());
        assert_eq!(
            build_view(&part, &wcfg).map_err(|e| e.to_string()),
            want,
            "{name}: {kind_name} window {window}"
        );
        let mut argv = flags.clone();
        argv.extend(["--window", &window]);
        assert_eq!(
            cli(&argv),
            render(build_view(&full, &wcfg)),
            "{name}: ute view {argv:?}"
        );

        // An instant: anywhere in the run, or just past its end.
        let (t_text, t) = secs(rng.gen_range(t0..t1 + (t1 - t0) / 50));
        let one = SlogReader::open(&bytes)
            .unwrap()
            .load(Some((t, t + 1)))
            .unwrap();
        assert!(one.frames.len() <= 1, "{name}: frame-at {t} loaded more");
        assert_eq!(
            frame_view(&one, t, &cfg).map_err(|e| e.to_string()),
            frame_view(&full, t, &cfg).map_err(|e| e.to_string()),
            "{name}: {kind_name} frame-at {t}"
        );
        let mut argv = flags.clone();
        argv.extend(["--frame-at", &t_text]);
        assert_eq!(
            cli(&argv),
            render(frame_view(&full, t, &cfg)),
            "{name}: ute view {argv:?}"
        );
    }
    // No window: the whole file, as before.
    assert_eq!(cli(&[]), render(build_view(&full, &ViewConfig::default())));
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_reads_match_full_reads_sppm() {
    let (_, slog) = workload_slog(sppm::workload(sppm::SppmParams::default()));
    differential_sweep("sppm", &slog, 11);
}

#[test]
fn windowed_reads_match_full_reads_flash() {
    let (_, slog) = flash_slog();
    differential_sweep("flash", &slog, 12);
}

#[test]
fn windowed_reads_match_full_reads_scaling() {
    let (_, slog) = workload_slog(scaling::scaled_job(40));
    differential_sweep("scaling", &slog, 13);
}
