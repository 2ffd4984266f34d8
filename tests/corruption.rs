//! Failure-injection tests: every file format must reject corrupt or
//! truncated input with an error — never a panic — because trace files
//! outlive the runs that wrote them and travel between systems.

use proptest::prelude::*;

use ute::cluster::Simulator;
use ute::convert::convert_job;
use ute::format::file::{FramePolicy, IntervalFileReader};
use ute::format::profile::Profile;
use ute::merge::{merge_files, MergeOptions};
use ute::rawtrace::file::RawTraceFile;
use ute::slog::builder::BuildOptions;
use ute::slog::file::{SlogFile, SlogReader};
use ute::workloads::micro::ping_pong;

/// One small valid artifact set, built once.
fn artifacts() -> (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>) {
    let w = ping_pong(4, 2048);
    let sim = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    let raw = sim.raw_files[0].to_bytes().unwrap();
    let converted = convert_job(
        &sim.raw_files,
        &sim.threads,
        &profile,
        FramePolicy::tiny(),
        false,
    )
    .unwrap();
    let ivl = converted[0].interval_file.clone();
    let refs: Vec<&[u8]> = converted
        .iter()
        .map(|c| c.interval_file.as_slice())
        .collect();
    let merged = merge_files(&refs, &profile, &MergeOptions::default())
        .unwrap()
        .merged;
    let (slog, _) = ute::merge::slogmerge(
        &refs,
        &profile,
        &MergeOptions::default(),
        BuildOptions::default(),
    )
    .unwrap();
    (raw, ivl, merged, slog.to_bytes())
}

/// Fully consuming a (possibly corrupt) interval file: open + iterate.
fn consume_interval(bytes: &[u8], profile: &Profile) {
    if let Ok(reader) = IntervalFileReader::open(bytes, profile) {
        // Any record or directory may be broken; errors are fine.
        for iv in reader.intervals() {
            if iv.is_err() {
                return;
            }
        }
        let _ = reader.total_records();
        let _ = reader.find_frame(12345);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corrupted_files_error_but_never_panic(
        flips in prop::collection::vec((0usize..1_000_000, any::<u8>()), 1..12),
        truncate_frac in 0.0f64..1.0,
    ) {
        // Build once per case (cheap workload) to avoid cross-case state.
        let (raw, ivl, merged, slog) = artifacts();
        let profile = Profile::standard();
        for original in [&raw, &ivl, &merged, &slog] {
            let mut bytes = (*original).clone();
            for (pos, val) in &flips {
                let len = bytes.len();
                bytes[pos % len] = *val;
            }
            let cut = ((bytes.len() as f64) * truncate_frac) as usize;
            let truncated = &bytes[..cut];

            // Raw trace parser.
            let _ = RawTraceFile::from_bytes(&bytes);
            let _ = RawTraceFile::from_bytes(truncated);
            // Interval file reader.
            consume_interval(&bytes, &profile);
            consume_interval(truncated, &profile);
            // SLOG parser, whole and through the frame index.
            let _ = SlogFile::from_bytes(&bytes);
            let _ = SlogFile::from_bytes(truncated);
            for input in [&bytes[..], truncated] {
                if let Ok(reader) = SlogReader::open(input) {
                    // A window over part of the (possibly corrupt) span.
                    let (s, e) = (reader.preview.span_start, reader.preview.span_end);
                    let len = e.saturating_sub(s);
                    let a = s.saturating_add((len as f64 * truncate_frac) as u64);
                    let _ = reader.load(Some((a, a.saturating_add(len / 4 + 1))));
                }
            }
            // Profile parser.
            let _ = Profile::from_bytes(&bytes);
        }
    }

    #[test]
    fn corrupted_profiles_never_panic(
        flips in prop::collection::vec((0usize..100_000, any::<u8>()), 1..8),
    ) {
        let mut bytes = Profile::standard().to_bytes();
        for (pos, val) in &flips {
            let len = bytes.len();
            bytes[pos % len] = *val;
        }
        // Either parses (the flip hit a don't-care byte) or errors.
        if let Ok(p) = Profile::from_bytes(&bytes) {
            // A profile that parsed must be usable without panicking.
            let _ = p.record_type_count();
            let _ = p.field_name_index("msgSizeSent");
        }
    }
}

#[test]
fn merging_mismatched_profiles_fails_cleanly() {
    let (_, ivl, _, _) = artifacts();
    let mut other = Profile::standard();
    other.version = 42;
    let refs: Vec<&[u8]> = vec![&ivl];
    let err = merge_files(&refs, &other, &MergeOptions::default()).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn stats_on_garbage_program_fails_cleanly() {
    for bad in [
        "",
        "tab le",
        "table name=",
        "table name=x y=(\"l\", dura, avg",
        "table name=x y=(\"l\", 1 ++ 2, sum)",
        "table name=x condition=((start) y=(\"l\", dura, sum)",
    ] {
        assert!(ute::stats::parse_program(bad).is_err(), "accepted: {bad:?}");
    }
}

/// Views validate what they read; `ute check` validates the whole file.
/// A bad record tag in frame k breaks exactly the views that read frame
/// k: a window clear of it renders as on the clean file, a window over
/// it errors, the preview (no frames) is unaffected, and `ute check`
/// still reports the damage.
#[test]
fn corrupt_frame_breaks_only_the_views_that_read_it() {
    let (_, _, _, clean) = artifacts();
    let slog = SlogFile::from_bytes(&clean).unwrap();
    let n = slog.frames.len();
    // Index entries follow the header: 36 bytes each, the body offset
    // (relative to the end of the index) at byte 20 of an entry.
    let header = SlogFile {
        frames: vec![],
        ..slog.clone()
    }
    .to_bytes()
    .len();
    let k = (n / 3..n - 3)
        .find(|&k| !slog.frames[k].records.is_empty())
        .expect("a frame with records");
    let entry = header + 36 * k;
    let offset = u64::from_le_bytes(clean[entry + 20..entry + 28].try_into().unwrap());
    let mut bytes = clean.clone();
    bytes[header + 36 * n + offset as usize] = 0xEE;

    let dir = std::env::temp_dir().join(format!("ute_corrupt_frame_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (clean_path, bad_path) = (dir.join("clean.slog"), dir.join("bad.slog"));
    std::fs::write(&clean_path, &clean).unwrap();
    std::fs::write(&bad_path, &bytes).unwrap();
    let run = |cmd: &str, path: &std::path::Path, extra: &[&str]| {
        let mut argv = vec![cmd.to_string(), "--slog".into(), path.display().to_string()];
        argv.extend(extra.iter().map(|s| s.to_string()));
        ute::cli::run(&argv)
    };
    // Mid-frame instants, so the seconds text never rounds onto a
    // frame boundary.
    let mid = |i: usize| {
        let f = &slog.frames[i];
        format!(
            "{:.9}",
            (f.t_start + (f.t_end - f.t_start) / 2) as f64 / 1e9
        )
    };

    let clear = format!("{},{}", mid(k + 1), mid(k + 3));
    let want = run("view", &clean_path, &["--window", &clear]).unwrap();
    assert_eq!(run("view", &bad_path, &["--window", &clear]).unwrap(), want);
    let frame_after = run("view", &clean_path, &["--frame-at", &mid(k + 1)]).unwrap();
    assert_eq!(
        run("view", &bad_path, &["--frame-at", &mid(k + 1)]).unwrap(),
        frame_after
    );
    assert_eq!(
        run("preview", &bad_path, &[]).unwrap(),
        run("preview", &clean_path, &[]).unwrap()
    );

    let over = format!("{},{}", mid(k - 1), mid(k + 1));
    let err = run("view", &bad_path, &["--window", &over]).unwrap_err();
    assert!(err.to_string().contains("unknown tag"), "{err}");
    assert!(run("view", &bad_path, &["--frame-at", &mid(k)]).is_err());
    assert!(run("view", &bad_path, &[]).is_err());

    let report = run("check", &bad_path, &[]).unwrap_err().to_string();
    assert!(report.contains("slog-open"), "{report}");
    assert!(run("check", &clean_path, &[]).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
