//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use ute::clock::ratio::{rms_segments, ClockFit, RatioEstimator};
use ute::clock::sample::ClockSample;
use ute::core::bebits::BeBits;
use ute::core::codec::{ByteReader, ByteWriter};
use ute::core::event::{EventCode, MpiOp};
use ute::core::ids::{CpuId, LogicalThreadId, NodeId};
use ute::core::time::{LocalTime, Time};
use ute::format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter};
use ute::format::profile::{Profile, MASK_MERGED, MASK_PER_NODE};
use ute::format::record::{Interval, IntervalType};
use ute::format::state::StateCode;
use ute::format::thread_table::ThreadTable;
use ute::format::value::Value;
use ute::rawtrace::record::RawEvent;

fn arb_state() -> impl Strategy<Value = StateCode> {
    prop_oneof![
        Just(StateCode::RUNNING),
        Just(StateCode::SYSCALL),
        Just(StateCode::PAGE_FAULT),
        Just(StateCode::IO),
        Just(StateCode::INTERRUPT),
    ]
}

fn arb_bebits() -> impl Strategy<Value = BeBits> {
    prop_oneof![
        Just(BeBits::Complete),
        Just(BeBits::Begin),
        Just(BeBits::Continuation),
        Just(BeBits::End),
    ]
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (
        arb_state(),
        arb_bebits(),
        0u64..1u64 << 40,
        0u64..1u64 << 30,
        0u16..16,
        0u16..8,
        0u16..512,
    )
        .prop_map(|(state, bebits, start, dur, cpu, node, thread)| {
            Interval::basic(
                IntervalType { state, bebits },
                start,
                dur,
                CpuId(cpu),
                NodeId(node),
                LogicalThreadId(thread),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_bodies_round_trip_any_interval(iv in arb_interval(), merged in any::<bool>()) {
        let p = Profile::standard();
        let mask = if merged { MASK_MERGED } else { MASK_PER_NODE };
        let body = iv.encode_body(&p, mask).unwrap();
        let back = Interval::decode_body(&p, mask, &body, iv.node).unwrap();
        prop_assert_eq!(back, iv);
    }

    #[test]
    fn interval_files_round_trip_sorted_batches(
        mut ivs in prop::collection::vec(arb_interval(), 1..200),
        records_per_frame in 1usize..32,
        frames_per_dir in 1usize..8,
    ) {
        ivs.sort_by_key(|iv| iv.end());
        let p = Profile::standard();
        let mut w = IntervalFileWriter::new(
            &p,
            MASK_PER_NODE,
            0,
            &ThreadTable::new(),
            &[],
            FramePolicy { max_records_per_frame: records_per_frame, max_frames_per_dir: frames_per_dir },
        );
        for iv in &ivs {
            let mut iv = iv.clone();
            iv.node = NodeId(0);
            w.push(&iv).unwrap();
        }
        let bytes = w.finish();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let back: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
        prop_assert_eq!(back.len(), ivs.len());
        for (a, b) in back.iter().zip(&ivs) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.duration, b.duration);
            prop_assert_eq!(a.itype, b.itype);
        }
        // Metadata agrees with contents.
        prop_assert_eq!(r.total_records().unwrap(), ivs.len() as u64);
        // Every frame found by time lookup contains what it promises.
        if let Some((s, e)) = r.time_span().unwrap() {
            let mid = s + (e - s) / 2;
            if let Some(frame) = r.find_frame(mid).unwrap() {
                let in_frame = r.frame_intervals(&frame).unwrap();
                prop_assert_eq!(in_frame.len(), frame.nrecords as usize);
            }
        }
    }

    #[test]
    fn raw_events_survive_arbitrary_payloads(
        payload in prop::collection::vec(any::<u8>(), 0..300),
        ts in any::<u64>(),
    ) {
        let ev = RawEvent::new(EventCode::Syscall, LocalTime(ts), payload);
        let mut w = ByteWriter::new();
        ev.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        prop_assert_eq!(RawEvent::decode(&mut r).unwrap(), ev);
    }

    #[test]
    fn clock_fit_recovers_linear_clocks(
        ppm in -500.0f64..500.0,
        offset in 0u64..1_000_000,
        n in 3usize..60,
    ) {
        // Build exact samples of a linear clock L = offset + G·(1+ppm·1e-6).
        let rate = 1.0 + ppm * 1e-6;
        let samples: Vec<ClockSample> = (0..n as u64)
            .map(|i| {
                let g = i * 1_000_000_000;
                ClockSample::new(Time(g), LocalTime(offset + (g as f64 * rate) as u64))
            })
            .collect();
        let r = rms_segments(&samples);
        let expect = 1.0 / rate;
        prop_assert!((r - expect).abs() < 1e-6, "R {} vs {}", r, expect);
        // Adjusting any sampled local timestamp recovers its global time.
        let fit = ClockFit::fit(&samples, RatioEstimator::RmsSegments).unwrap();
        for s in &samples {
            let adj = fit.adjust(s.local);
            prop_assert!(
                (adj.ticks() as i64 - s.global.ticks() as i64).abs() < 1_000,
                "adjust error at {:?}", s
            );
        }
    }

    #[test]
    fn adjustment_is_monotone(
        ppm in -500.0f64..500.0,
        probes in prop::collection::vec(0u64..200_000_000_000, 2..20),
    ) {
        let rate = 1.0 + ppm * 1e-6;
        let samples: Vec<ClockSample> = (0..10u64)
            .map(|i| {
                let g = i * 1_000_000_000;
                ClockSample::new(Time(g), LocalTime((g as f64 * rate) as u64))
            })
            .collect();
        let fit = ClockFit::fit(&samples, RatioEstimator::RmsSegments).unwrap();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let adjusted: Vec<u64> = sorted.iter().map(|&l| fit.adjust(LocalTime(l)).ticks()).collect();
        for w in adjusted.windows(2) {
            prop_assert!(w[0] <= w[1], "adjustment reordered timestamps");
        }
    }

    #[test]
    fn get_item_by_name_agrees_with_decoded_struct(
        start in 0u64..1u64 << 40,
        dur in 0u64..1u64 << 30,
        bytes_sent in 0u64..1u64 << 32,
        seq in 1u64..1u64 << 32,
    ) {
        let p = Profile::standard();
        let iv = Interval::basic(
            IntervalType::complete(StateCode::mpi(MpiOp::Send)),
            start, dur, CpuId(1), NodeId(2), LogicalThreadId(3),
        )
        .with_extra(&p, "rank", Value::Uint(0))
        .with_extra(&p, "peer", Value::Uint(1))
        .with_extra(&p, "tag", Value::Uint(0))
        .with_extra(&p, "msgSizeSent", Value::Uint(bytes_sent))
        .with_extra(&p, "seq", Value::Uint(seq))
        .with_extra(&p, "address", Value::Uint(0));
        let body = iv.encode_body(&p, MASK_MERGED).unwrap();
        prop_assert_eq!(
            p.get_item_by_name(MASK_MERGED, &body, "msgSizeSent").unwrap(),
            Some(Value::Uint(bytes_sent))
        );
        prop_assert_eq!(
            p.get_item_by_name(MASK_MERGED, &body, "start").unwrap(),
            Some(Value::Uint(start))
        );
        prop_assert_eq!(
            p.get_item_by_name(MASK_MERGED, &body, "node").unwrap(),
            Some(Value::Uint(2))
        );
    }

    #[test]
    fn slog_files_round_trip(
        mut ivs in prop::collection::vec(arb_interval(), 1..100),
        nframes in 1usize..20,
        at in 0.0f64..1.1,
        len in 0.0f64..0.5,
    ) {
        // Give every interval the same node/thread so the thread table is
        // simple, then round-trip the whole SLOG file.
        let p = Profile::standard();
        let mut threads = ThreadTable::new();
        threads.register(ute::format::thread_table::ThreadEntry {
            task: ute::core::ids::TaskId(0),
            pid: ute::core::ids::Pid(1),
            system_tid: ute::core::ids::SystemThreadId(1),
            node: NodeId(0),
            logical: LogicalThreadId(0),
            ttype: ute::core::ids::ThreadType::Mpi,
        }).unwrap();
        for iv in &mut ivs {
            iv.node = NodeId(0);
            iv.thread = LogicalThreadId(0);
        }
        ivs.sort_by_key(|iv| iv.end());
        let slog = ute::slog::builder::SlogBuilder::new(
            &p,
            ute::slog::builder::BuildOptions { nframes, preview_bins: 8, arrows: false },
        )
        .build(&ivs, &threads, &[])
        .unwrap();
        let bytes = slog.to_bytes();
        let back = ute::slog::file::SlogFile::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &slog);
        // A windowed load is exactly the frames overlapping the window.
        let span = slog.preview.span_end - slog.preview.span_start;
        let a = slog.preview.span_start + (span as f64 * at) as u64;
        let b = a + (span as f64 * len) as u64;
        let part = ute::slog::file::SlogReader::open(&bytes).unwrap().load(Some((a, b))).unwrap();
        let want: Vec<_> = slog
            .frames
            .iter()
            .filter(|f| f.t_start < b && f.t_end > a)
            .cloned()
            .collect();
        prop_assert_eq!(part.frames, want);
        prop_assert_eq!(part.preview, slog.preview);
    }

    #[test]
    fn stats_sum_equals_manual_fold(
        durs in prop::collection::vec(1u64..1_000_000_000u64, 1..50),
    ) {
        let p = Profile::standard();
        let mut t = 0u64;
        let ivs: Vec<Interval> = durs.iter().map(|&d| {
            let iv = Interval::basic(
                IntervalType::complete(StateCode::SYSCALL),
                t, d, CpuId(0), NodeId(0), LogicalThreadId(0),
            );
            t += d;
            iv
        }).collect();
        let specs = ute::stats::parse_program(
            r#"table name=t y=("sum", dura, sum) y=("n", dura, count)"#
        ).unwrap();
        let tables = ute::stats::run_tables(&specs, &p, &ivs).unwrap();
        let ys = tables[0].row(&[]).unwrap();
        let manual: u64 = durs.iter().sum();
        prop_assert!((ys[0] - manual as f64 / 1e9).abs() < 1e-6);
        prop_assert_eq!(ys[1] as usize, durs.len());
    }

    #[test]
    fn cell_matches_reference_fold(
        vs in prop::collection::vec(-1e9f64..1e9f64, 0..64),
    ) {
        // The streaming Cell accumulator must agree with a from-scratch
        // fold over the same values for every aggregator. Additions
        // happen in the same order, so sum/avg are bit-exact, not just
        // close.
        use ute::stats::table::{Agg, Cell};
        let mut c = Cell::default();
        for &v in &vs {
            c.add(v);
        }
        prop_assert_eq!(c.finish(Agg::Count), vs.len() as f64);
        let sum = vs.iter().fold(0.0f64, |a, v| a + v);
        if vs.is_empty() {
            prop_assert_eq!(c.finish(Agg::Avg), 0.0);
        } else {
            prop_assert_eq!(c.finish(Agg::Sum), sum);
            prop_assert_eq!(c.finish(Agg::Avg), sum / vs.len() as f64);
            let min = vs.iter().fold(f64::INFINITY, |a, v| a.min(*v));
            let max = vs.iter().fold(f64::NEG_INFINITY, |a, v| a.max(*v));
            prop_assert_eq!(c.finish(Agg::Min), min);
            prop_assert_eq!(c.finish(Agg::Max), max);
        }
    }

    #[test]
    fn grouped_aggregates_match_reference(
        rows in prop::collection::vec((0u16..4, 1u64..2_000_000_000u64), 1..80),
    ) {
        // run_tables' grouped avg/min/max/count against a hand-rolled
        // group-by over the same (node, duration) pairs.
        let p = Profile::standard();
        let ivs: Vec<Interval> = rows.iter().enumerate().map(|(i, &(node, d))| {
            Interval::basic(
                IntervalType::complete(StateCode::SYSCALL),
                i as u64 * 10, d, CpuId(0), NodeId(node), LogicalThreadId(0),
            )
        }).collect();
        let specs = ute::stats::parse_program(
            r#"table name=t x=("node", node)
               y=("avg", dura, avg) y=("min", dura, min)
               y=("max", dura, max) y=("n", dura, count)"#
        ).unwrap();
        let tables = ute::stats::run_tables(&specs, &p, &ivs).unwrap();
        let t = &tables[0];
        let mut by_node: std::collections::BTreeMap<u16, Vec<f64>> = Default::default();
        for &(node, d) in &rows {
            by_node.entry(node).or_default().push(d as f64 / 1e9);
        }
        prop_assert_eq!(t.rows.len(), by_node.len());
        for (node, ds) in by_node {
            let ys = t.row(&[node as f64]).unwrap();
            let sum = ds.iter().fold(0.0f64, |a, v| a + v);
            prop_assert!((ys[0] - sum / ds.len() as f64).abs() < 1e-9, "avg node {}", node);
            let min = ds.iter().fold(f64::INFINITY, |a, v| a.min(*v));
            let max = ds.iter().fold(f64::NEG_INFINITY, |a, v| a.max(*v));
            prop_assert!((ys[1] - min).abs() < 1e-12, "min node {}", node);
            prop_assert!((ys[2] - max).abs() < 1e-12, "max node {}", node);
            prop_assert_eq!(ys[3] as usize, ds.len());
        }
    }
}
