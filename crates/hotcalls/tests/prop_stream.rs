//! Property tests of the streaming scatter-gather path: chunked
//! reassembly equivalence and ticket conservation under arbitrary chunk
//! schedules and window depths, chunks spanning several arena segments
//! or part of one — and the pre-submit
//! gate's contract: once per chunk, in order, before the chunk's handler,
//! and a refusal that leaves the plane whole.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use hotcalls::rt::{SgCallTable, SgRing};
use hotcalls::HotCallConfig;

/// A position-dependent byte transform: any chunking or reassembly
/// mistake — a swapped chunk, a stale offset, a segment boundary off by
/// one — changes the output, unlike a plain echo.
fn register_xform(table: &mut SgCallTable) -> u32 {
    table.register(|sg| {
        let n = sg.len();
        let mut pos = sg.meta();
        for seg in sg.segments_mut() {
            let len = seg.len();
            for b in &mut seg.raw_mut()[..len] {
                *b = b.wrapping_add((pos as u8) | 1);
                pos += 1;
            }
        }
        n
    })
}

fn xform_expected(data: &[u8]) -> Vec<u8> {
    data.iter()
        .enumerate()
        .map(|(i, b)| b.wrapping_add((i as u8) | 1))
        .collect()
}

proptest! {
    // Each case spawns a responder thread; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming an object as pipelined chunks — odd lengths, arbitrary
    /// chunk schedules with chunks up to several segments
    /// ([`hotcalls::rt::DEFAULT_SEGMENT_BYTES`], 16 KiB) long, any window
    /// depth — reassembles byte-identically to pushing the whole buffer
    /// through as one chunk.
    #[test]
    fn chunked_stream_reassembles_byte_identical(
        data in proptest::collection::vec(any::<u8>(), 0..72_000),
        schedule in proptest::collection::vec(1usize..40_000, 1..8),
        window in 1usize..17,
    ) {
        let mut table = SgCallTable::new();
        let id = register_xform(&mut table);
        let ring = SgRing::spawn_pool(table, 8, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let expected = xform_expected(&data);

        // Single-buffer path: the whole object in one chunk.
        let mut single = Vec::new();
        caller
            .stream(id, &data, 1, || data.len(), |_, resp| resp.gather_into(&mut single))
            .unwrap();
        prop_assert_eq!(&single, &expected);

        // Chunked path: same object, pipelined under the credit window,
        // reassembled at the sink by chunk offset.
        let mut reassembled = vec![0u8; data.len()];
        let mut next_offset = 0u64;
        let mut it = schedule.iter().cycle();
        let report = caller
            .stream(id, &data, window, || *it.next().unwrap(), |offset, resp| {
                // Responses arrive in object order.
                assert_eq!(offset, next_offset);
                let mut chunk = Vec::new();
                resp.gather_into(&mut chunk);
                reassembled[offset as usize..offset as usize + chunk.len()]
                    .copy_from_slice(&chunk);
                next_offset = offset + chunk.len() as u64;
            })
            .unwrap();
        prop_assert_eq!(reassembled, expected);
        prop_assert_eq!(report.bytes_in, data.len() as u64);
        prop_assert_eq!(next_offset, data.len() as u64);
        ring.shutdown();
    }

    /// Every submitted ticket is redeemed exactly once, whatever the
    /// chunk schedule does mid-stream — the credit window neither leaks
    /// nor double-counts across resizes, and the resize count matches a
    /// local replay of the schedule.
    #[test]
    fn stream_conserves_tickets_across_resizes(
        len in 0usize..40_000,
        schedule in proptest::collection::vec(1usize..9000, 1..10),
        window in 1usize..17,
    ) {
        let mut table = SgCallTable::new();
        let echo = table.register(|sg| sg.len());
        let ring = SgRing::spawn_pool(table, 8, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let data = vec![0xD1u8; len];

        let mut it = schedule.iter().cycle();
        let report = caller
            .stream(echo, &data, window, || *it.next().unwrap(), |_, _| {})
            .unwrap();

        // Replay the chunking locally: the stream draws one schedule
        // entry per chunk, in submission order.
        let (mut chunks, mut resizes, mut off, mut last) = (0u64, 0u64, 0usize, 0usize);
        let mut replay = schedule.iter().cycle();
        while off < len {
            let c = (*replay.next().unwrap()).max(1);
            if chunks > 0 && c != last {
                resizes += 1;
            }
            last = c;
            chunks += 1;
            off = (off + c).min(len);
        }

        prop_assert_eq!(report.submitted, report.redeemed);
        prop_assert_eq!(report.submitted, report.chunks);
        prop_assert_eq!(report.chunks, chunks);
        prop_assert_eq!(report.resizes, resizes);
        prop_assert_eq!(report.bytes_in, len as u64);
        prop_assert_eq!(report.bytes_out, len as u64);
        ring.shutdown();
    }

    /// The pre-submit gate sees every chunk exactly once, in object
    /// order, with the byte range the chunk then carries, and before
    /// that chunk's handler runs. A gate that refuses chunk *k* ends the
    /// stream there: exactly *k* calls crossed, all redeemed, and their
    /// segments are back in the arena — a following stream of the same
    /// shape allocates nothing.
    #[test]
    fn gate_runs_once_per_chunk_before_its_handler_and_may_refuse(
        len in 0usize..40_000,
        schedule in proptest::collection::vec(1usize..9000, 1..10),
        window in 1usize..17,
        refuse in any::<usize>(),
    ) {
        // One flag per object offset, set by the gate for the offset its
        // chunk starts at; the handler trips `ungated` if it runs for a
        // chunk whose flag is still down.
        let gated: Arc<Vec<AtomicBool>> = Arc::new((0..len).map(|_| AtomicBool::new(false)).collect());
        let ungated = Arc::new(AtomicBool::new(false));
        let mut table = SgCallTable::new();
        let echo = table.register({
            let (gated, ungated) = (Arc::clone(&gated), Arc::clone(&ungated));
            move |sg| {
                if !gated[sg.meta() as usize].load(Ordering::SeqCst) {
                    ungated.store(true, Ordering::SeqCst);
                }
                sg.len()
            }
        });
        let ring = SgRing::spawn_pool(table, 8, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let data = vec![0x6Bu8; len];

        let mut seen = Vec::new();
        let mut carried = Vec::new();
        let mut it = schedule.iter().cycle();
        let report = caller
            .stream_gated(
                echo,
                &data,
                window,
                || *it.next().unwrap(),
                |chunk| {
                    gated[chunk.start].store(true, Ordering::SeqCst);
                    seen.push(chunk);
                    ControlFlow::Continue(())
                },
                |offset, resp| carried.push(offset as usize..offset as usize + resp.len()),
            )
            .unwrap();
        prop_assert!(!ungated.load(Ordering::SeqCst), "a handler ran before its chunk's gate");
        prop_assert_eq!(&seen, &carried);
        prop_assert_eq!(seen.len() as u64, report.chunks);
        prop_assert_eq!(report.refused_at, None);
        let mut next = 0;
        for chunk in &seen {
            prop_assert_eq!(chunk.start, next);
            prop_assert!(chunk.end > chunk.start);
            next = chunk.end;
        }
        prop_assert_eq!(next, len);

        if !seen.is_empty() {
            for flag in gated.iter() {
                flag.store(false, Ordering::SeqCst);
            }
            let k = refuse % seen.len();
            let calls = ring.stats().calls;
            let (mut asked, mut sunk) = (0usize, 0u64);
            let mut it = schedule.iter().cycle();
            let report = caller
                .stream_gated(
                    echo,
                    &data,
                    window,
                    || *it.next().unwrap(),
                    |chunk| {
                        asked += 1;
                        if chunk == seen[k] {
                            return ControlFlow::Break(());
                        }
                        gated[chunk.start].store(true, Ordering::SeqCst);
                        ControlFlow::Continue(())
                    },
                    |_, _| sunk += 1,
                )
                .unwrap();
            prop_assert!(!ungated.load(Ordering::SeqCst), "the refused chunk reached a handler");
            prop_assert_eq!(asked, k + 1);
            prop_assert_eq!(report.refused_at, Some(seen[k].start as u64));
            prop_assert_eq!((report.chunks, report.submitted, report.redeemed), (k as u64, k as u64, k as u64));
            prop_assert_eq!(report.bytes_in, seen[k].start as u64);
            prop_assert!(sunk <= k as u64);
            prop_assert_eq!(ring.stats().calls - calls, k as u64);

            let allocs = caller.arena_stats().allocs;
            let mut it = schedule.iter().cycle();
            let report = caller
                .stream(echo, &data, window, || *it.next().unwrap(), |_, _| {})
                .unwrap();
            prop_assert_eq!(report.submitted, report.redeemed);
            prop_assert_eq!(report.chunks, seen.len() as u64);
            prop_assert_eq!(caller.arena_stats().allocs, allocs, "the refused stream's segments came back");
        }
        ring.shutdown();
    }
}
