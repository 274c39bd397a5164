//! Wire input is untrusted: every decoder the client and the server
//! read with must answer arbitrary bytes and truncated frames with an
//! `Err` or a value — never a panic, never an allocation sized by a
//! corrupt field. A panic anywhere below fails the property.

use std::io::Cursor;

use live::protocol::{
    decode_drain_request, decode_metrics_request, encode_drain_request, encode_metrics_request,
    read_frame, DrainAction, DrainReply, MetricsReply, MetricsWindow, Redirect, Request, Response,
    StatsSnapshot, WorkerStats, MAX_FRAME_BYTES,
};
use proptest::prelude::*;

/// Runs every payload decoder over `payload`, discarding the verdicts.
fn decode_everything(payload: &[u8]) {
    let _ = Request::decode(payload);
    let _ = Response::decode(payload);
    let _ = Redirect::decode(payload);
    let _ = StatsSnapshot::decode(payload);
    let _ = MetricsReply::decode(payload);
    let _ = DrainReply::decode(payload);
    let _ = decode_drain_request(payload);
    let _ = decode_metrics_request(payload);
}

/// Reads frames off `bytes` until EOF or the first error, decoding
/// every payload that comes out.
fn read_all_frames(bytes: &[u8]) {
    let mut cursor = Cursor::new(bytes);
    while let Ok(Some(payload)) = read_frame(&mut cursor) {
        assert!(!payload.is_empty() && payload.len() <= MAX_FRAME_BYTES as usize);
        decode_everything(&payload);
    }
}

/// One valid encoded frame of every kind the protocol defines, built
/// from `words` (length prefix included).
fn valid_frames(words: (u64, u64, u64, u64), rows: usize) -> Vec<Vec<u8>> {
    let (a, b, c, d) = words;
    let per_worker = (0..rows)
        .map(|i| WorkerStats {
            completions: a.wrapping_add(i as u64),
            bytes_tx: b,
        })
        .collect();
    let windows = (0..rows)
        .map(|i| MetricsWindow {
            index: i as u64,
            arrivals: a,
            completions: b,
            samples: c,
            busy_sum: d,
            queued_sum: a ^ b,
            queued_max: c ^ d,
            inflight_sum: a.wrapping_add(d),
        })
        .collect();
    vec![
        Request {
            req_id: a,
            sent_at_ns: b,
            service_ns: c,
        }
        .encode()
        .to_vec(),
        Response {
            req_id: a,
            sent_at_ns: b,
            service_ns: c,
            worker: d as u32,
        }
        .encode()
        .to_vec(),
        Redirect { req_id: d }.encode().to_vec(),
        encode_drain_request(DrainAction::Begin).to_vec(),
        DrainReply {
            draining: a & 1 == 1,
            inflight: b,
        }
        .encode()
        .to_vec(),
        encode_metrics_request(c).to_vec(),
        StatsSnapshot {
            requests_rx: a,
            bytes_rx: b,
            queue_high_water: c,
            ring_high_water: d,
            replenish_batches: a,
            trace_dropped: b,
            redirects: c,
            per_worker,
        }
        .encode(),
        MetricsReply {
            interval_ps: a,
            workers: b as u32,
            next_index: c,
            windows,
        }
        .encode(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_survive_arbitrary_payloads(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        decode_everything(&bytes);
    }

    #[test]
    fn decoders_survive_payloads_behind_a_valid_kind_byte(
        kind in 0u8..12,
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        // A real discriminant gets past the first check into the
        // length and count fields.
        let mut payload = vec![kind];
        payload.extend_from_slice(&body);
        decode_everything(&payload);
    }

    #[test]
    fn read_frame_survives_arbitrary_streams(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        read_all_frames(&bytes);
    }

    #[test]
    fn read_frame_survives_plausible_length_prefixes(
        len in 0u32..700,
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        // Short, empty, and overlong bodies behind lengths that pass
        // or just fail the MAX_FRAME_BYTES check.
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        read_all_frames(&bytes);
        let mut huge = (MAX_FRAME_BYTES + len).to_le_bytes().to_vec();
        huge.extend_from_slice(&body);
        prop_assert!(read_frame(&mut Cursor::new(huge)).is_err());
    }

    #[test]
    fn truncated_frames_are_errors_and_whole_frames_decode(
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        rows in 0usize..5,
    ) {
        for frame in valid_frames(words, rows) {
            // The whole frame reads back as exactly its payload.
            let payload = read_frame(&mut Cursor::new(&frame)).unwrap().unwrap();
            prop_assert_eq!(&payload[..], &frame[4..]);
            decode_everything(&payload);
            // Every strict prefix of the frame: EOF at the boundary is a
            // clean `None`, anything mid-frame is an error.
            for cut in 0..frame.len() {
                let read = read_frame(&mut Cursor::new(&frame[..cut]));
                if cut == 0 {
                    prop_assert!(matches!(read, Ok(None)), "cut 0: {:?}", read);
                } else {
                    prop_assert!(read.is_err(), "cut {} of {} read {:?}", cut, frame.len(), read);
                }
            }
            // Every strict prefix of the payload is rejected by the
            // decoder of its own kind.
            for cut in 0..payload.len() {
                let short = &payload[..cut];
                let rejected = match payload[0] {
                    0 => Request::decode(short).is_err(),
                    1 => Response::decode(short).is_err(),
                    3 => StatsSnapshot::decode(short).is_err(),
                    4 => decode_metrics_request(short).is_err(),
                    5 => MetricsReply::decode(short).is_err(),
                    6 => Redirect::decode(short).is_err(),
                    7 => decode_drain_request(short).is_err(),
                    8 => DrainReply::decode(short).is_err(),
                    other => panic!("no frame of kind {other} is built here"),
                };
                prop_assert!(rejected, "kind {} accepted a {}-byte prefix", payload[0], cut);
            }
        }
    }
}

#[test]
fn count_fields_never_size_an_allocation() {
    // A stats/metrics header claiming u32::MAX rows with no rows behind
    // it must be rejected on length alone.
    let mut stats = StatsSnapshot::default().encode();
    let header = stats.len();
    stats[header - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(StatsSnapshot::decode(&stats[4..]).is_err());
    let mut metrics = MetricsReply::default().encode();
    let header = metrics.len();
    metrics[header - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(MetricsReply::decode(&metrics[4..]).is_err());
}
