//! The request stream is pinned: the one [`Schedule`] type must send,
//! bit for bit, the stream the two former open-loop clients (the
//! single-node load generator and the cluster balancer) both sent —
//! RNG streams `(seed, 0|1|2)` for gaps, flows, and service.
//!
//! The expected values were recorded from the single-node load
//! generator's loop for `LiveRunConfig::new(SingleQueue)
//! .requests(300, 30).seed(7)`: its first 64 requests and its
//! `mean_service_ns` over all 300.

use live::{LivePolicy, LiveRunConfig, Schedule, ScheduledRequest};

/// `(req_id, sent_at_ns, service_ns, flow)` of the first 64 requests.
const FIRST_64: [(u64, u64, u64, usize); 64] = [
    (0, 601405, 561232, 1),
    (1, 843382, 10281, 5),
    (2, 1019209, 456942, 6),
    (3, 1305886, 130988, 7),
    (4, 1383299, 94024, 2),
    (5, 1562264, 785188, 0),
    (6, 1623364, 46281, 4),
    (7, 2440650, 141486, 3),
    (8, 2627270, 597083, 3),
    (9, 3003454, 334464, 0),
    (10, 3260966, 100923, 7),
    (11, 3270858, 214352, 6),
    (12, 3386596, 516782, 3),
    (13, 3668127, 316323, 4),
    (14, 3702613, 85777, 5),
    (15, 3895787, 707176, 5),
    (16, 3980770, 22980, 6),
    (17, 4036890, 1411816, 0),
    (18, 4124354, 100183, 5),
    (19, 4687221, 24254, 1),
    (20, 4731991, 121332, 5),
    (21, 4732314, 174066, 1),
    (22, 5145358, 511535, 4),
    (23, 5168019, 20877, 4),
    (24, 5447045, 1065109, 0),
    (25, 5684065, 529780, 2),
    (26, 5709995, 598977, 0),
    (27, 5801751, 53468, 5),
    (28, 5996933, 176115, 6),
    (29, 6059633, 13876, 1),
    (30, 6380792, 287857, 1),
    (31, 6506684, 189081, 6),
    (32, 7047950, 72920, 4),
    (33, 7058947, 300321, 3),
    (34, 7305867, 87540, 0),
    (35, 7312781, 56979, 2),
    (36, 7471080, 54860, 7),
    (37, 7757367, 631009, 4),
    (38, 8631933, 554639, 5),
    (39, 8856912, 87414, 7),
    (40, 8940669, 107845, 3),
    (41, 9249015, 44320, 0),
    (42, 9396409, 31862, 6),
    (43, 9609987, 57167, 3),
    (44, 9665741, 820508, 3),
    (45, 9751978, 588470, 3),
    (46, 10097489, 23495, 6),
    (47, 10421905, 208152, 5),
    (48, 10575241, 422616, 4),
    (49, 10603189, 72746, 2),
    (50, 10749451, 516720, 7),
    (51, 10930049, 187659, 5),
    (52, 11683026, 392874, 4),
    (53, 12025365, 125076, 7),
    (54, 12289329, 272091, 4),
    (55, 12320804, 33466, 2),
    (56, 12458460, 73314, 2),
    (57, 12540810, 1040709, 5),
    (58, 12543374, 153297, 5),
    (59, 12846265, 81482, 3),
    (60, 13890189, 681313, 5),
    (61, 14823182, 18217, 6),
    (62, 15508528, 95824, 0),
    (63, 16270148, 520977, 3),
];

/// `mean_service_ns` of the whole 300-request run, as f64 bits
/// (296216.12333333335 ns).
const MEAN_SERVICE_BITS: u64 = 0x4112_1460_7e4b_17e5;

fn pinned_config() -> LiveRunConfig {
    LiveRunConfig::new(LivePolicy::SingleQueue)
        .requests(300, 30)
        .seed(7)
}

#[test]
fn schedule_reproduces_the_recorded_stream() {
    let mut schedule = Schedule::new(&pinned_config().balancer_config());
    let first: Vec<ScheduledRequest> = schedule.by_ref().take(64).collect();
    let expected: Vec<ScheduledRequest> = FIRST_64
        .iter()
        .map(|&(req_id, sent_at_ns, service_ns, flow)| ScheduledRequest {
            req_id,
            sent_at_ns,
            service_ns,
            flow,
        })
        .collect();
    assert_eq!(first, expected);
    assert_eq!(schedule.by_ref().count(), 300 - 64, "schedule length");
    assert_eq!(
        schedule.mean_service_ns().to_bits(),
        MEAN_SERVICE_BITS,
        "mean_service_ns {}",
        schedule.mean_service_ns()
    );
}

#[test]
fn schedule_is_a_pure_function_of_the_config() {
    let cfg = pinned_config().balancer_config();
    let a: Vec<ScheduledRequest> = Schedule::new(&cfg).collect();
    let b: Vec<ScheduledRequest> = Schedule::new(&cfg).collect();
    assert_eq!(a, b);
    let reseeded: Vec<ScheduledRequest> =
        Schedule::new(&pinned_config().seed(8).balancer_config()).collect();
    assert_ne!(a, reseeded);
}
