//! Pins what a PBFT round decides, down to its message and byte counts and
//! virtual timestamps. The expected outcomes were computed by the round
//! that derived a pair's HMAC key for every message it tagged or checked,
//! so they show that deriving the keys once per round moved nothing; any
//! later change to tags, message flow or latency draws shows here too.
//! They cover one, four, seven and ten validators, LAN and WAN latency, a
//! crashed view-0 proposer and 5 % message drops, at two heights each.

use medledger_consensus::{PbftConfig, PbftRound, RoundOutcome};
use medledger_crypto::sha256_concat;
use medledger_network::LatencyModel;

/// `(n, latency, fault, height, (committed, first_commit_ms, all_commit_ms,
/// messages, bytes, view_changes, deciding_view, auth_failures))`.
type Pinned = (
    usize,
    &'static str,
    &'static str,
    u64,
    (bool, Option<u64>, Option<u64>, u64, u64, u64, u64, u64),
);

#[rustfmt::skip]
const PINNED: [Pinned; 48] = [
    (1, "lan", "none", 1, (false, None, None, 121, 0, 120, 0, 0)),
    (1, "lan", "none", 6, (false, None, None, 121, 0, 120, 0, 0)),
    (1, "lan", "crashed_proposer", 1, (false, None, None, 0, 0, 0, 0, 0)),
    (1, "lan", "crashed_proposer", 6, (false, None, None, 0, 0, 0, 0, 0)),
    (1, "lan", "drops", 1, (false, None, None, 121, 0, 120, 0, 0)),
    (1, "lan", "drops", 6, (false, None, None, 121, 0, 120, 0, 0)),
    (1, "wan", "none", 1, (false, None, None, 121, 0, 120, 0, 0)),
    (1, "wan", "none", 6, (false, None, None, 121, 0, 120, 0, 0)),
    (1, "wan", "crashed_proposer", 1, (false, None, None, 0, 0, 0, 0, 0)),
    (1, "wan", "crashed_proposer", 6, (false, None, None, 0, 0, 0, 0, 0)),
    (1, "wan", "drops", 1, (false, None, None, 121, 0, 120, 0, 0)),
    (1, "wan", "drops", 6, (false, None, None, 121, 0, 120, 0, 0)),
    (4, "lan", "none", 1, (true, Some(12), Some(16), 26, 4872, 0, 0, 0)),
    (4, "lan", "none", 6, (true, Some(12), Some(17), 24, 4872, 0, 0, 0)),
    (4, "lan", "crashed_proposer", 1, (true, Some(515), Some(522), 24, 4392, 1, 1, 0)),
    (4, "lan", "crashed_proposer", 6, (true, Some(517), Some(522), 24, 4392, 1, 1, 0)),
    (4, "lan", "drops", 1, (true, Some(12), Some(16), 24, 4872, 0, 0, 0)),
    (4, "lan", "drops", 6, (true, Some(18), Some(24), 20, 4392, 0, 0, 0)),
    (4, "wan", "none", 1, (true, Some(203), Some(234), 25, 4872, 0, 0, 0)),
    (4, "wan", "none", 6, (true, Some(159), Some(200), 25, 4872, 0, 0, 0)),
    (4, "wan", "crashed_proposer", 1, (true, Some(741), Some(800), 23, 4392, 1, 1, 0)),
    (4, "wan", "crashed_proposer", 6, (true, Some(682), Some(715), 24, 4392, 1, 1, 0)),
    (4, "wan", "drops", 1, (true, Some(201), Some(230), 24, 4872, 0, 0, 0)),
    (4, "wan", "drops", 6, (true, Some(178), Some(241), 24, 4872, 0, 0, 0)),
    (7, "lan", "none", 1, (true, Some(13), Some(16), 79, 12642, 0, 0, 0)),
    (7, "lan", "none", 6, (true, Some(14), Some(16), 78, 12642, 0, 0, 0)),
    (7, "lan", "crashed_proposer", 1, (true, Some(514), Some(517), 79, 11682, 1, 1, 0)),
    (7, "lan", "crashed_proposer", 6, (true, Some(515), Some(519), 78, 11682, 1, 1, 0)),
    (7, "lan", "drops", 1, (true, Some(13), Some(19), 74, 11682, 0, 0, 0)),
    (7, "lan", "drops", 6, (true, Some(16), Some(18), 78, 12642, 0, 0, 0)),
    (7, "wan", "none", 1, (true, Some(224), Some(262), 83, 12642, 0, 0, 0)),
    (7, "wan", "none", 6, (true, Some(216), Some(260), 78, 12642, 0, 0, 0)),
    (7, "wan", "crashed_proposer", 1, (true, Some(751), Some(788), 80, 11682, 1, 1, 0)),
    (7, "wan", "crashed_proposer", 6, (true, Some(755), Some(794), 79, 11682, 1, 1, 0)),
    (7, "wan", "drops", 1, (true, Some(209), Some(283), 86, 12642, 0, 0, 0)),
    (7, "wan", "drops", 6, (true, Some(242), Some(270), 69, 11682, 0, 0, 0)),
    (10, "lan", "none", 1, (true, Some(14), Some(17), 171, 23310, 0, 0, 0)),
    (10, "lan", "none", 6, (true, Some(14), Some(17), 176, 23310, 0, 0, 0)),
    (10, "lan", "crashed_proposer", 1, (true, Some(515), Some(519), 171, 21870, 1, 1, 0)),
    (10, "lan", "crashed_proposer", 6, (true, Some(516), Some(519), 171, 21870, 1, 1, 0)),
    (10, "lan", "drops", 1, (true, Some(15), Some(19), 163, 23310, 0, 0, 0)),
    (10, "lan", "drops", 6, (true, Some(16), Some(18), 148, 21870, 0, 0, 0)),
    (10, "wan", "none", 1, (true, Some(213), Some(262), 174, 23310, 0, 0, 0)),
    (10, "wan", "none", 6, (true, Some(194), Some(249), 173, 23310, 0, 0, 0)),
    (10, "wan", "crashed_proposer", 1, (true, Some(738), Some(780), 166, 21870, 1, 1, 0)),
    (10, "wan", "crashed_proposer", 6, (true, Some(696), Some(747), 165, 21870, 1, 1, 0)),
    (10, "wan", "drops", 1, (true, Some(225), Some(276), 159, 21870, 0, 0, 0)),
    (10, "wan", "drops", 6, (true, Some(223), Some(277), 157, 21870, 0, 0, 0)),
];

fn round(n: usize, latency: &str, fault: &str, height: u64) -> RoundOutcome {
    let config = PbftConfig {
        n,
        latency: match latency {
            "lan" => LatencyModel::lan(),
            _ => LatencyModel::wan(),
        },
        drop_rate: if fault == "drops" { 0.05 } else { 0.0 },
        timeout_ms: 500,
        seed: format!("pin-{n}-{latency}"),
    };
    let mut round = PbftRound::new(config).payload_bytes(900 + n);
    if fault == "crashed_proposer" {
        round = round.crash((height % n as u64) as usize);
    }
    let digest = sha256_concat(&[b"pinned-block", &height.to_be_bytes()]);
    round.run(height, digest, 60_000)
}

#[test]
fn round_outcomes_are_pinned() {
    for (n, latency, fault, height, expect) in PINNED {
        let (committed, first, all, messages, bytes, view_changes, deciding_view, auth_failures) =
            expect;
        assert_eq!(
            round(n, latency, fault, height),
            RoundOutcome {
                committed,
                first_commit_ms: first,
                all_commit_ms: all,
                messages,
                bytes,
                view_changes,
                deciding_view,
                auth_failures,
            },
            "n={n} {latency} {fault} height {height}"
        );
    }
}
