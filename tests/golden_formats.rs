//! Golden bytes for the four hash formats everything stored or signed
//! rests on: the MSS public key, a signature's share digest, the
//! transaction digest and the block hash.
//!
//! The transaction digest and the block hash below were produced by the
//! scalar SHA-256 of the commit before the hardware kernel landed, and
//! have not moved since. The public key and the share digest were re-pinned
//! once, on purpose, in PR 23, when Winternitz one-time keys replaced
//! Lamport's (each says so where it stands); a store written before that
//! is refused at recovery rather than misread. A store written by an
//! earlier build recovers under this one only while these hold, so a
//! failure here means a hash output, a domain tag, the padding or a
//! canonical encoding moved — never "update the constants".

use medledger::crypto::{ack_message, Hash256, KeyPair, PublicKey};
use medledger::ledger::{BlockHeader, Transaction, TxPayload};

/// The public key the same label derived under the Lamport scheme (up to
/// PR 22). The transaction and header encodings only ever saw it as 32
/// bytes, so feeding it to them as a literal keeps their two constants
/// proving, byte for byte, that those encodings did not move in PR 23.
const LAMPORT_ERA_PUBLIC_KEY: &str =
    "7beeafea4b52627441997fb0568c19fb46caa57379de21783a92478cad1f06a4";

#[test]
fn hash_formats_are_pinned() {
    let mut keys = KeyPair::generate("golden", 4);
    // Re-pinned in PR 23: the Merkle leaves are now Winternitz one-time
    // public keys (67 chain ends each), so the root over them changed. The
    // seed derivation and the Merkle tree did not.
    assert_eq!(
        keys.public().0.to_hex(),
        "3d1b5776f22faf7d35f73326d38de87c76404effba3ef48edca40a64919d5bf8",
        "MSS public key (Winternitz leaves under a Merkle root)"
    );

    let message = ack_message("D13&D31", 7, &Hash256([0x5a; 32]));
    let signature = keys.sign(&message).expect("first one-time key");
    assert!(signature.verify(&keys.public(), &message));
    // Re-pinned in PR 23: the digest covers the signature's 67 chain
    // values where it covered 512 Lamport values, under the tag
    // `medledger.ack.share.v2:` (was `v1`).
    assert_eq!(
        signature.share_digest().to_hex(),
        "f7618e71e9518227ac23aa38f05f112d578d4ae54076dbafe695af1f7ed146e4",
        "share digest of the first signature"
    );

    let old_key = PublicKey(Hash256::from_hex(LAMPORT_ERA_PUBLIC_KEY).expect("hex"));

    let tx = Transaction {
        sender: old_key,
        nonce: 3,
        payload: TxPayload::CallContract {
            contract: Hash256([0x11; 32]),
            method: "request_update".into(),
            args: br#"{"table_id":"D13&D31","attrs":["dosage"]}"#.to_vec(),
        },
        conflict_key: Some("D13&D31".into()),
    };
    assert_eq!(
        tx.digest().to_hex(),
        "b18e343a1b51821e7d857c349c7721c9891b5b738115a7d44f5aaab5aa73b56d",
        "transaction digest"
    );

    let header = BlockHeader {
        height: 9,
        parent: Hash256([0x22; 32]),
        tx_root: tx.digest(),
        state_root: Hash256([0x33; 32]),
        timestamp_ms: 12_345,
        proposer: old_key,
        wave: Some(4),
    };
    assert_eq!(
        header.hash().to_hex(),
        "58025dde4b6b147c7df11791b6c7585028d16bd42fdbbfb6794f415cb3602a65",
        "block hash"
    );
}
