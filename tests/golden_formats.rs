//! Golden bytes for the four hash formats everything stored or signed
//! rests on: the MSS public key, a signature's share digest, the
//! transaction digest and the block hash.
//!
//! The hex below was produced by the scalar SHA-256 of the commit before
//! the hardware kernel landed. A store written by any earlier build
//! recovers under this one only while these hold, so a failure here means
//! a hash output, a domain tag, the padding or a canonical encoding moved —
//! never "update the constants".

use medledger::crypto::{ack_message, Hash256, KeyPair};
use medledger::ledger::{BlockHeader, Transaction, TxPayload};

#[test]
fn hash_formats_are_pinned() {
    let mut keys = KeyPair::generate("golden", 4);
    assert_eq!(
        keys.public().0.to_hex(),
        "7beeafea4b52627441997fb0568c19fb46caa57379de21783a92478cad1f06a4",
        "MSS public key (Lamport leaves under a Merkle root)"
    );

    let message = ack_message("D13&D31", 7, &Hash256([0x5a; 32]));
    let signature = keys.sign(&message).expect("first one-time key");
    assert!(signature.verify(&keys.public(), &message));
    assert_eq!(
        signature.share_digest().to_hex(),
        "9998955d537d99eb194b77190c4ffcb7ff269dbd7e7175b69d8266638515d554",
        "share digest of the first signature"
    );

    let tx = Transaction {
        sender: keys.public(),
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
        proposer: keys.public(),
        wave: Some(4),
    };
    assert_eq!(
        header.hash().to_hex(),
        "58025dde4b6b147c7df11791b6c7585028d16bd42fdbbfb6794f415cb3602a65",
        "block hash"
    );
}
