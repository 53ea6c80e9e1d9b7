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
//!
//! The second test pins what the contract puts on chain: one call's
//! argument bytes and the state root a fixed pair of calls leaves. The
//! third pins the table content digest the barrier compares, for a plain
//! table and for its sharded fold.

use medledger::contracts::call::{RegisterShareArgs, RequestUpdateArgs};
use medledger::contracts::{ContractRuntime, SharingCall, SharingContract};
use medledger::crypto::{ack_message, Hash256, KeyPair, PublicKey};
use medledger::ledger::{BlockHeader, Transaction, TxPayload};
use medledger::relational::{row, Column, Schema, ValueType};
use medledger::storage::Encode;
use medledger::workload::fig1_full_records;
use medledger::{ShardMap, Table};

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

/// The contract's own formats, pinned when contract calls and contract
/// state moved from JSON to the storage codec. A `request_update` call's
/// argument bytes, and the state root a fixed `register_share` +
/// `request_update` leaves — the root every block header carries, so a
/// change to how a Fig. 3 row is stored moves every block hash after it.
#[test]
fn contract_formats_are_pinned() {
    let call = SharingCall::RequestUpdate(RequestUpdateArgs {
        table_id: "D13&D31".into(),
        new_hash: Hash256([0x5a; 32]),
        changed_attrs: vec!["dosage".into()],
    });
    let hex: String = call.encoded().iter().map(|b| format!("{b:02x}")).collect();
    // The table id (a varint length, then UTF-8), the new hash (32 raw
    // bytes), the changed attributes (a varint count, then each as the
    // table id is). The method name travels beside the bytes, not in them.
    assert_eq!(
        hex,
        "0744313326443331\
         5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a\
         0106646f73616765",
        "request_update arguments"
    );

    let mut keys = KeyPair::generate("golden-contract", 4);
    let (doctor, patient) = (keys.public(), PublicKey(Hash256([0x44; 32])));
    let mut runtime = ContractRuntime::new();
    let mut nonce = 0;
    let mut execute = |payload: TxPayload, timestamp_ms: u64| {
        let stx = Transaction {
            sender: doctor,
            nonce,
            payload,
            conflict_key: None,
        }
        .sign(&mut keys)
        .expect("sign");
        nonce += 1;
        let receipt = runtime.execute(&stx, nonce, timestamp_ms);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
    };
    execute(
        TxPayload::DeployContract {
            code: SharingContract::CODE_TAG.to_vec(),
            init: vec![],
        },
        1_000,
    );
    let contract = ContractRuntime::contract_id(&doctor, 0);
    let register = SharingCall::RegisterShare(RegisterShareArgs {
        table_id: "D13&D31".into(),
        peers: vec![doctor, patient],
        write_permission: [("dosage".to_string(), vec![doctor])].into(),
        authority: doctor,
        initial_hash: Hash256([0x11; 32]),
    });
    for (call, timestamp_ms) in [(register, 2_000), (call, 3_000)] {
        let payload = TxPayload::CallContract {
            contract,
            method: call.method().into(),
            args: call.encoded(),
        };
        execute(payload, timestamp_ms);
    }
    // A digest over the contract id and the Merkle root of the contract's
    // one entry: the Fig. 3 row, every field of `SharedTableMeta` in the
    // codec, version 1 and the patient's ack pending.
    assert_eq!(
        runtime.state_root().to_hex(),
        "1aab3c9999500024f176baceffc5ccf8c3d79546b85280014fae9ef360164473",
        "state root after register_share + request_update"
    );
}

/// A table of `n` rows under a fixed schema; each row's cells are a fixed
/// function of its id, so the table is the same on every build.
fn formula_table(n: i64) -> Table {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("medication", ValueType::Text),
            Column::new("dose_mg", ValueType::Int),
        ],
        &["id"],
    )
    .expect("schema");
    let mut table = Table::new(schema);
    for i in 0..n {
        let medication = format!("med-{}", (i * 7919) % 97);
        table
            .insert(row![i, medication, (i * 31) % 500])
            .expect("insert");
    }
    table
}

/// The table content hash: the Merkle root over the schema leaf and the
/// key-routed row chunks. The peers and the sharing contract compare it
/// to enforce the paper's barrier, and a stored log record carries it,
/// so it must not move. A shard map's fold must equal the plain table's
/// bytes, both when each shard owns a run of chunks (600 rows over 4
/// shards: 32 chunks, five fold levels) and when the chunks are fewer
/// than the shards (40 rows over 8 shards: one chunk).
#[test]
fn table_digest_is_pinned() {
    let full = fig1_full_records();
    let d3 = full
        .project(
            &[
                "patient_id",
                "medication_name",
                "clinical_data",
                "mechanism_of_action",
                "dosage",
            ],
            &["patient_id"],
        )
        .expect("4fd5a9fe8adc64db8c0e48df343cdbf8788136a8769142ca1455f3cae14508c8");
    assert_eq!(
        d3.content_hash().to_hex(),
        "4fd5a9fe8adc64db8c0e48df343cdbf8788136a8769142ca1455f3cae14508c8",
        "Fig. 1 D3 (one chunk)"
    );

    let large = formula_table(600);
    let large_hex = "2cb4a85cd5bc44c7e8b734cff8a0d356e0ab32baf7b8eb95d01bc1d247d52b18";
    assert_eq!(large.content_hash().to_hex(), large_hex, "600 rows");
    assert_eq!(
        ShardMap::from_table(&large, 4).content_hash().to_hex(),
        large_hex,
        "600 rows over 4 shards"
    );

    let small = formula_table(40);
    let small_hex = "62bf105fe11c75dc3d4e6ec34b08b9995f405c1882f1ca5a723680f542a657c7";
    assert_eq!(small.content_hash().to_hex(), small_hex, "40 rows");
    assert_eq!(
        ShardMap::from_table(&small, 8).content_hash().to_hex(),
        small_hex,
        "40 rows over 8 shards"
    );
}
