//! Binary codec impls for ledger types.
//!
//! These implement the `medledger-storage` [`Encode`]/[`Decode`] traits
//! for transactions, blocks and receipts. The encodings are the ledger's
//! canonical byte forms: transaction digests and block hashes are taken
//! over these bytes (with `v2` domain tags — the `v1` tags covered the
//! old JSON canonical forms), Merkle tx roots hash them as leaves, and
//! the durable-storage subsystem writes them into WAL records and
//! snapshots.

use crate::block::{Block, BlockHeader};
use crate::receipt::{LogEntry, Receipt, RevertKind, TxStatus};
use crate::transaction::{SignedTransaction, Transaction, TxPayload};
use medledger_crypto::Hash256;
use medledger_storage::{struct_codec, Decode, Encode, Reader};
use medledger_storage::{Result, StorageError};

impl Encode for TxPayload {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TxPayload::DeployContract { code, init } => {
                out.push(0);
                code.encode_into(out);
                init.encode_into(out);
            }
            TxPayload::CallContract {
                contract,
                method,
                args,
            } => {
                out.push(1);
                contract.encode_into(out);
                method.encode_into(out);
                args.encode_into(out);
            }
            TxPayload::Noop => out.push(2),
        }
    }
}

impl Decode for TxPayload {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => TxPayload::DeployContract {
                code: Vec::<u8>::decode_from(r)?,
                init: Vec::<u8>::decode_from(r)?,
            },
            1 => TxPayload::CallContract {
                contract: Hash256::decode_from(r)?,
                method: String::decode_from(r)?,
                args: Vec::<u8>::decode_from(r)?,
            },
            2 => TxPayload::Noop,
            t => return Err(StorageError::Codec(format!("invalid tx-payload tag {t}"))),
        })
    }
}

struct_codec!(Transaction {
    sender,
    nonce,
    payload,
    conflict_key
});
struct_codec!(SignedTransaction { tx, signature });
struct_codec!(BlockHeader {
    height,
    parent,
    tx_root,
    state_root,
    timestamp_ms,
    proposer,
    wave
});
struct_codec!(Block { header, txs: seq });

// Tag 5 belonged to the retired bytecode-VM revert; it stays unassigned
// so stored receipts keep their meaning.
impl Encode for RevertKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            RevertKind::PermissionDenied => 0,
            RevertKind::NotFound => 1,
            RevertKind::AlreadyExists => 2,
            RevertKind::BadCall => 3,
            RevertKind::StateLocked => 4,
            RevertKind::Other => 6,
        });
    }
}

impl Decode for RevertKind {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => RevertKind::PermissionDenied,
            1 => RevertKind::NotFound,
            2 => RevertKind::AlreadyExists,
            3 => RevertKind::BadCall,
            4 => RevertKind::StateLocked,
            6 => RevertKind::Other,
            t => return Err(StorageError::Codec(format!("invalid revert-kind tag {t}"))),
        })
    }
}

impl Encode for TxStatus {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TxStatus::Success => out.push(0),
            TxStatus::Reverted { kind, reason } => {
                out.push(1);
                kind.encode_into(out);
                reason.encode_into(out);
            }
        }
    }
}

impl Decode for TxStatus {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => TxStatus::Success,
            1 => TxStatus::Reverted {
                kind: RevertKind::decode_from(r)?,
                reason: String::decode_from(r)?,
            },
            t => return Err(StorageError::Codec(format!("invalid tx-status tag {t}"))),
        })
    }
}

struct_codec!(LogEntry {
    contract,
    topic,
    data
});
struct_codec!(Receipt {
    tx_id,
    status,
    gas_used,
    logs: seq
});

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_crypto::KeyPair;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encoded();
        let back = T::decode(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    fn sample_signed(nonce: u64) -> SignedTransaction {
        let mut kp = KeyPair::generate("binary-codec", 8);
        Transaction {
            sender: kp.public(),
            nonce,
            payload: TxPayload::CallContract {
                contract: Hash256([7; 32]),
                method: "request_update".into(),
                args: vec![1, 2, 3, 250],
            },
            conflict_key: Some("D13&D31".into()),
        }
        .sign(&mut kp)
        .expect("sign")
    }

    #[test]
    fn payloads_round_trip() {
        round_trip(&TxPayload::Noop);
        round_trip(&TxPayload::DeployContract {
            code: b"native:sharing".to_vec(),
            init: vec![],
        });
        round_trip(&TxPayload::CallContract {
            contract: Hash256([9; 32]),
            method: "ack".into(),
            args: vec![0; 40],
        });
    }

    #[test]
    fn signed_transactions_round_trip_and_verify() {
        let stx = sample_signed(3);
        let bytes = stx.encoded();
        let back = SignedTransaction::decode(&bytes).expect("decodes");
        assert_eq!(back.id(), stx.id());
        assert!(back.verify_signature(), "signature survives the codec");
    }

    #[test]
    fn blocks_round_trip() {
        let stx = sample_signed(0);
        let proposer = stx.tx.sender;
        let block = Block::assemble(
            4,
            Hash256([1; 32]),
            Hash256([2; 32]),
            9_000,
            proposer,
            vec![stx],
        )
        .in_wave(Some(2));
        let bytes = block.encoded();
        let back = Block::decode(&bytes).expect("decodes");
        assert_eq!(back.hash(), block.hash());
        assert!(back.tx_root_valid());
    }

    #[test]
    fn receipts_round_trip() {
        round_trip(&Receipt {
            tx_id: Hash256([3; 32]),
            status: TxStatus::Reverted {
                kind: RevertKind::StateLocked,
                reason: "pending acks".into(),
            },
            gas_used: 2_100,
            logs: vec![LogEntry {
                contract: Hash256([4; 32]),
                topic: "UpdateCommitted".into(),
                data: "table_id=D13&D31 version=1".into(),
            }],
        });
    }

    #[test]
    fn retired_revert_tag_is_a_decode_error() {
        let mut bytes = Receipt {
            tx_id: Hash256([3; 32]),
            status: TxStatus::Reverted {
                kind: RevertKind::StateLocked,
                reason: "pending acks".into(),
            },
            gas_used: 0,
            logs: vec![],
        }
        .encoded();
        // 32-byte tx id, the status tag, then the revert-kind tag.
        assert_eq!(bytes[33], 4);
        bytes[33] = 5;
        assert!(Receipt::decode(&bytes).is_err());
    }
}
