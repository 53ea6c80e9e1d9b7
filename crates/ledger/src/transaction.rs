//! Transactions.

use medledger_crypto::{sha256_concat, Hash256, KeyPair, PublicKey, Signature};
use medledger_storage::Encode;

/// An account on the permissioned ledger — the Merkle root of the owner's
/// hash-based signing keys (see `medledger-crypto::sig`).
pub type AccountId = PublicKey;

/// A transaction id (digest of the transaction body).
pub type TxId = Hash256;

/// What a transaction does.
///
/// Payload arguments are opaque bytes at this layer (encoded by the
/// contracts crate); the ledger cares only about ordering, signatures and
/// conflict keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxPayload {
    /// Deploy a contract. The new contract's id is derived from the
    /// deployer and nonce.
    DeployContract {
        /// Contract bytecode or a native-contract tag (interpreted by the
        /// contract runtime).
        code: Vec<u8>,
        /// Serialized constructor arguments.
        init: Vec<u8>,
    },
    /// Call a method on an existing contract.
    CallContract {
        /// Target contract id.
        contract: Hash256,
        /// Method name.
        method: String,
        /// Serialized arguments.
        args: Vec<u8>,
    },
    /// A no-op marker transaction (used by benches to measure pure
    /// consensus/ordering overhead).
    Noop,
}

impl TxPayload {
    /// A short label for traces and audits.
    pub fn kind(&self) -> &'static str {
        match self {
            TxPayload::DeployContract { .. } => "deploy",
            TxPayload::CallContract { .. } => "call",
            TxPayload::Noop => "noop",
        }
    }
}

/// An unsigned transaction body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sender account.
    pub sender: AccountId,
    /// Per-sender sequence number, starting at 0, strictly increasing.
    pub nonce: u64,
    /// What to execute.
    pub payload: TxPayload,
    /// The shared-table id this transaction touches, if any. Block
    /// assembly and validation admit **at most one** transaction per
    /// conflict key per block (paper Sec. III-B).
    pub conflict_key: Option<String>,
}

impl Transaction {
    /// Canonical digest of the transaction body (the id, and what gets
    /// signed). The `v2` domain tag marks the binary canonical form from
    /// [`crate::binary`] (`v1` hashed the old JSON encoding).
    pub fn digest(&self) -> TxId {
        sha256_concat(&[b"medledger.tx.v2:", &Encode::encoded(self)])
    }

    /// Signs the transaction with `key` (consuming one one-time key).
    pub fn sign(
        self,
        key: &mut KeyPair,
    ) -> Result<SignedTransaction, medledger_crypto::SigningError> {
        let digest = self.digest();
        let signature = key.sign(digest.as_bytes())?;
        Ok(SignedTransaction {
            tx: self,
            signature,
        })
    }
}

/// A signed transaction as it travels through mempool, blocks and audits.
#[derive(Clone, Debug)]
pub struct SignedTransaction {
    /// The signed body.
    pub tx: Transaction,
    /// Hash-based signature over the body digest by `tx.sender`.
    pub signature: Signature,
}

impl SignedTransaction {
    /// The transaction id.
    pub fn id(&self) -> TxId {
        self.tx.digest()
    }

    /// Verifies the signature against the sender's account id.
    pub fn verify_signature(&self) -> bool {
        self.signature
            .verify(&self.tx.sender, self.tx.digest().as_bytes())
    }

    /// Canonical encoding used for Merkle tx roots, WAL records and
    /// snapshots (the binary form from [`crate::binary`]).
    pub fn encode(&self) -> Vec<u8> {
        Encode::encoded(self)
    }

    /// Exact wire size in bytes of the canonical encoding, used by the
    /// storage experiments (E8): what each blockchain node must persist
    /// per transaction.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

impl PartialEq for SignedTransaction {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for SignedTransaction {}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> KeyPair {
        KeyPair::generate("tx-test", 8)
    }

    fn tx(nonce: u64) -> Transaction {
        Transaction {
            sender: keypair().public(),
            nonce,
            payload: TxPayload::Noop,
            conflict_key: Some("D13&D31".into()),
        }
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        assert_eq!(tx(0).digest(), tx(0).digest());
        assert_ne!(tx(0).digest(), tx(1).digest());
        let mut other = tx(0);
        other.conflict_key = Some("D23&D32".into());
        assert_ne!(tx(0).digest(), other.digest());
    }

    #[test]
    fn sign_and_verify() {
        let mut kp = keypair();
        let t = Transaction {
            sender: kp.public(),
            nonce: 0,
            payload: TxPayload::Noop,
            conflict_key: None,
        };
        let signed = t.sign(&mut kp).expect("sign");
        assert!(signed.verify_signature());
    }

    #[test]
    fn verify_rejects_wrong_sender() {
        let mut kp = keypair();
        let other = KeyPair::generate("other", 4);
        let t = Transaction {
            sender: other.public(), // claims to be someone else
            nonce: 0,
            payload: TxPayload::Noop,
            conflict_key: None,
        };
        let signed = t.sign(&mut kp).expect("sign");
        assert!(!signed.verify_signature());
    }

    #[test]
    fn verify_rejects_tampered_body() {
        let mut kp = keypair();
        let t = Transaction {
            sender: kp.public(),
            nonce: 0,
            payload: TxPayload::Noop,
            conflict_key: None,
        };
        let mut signed = t.sign(&mut kp).expect("sign");
        signed.tx.nonce = 7;
        assert!(!signed.verify_signature());
    }

    #[test]
    fn payload_kinds() {
        assert_eq!(TxPayload::Noop.kind(), "noop");
        assert_eq!(
            TxPayload::DeployContract {
                code: vec![],
                init: vec![]
            }
            .kind(),
            "deploy"
        );
        assert_eq!(
            TxPayload::CallContract {
                contract: Hash256::ZERO,
                method: "m".into(),
                args: vec![]
            }
            .kind(),
            "call"
        );
    }

    #[test]
    fn encoded_len_nonzero() {
        let mut kp = keypair();
        let signed = tx(0).sign(&mut kp).expect("sign");
        assert!(signed.encoded_len() > 100);
    }
}
