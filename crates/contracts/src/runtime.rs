//! The contract runtime: deployment, execution, receipts, state roots.

use crate::sharing::SharingContract;
use crate::state::ContractState;
use medledger_crypto::{sha256_concat, Hash256};
use medledger_ledger::{AccountId, LogEntry, Receipt, SignedTransaction, TxPayload, TxStatus};
use std::collections::BTreeMap;
use std::fmt;

/// Ambient call context all replicas agree on.
#[derive(Clone, Copy, Debug)]
pub struct CallCtx {
    /// The transaction sender.
    pub sender: AccountId,
    /// The contract being executed.
    pub contract: Hash256,
    /// Height of the block being executed.
    pub block_height: u64,
    /// Timestamp of the block being executed (simulated ms).
    pub timestamp_ms: u64,
}

/// The successful result of one contract call.
#[derive(Clone, Debug)]
pub struct CallOutput {
    /// Emitted events.
    pub logs: Vec<LogEntry>,
    /// Gas consumed.
    pub gas_used: u64,
}

/// Contract execution errors — these become transaction reverts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContractError {
    /// Caller lacks permission for the operation.
    PermissionDenied(String),
    /// A referenced entity does not exist.
    NotFound(String),
    /// The entity already exists.
    AlreadyExists(String),
    /// Malformed call (bad method, bad args, invalid shapes).
    BadCall(String),
    /// The operation is blocked until pending acks drain (the paper's
    /// consistency barrier).
    StateLocked(String),
}

impl ContractError {
    /// Maps the error onto the ledger's receipt-level classification.
    pub fn revert_kind(&self) -> medledger_ledger::RevertKind {
        use medledger_ledger::RevertKind;
        match self {
            ContractError::PermissionDenied(_) => RevertKind::PermissionDenied,
            ContractError::NotFound(_) => RevertKind::NotFound,
            ContractError::AlreadyExists(_) => RevertKind::AlreadyExists,
            ContractError::BadCall(_) => RevertKind::BadCall,
            ContractError::StateLocked(_) => RevertKind::StateLocked,
        }
    }
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::PermissionDenied(s) => write!(f, "permission denied: {s}"),
            ContractError::NotFound(s) => write!(f, "not found: {s}"),
            ContractError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            ContractError::BadCall(s) => write!(f, "bad call: {s}"),
            ContractError::StateLocked(s) => write!(f, "state locked: {s}"),
        }
    }
}

impl std::error::Error for ContractError {}

/// The replicated contract runtime.
///
/// Every validator holds an identical runtime; executing the same blocks
/// in order yields identical state roots (determinism is tested).
#[derive(Clone, Debug, Default)]
pub struct ContractRuntime {
    /// Every deployed contract is the sharing contract
    /// ([`SharingContract::CODE_TAG`]); only its state is kept.
    contracts: BTreeMap<Hash256, ContractState>,
}

impl ContractRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives the deterministic id of a contract deployed by
    /// `sender` at `nonce`.
    pub fn contract_id(sender: &AccountId, nonce: u64) -> Hash256 {
        sha256_concat(&[
            b"medledger.contract.v1:",
            sender.0.as_bytes(),
            &nonce.to_be_bytes(),
        ])
    }

    /// Read access to a contract's state.
    pub fn contract_state(&self, id: &Hash256) -> Option<&ContractState> {
        self.contracts.get(id)
    }

    /// Merkle-style root over all contract states (goes into block
    /// headers).
    pub fn state_root(&self) -> Hash256 {
        let mut parts: Vec<Vec<u8>> = Vec::with_capacity(self.contracts.len());
        for (id, state) in &self.contracts {
            let mut buf = Vec::with_capacity(64);
            buf.extend_from_slice(id.as_bytes());
            buf.extend_from_slice(state.root().as_bytes());
            parts.push(buf);
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        sha256_concat(&refs)
    }

    /// Executes one signed transaction, returning its receipt. State
    /// changes are atomic: a revert leaves the runtime untouched.
    pub fn execute(
        &mut self,
        stx: &SignedTransaction,
        block_height: u64,
        timestamp_ms: u64,
    ) -> Receipt {
        let tx_id = stx.id();
        let result = self.execute_inner(stx, block_height, timestamp_ms);
        match result {
            Ok(out) => Receipt {
                tx_id,
                status: TxStatus::Success,
                gas_used: out.gas_used,
                logs: out.logs,
            },
            Err(e) => Receipt {
                tx_id,
                status: TxStatus::Reverted {
                    kind: e.revert_kind(),
                    reason: e.to_string(),
                },
                gas_used: 0,
                logs: vec![],
            },
        }
    }

    fn execute_inner(
        &mut self,
        stx: &SignedTransaction,
        block_height: u64,
        timestamp_ms: u64,
    ) -> Result<CallOutput, ContractError> {
        match &stx.tx.payload {
            TxPayload::Noop => Ok(CallOutput {
                logs: vec![],
                gas_used: 1,
            }),
            TxPayload::DeployContract { code, .. } => {
                let id = Self::contract_id(&stx.tx.sender, stx.tx.nonce);
                if self.contracts.contains_key(&id) {
                    return Err(ContractError::AlreadyExists(format!(
                        "contract {}",
                        id.short()
                    )));
                }
                if code != SharingContract::CODE_TAG {
                    return Err(ContractError::BadCall(
                        "only the native sharing contract can be deployed".into(),
                    ));
                }
                self.contracts.insert(id, ContractState::new());
                Ok(CallOutput {
                    logs: vec![LogEntry {
                        contract: id,
                        topic: "ContractDeployed".into(),
                        data: format!("deployer={}", stx.tx.sender),
                    }],
                    gas_used: 32 + code.len() as u64 / 16,
                })
            }
            TxPayload::CallContract {
                contract,
                method,
                args,
            } => {
                let ctx = CallCtx {
                    sender: stx.tx.sender,
                    contract: *contract,
                    block_height,
                    timestamp_ms,
                };
                let state = self.contracts.get_mut(contract).ok_or_else(|| {
                    ContractError::NotFound(format!("contract {}", contract.short()))
                })?;
                // Atomicity: run against a scratch copy, commit on success.
                let mut scratch = state.clone();
                let out = SharingContract::call(&mut scratch, &ctx, method, args)?;
                *state = scratch;
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::{RegisterShareArgs, RemoveShareArgs, SharingCall};
    use medledger_crypto::KeyPair;
    use medledger_ledger::Transaction;
    use medledger_storage::Encode;

    fn signed_call(
        kp: &mut KeyPair,
        nonce: u64,
        contract: Hash256,
        call: SharingCall,
    ) -> SignedTransaction {
        Transaction {
            sender: kp.public(),
            nonce,
            payload: TxPayload::CallContract {
                contract,
                method: call.method().into(),
                args: call.encoded(),
            },
            conflict_key: None,
        }
        .sign(kp)
        .expect("sign")
    }

    fn deploy_sharing(rt: &mut ContractRuntime, kp: &mut KeyPair, nonce: u64) -> Hash256 {
        let stx = Transaction {
            sender: kp.public(),
            nonce,
            payload: TxPayload::DeployContract {
                code: SharingContract::CODE_TAG.to_vec(),
                init: vec![],
            },
            conflict_key: None,
        }
        .sign(kp)
        .expect("sign");
        let receipt = rt.execute(&stx, 1, 100);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        ContractRuntime::contract_id(&kp.public(), nonce)
    }

    #[test]
    fn deploy_and_call_sharing_contract() {
        let mut rt = ContractRuntime::new();
        let mut doctor = KeyPair::generate("rt-doctor", 8);
        let patient = KeyPair::generate("rt-patient", 4);
        let cid = deploy_sharing(&mut rt, &mut doctor, 0);
        assert!(rt.contract_state(&cid).is_some());

        let args = RegisterShareArgs {
            table_id: "D13&D31".into(),
            peers: vec![doctor.public(), patient.public()],
            write_permission: [("dosage".to_string(), vec![doctor.public()])]
                .into_iter()
                .collect(),
            authority: doctor.public(),
            initial_hash: Hash256([1; 32]),
        };
        let stx = signed_call(&mut doctor, 1, cid, SharingCall::RegisterShare(args));
        let receipt = rt.execute(&stx, 2, 200);
        assert!(receipt.status.is_success());
        assert_eq!(receipt.logs[0].topic, "SharedTableRegistered");
        assert!(receipt.gas_used > 0);
    }

    #[test]
    fn revert_leaves_no_state_change() {
        let mut rt = ContractRuntime::new();
        let mut doctor = KeyPair::generate("rt-doc2", 8);
        let cid = deploy_sharing(&mut rt, &mut doctor, 0);
        let root_before = rt.state_root();

        // Registration with only one peer reverts.
        let args = RegisterShareArgs {
            table_id: "bad".into(),
            peers: vec![doctor.public()],
            write_permission: [("x".to_string(), vec![doctor.public()])]
                .into_iter()
                .collect(),
            authority: doctor.public(),
            initial_hash: Hash256::ZERO,
        };
        let stx = signed_call(&mut doctor, 1, cid, SharingCall::RegisterShare(args));
        let receipt = rt.execute(&stx, 2, 200);
        assert!(!receipt.status.is_success());
        assert!(receipt.logs.is_empty());
        assert_eq!(rt.state_root(), root_before);
    }

    #[test]
    fn call_to_missing_contract_reverts() {
        let mut rt = ContractRuntime::new();
        let mut kp = KeyPair::generate("rt-x", 4);
        let remove = SharingCall::RemoveShare(RemoveShareArgs {
            table_id: "t".into(),
        });
        let stx = signed_call(&mut kp, 0, Hash256([9; 32]), remove);
        let receipt = rt.execute(&stx, 1, 1);
        assert!(matches!(receipt.status, TxStatus::Reverted { .. }));
    }

    #[test]
    fn execution_is_deterministic_across_replicas() {
        let run = || {
            let mut rt = ContractRuntime::new();
            let mut doctor = KeyPair::generate("rt-det", 8);
            let patient = KeyPair::generate("rt-det-p", 4);
            let cid = deploy_sharing(&mut rt, &mut doctor, 0);
            let args = RegisterShareArgs {
                table_id: "T".into(),
                peers: vec![doctor.public(), patient.public()],
                write_permission: [("a".to_string(), vec![doctor.public()])]
                    .into_iter()
                    .collect(),
                authority: doctor.public(),
                initial_hash: Hash256([1; 32]),
            };
            let stx = signed_call(&mut doctor, 1, cid, SharingCall::RegisterShare(args));
            rt.execute(&stx, 2, 200);
            rt.state_root()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn registered_meta_reads_back_from_contract_state() {
        let mut rt = ContractRuntime::new();
        let mut doctor = KeyPair::generate("rt-q", 8);
        let patient = KeyPair::generate("rt-q-p", 4);
        let cid = deploy_sharing(&mut rt, &mut doctor, 0);
        let args = RegisterShareArgs {
            table_id: "T".into(),
            peers: vec![doctor.public(), patient.public()],
            write_permission: [("a".to_string(), vec![doctor.public()])]
                .into_iter()
                .collect(),
            authority: doctor.public(),
            initial_hash: Hash256([1; 32]),
        };
        let stx = signed_call(&mut doctor, 1, cid, SharingCall::RegisterShare(args));
        rt.execute(&stx, 2, 200);
        let state = rt.contract_state(&cid).expect("deployed");
        let meta = SharingContract::load_meta(state, "T").expect("registered");
        assert_eq!(meta.table_id, "T");
        assert_eq!(meta.authority, doctor.public());
        assert!(SharingContract::load_meta(state, "missing").is_none());
    }

    #[test]
    fn deploying_other_code_reverts_and_leaves_the_runtime_untouched() {
        let mut rt = ContractRuntime::new();
        let mut kp = KeyPair::generate("rt-vm-bad", 4);
        deploy_sharing(&mut rt, &mut kp, 0);
        let root_before = rt.state_root();
        let stx = Transaction {
            sender: kp.public(),
            nonce: 1,
            payload: TxPayload::DeployContract {
                code: vec![0xff, 0xff, 0xff],
                init: vec![],
            },
            conflict_key: None,
        }
        .sign(&mut kp)
        .expect("sign");
        let receipt = rt.execute(&stx, 1, 1);
        assert_eq!(
            receipt.status.revert_kind(),
            Some(medledger_ledger::RevertKind::BadCall)
        );
        assert!(receipt.logs.is_empty());
        // The refused deployment consumed no contract id and moved no root.
        let refused = ContractRuntime::contract_id(&kp.public(), 1);
        assert!(rt.contract_state(&refused).is_none());
        assert_eq!(rt.state_root(), root_before);
    }
}
