//! Typed calls to the sharing contract, in the storage codec.
//!
//! A transaction names its method in `TxPayload::CallContract::method`
//! and carries the method's arguments as `args` bytes. [`SharingCall`] is
//! one variant per method: [`SharingCall::method`] is the name it goes
//! on chain under, its [`Encode`] impl writes the `args` bytes, and
//! [`SharingCall::decode`] reads a `(method, args)` pair back. Any member
//! may sign a transaction, so `args` are input from outside the program:
//! decoding is strict (no trailing bytes, shortest varints, strictly
//! ascending map keys), which gives every call exactly one encoding.

use crate::runtime::ContractError;
use medledger_crypto::Hash256;
use medledger_ledger::AccountId;
use medledger_storage::codec::{put_map, put_seq, take_map, take_seq};
use medledger_storage::{struct_codec, Decode, Encode, Reader};
use std::collections::BTreeMap;

/// Arguments of `register_share`.
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterShareArgs {
    /// New metadata id.
    pub table_id: String,
    /// Sharing peers (must include the sender).
    pub peers: Vec<AccountId>,
    /// Per-attribute writer lists.
    pub write_permission: BTreeMap<String, Vec<AccountId>>,
    /// Permission-change authority (must be a peer).
    pub authority: AccountId,
    /// Content hash of the initial shared data.
    pub initial_hash: Hash256,
}

/// Arguments of `request_update`.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestUpdateArgs {
    /// Target metadata id.
    pub table_id: String,
    /// Content hash of the updated shared data.
    pub new_hash: Hash256,
    /// Attributes whose values changed (checked against write permission).
    pub changed_attrs: Vec<String>,
}

/// Arguments of `co_request_update` — a co-author's signature on an
/// update already requested by the lead updater in the same block (the
/// write-combining path: several peers' deltas composed into one data
/// update, each peer permission-checked and receipted individually).
#[derive(Clone, Debug, PartialEq)]
pub struct CoRequestUpdateArgs {
    /// Target metadata id.
    pub table_id: String,
    /// The version the lead's `request_update` is expected to commit.
    pub version: u64,
    /// Attributes **this co-author** changed (checked against the
    /// co-author's write permission, not the lead's).
    pub changed_attrs: Vec<String>,
    /// Content hash of the composed shared data (must match what the lead
    /// committed).
    pub new_hash: Hash256,
}

/// Arguments of `ack_update`.
#[derive(Clone, Debug, PartialEq)]
pub struct AckUpdateArgs {
    /// Target metadata id.
    pub table_id: String,
    /// The version being acknowledged.
    pub version: u64,
    /// Content hash of the data the peer applied (must match).
    pub applied_hash: Hash256,
}

/// Arguments of `ack_update_aggregate` — one threshold ack transaction
/// standing in for every contributing receiver's individual `ack_update`
/// of the same `(table, version)` wave. The updater submits it after
/// verifying each receiver's one-time signature share over the canonical
/// ack message off-chain; `attestation` is the SHA-256 fold over the
/// verified shares (see `medledger_crypto::fold_attestation`), kept
/// on-chain so any auditor holding the shares can recompute it.
#[derive(Clone, Debug, PartialEq)]
pub struct AckAggregateArgs {
    /// Target metadata id.
    pub table_id: String,
    /// The version being acknowledged.
    pub version: u64,
    /// Content hash of the data every contributor applied (must match).
    pub applied_hash: Hash256,
    /// Contributing receivers, in canonical (sorted) order, no duplicates.
    pub contributors: Vec<AccountId>,
    /// Fold of the contributors' verified signature shares.
    pub attestation: Hash256,
}

/// Arguments of `change_permission`.
#[derive(Clone, Debug, PartialEq)]
pub struct ChangePermissionArgs {
    /// Target metadata id.
    pub table_id: String,
    /// Attribute whose writer set changes.
    pub attr: String,
    /// The new writer set (must be a subset of the peers).
    pub writers: Vec<AccountId>,
}

/// Arguments of `remove_share` (table-level delete in Fig. 4).
#[derive(Clone, Debug, PartialEq)]
pub struct RemoveShareArgs {
    /// Target metadata id.
    pub table_id: String,
}

/// One call to the sharing contract: a method and its arguments.
#[derive(Clone, Debug, PartialEq)]
pub enum SharingCall {
    /// `register_share`.
    RegisterShare(RegisterShareArgs),
    /// `request_update`.
    RequestUpdate(RequestUpdateArgs),
    /// `co_request_update`.
    CoRequestUpdate(CoRequestUpdateArgs),
    /// `ack_update`.
    AckUpdate(AckUpdateArgs),
    /// `ack_update_aggregate`.
    AckUpdateAggregate(AckAggregateArgs),
    /// `change_permission`.
    ChangePermission(ChangePermissionArgs),
    /// `remove_share`.
    RemoveShare(RemoveShareArgs),
}

impl SharingCall {
    /// The method name the call goes on chain under.
    pub fn method(&self) -> &'static str {
        match self {
            SharingCall::RegisterShare(_) => "register_share",
            SharingCall::RequestUpdate(_) => "request_update",
            SharingCall::CoRequestUpdate(_) => "co_request_update",
            SharingCall::AckUpdate(_) => "ack_update",
            SharingCall::AckUpdateAggregate(_) => "ack_update_aggregate",
            SharingCall::ChangePermission(_) => "change_permission",
            SharingCall::RemoveShare(_) => "remove_share",
        }
    }

    /// Reads the call a transaction carries. An unknown method, or `args`
    /// that are not exactly one encoding of that method's arguments, is a
    /// [`ContractError::BadCall`].
    pub fn decode(method: &str, args: &[u8]) -> Result<SharingCall, ContractError> {
        fn arg<T: Decode>(args: &[u8]) -> Result<T, ContractError> {
            T::decode(args)
                .map_err(|e| ContractError::BadCall(format!("argument decoding failed: {e}")))
        }
        Ok(match method {
            "register_share" => SharingCall::RegisterShare(arg(args)?),
            "request_update" => SharingCall::RequestUpdate(arg(args)?),
            "co_request_update" => SharingCall::CoRequestUpdate(arg(args)?),
            "ack_update" => SharingCall::AckUpdate(arg(args)?),
            "ack_update_aggregate" => SharingCall::AckUpdateAggregate(arg(args)?),
            "change_permission" => SharingCall::ChangePermission(arg(args)?),
            "remove_share" => SharingCall::RemoveShare(arg(args)?),
            other => return Err(ContractError::BadCall(format!("unknown method `{other}`"))),
        })
    }
}

/// The `args` bytes: the arguments alone, since the method travels
/// beside them.
impl Encode for SharingCall {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            SharingCall::RegisterShare(a) => a.encode_into(out),
            SharingCall::RequestUpdate(a) => a.encode_into(out),
            SharingCall::CoRequestUpdate(a) => a.encode_into(out),
            SharingCall::AckUpdate(a) => a.encode_into(out),
            SharingCall::AckUpdateAggregate(a) => a.encode_into(out),
            SharingCall::ChangePermission(a) => a.encode_into(out),
            SharingCall::RemoveShare(a) => a.encode_into(out),
        }
    }
}

/// By hand, not `struct_codec!`: its writer map holds lists, which have
/// no `Encode` impl of their own.
impl Encode for RegisterShareArgs {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.table_id.encode_into(out);
        put_seq(out, &self.peers);
        put_map(out, &self.write_permission, |out, w| put_seq(out, w));
        self.authority.encode_into(out);
        self.initial_hash.encode_into(out);
    }
}

impl Decode for RegisterShareArgs {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        Ok(RegisterShareArgs {
            table_id: String::decode_from(r)?,
            peers: take_seq(r)?,
            write_permission: take_map(r, take_seq)?,
            authority: AccountId::decode_from(r)?,
            initial_hash: Hash256::decode_from(r)?,
        })
    }
}

struct_codec!(RequestUpdateArgs {
    table_id,
    new_hash,
    changed_attrs: seq
});
struct_codec!(CoRequestUpdateArgs {
    table_id,
    version,
    changed_attrs: seq,
    new_hash
});
struct_codec!(AckUpdateArgs {
    table_id,
    version,
    applied_hash
});
struct_codec!(AckAggregateArgs {
    table_id,
    version,
    applied_hash,
    contributors: seq,
    attestation
});
struct_codec!(ChangePermissionArgs {
    table_id,
    attr,
    writers: seq
});
struct_codec!(RemoveShareArgs { table_id });

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(n: u8) -> AccountId {
        medledger_crypto::PublicKey(Hash256([n; 32]))
    }

    /// One call per method, each with every field set.
    fn samples() -> Vec<SharingCall> {
        vec![
            SharingCall::RegisterShare(RegisterShareArgs {
                table_id: "D13&D31".into(),
                peers: vec![peer(1), peer(2)],
                write_permission: [
                    ("dosage".to_string(), vec![peer(1)]),
                    ("clinical_data".to_string(), vec![peer(1), peer(2)]),
                ]
                .into(),
                authority: peer(1),
                initial_hash: Hash256([3; 32]),
            }),
            SharingCall::RequestUpdate(RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([4; 32]),
                changed_attrs: vec!["dosage".into()],
            }),
            SharingCall::CoRequestUpdate(CoRequestUpdateArgs {
                table_id: "D13&D31".into(),
                version: 300,
                changed_attrs: vec!["clinical_data".into()],
                new_hash: Hash256([4; 32]),
            }),
            SharingCall::AckUpdate(AckUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                applied_hash: Hash256([4; 32]),
            }),
            SharingCall::AckUpdateAggregate(AckAggregateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                applied_hash: Hash256([4; 32]),
                contributors: vec![peer(2), peer(3)],
                attestation: Hash256([5; 32]),
            }),
            SharingCall::ChangePermission(ChangePermissionArgs {
                table_id: "D13&D31".into(),
                attr: "dosage".into(),
                writers: vec![peer(1), peer(2)],
            }),
            SharingCall::RemoveShare(RemoveShareArgs {
                table_id: "D13&D31".into(),
            }),
        ]
    }

    #[test]
    fn every_call_round_trips_under_its_method() {
        for call in samples() {
            let back = SharingCall::decode(call.method(), &call.encoded()).expect("decodes");
            assert_eq!(back, call);
        }
    }

    #[test]
    fn args_under_another_method_or_with_a_tail_are_bad_calls() {
        let ack = &samples()[3];
        let mut longer = ack.encoded();
        longer.push(0);
        for (method, args) in [
            ("register_share", ack.encoded()),
            ("ack_update", longer),
            ("mint_money", ack.encoded()),
        ] {
            assert!(
                matches!(
                    SharingCall::decode(method, &args),
                    Err(ContractError::BadCall(_))
                ),
                "{method}"
            );
        }
    }
}
