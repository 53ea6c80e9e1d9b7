//! The sharing contract — the paper's Fig. 3 "metadata collection".
//!
//! One contract instance manages the metadata of many shared tables. Per
//! table it records exactly the columns of the paper's figure:
//!
//! | Fig. 3 column                  | field                          |
//! |--------------------------------|--------------------------------|
//! | Metadata ID                    | `table_id` (e.g. `"D13&D31"`)  |
//! | Sharing peers                  | `peers`                        |
//! | Write permission (per attr)    | `write_permission`             |
//! | Last update time               | `last_update_ms`               |
//! | Authority to change permission | `authority`                    |
//!
//! plus the machinery that turns the paper's prose rules into code:
//! `version`, the `content_hash` of the current shared data, the `updater`
//! holding the newest copy, and `pending_acks` — while non-empty, further
//! `request_update` calls on the table revert, which is the enforcement of
//! *"only when all sharing peers have had the newest shared data can they
//! execute further operations"* (Sec. III-B).

use crate::runtime::{CallCtx, CallOutput, ContractError};
use crate::state::ContractState;
use medledger_crypto::Hash256;
use medledger_ledger::{AccountId, LogEntry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Per-shared-table metadata (one Fig. 3 row).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedTableMeta {
    /// Metadata id, e.g. `"D13&D31"`.
    pub table_id: String,
    /// The sharing peers.
    pub peers: BTreeSet<AccountId>,
    /// Per-attribute writer sets (attribute → accounts allowed to change
    /// its values).
    pub write_permission: BTreeMap<String, BTreeSet<AccountId>>,
    /// The account allowed to change other peers' permissions.
    pub authority: AccountId,
    /// Timestamp of the most recent metadata change (block time, ms).
    pub last_update_ms: u64,
    /// Monotonic version, bumped by every committed data update.
    pub version: u64,
    /// Content hash of the current shared table data.
    pub content_hash: Hash256,
    /// The peer holding the newest data (others fetch from it).
    pub updater: Option<AccountId>,
    /// Peers that have not yet confirmed they fetched version `version`.
    pub pending_acks: BTreeSet<AccountId>,
    /// Acks recorded for the current version via aggregated attestations.
    pub ack_count: u64,
    /// Bitmap over `peers` (in iteration order, 64 peers per word) marking
    /// which peers' acks for the current version arrived aggregated.
    pub ack_bitmap: Vec<u64>,
}

impl SharedTableMeta {
    /// True iff every peer holds the newest shared data.
    pub fn synced(&self) -> bool {
        self.pending_acks.is_empty()
    }

    /// Index of `who` in the canonical peer order, if a peer.
    fn peer_index(&self, who: &AccountId) -> Option<usize> {
        self.peers.iter().position(|p| p == who)
    }

    /// Marks `who`'s ack as recorded via an aggregated attestation.
    fn mark_aggregated_ack(&mut self, who: &AccountId) {
        if let Some(idx) = self.peer_index(who) {
            let word = idx / 64;
            if self.ack_bitmap.len() <= word {
                self.ack_bitmap.resize(word + 1, 0);
            }
            self.ack_bitmap[word] |= 1u64 << (idx % 64);
            self.ack_count += 1;
        }
    }

    /// True iff `who` may write every attribute in `attrs`.
    pub fn may_write_all(&self, who: &AccountId, attrs: &[String]) -> Result<(), String> {
        for attr in attrs {
            match self.write_permission.get(attr) {
                None => return Err(format!("attribute `{attr}` is not part of shared table")),
                Some(writers) if !writers.contains(who) => {
                    return Err(format!("no write permission on attribute `{attr}`"))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Arguments of `register_share`.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChangePermissionArgs {
    /// Target metadata id.
    pub table_id: String,
    /// Attribute whose writer set changes.
    pub attr: String,
    /// The new writer set (must be a subset of the peers).
    pub writers: Vec<AccountId>,
}

/// Arguments of `remove_share` (table-level delete in Fig. 4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RemoveShareArgs {
    /// Target metadata id.
    pub table_id: String,
}

/// The native sharing contract: a stateless handler over [`ContractState`].
pub struct SharingContract;

const KEY_PREFIX: &[u8] = b"table:";

fn meta_key(table_id: &str) -> Vec<u8> {
    let mut k = KEY_PREFIX.to_vec();
    k.extend_from_slice(table_id.as_bytes());
    k
}

/// Base gas for any sharing-contract call; mirrors a flat intrinsic cost.
const GAS_BASE: u64 = 21;
/// Extra gas per checked/changed attribute.
const GAS_PER_ATTR: u64 = 5;

impl SharingContract {
    /// The code tag the runtime uses to recognize this native contract.
    pub const CODE_TAG: &'static [u8] = b"native:sharing";

    /// Loads a table's metadata from contract storage.
    pub fn load_meta(state: &ContractState, table_id: &str) -> Option<SharedTableMeta> {
        state.get_json(&meta_key(table_id))
    }

    /// Lists all registered metadata ids.
    pub fn table_ids(state: &ContractState) -> Vec<String> {
        state
            .iter()
            .filter_map(|(k, _)| {
                k.strip_prefix(KEY_PREFIX)
                    .map(|rest| String::from_utf8_lossy(rest).to_string())
            })
            .collect()
    }

    /// Dispatches a method call.
    pub fn call(
        state: &mut ContractState,
        ctx: &CallCtx,
        method: &str,
        args: &[u8],
    ) -> Result<CallOutput, ContractError> {
        match method {
            "register_share" => Self::register_share(state, ctx, parse(args)?),
            "request_update" => Self::request_update(state, ctx, parse(args)?),
            "co_request_update" => Self::co_request_update(state, ctx, parse(args)?),
            "ack_update" => Self::ack_update(state, ctx, parse(args)?),
            "ack_update_aggregate" => Self::ack_update_aggregate(state, ctx, parse(args)?),
            "change_permission" => Self::change_permission(state, ctx, parse(args)?),
            "remove_share" => Self::remove_share(state, ctx, parse(args)?),
            other => Err(ContractError::BadCall(format!("unknown method `{other}`"))),
        }
    }

    fn register_share(
        state: &mut ContractState,
        ctx: &CallCtx,
        args: RegisterShareArgs,
    ) -> Result<CallOutput, ContractError> {
        if Self::load_meta(state, &args.table_id).is_some() {
            return Err(ContractError::AlreadyExists(format!(
                "shared table `{}` already registered",
                args.table_id
            )));
        }
        let peers: BTreeSet<AccountId> = args.peers.iter().copied().collect();
        if peers.len() < 2 {
            return Err(ContractError::BadCall(
                "a shared table needs at least two peers".into(),
            ));
        }
        if !peers.contains(&ctx.sender) {
            return Err(ContractError::PermissionDenied(
                "only a sharing peer can register the share".into(),
            ));
        }
        if !peers.contains(&args.authority) {
            return Err(ContractError::BadCall(
                "permission authority must be a sharing peer".into(),
            ));
        }
        if args.write_permission.is_empty() {
            return Err(ContractError::BadCall(
                "write permission table must not be empty".into(),
            ));
        }
        let mut write_permission = BTreeMap::new();
        for (attr, writers) in &args.write_permission {
            let w: BTreeSet<AccountId> = writers.iter().copied().collect();
            if !w.iter().all(|a| peers.contains(a)) {
                return Err(ContractError::BadCall(format!(
                    "writer of `{attr}` is not a sharing peer"
                )));
            }
            write_permission.insert(attr.clone(), w);
        }
        let attr_count = write_permission.len() as u64;
        let meta = SharedTableMeta {
            table_id: args.table_id.clone(),
            peers,
            write_permission,
            authority: args.authority,
            last_update_ms: ctx.timestamp_ms,
            version: 0,
            content_hash: args.initial_hash,
            updater: None,
            pending_acks: BTreeSet::new(),
            ack_count: 0,
            ack_bitmap: Vec::new(),
        };
        state.set_json(meta_key(&args.table_id), &meta)?;
        Ok(CallOutput {
            logs: vec![log(
                ctx,
                "SharedTableRegistered",
                serde_json::json!({
                    "table_id": args.table_id,
                    "peers": meta.peers,
                    "authority": meta.authority,
                }),
            )],
            gas_used: GAS_BASE + GAS_PER_ATTR * attr_count,
        })
    }

    fn request_update(
        state: &mut ContractState,
        ctx: &CallCtx,
        args: RequestUpdateArgs,
    ) -> Result<CallOutput, ContractError> {
        let mut meta = Self::load_meta(state, &args.table_id)
            .ok_or_else(|| ContractError::NotFound(format!("shared table `{}`", args.table_id)))?;
        if !meta.peers.contains(&ctx.sender) {
            return Err(ContractError::PermissionDenied(format!(
                "{} is not a sharing peer of `{}`",
                ctx.sender, args.table_id
            )));
        }
        // The paper's barrier: no new update until every peer fetched the
        // previous one.
        if !meta.synced() {
            return Err(ContractError::StateLocked(format!(
                "table `{}` version {} still awaits {} ack(s)",
                args.table_id,
                meta.version,
                meta.pending_acks.len()
            )));
        }
        if args.changed_attrs.is_empty() {
            return Err(ContractError::BadCall(
                "update must declare at least one changed attribute".into(),
            ));
        }
        meta.may_write_all(&ctx.sender, &args.changed_attrs)
            .map_err(ContractError::PermissionDenied)?;

        meta.version += 1;
        meta.content_hash = args.new_hash;
        meta.last_update_ms = ctx.timestamp_ms;
        meta.updater = Some(ctx.sender);
        meta.pending_acks = meta
            .peers
            .iter()
            .copied()
            .filter(|p| *p != ctx.sender)
            .collect();
        meta.ack_count = 0;
        meta.ack_bitmap.clear();
        let version = meta.version;
        let pending: Vec<AccountId> = meta.pending_acks.iter().copied().collect();
        state.set_json(meta_key(&args.table_id), &meta)?;
        Ok(CallOutput {
            logs: vec![log(
                ctx,
                "UpdateCommitted",
                serde_json::json!({
                    "table_id": args.table_id,
                    "version": version,
                    "new_hash": args.new_hash,
                    "changed_attrs": args.changed_attrs,
                    "updater": ctx.sender,
                    "pending": pending,
                }),
            )],
            gas_used: GAS_BASE + GAS_PER_ATTR * args.changed_attrs.len() as u64,
        })
    }

    /// A co-author's signature on a combined (write-combined) update: the
    /// lead peer's `request_update` committed the composed data hash
    /// earlier in the same block; each co-author then records — under its
    /// **own** signature and its **own** per-attribute permission — which
    /// attributes it contributed. This is what keeps the Fig. 3
    /// fine-grained permission matrix meaningful when several peers'
    /// deltas share one block: the union of changed attributes is checked
    /// across the right senders, and every co-author's receipt is
    /// individually auditable (including denials, which revert here).
    ///
    /// The permission check runs **before** the version/hash match so a
    /// denied co-author's receipt names the permission as the reason even
    /// when its delta was (correctly) excluded from the composed data.
    fn co_request_update(
        state: &mut ContractState,
        ctx: &CallCtx,
        args: CoRequestUpdateArgs,
    ) -> Result<CallOutput, ContractError> {
        let meta = Self::load_meta(state, &args.table_id)
            .ok_or_else(|| ContractError::NotFound(format!("shared table `{}`", args.table_id)))?;
        if !meta.peers.contains(&ctx.sender) {
            return Err(ContractError::PermissionDenied(format!(
                "{} is not a sharing peer of `{}`",
                ctx.sender, args.table_id
            )));
        }
        if args.changed_attrs.is_empty() {
            return Err(ContractError::BadCall(
                "co-update must declare at least one changed attribute".into(),
            ));
        }
        meta.may_write_all(&ctx.sender, &args.changed_attrs)
            .map_err(ContractError::PermissionDenied)?;
        if meta.version != args.version
            || meta.content_hash != args.new_hash
            || meta.updater.is_none()
        {
            return Err(ContractError::BadCall(format!(
                "no matching in-flight update of `{}` at version {} to co-sign \
                 (table is at version {})",
                args.table_id, args.version, meta.version
            )));
        }
        // No state change: the lead's request already committed the data
        // hash and the ack barrier; this call is the co-author's
        // individually-signed, individually-permissioned attestation.
        Ok(CallOutput {
            logs: vec![log(
                ctx,
                "CoUpdateCommitted",
                serde_json::json!({
                    "table_id": args.table_id,
                    "version": args.version,
                    "co_author": ctx.sender,
                    "changed_attrs": args.changed_attrs,
                }),
            )],
            gas_used: GAS_BASE + GAS_PER_ATTR * args.changed_attrs.len() as u64,
        })
    }

    fn ack_update(
        state: &mut ContractState,
        ctx: &CallCtx,
        args: AckUpdateArgs,
    ) -> Result<CallOutput, ContractError> {
        let mut meta = Self::load_meta(state, &args.table_id)
            .ok_or_else(|| ContractError::NotFound(format!("shared table `{}`", args.table_id)))?;
        if args.version != meta.version {
            return Err(ContractError::BadCall(format!(
                "ack for version {} but table is at version {}",
                args.version, meta.version
            )));
        }
        if !meta.pending_acks.contains(&ctx.sender) {
            return Err(ContractError::BadCall(format!(
                "{} has no pending ack for `{}`",
                ctx.sender, args.table_id
            )));
        }
        if args.applied_hash != meta.content_hash {
            return Err(ContractError::BadCall(format!(
                "ack hash {} does not match committed hash {}",
                args.applied_hash.short(),
                meta.content_hash.short()
            )));
        }
        meta.pending_acks.remove(&ctx.sender);
        let synced = meta.synced();
        let version = meta.version;
        state.set_json(meta_key(&args.table_id), &meta)?;
        let mut logs = vec![log(
            ctx,
            "AckRecorded",
            serde_json::json!({
                "table_id": args.table_id,
                "peer": ctx.sender,
                "version": version,
            }),
        )];
        if synced {
            logs.push(log(
                ctx,
                "AllPeersSynced",
                serde_json::json!({ "table_id": args.table_id, "version": version }),
            ));
        }
        Ok(CallOutput {
            logs,
            gas_used: GAS_BASE,
        })
    }

    /// One aggregated threshold ack per `(table, wave)` — the O(1)
    /// replacement for R individual `ack_update` transactions. The
    /// updater (who verified every contributor's signature share over the
    /// canonical ack message) submits the fold; the contract re-checks the
    /// contributor set against `pending_acks` and clears it in one step,
    /// recording the count and a contributor bitmap so the barrier state
    /// stays fully auditable. A receiver whose share failed verification
    /// is *not* listed here — it falls back to an individual dissent
    /// `ack_update`, preserving the paper's lock/denial semantics.
    fn ack_update_aggregate(
        state: &mut ContractState,
        ctx: &CallCtx,
        args: AckAggregateArgs,
    ) -> Result<CallOutput, ContractError> {
        let mut meta = Self::load_meta(state, &args.table_id)
            .ok_or_else(|| ContractError::NotFound(format!("shared table `{}`", args.table_id)))?;
        if meta.updater != Some(ctx.sender) {
            return Err(ContractError::PermissionDenied(format!(
                "only the updater may submit the aggregated ack of `{}`",
                args.table_id
            )));
        }
        if args.version != meta.version {
            return Err(ContractError::BadCall(format!(
                "aggregated ack for version {} but table is at version {}",
                args.version, meta.version
            )));
        }
        if args.applied_hash != meta.content_hash {
            return Err(ContractError::BadCall(format!(
                "aggregated ack hash {} does not match committed hash {}",
                args.applied_hash.short(),
                meta.content_hash.short()
            )));
        }
        if args.contributors.is_empty() {
            return Err(ContractError::BadCall(
                "aggregated ack needs at least one contributor".into(),
            ));
        }
        if !args.contributors.windows(2).all(|w| w[0] < w[1]) {
            return Err(ContractError::BadCall(
                "aggregated ack contributors must be sorted and unique".into(),
            ));
        }
        for c in &args.contributors {
            if !meta.pending_acks.contains(c) {
                return Err(ContractError::BadCall(format!(
                    "{c} has no pending ack for `{}`",
                    args.table_id
                )));
            }
        }
        for c in &args.contributors {
            meta.pending_acks.remove(c);
            meta.mark_aggregated_ack(c);
        }
        let synced = meta.synced();
        let version = meta.version;
        state.set_json(meta_key(&args.table_id), &meta)?;
        let mut logs = vec![log(
            ctx,
            "AckAggregateRecorded",
            serde_json::json!({
                "table_id": args.table_id,
                "version": version,
                "contributors": args.contributors,
                "attestation": args.attestation,
            }),
        )];
        if synced {
            logs.push(log(
                ctx,
                "AllPeersSynced",
                serde_json::json!({ "table_id": args.table_id, "version": version }),
            ));
        }
        Ok(CallOutput {
            logs,
            gas_used: GAS_BASE + args.contributors.len() as u64,
        })
    }

    fn change_permission(
        state: &mut ContractState,
        ctx: &CallCtx,
        args: ChangePermissionArgs,
    ) -> Result<CallOutput, ContractError> {
        let mut meta = Self::load_meta(state, &args.table_id)
            .ok_or_else(|| ContractError::NotFound(format!("shared table `{}`", args.table_id)))?;
        if ctx.sender != meta.authority {
            return Err(ContractError::PermissionDenied(format!(
                "only the authority {} may change permissions",
                meta.authority
            )));
        }
        if !meta.write_permission.contains_key(&args.attr) {
            return Err(ContractError::NotFound(format!(
                "attribute `{}` of shared table `{}`",
                args.attr, args.table_id
            )));
        }
        let writers: BTreeSet<AccountId> = args.writers.iter().copied().collect();
        if !writers.iter().all(|a| meta.peers.contains(a)) {
            return Err(ContractError::BadCall(
                "writers must be sharing peers".into(),
            ));
        }
        meta.write_permission.insert(args.attr.clone(), writers);
        meta.last_update_ms = ctx.timestamp_ms;
        state.set_json(meta_key(&args.table_id), &meta)?;
        Ok(CallOutput {
            logs: vec![log(
                ctx,
                "PermissionChanged",
                serde_json::json!({
                    "table_id": args.table_id,
                    "attr": args.attr,
                    "writers": args.writers,
                }),
            )],
            gas_used: GAS_BASE + GAS_PER_ATTR,
        })
    }

    /// Table-level delete (Fig. 4): the authority retires a shared table.
    /// Requires the table to be synced (no half-delivered update may be
    /// abandoned); the metadata row is removed, ending the sharing
    /// relationship, while the chain retains the full history.
    fn remove_share(
        state: &mut ContractState,
        ctx: &CallCtx,
        args: RemoveShareArgs,
    ) -> Result<CallOutput, ContractError> {
        let meta = Self::load_meta(state, &args.table_id)
            .ok_or_else(|| ContractError::NotFound(format!("shared table `{}`", args.table_id)))?;
        if ctx.sender != meta.authority {
            return Err(ContractError::PermissionDenied(format!(
                "only the authority {} may remove the share",
                meta.authority
            )));
        }
        if !meta.synced() {
            return Err(ContractError::StateLocked(format!(
                "table `{}` still awaits {} ack(s)",
                args.table_id,
                meta.pending_acks.len()
            )));
        }
        state.delete(&meta_key(&args.table_id));
        Ok(CallOutput {
            logs: vec![log(
                ctx,
                "ShareRemoved",
                serde_json::json!({ "table_id": args.table_id, "by": ctx.sender }),
            )],
            gas_used: GAS_BASE,
        })
    }
}

fn parse<T: serde::de::DeserializeOwned>(args: &[u8]) -> Result<T, ContractError> {
    serde_json::from_slice(args)
        .map_err(|e| ContractError::BadCall(format!("argument decoding failed: {e}")))
}

fn log(ctx: &CallCtx, topic: &str, data: serde_json::Value) -> LogEntry {
    LogEntry {
        contract: ctx.contract,
        topic: topic.to_string(),
        data: data.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_crypto::KeyPair;

    struct Fixture {
        state: ContractState,
        doctor: AccountId,
        patient: AccountId,
        researcher: AccountId,
    }

    fn ctx(sender: AccountId, ts: u64) -> CallCtx {
        CallCtx {
            sender,
            contract: Hash256([7; 32]),
            block_height: 1,
            timestamp_ms: ts,
        }
    }

    fn call(
        f: &mut Fixture,
        sender: AccountId,
        ts: u64,
        method: &str,
        args: &impl Serialize,
    ) -> Result<CallOutput, ContractError> {
        let encoded = serde_json::to_vec(args).expect("args");
        SharingContract::call(&mut f.state, &ctx(sender, ts), method, &encoded)
    }

    /// Registers the paper's D13&D31 share: Doctor writes everything,
    /// Patient may write only clinical_data; Doctor is the authority.
    fn fixture() -> Fixture {
        let doctor = KeyPair::generate("doctor", 2).public();
        let patient = KeyPair::generate("patient", 2).public();
        let researcher = KeyPair::generate("researcher", 2).public();
        let mut f = Fixture {
            state: ContractState::new(),
            doctor,
            patient,
            researcher,
        };
        let args = RegisterShareArgs {
            table_id: "D13&D31".into(),
            peers: vec![doctor, patient],
            write_permission: [
                ("medication_name".to_string(), vec![doctor]),
                ("dosage".to_string(), vec![doctor]),
                ("clinical_data".to_string(), vec![doctor, patient]),
            ]
            .into_iter()
            .collect(),
            authority: doctor,
            initial_hash: Hash256([1; 32]),
        };
        call(&mut f, doctor, 1000, "register_share", &args).expect("register");
        f
    }

    #[test]
    fn register_creates_fig3_row() {
        let f = fixture();
        let meta = SharingContract::load_meta(&f.state, "D13&D31").expect("meta");
        assert_eq!(meta.table_id, "D13&D31");
        assert_eq!(meta.peers.len(), 2);
        assert_eq!(meta.authority, f.doctor);
        assert_eq!(meta.version, 0);
        assert!(meta.synced());
        assert_eq!(meta.last_update_ms, 1000);
        assert_eq!(SharingContract::table_ids(&f.state), vec!["D13&D31"]);
        assert!(SharingContract::load_meta(&f.state, "missing").is_none());
    }

    #[test]
    fn register_rejects_duplicate_and_bad_shapes() {
        let mut f = fixture();
        let doctor = f.doctor;
        let researcher = f.researcher;
        let dup = RegisterShareArgs {
            table_id: "D13&D31".into(),
            peers: vec![f.doctor, f.patient],
            write_permission: [("x".to_string(), vec![f.doctor])].into_iter().collect(),
            authority: f.doctor,
            initial_hash: Hash256::ZERO,
        };
        assert!(matches!(
            call(&mut f, doctor, 1, "register_share", &dup).unwrap_err(),
            ContractError::AlreadyExists(_)
        ));

        let solo = RegisterShareArgs {
            table_id: "solo".into(),
            peers: vec![f.doctor],
            write_permission: [("x".to_string(), vec![f.doctor])].into_iter().collect(),
            authority: f.doctor,
            initial_hash: Hash256::ZERO,
        };
        assert!(matches!(
            call(&mut f, doctor, 1, "register_share", &solo).unwrap_err(),
            ContractError::BadCall(_)
        ));

        let outsider_auth = RegisterShareArgs {
            table_id: "t2".into(),
            peers: vec![f.doctor, f.patient],
            write_permission: [("x".to_string(), vec![f.doctor])].into_iter().collect(),
            authority: f.researcher,
            initial_hash: Hash256::ZERO,
        };
        assert!(call(&mut f, doctor, 1, "register_share", &outsider_auth).is_err());

        let outsider_reg = RegisterShareArgs {
            table_id: "t3".into(),
            peers: vec![f.doctor, f.patient],
            write_permission: [("x".to_string(), vec![f.doctor])].into_iter().collect(),
            authority: f.doctor,
            initial_hash: Hash256::ZERO,
        };
        assert!(matches!(
            call(&mut f, researcher, 1, "register_share", &outsider_reg).unwrap_err(),
            ContractError::PermissionDenied(_)
        ));
    }

    #[test]
    fn permitted_update_commits_and_sets_pending_acks() {
        let mut f = fixture();
        let doctor = f.doctor;
        let out = call(
            &mut f,
            doctor,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .expect("update");
        assert_eq!(out.logs[0].topic, "UpdateCommitted");
        let meta = SharingContract::load_meta(&f.state, "D13&D31").expect("meta");
        assert_eq!(meta.version, 1);
        assert_eq!(meta.content_hash, Hash256([2; 32]));
        assert_eq!(meta.updater, Some(doctor));
        assert_eq!(meta.last_update_ms, 2000);
        assert!(meta.pending_acks.contains(&f.patient));
        assert!(!meta.synced());
    }

    #[test]
    fn patient_cannot_write_dosage_but_can_write_clinical_data() {
        let mut f = fixture();
        let patient = f.patient;
        let denied = call(
            &mut f,
            patient,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .unwrap_err();
        assert!(matches!(denied, ContractError::PermissionDenied(_)));

        call(
            &mut f,
            patient,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["clinical_data".into()],
            },
        )
        .expect("patient may write clinical_data");
    }

    #[test]
    fn update_with_any_unpermitted_attr_is_denied() {
        let mut f = fixture();
        let patient = f.patient;
        let err = call(
            &mut f,
            patient,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["clinical_data".into(), "dosage".into()],
            },
        )
        .unwrap_err();
        assert!(matches!(err, ContractError::PermissionDenied(_)));
    }

    #[test]
    fn non_peer_cannot_update() {
        let mut f = fixture();
        let researcher = f.researcher;
        let err = call(
            &mut f,
            researcher,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .unwrap_err();
        assert!(matches!(err, ContractError::PermissionDenied(_)));
    }

    #[test]
    fn pending_acks_block_further_updates_until_synced() {
        let mut f = fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        call(
            &mut f,
            doctor,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .expect("first update");
        // Second update blocked — the paper's barrier.
        let err = call(
            &mut f,
            doctor,
            3000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([3; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .unwrap_err();
        assert!(matches!(err, ContractError::StateLocked(_)));

        // Patient acks with the right hash → synced → updates flow again.
        let out = call(
            &mut f,
            patient,
            3500,
            "ack_update",
            &AckUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                applied_hash: Hash256([2; 32]),
            },
        )
        .expect("ack");
        assert!(out.logs.iter().any(|l| l.topic == "AllPeersSynced"));
        call(
            &mut f,
            doctor,
            4000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([3; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .expect("second update after sync");
    }

    #[test]
    fn ack_requires_matching_version_and_hash() {
        let mut f = fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        call(
            &mut f,
            doctor,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .expect("update");
        assert!(call(
            &mut f,
            patient,
            2500,
            "ack_update",
            &AckUpdateArgs {
                table_id: "D13&D31".into(),
                version: 9,
                applied_hash: Hash256([2; 32]),
            },
        )
        .is_err());
        assert!(call(
            &mut f,
            patient,
            2500,
            "ack_update",
            &AckUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                applied_hash: Hash256([9; 32]),
            },
        )
        .is_err());
        // The updater itself has no pending ack.
        assert!(call(
            &mut f,
            doctor,
            2500,
            "ack_update",
            &AckUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                applied_hash: Hash256([2; 32]),
            },
        )
        .is_err());
    }

    /// A 3-peer share so aggregated acks have a real contributor set.
    fn trio_fixture() -> Fixture {
        let mut f = fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        let researcher = f.researcher;
        let args = RegisterShareArgs {
            table_id: "TRIO".into(),
            peers: vec![doctor, patient, researcher],
            write_permission: [("clinical_data".to_string(), vec![doctor])]
                .into_iter()
                .collect(),
            authority: doctor,
            initial_hash: Hash256([1; 32]),
        };
        call(&mut f, doctor, 1000, "register_share", &args).expect("register trio");
        call(
            &mut f,
            doctor,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "TRIO".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["clinical_data".into()],
            },
        )
        .expect("trio update");
        f
    }

    fn sorted_pair(a: AccountId, b: AccountId) -> Vec<AccountId> {
        let mut v = vec![a, b];
        v.sort();
        v
    }

    #[test]
    fn aggregated_ack_clears_all_contributors_in_one_call() {
        let mut f = trio_fixture();
        let doctor = f.doctor;
        let contributors = sorted_pair(f.patient, f.researcher);
        let out = call(
            &mut f,
            doctor,
            3000,
            "ack_update_aggregate",
            &AckAggregateArgs {
                table_id: "TRIO".into(),
                version: 1,
                applied_hash: Hash256([2; 32]),
                contributors,
                attestation: Hash256([9; 32]),
            },
        )
        .expect("aggregate");
        assert_eq!(out.logs[0].topic, "AckAggregateRecorded");
        assert!(out.logs.iter().any(|l| l.topic == "AllPeersSynced"));
        let meta = SharingContract::load_meta(&f.state, "TRIO").expect("meta");
        assert!(meta.synced());
        assert_eq!(meta.ack_count, 2);
        // Two bits set in the bitmap, at the contributors' peer indices.
        let set_bits: u32 = meta.ack_bitmap.iter().map(|w| w.count_ones()).sum();
        assert_eq!(set_bits, 2);
        // The barrier reopens.
        call(
            &mut f,
            doctor,
            4000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "TRIO".into(),
                new_hash: Hash256([3; 32]),
                changed_attrs: vec!["clinical_data".into()],
            },
        )
        .expect("next update after aggregated sync");
        // ...and the new version starts with a clean aggregate state.
        let meta = SharingContract::load_meta(&f.state, "TRIO").expect("meta");
        assert_eq!(meta.ack_count, 0);
        assert!(meta.ack_bitmap.iter().all(|w| *w == 0));
    }

    #[test]
    fn partial_aggregate_keeps_barrier_until_dissenter_acks() {
        let mut f = trio_fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        let researcher = f.researcher;
        // Only the patient's share verified; the researcher dissents.
        let out = call(
            &mut f,
            doctor,
            3000,
            "ack_update_aggregate",
            &AckAggregateArgs {
                table_id: "TRIO".into(),
                version: 1,
                applied_hash: Hash256([2; 32]),
                contributors: vec![patient],
                attestation: Hash256([9; 32]),
            },
        )
        .expect("partial aggregate");
        assert!(!out.logs.iter().any(|l| l.topic == "AllPeersSynced"));
        let meta = SharingContract::load_meta(&f.state, "TRIO").expect("meta");
        assert!(!meta.synced());
        assert!(meta.pending_acks.contains(&researcher));
        assert_eq!(meta.ack_count, 1);
        // A further update is still locked — the paper's barrier holds.
        assert!(matches!(
            call(
                &mut f,
                doctor,
                3500,
                "request_update",
                &RequestUpdateArgs {
                    table_id: "TRIO".into(),
                    new_hash: Hash256([3; 32]),
                    changed_attrs: vec!["clinical_data".into()],
                },
            )
            .unwrap_err(),
            ContractError::StateLocked(_)
        ));
        // The dissenter's individual ack still works and completes the sync.
        let out = call(
            &mut f,
            researcher,
            4000,
            "ack_update",
            &AckUpdateArgs {
                table_id: "TRIO".into(),
                version: 1,
                applied_hash: Hash256([2; 32]),
            },
        )
        .expect("individual dissent-path ack");
        assert!(out.logs.iter().any(|l| l.topic == "AllPeersSynced"));
    }

    #[test]
    fn aggregated_ack_validation_rejections() {
        let mut f = trio_fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        let researcher = f.researcher;
        let good = |contributors: Vec<AccountId>| AckAggregateArgs {
            table_id: "TRIO".into(),
            version: 1,
            applied_hash: Hash256([2; 32]),
            contributors,
            attestation: Hash256([9; 32]),
        };
        // Only the updater may submit the aggregate.
        assert!(matches!(
            call(
                &mut f,
                patient,
                3000,
                "ack_update_aggregate",
                &good(vec![researcher])
            )
            .unwrap_err(),
            ContractError::PermissionDenied(_)
        ));
        // Wrong version / wrong hash.
        let mut wrong_version = good(vec![patient]);
        wrong_version.version = 9;
        assert!(call(&mut f, doctor, 3000, "ack_update_aggregate", &wrong_version).is_err());
        let mut wrong_hash = good(vec![patient]);
        wrong_hash.applied_hash = Hash256([7; 32]);
        assert!(call(&mut f, doctor, 3000, "ack_update_aggregate", &wrong_hash).is_err());
        // Empty, duplicated, unsorted or non-pending contributors.
        assert!(call(&mut f, doctor, 3000, "ack_update_aggregate", &good(vec![])).is_err());
        assert!(call(
            &mut f,
            doctor,
            3000,
            "ack_update_aggregate",
            &good(vec![patient, patient])
        )
        .is_err());
        let mut unsorted = sorted_pair(patient, researcher);
        unsorted.reverse();
        assert!(call(
            &mut f,
            doctor,
            3000,
            "ack_update_aggregate",
            &good(unsorted)
        )
        .is_err());
        // The updater itself has no pending ack, so listing it fails.
        assert!(call(
            &mut f,
            doctor,
            3000,
            "ack_update_aggregate",
            &good(vec![doctor])
        )
        .is_err());
        // And a rejected aggregate left the barrier untouched.
        let meta = SharingContract::load_meta(&f.state, "TRIO").expect("meta");
        assert_eq!(meta.pending_acks.len(), 2);
        assert_eq!(meta.ack_count, 0);
    }

    #[test]
    fn co_request_checks_own_permission_and_in_flight_match() {
        let mut f = fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        let researcher = f.researcher;
        // No in-flight update yet: a co-request by a permitted writer
        // fails on the version match, not on permission.
        let premature = call(
            &mut f,
            patient,
            1500,
            "co_request_update",
            &CoRequestUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                changed_attrs: vec!["clinical_data".into()],
                new_hash: Hash256([2; 32]),
            },
        )
        .unwrap_err();
        assert!(matches!(premature, ContractError::BadCall(_)));

        // Lead commits the composed update...
        call(
            &mut f,
            doctor,
            2000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .expect("lead update");
        // ...and the patient co-signs its own clinical_data contribution.
        let out = call(
            &mut f,
            patient,
            2000,
            "co_request_update",
            &CoRequestUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                changed_attrs: vec!["clinical_data".into()],
                new_hash: Hash256([2; 32]),
            },
        )
        .expect("co-sign");
        assert_eq!(out.logs[0].topic, "CoUpdateCommitted");
        // The barrier is untouched: the patient still owes its ack.
        let meta = SharingContract::load_meta(&f.state, "D13&D31").expect("meta");
        assert!(meta.pending_acks.contains(&patient));

        // A co-author without permission on its attrs is denied — the
        // permission reason wins even though the hash would not match
        // either (the denied delta was excluded from the composition).
        let denied = call(
            &mut f,
            patient,
            2000,
            "co_request_update",
            &CoRequestUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                changed_attrs: vec!["dosage".into()],
                new_hash: Hash256([9; 32]),
            },
        )
        .unwrap_err();
        assert!(matches!(denied, ContractError::PermissionDenied(_)));

        // Outsiders and hash mismatches are rejected.
        assert!(matches!(
            call(
                &mut f,
                researcher,
                2000,
                "co_request_update",
                &CoRequestUpdateArgs {
                    table_id: "D13&D31".into(),
                    version: 1,
                    changed_attrs: vec!["clinical_data".into()],
                    new_hash: Hash256([2; 32]),
                },
            )
            .unwrap_err(),
            ContractError::PermissionDenied(_)
        ));
        assert!(matches!(
            call(
                &mut f,
                patient,
                2000,
                "co_request_update",
                &CoRequestUpdateArgs {
                    table_id: "D13&D31".into(),
                    version: 1,
                    changed_attrs: vec!["clinical_data".into()],
                    new_hash: Hash256([9; 32]),
                },
            )
            .unwrap_err(),
            ContractError::BadCall(_)
        ));
    }

    #[test]
    fn authority_grants_patient_dosage_write() {
        // The paper's example: Doctor changes "Dosage" writers from
        // {Doctor} to {Doctor, Patient}.
        let mut f = fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        call(
            &mut f,
            doctor,
            5000,
            "change_permission",
            &ChangePermissionArgs {
                table_id: "D13&D31".into(),
                attr: "dosage".into(),
                writers: vec![doctor, patient],
            },
        )
        .expect("grant");
        let meta = SharingContract::load_meta(&f.state, "D13&D31").expect("meta");
        assert!(meta.write_permission["dosage"].contains(&patient));
        assert_eq!(meta.last_update_ms, 5000);

        // Now the patient can update dosage.
        call(
            &mut f,
            patient,
            6000,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([4; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .expect("patient dosage update after grant");
    }

    #[test]
    fn only_authority_changes_permissions() {
        let mut f = fixture();
        let patient = f.patient;
        let doctor = f.doctor;
        let err = call(
            &mut f,
            patient,
            5000,
            "change_permission",
            &ChangePermissionArgs {
                table_id: "D13&D31".into(),
                attr: "dosage".into(),
                writers: vec![patient],
            },
        )
        .unwrap_err();
        assert!(matches!(err, ContractError::PermissionDenied(_)));
        // Unknown attribute and non-peer writers also rejected.
        assert!(call(
            &mut f,
            doctor,
            5000,
            "change_permission",
            &ChangePermissionArgs {
                table_id: "D13&D31".into(),
                attr: "nope".into(),
                writers: vec![doctor],
            },
        )
        .is_err());
        let researcher = f.researcher;
        assert!(call(
            &mut f,
            doctor,
            5000,
            "change_permission",
            &ChangePermissionArgs {
                table_id: "D13&D31".into(),
                attr: "dosage".into(),
                writers: vec![researcher],
            },
        )
        .is_err());
    }

    #[test]
    fn remove_share_by_authority_when_synced() {
        let mut f = fixture();
        let doctor = f.doctor;
        let patient = f.patient;
        // Non-authority denied.
        assert!(matches!(
            call(
                &mut f,
                patient,
                1,
                "remove_share",
                &RemoveShareArgs {
                    table_id: "D13&D31".into()
                }
            )
            .unwrap_err(),
            ContractError::PermissionDenied(_)
        ));
        // Locked while acks pending.
        call(
            &mut f,
            doctor,
            2,
            "request_update",
            &RequestUpdateArgs {
                table_id: "D13&D31".into(),
                new_hash: Hash256([2; 32]),
                changed_attrs: vec!["dosage".into()],
            },
        )
        .expect("update");
        assert!(matches!(
            call(
                &mut f,
                doctor,
                3,
                "remove_share",
                &RemoveShareArgs {
                    table_id: "D13&D31".into()
                }
            )
            .unwrap_err(),
            ContractError::StateLocked(_)
        ));
        call(
            &mut f,
            patient,
            4,
            "ack_update",
            &AckUpdateArgs {
                table_id: "D13&D31".into(),
                version: 1,
                applied_hash: Hash256([2; 32]),
            },
        )
        .expect("ack");
        // Now the authority can retire the share.
        let out = call(
            &mut f,
            doctor,
            5,
            "remove_share",
            &RemoveShareArgs {
                table_id: "D13&D31".into(),
            },
        )
        .expect("remove");
        assert_eq!(out.logs[0].topic, "ShareRemoved");
        assert!(SharingContract::load_meta(&f.state, "D13&D31").is_none());
        assert!(SharingContract::table_ids(&f.state).is_empty());
        // Removing twice fails.
        assert!(matches!(
            call(
                &mut f,
                doctor,
                6,
                "remove_share",
                &RemoveShareArgs {
                    table_id: "D13&D31".into()
                }
            )
            .unwrap_err(),
            ContractError::NotFound(_)
        ));
    }

    #[test]
    fn unknown_method_rejected() {
        let mut f = fixture();
        let doctor = f.doctor;
        let err =
            SharingContract::call(&mut f.state, &ctx(doctor, 1), "mint_money", b"{}").unwrap_err();
        assert!(matches!(err, ContractError::BadCall(_)));
    }
}
