//! Length-prefixed wire protocol over in-process byte pipes.
//!
//! Every conversation between a client session and the gateway pump is
//! serialized through this module: an
//! [`Envelope`] (correlation id + [`Message`]) is encoded with the
//! `medledger-storage` binary codec, prefixed with a big-endian `u32`
//! length, and pushed through a bounded byte [`pipe`] — the in-process
//! stand-in for a socket. Nothing crosses a conn except bytes, so the
//! protocol is exactly what a TCP transport would carry; swapping the
//! pipe for a real stream is a transport change, not a protocol change.
//!
//! Frames open with [`WIRE_VERSION`]; a peer speaking a different
//! version is rejected with [`WireError::Version`] instead of being
//! mis-decoded. Frame payloads decode strictly ([`Decode::decode`]
//! rejects trailing bytes), which the length prefix makes safe.

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use medledger_ledger::Receipt;
use medledger_relational::WriteOp;
use medledger_storage::codec::{put_seq, put_varint, take_seq, Reader};
use medledger_storage::{Decode, Encode, StorageError};

/// Protocol version stamped on every frame.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's payload; a length prefix beyond this is
/// treated as stream corruption rather than honored with a giant
/// allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Byte capacity of one pipe direction (each gateway session's pipe).
pub const DEFAULT_PIPE_CAPACITY: usize = 64 << 10;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Transport- and protocol-level failures.
#[derive(Debug)]
pub enum WireError {
    /// The other end of the conn hung up mid-frame (a clean close at a
    /// frame boundary is reported as `Ok(None)` from `recv`, not this).
    Closed,
    /// The frame declared a version this build does not speak.
    Version {
        /// The version byte received.
        got: u8,
    },
    /// The frame length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// The declared payload length.
        len: usize,
    },
    /// The payload failed to decode as an [`Envelope`].
    Codec(StorageError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed mid-frame"),
            WireError::Version { got } => {
                write!(f, "wire version mismatch: got {got}, want {WIRE_VERSION}")
            }
            WireError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Codec(e) => write!(f, "frame payload failed to decode: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for WireError {
    fn from(e: StorageError) -> Self {
        WireError::Codec(e)
    }
}

// ---------------------------------------------------------------------
// Byte pipes
// ---------------------------------------------------------------------

/// Shared tally of bytes pushed through pipes created with it; the
/// bench uses one to report wire bytes per commit.
#[derive(Clone, Default)]
pub struct ByteMeter {
    count: Arc<std::sync::atomic::AtomicU64>,
}

impl ByteMeter {
    /// A fresh zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes written through metered pipes so far.
    pub fn bytes(&self) -> u64 {
        // ordering: byte-meter
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn add(&self, n: usize) {
        self.count
            // ordering: byte-meter
            .fetch_add(n as u64, std::sync::atomic::Ordering::Relaxed);
    }
}

struct PipeState {
    buf: VecDeque<u8>,
    capacity: usize,
    writer_alive: bool,
    reader_alive: bool,
    read_waker: Option<Waker>,
    write_waker: Option<Waker>,
    meter: Option<ByteMeter>,
}

impl PipeState {
    fn wake_reader(&mut self) -> Option<Waker> {
        self.read_waker.take()
    }

    fn wake_writer(&mut self) -> Option<Waker> {
        self.write_waker.take()
    }
}

/// Write half of a unidirectional in-process byte stream.
pub struct PipeWriter {
    state: Arc<Mutex<PipeState>>,
}

/// Read half of a unidirectional in-process byte stream.
pub struct PipeReader {
    state: Arc<Mutex<PipeState>>,
}

/// Creates a bounded unidirectional byte stream. Writes beyond
/// `capacity` un-read bytes wait until the reader drains — the
/// transport-level backpressure a real socket's send buffer provides.
pub fn pipe(capacity: usize) -> (PipeWriter, PipeReader) {
    pipe_with(capacity, None)
}

fn pipe_with(capacity: usize, meter: Option<ByteMeter>) -> (PipeWriter, PipeReader) {
    let state = Arc::new(Mutex::new(PipeState {
        buf: VecDeque::new(),
        capacity: capacity.max(1),
        writer_alive: true,
        reader_alive: true,
        read_waker: None,
        write_waker: None,
        meter,
    }));
    (
        PipeWriter {
            state: Arc::clone(&state),
        },
        PipeReader { state },
    )
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        crate::sched::point("pipe.write.drop");
        let mut s = self.state.lock().expect("pipe lock");
        s.writer_alive = false;
        let w = s.wake_reader();
        drop(s);
        if let Some(w) = w {
            w.wake();
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        crate::sched::point("pipe.read.drop");
        let mut s = self.state.lock().expect("pipe lock");
        s.reader_alive = false;
        let w = s.wake_writer();
        drop(s);
        if let Some(w) = w {
            w.wake();
        }
    }
}

impl PipeWriter {
    /// Writes the whole buffer, waiting for capacity as needed. Fails
    /// with [`WireError::Closed`] when the reader is gone.
    pub fn write_all<'a>(&'a mut self, bytes: &'a [u8]) -> WriteAll<'a> {
        WriteAll {
            state: &self.state,
            bytes,
            off: 0,
        }
    }
}

/// Future returned by [`PipeWriter::write_all`].
pub struct WriteAll<'a> {
    state: &'a Mutex<PipeState>,
    bytes: &'a [u8],
    off: usize,
}

impl Future for WriteAll<'_> {
    type Output = Result<(), WireError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        crate::sched::point("pipe.write.poll");
        // All fields are references or plain integers, so `WriteAll` is
        // `Unpin` and the safe projection suffices.
        let this = self.get_mut();
        // The reader's waker (if any) fires only after the pipe lock is
        // released: waking under the lock would make the woken side
        // contend immediately, and a model-thread switch while holding
        // a lock is forbidden (see `crate::sched`).
        let (out, wake) = {
            let mut s = this.state.lock().expect("pipe lock");
            let mut wake = None;
            let out = loop {
                if !s.reader_alive {
                    break Poll::Ready(Err(WireError::Closed));
                }
                let room = s.capacity.saturating_sub(s.buf.len());
                let want = this.bytes.len() - this.off;
                let n = room.min(want);
                if n > 0 {
                    let off = this.off;
                    s.buf.extend(&this.bytes[off..off + n]);
                    this.off += n;
                    if let Some(m) = &s.meter {
                        m.add(n);
                    }
                    if let Some(w) = s.wake_reader() {
                        wake = Some(w);
                    }
                }
                if this.off == this.bytes.len() {
                    break Poll::Ready(Ok(()));
                }
                if n == 0 {
                    s.write_waker = Some(cx.waker().clone());
                    break Poll::Pending;
                }
            };
            (out, wake)
        };
        if let Some(w) = wake {
            w.wake();
        }
        out
    }
}

impl PipeReader {
    /// Fills the whole buffer. Resolves `Ok(true)` on success,
    /// `Ok(false)` on a clean close before the first byte, and
    /// [`WireError::Closed`] on a close mid-buffer.
    pub fn read_exact<'a>(&'a mut self, into: &'a mut [u8]) -> ReadExact<'a> {
        ReadExact {
            state: &self.state,
            into,
            off: 0,
        }
    }
}

/// Future returned by [`PipeReader::read_exact`].
pub struct ReadExact<'a> {
    state: &'a Mutex<PipeState>,
    into: &'a mut [u8],
    off: usize,
}

impl Future for ReadExact<'_> {
    type Output = Result<bool, WireError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        crate::sched::point("pipe.read.poll");
        // `ReadExact` holds no self-references (references + an
        // offset), so it is `Unpin` and the safe projection suffices.
        let this = self.get_mut();
        // As in `WriteAll::poll`, the writer's waker fires only after
        // the pipe lock is released.
        let (out, wake) = {
            let mut s = this.state.lock().expect("pipe lock");
            let mut wake = None;
            let out = loop {
                let want = this.into.len() - this.off;
                let avail = s.buf.len().min(want);
                for (dst, src) in this.into[this.off..this.off + avail]
                    .iter_mut()
                    .zip(s.buf.drain(..avail))
                {
                    *dst = src;
                }
                if avail > 0 {
                    this.off += avail;
                    if let Some(w) = s.wake_writer() {
                        wake = Some(w);
                    }
                }
                if this.off == this.into.len() {
                    break Poll::Ready(Ok(true));
                }
                if !s.writer_alive {
                    break Poll::Ready(if this.off == 0 {
                        Ok(false)
                    } else {
                        Err(WireError::Closed)
                    });
                }
                if avail == 0 {
                    s.read_waker = Some(cx.waker().clone());
                    break Poll::Pending;
                }
            };
            (out, wake)
        };
        if let Some(w) = wake {
            w.wake();
        }
        out
    }
}

// ---------------------------------------------------------------------
// Framed connection
// ---------------------------------------------------------------------

/// One end of a duplex framed connection: an outbound pipe writer plus
/// an inbound pipe reader, speaking length-prefixed [`Envelope`]s.
pub struct WireConn {
    writer: PipeWriter,
    reader: PipeReader,
}

/// Creates a connected pair of framed duplex conns, each direction
/// bounded at `capacity` bytes.
pub fn duplex(capacity: usize) -> (WireConn, WireConn) {
    duplex_with(capacity, None)
}

/// [`duplex`], with every byte either side writes tallied on `meter`.
pub fn duplex_metered(capacity: usize, meter: &ByteMeter) -> (WireConn, WireConn) {
    duplex_with(capacity, Some(meter.clone()))
}

fn duplex_with(capacity: usize, meter: Option<ByteMeter>) -> (WireConn, WireConn) {
    let (aw, br) = pipe_with(capacity, meter.clone());
    let (bw, ar) = pipe_with(capacity, meter);
    (
        WireConn {
            writer: aw,
            reader: ar,
        },
        WireConn {
            writer: bw,
            reader: br,
        },
    )
}

impl WireConn {
    /// Sends one envelope as a single frame.
    pub async fn send(&mut self, env: &Envelope) -> Result<(), WireError> {
        send_frame(&mut self.writer, env).await
    }

    /// Receives one envelope; `Ok(None)` when the peer closed cleanly
    /// at a frame boundary.
    pub async fn recv(&mut self) -> Result<Option<Envelope>, WireError> {
        recv_frame(&mut self.reader).await
    }

    /// Splits the conn into independently-owned halves so a writer task
    /// and a reader task can serve the same connection concurrently.
    pub fn split(self) -> (WireSender, WireReceiver) {
        (
            WireSender {
                writer: self.writer,
            },
            WireReceiver {
                reader: self.reader,
            },
        )
    }

    /// Closes the conn; the other end sees a clean EOF at the next
    /// frame boundary.
    pub fn close(self) {
        drop(self);
    }
}

/// Outbound half of a split [`WireConn`].
pub struct WireSender {
    writer: PipeWriter,
}

impl WireSender {
    /// Sends one envelope as a single frame.
    pub async fn send(&mut self, env: &Envelope) -> Result<(), WireError> {
        send_frame(&mut self.writer, env).await
    }
}

/// Inbound half of a split [`WireConn`].
pub struct WireReceiver {
    reader: PipeReader,
}

impl WireReceiver {
    /// Receives one envelope; `Ok(None)` on clean close.
    pub async fn recv(&mut self) -> Result<Option<Envelope>, WireError> {
        recv_frame(&mut self.reader).await
    }
}

async fn send_frame(writer: &mut PipeWriter, env: &Envelope) -> Result<(), WireError> {
    let payload = env.encoded();
    debug_assert!(payload.len() <= MAX_FRAME, "outbound frame oversized");
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    writer.write_all(&frame).await
}

async fn recv_frame(reader: &mut PipeReader) -> Result<Option<Envelope>, WireError> {
    let mut len_buf = [0u8; 4];
    if !reader.read_exact(&mut len_buf).await? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len];
    if !reader.read_exact(&mut payload).await? {
        return Err(WireError::Closed);
    }
    Envelope::from_frame(&payload)
}

// ---------------------------------------------------------------------
// Envelope + messages
// ---------------------------------------------------------------------

/// One framed unit: a correlation id (echoed on replies so requesters
/// can match responses to requests) and the message body.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Correlation id; replies echo the request's.
    pub corr: u64,
    /// The payload.
    pub body: Message,
}

impl Envelope {
    /// Encodes the envelope (with its version byte) as a frame payload.
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(WIRE_VERSION);
        put_varint(&mut out, self.corr);
        self.body.encode_into(&mut out);
        out
    }

    /// Strictly decodes a frame payload, checking the version byte.
    pub fn from_frame(payload: &[u8]) -> Result<Option<Envelope>, WireError> {
        let mut r = Reader::new(payload);
        let version = r.take_u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::Version { got: version });
        }
        let corr = r.take_varint()?;
        let body = Message::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(Some(Envelope { corr, body }))
    }
}

/// One staged write travelling over the wire; mirrors the engine's
/// submission builder (shared-table ops vs. lens-translated source-table
/// ops).
#[derive(Clone, Debug, PartialEq)]
pub enum WireWrite {
    /// A write against the shared table itself.
    Shared(WriteOp),
    /// A write against one of the submitting peer's source tables,
    /// translated through the lens at wave time.
    Source {
        /// The peer-local source table.
        table: String,
        /// The operation.
        op: WriteOp,
    },
}

/// Flattened success outcome returned to wire clients. Receipts travel
/// verbatim (they are the auditable artifact and the determinism
/// fixture); the rest is the client-relevant summary of the in-process
/// `CommitOutcome`.
#[derive(Clone, Debug, PartialEq)]
pub struct WireCommit {
    /// Receipts of every transaction the commit produced, in commit
    /// order (request, acks, then cascades').
    pub receipts: Vec<Receipt>,
    /// The committed contract version of the table.
    pub version: u64,
    /// Attributes the contract permission-checked.
    pub changed_attrs: Vec<String>,
    /// Number of cascaded updates the Step-6 dependency check ran.
    pub cascades: u64,
    /// End-to-end latency until all peers saw the data (virtual ms).
    pub visibility_latency_ms: u64,
    /// Latency until the table unlocked for the next update (virtual ms).
    pub sync_latency_ms: u64,
}

/// Classification of a rejected submission, mirroring the engine's
/// `CommitError` taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectKind {
    /// The contract denied the write.
    PermissionDenied,
    /// The table still awaits acks for the previous version.
    Barrier,
    /// Any other on-chain revert.
    Reverted,
    /// The staged writes produced no observable shared-view change.
    NoChange,
    /// The submission carried no staged writes.
    EmptyBatch,
    /// Another queued update already claims the table.
    Conflicted,
    /// A sharing peer could not translate the new view into its source.
    Untranslatable,
    /// Any other engine failure.
    Engine,
    /// Committed on chain, but a post-commit step failed.
    AfterCommit,
}

impl RejectKind {
    fn tag(self) -> u8 {
        match self {
            RejectKind::PermissionDenied => 0,
            RejectKind::Barrier => 1,
            RejectKind::Reverted => 2,
            RejectKind::NoChange => 3,
            RejectKind::EmptyBatch => 4,
            RejectKind::Conflicted => 5,
            RejectKind::Untranslatable => 6,
            RejectKind::Engine => 7,
            RejectKind::AfterCommit => 8,
        }
    }

    fn from_tag(t: u8) -> Result<Self, StorageError> {
        Ok(match t {
            0 => RejectKind::PermissionDenied,
            1 => RejectKind::Barrier,
            2 => RejectKind::Reverted,
            3 => RejectKind::NoChange,
            4 => RejectKind::EmptyBatch,
            5 => RejectKind::Conflicted,
            6 => RejectKind::Untranslatable,
            7 => RejectKind::Engine,
            8 => RejectKind::AfterCommit,
            t => return Err(StorageError::Codec(format!("invalid reject kind {t}"))),
        })
    }
}

/// Flattened rejection returned to wire clients.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReject {
    /// The error class.
    pub kind: RejectKind,
    /// Human-readable reason.
    pub reason: String,
    /// The table the submission targeted (empty when not applicable).
    pub table_id: String,
    /// The reverted on-chain receipt, when one exists.
    pub receipt: Option<Receipt>,
}

impl fmt::Display for WireReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.reason)
    }
}

/// The protocol. Requests flow client → gateway; replies echo the
/// request's correlation id; outcomes the gateway pushes unasked at
/// shutdown carry corr 0.
///
/// Tags 6–11 are unassigned and refused on decode; the other tags stay
/// where they are so every frame keeps its bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client → gateway: stage `writes` against `table` as `peer`.
    Submit {
        /// Submitting peer, by registered name.
        peer: String,
        /// Target shared table.
        table: String,
        /// The staged writes, in order.
        writes: Vec<WireWrite>,
    },
    /// Client → gateway: ask after a ticket. With `park` set the reply
    /// is deferred until the ticket resolves (the event-driven wait);
    /// without it the gateway answers immediately (`Pending` or
    /// `Outcome`).
    Poll {
        /// The ticket under question.
        ticket: u64,
        /// Defer the reply until resolution instead of answering now.
        park: bool,
    },
    /// Gateway → client: the submission is admitted under `ticket`.
    Accepted {
        /// Ticket the outcome will resolve under.
        ticket: u64,
    },
    /// Gateway → client: the admission queue is full; try again after
    /// the suggested backoff.
    Overloaded {
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// Gateway → client: the ticket resolved.
    Outcome {
        /// The resolved ticket.
        ticket: u64,
        /// Commit summary or typed rejection.
        result: Result<WireCommit, WireReject>,
    },
    /// Gateway → client: the ticket has not resolved yet.
    Pending {
        /// The still-open ticket.
        ticket: u64,
    },
    /// Orderly shutdown request.
    Close,
    /// Orderly shutdown acknowledged; no further frames follow.
    Closed,
    /// Client → gateway: ask for a live statistics snapshot.
    StatsRequest,
    /// Gateway → client: the snapshot, as the JSON rendering of the
    /// gateway's deterministic counters plus (when a telemetry registry
    /// is installed) the full metric registry — the same `Snapshot`
    /// shape the bench `report` binary renders.
    Stats {
        /// JSON document; schema documented in `docs/OBSERVABILITY.md`.
        json: String,
    },
}

impl Message {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Submit {
                peer,
                table,
                writes,
            } => {
                out.push(0);
                peer.encode_into(out);
                table.encode_into(out);
                put_varint(out, writes.len() as u64);
                for w in writes {
                    match w {
                        WireWrite::Shared(op) => {
                            out.push(0);
                            op.encode_into(out);
                        }
                        WireWrite::Source { table, op } => {
                            out.push(1);
                            table.encode_into(out);
                            op.encode_into(out);
                        }
                    }
                }
            }
            Message::Poll { ticket, park } => {
                out.push(1);
                put_varint(out, *ticket);
                park.encode_into(out);
            }
            Message::Accepted { ticket } => {
                out.push(2);
                put_varint(out, *ticket);
            }
            Message::Overloaded { retry_after_ms } => {
                out.push(3);
                put_varint(out, *retry_after_ms);
            }
            Message::Outcome { ticket, result } => {
                out.push(4);
                put_varint(out, *ticket);
                match result {
                    Ok(commit) => {
                        out.push(0);
                        put_seq(out, &commit.receipts);
                        put_varint(out, commit.version);
                        put_seq(out, &commit.changed_attrs);
                        put_varint(out, commit.cascades);
                        put_varint(out, commit.visibility_latency_ms);
                        put_varint(out, commit.sync_latency_ms);
                    }
                    Err(reject) => {
                        out.push(1);
                        out.push(reject.kind.tag());
                        reject.reason.encode_into(out);
                        reject.table_id.encode_into(out);
                        reject.receipt.encode_into(out);
                    }
                }
            }
            Message::Pending { ticket } => {
                out.push(5);
                put_varint(out, *ticket);
            }
            Message::Close => out.push(12),
            Message::Closed => out.push(13),
            Message::StatsRequest => out.push(14),
            Message::Stats { json } => {
                out.push(15);
                json.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(match r.take_u8()? {
            0 => {
                let peer = String::decode_from(r)?;
                let table = String::decode_from(r)?;
                let (len, mut writes) = r.take_count()?;
                for _ in 0..len {
                    writes.push(match r.take_u8()? {
                        0 => WireWrite::Shared(WriteOp::decode_from(r)?),
                        1 => WireWrite::Source {
                            table: String::decode_from(r)?,
                            op: WriteOp::decode_from(r)?,
                        },
                        t => {
                            return Err(StorageError::Codec(format!("invalid wire-write tag {t}")))
                        }
                    });
                }
                Message::Submit {
                    peer,
                    table,
                    writes,
                }
            }
            1 => Message::Poll {
                ticket: r.take_varint()?,
                park: bool::decode_from(r)?,
            },
            2 => Message::Accepted {
                ticket: r.take_varint()?,
            },
            3 => Message::Overloaded {
                retry_after_ms: r.take_varint()?,
            },
            4 => {
                let ticket = r.take_varint()?;
                let result = match r.take_u8()? {
                    0 => Ok(WireCommit {
                        receipts: take_seq(r)?,
                        version: r.take_varint()?,
                        changed_attrs: take_seq(r)?,
                        cascades: r.take_varint()?,
                        visibility_latency_ms: r.take_varint()?,
                        sync_latency_ms: r.take_varint()?,
                    }),
                    1 => Err(WireReject {
                        kind: RejectKind::from_tag(r.take_u8()?)?,
                        reason: String::decode_from(r)?,
                        table_id: String::decode_from(r)?,
                        receipt: Option::decode_from(r)?,
                    }),
                    t => return Err(StorageError::Codec(format!("invalid outcome tag {t}"))),
                };
                Message::Outcome { ticket, result }
            }
            5 => Message::Pending {
                ticket: r.take_varint()?,
            },
            12 => Message::Close,
            13 => Message::Closed,
            14 => Message::StatsRequest,
            15 => Message::Stats {
                json: String::decode_from(r)?,
            },
            t => return Err(StorageError::Codec(format!("invalid message tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::Runtime;
    use medledger_ledger::TxStatus;
    use medledger_relational::{Row, Value};

    fn sample_receipt() -> Receipt {
        Receipt {
            tx_id: medledger_crypto::sha256(b"wire test"),
            status: TxStatus::Success,
            gas_used: 42,
            logs: Vec::new(),
        }
    }

    fn round_trip(env: &Envelope) {
        let bytes = env.encoded();
        let back = Envelope::from_frame(&bytes)
            .expect("decodes")
            .expect("some");
        assert_eq!(&back, env);
    }

    #[test]
    fn every_message_round_trips() {
        let messages = vec![
            Message::Submit {
                peer: "patient".into(),
                table: "clinical_data".into(),
                writes: vec![
                    WireWrite::Shared(WriteOp::Insert {
                        row: Row::new(vec![Value::Int(1), Value::text("x")]),
                    }),
                    WireWrite::Source {
                        table: "D13".into(),
                        op: WriteOp::Update {
                            key: vec![Value::Int(1)],
                            assignments: vec![("dosage".into(), Value::text("20mg"))],
                        },
                    },
                ],
            },
            Message::Poll {
                ticket: 7,
                park: true,
            },
            Message::Accepted { ticket: 7 },
            Message::Overloaded { retry_after_ms: 25 },
            Message::Outcome {
                ticket: 7,
                result: Ok(WireCommit {
                    receipts: vec![sample_receipt()],
                    version: 3,
                    changed_attrs: vec!["dosage".into()],
                    cascades: 1,
                    visibility_latency_ms: 12,
                    sync_latency_ms: 9,
                }),
            },
            Message::Outcome {
                ticket: 8,
                result: Err(WireReject {
                    kind: RejectKind::Barrier,
                    reason: "awaiting acks".into(),
                    table_id: "clinical_data".into(),
                    receipt: Some(sample_receipt()),
                }),
            },
            Message::Pending { ticket: 9 },
            Message::Close,
            Message::Closed,
            Message::StatsRequest,
            Message::Stats {
                json: r#"{"counters":{"chain.waves":4}}"#.into(),
            },
        ];
        for (i, body) in messages.into_iter().enumerate() {
            round_trip(&Envelope {
                corr: i as u64,
                body,
            });
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = Envelope {
            corr: 1,
            body: Message::Close,
        }
        .encoded();
        bytes[0] = WIRE_VERSION + 1;
        assert!(matches!(
            Envelope::from_frame(&bytes),
            Err(WireError::Version { .. })
        ));
    }

    #[test]
    fn retired_message_tags_are_refused() {
        // Tags 6–11 are unassigned: a frame carrying one fails to
        // decode instead of reading as another message.
        for tag in 6u8..=11 {
            let frame = [WIRE_VERSION, 0, tag, 1, b'x', 4];
            match Envelope::from_frame(&frame) {
                Err(WireError::Codec(StorageError::Codec(msg))) => {
                    assert_eq!(msg, format!("invalid message tag {tag}"))
                }
                other => panic!("tag {tag} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Envelope {
            corr: 1,
            body: Message::Close,
        }
        .encoded();
        bytes.push(0xFF);
        assert!(matches!(
            Envelope::from_frame(&bytes),
            Err(WireError::Codec(_))
        ));
    }

    #[test]
    fn framed_conns_exchange_envelopes() {
        let rt = Runtime::new(2);
        let (mut a, mut b) = duplex(DEFAULT_PIPE_CAPACITY);
        let server = rt.spawn(async move {
            let mut seen = Vec::new();
            while let Some(env) = b.recv().await.expect("recv") {
                let done = env.body == Message::Close;
                seen.push(env.body);
                if done {
                    break;
                }
            }
            seen
        });
        rt.block_on(async move {
            for body in [
                Message::Accepted { ticket: 1 },
                Message::Pending { ticket: 1 },
                Message::Close,
            ] {
                a.send(&Envelope { corr: 0, body }).await.expect("send");
            }
        });
        let seen = rt.block_on(server);
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], Message::Close);
    }

    #[test]
    fn small_pipes_apply_backpressure_without_deadlock() {
        // A frame much larger than the pipe: the writer must make
        // progress only as the reader drains.
        let rt = Runtime::new(2);
        let (mut a, mut b) = duplex(16);
        let big = Message::Submit {
            peer: "patient".into(),
            table: "clinical_data".into(),
            writes: (0..64)
                .map(|i| {
                    WireWrite::Shared(WriteOp::Insert {
                        row: Row::new(vec![Value::Int(i), Value::text("payload payload")]),
                    })
                })
                .collect(),
        };
        let expect = big.clone();
        let reader = rt.spawn(async move { b.recv().await.expect("recv").expect("frame") });
        rt.block_on(async move {
            a.send(&Envelope { corr: 9, body: big })
                .await
                .expect("send");
        });
        let got = rt.block_on(reader);
        assert_eq!(got.corr, 9);
        assert_eq!(got.body, expect);
    }

    #[test]
    fn dropped_writer_is_clean_eof_at_frame_boundary() {
        let rt = Runtime::new(1);
        let (a, mut b) = duplex(64);
        drop(a);
        let got = rt.block_on(async move { b.recv().await });
        assert!(matches!(got, Ok(None)));
    }
}
