//! Waker-based async synchronization primitives.
//!
//! Channels ([`channel`], [`unbounded`]) and one-shot rendezvous
//! ([`oneshot`]). Neither knows about the executor — they park wakers
//! and wake them — so they compose with [`crate::rt::Runtime`], with
//! `block_on` on a plain thread, or with any other future-driving loop.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use crate::sched;

// ---------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------

struct OneState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_alive: bool,
    receiver_alive: bool,
}

/// Sends the single value of a [`oneshot`] pair.
pub struct OneSender<T> {
    inner: Arc<Mutex<OneState<T>>>,
}

/// Receives the single value of a [`oneshot`] pair; a future resolving
/// to `Some(value)` or `None` when the sender dropped without sending.
pub struct OneReceiver<T> {
    inner: Arc<Mutex<OneState<T>>>,
}

/// Creates a single-use value rendezvous.
pub fn oneshot<T>() -> (OneSender<T>, OneReceiver<T>) {
    let inner = Arc::new(Mutex::new(OneState {
        value: None,
        waker: None,
        sender_alive: true,
        receiver_alive: true,
    }));
    (
        OneSender {
            inner: Arc::clone(&inner),
        },
        OneReceiver { inner },
    )
}

impl<T> OneSender<T> {
    /// Delivers the value; `Err(v)` when the receiver is gone.
    pub fn send(self, v: T) -> Result<(), T> {
        sched::point("oneshot.send");
        let mut s = self.inner.lock().expect("oneshot lock");
        if !s.receiver_alive {
            return Err(v);
        }
        s.value = Some(v);
        if let Some(w) = s.waker.take() {
            drop(s);
            w.wake();
        }
        Ok(())
    }
}

impl<T> Drop for OneSender<T> {
    fn drop(&mut self) {
        sched::point("oneshot.send.drop");
        let mut s = self.inner.lock().expect("oneshot lock");
        s.sender_alive = false;
        if let Some(w) = s.waker.take() {
            drop(s);
            w.wake();
        }
    }
}

impl<T> OneReceiver<T> {
    /// Takes the value if it was already sent, without waiting.
    pub fn try_take(&mut self) -> Option<T> {
        sched::point("oneshot.try_take");
        self.inner.lock().expect("oneshot lock").value.take()
    }
}

impl<T> Future for OneReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        sched::point("oneshot.recv.poll");
        let mut s = self.inner.lock().expect("oneshot lock");
        if let Some(v) = s.value.take() {
            return Poll::Ready(Some(v));
        }
        if !s.sender_alive {
            return Poll::Ready(None);
        }
        s.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl<T> Drop for OneReceiver<T> {
    fn drop(&mut self) {
        sched::point("oneshot.recv.drop");
        self.inner.lock().expect("oneshot lock").receiver_alive = false;
    }
}

// ---------------------------------------------------------------------
// mpsc
// ---------------------------------------------------------------------

struct ChanState<T> {
    queue: VecDeque<T>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    senders: usize,
    receiver_alive: bool,
    recv_waker: Option<Waker>,
    send_wakers: VecDeque<Waker>,
}

struct ChanInner<T> {
    state: Mutex<ChanState<T>>,
}

/// Sending half of an mpsc channel (cloneable).
pub struct Sender<T> {
    inner: Arc<ChanInner<T>>,
}

/// Receiving half of an mpsc channel.
pub struct Receiver<T> {
    inner: Arc<ChanInner<T>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the undelivered value.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug)]
pub enum TrySendError<T> {
    /// The bounded channel is at capacity.
    Full(T),
    /// The receiver is gone.
    Closed(T),
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// No value currently queued.
    Empty,
    /// Every sender is gone and the queue is drained.
    Closed,
}

/// Creates a bounded mpsc channel: `send` applies backpressure once
/// `capacity` values are queued.
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    new_chan(Some(capacity.max(1)))
}

/// Creates an unbounded mpsc channel (`send` never waits).
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    new_chan(None)
}

fn new_chan<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(ChanInner {
        state: Mutex::new(ChanState {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receiver_alive: true,
            recv_waker: None,
            send_wakers: VecDeque::new(),
        }),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().expect("chan lock").senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        sched::point("mpsc.send.drop");
        let mut s = self.inner.state.lock().expect("chan lock");
        s.senders -= 1;
        if s.senders == 0 {
            if let Some(w) = s.recv_waker.take() {
                drop(s);
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Queues `v`, waiting for space on a bounded channel.
    pub fn send(&self, v: T) -> Send<'_, T> {
        Send {
            chan: self,
            value: Some(v),
        }
    }

    /// Queues `v` without waiting.
    pub fn try_send(&self, v: T) -> Result<(), TrySendError<T>> {
        sched::point("mpsc.try_send");
        let mut s = self.inner.state.lock().expect("chan lock");
        if !s.receiver_alive {
            return Err(TrySendError::Closed(v));
        }
        if s.capacity.is_some_and(|cap| s.queue.len() >= cap) {
            return Err(TrySendError::Full(v));
        }
        s.queue.push_back(v);
        if let Some(w) = s.recv_waker.take() {
            drop(s);
            w.wake();
        }
        Ok(())
    }
}

/// Future returned by [`Sender::send`].
pub struct Send<'a, T> {
    chan: &'a Sender<T>,
    value: Option<T>,
}

// `Send` holds a shared reference and an owned `Option<T>` — no
// self-references, nothing whose address the future relies on — so
// pinning it guarantees nothing and the impl is unconditionally sound.
// (The auto-impl would require `T: Unpin`; this lifts that bound so the
// projection below can use the safe `Pin::get_mut`.)
impl<T> Unpin for Send<'_, T> {}

impl<T> Future for Send<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        sched::point("mpsc.send.poll");
        let this = self.get_mut();
        let v = this
            .value
            .take()
            // lint: allow(unwrap) — contract: a `Send` future must not be
            // polled again after it returned `Ready`; the panic is the
            // diagnostic for that caller bug, not a recoverable state.
            .expect("polled after completion");
        let mut s = this.chan.inner.state.lock().expect("chan lock");
        if !s.receiver_alive {
            return Poll::Ready(Err(SendError(v)));
        }
        if s.capacity.is_some_and(|cap| s.queue.len() >= cap) {
            this.value = Some(v);
            s.send_wakers.push_back(cx.waker().clone());
            return Poll::Pending;
        }
        s.queue.push_back(v);
        if let Some(w) = s.recv_waker.take() {
            drop(s);
            w.wake();
        }
        Poll::Ready(Ok(()))
    }
}

impl<T> Receiver<T> {
    /// Awaits the next value; `None` once every sender dropped and the
    /// queue drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { chan: self }
    }

    /// Pops a queued value without waiting.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        sched::point("mpsc.try_recv");
        let mut s = self.inner.state.lock().expect("chan lock");
        match s.queue.pop_front() {
            Some(v) => {
                if let Some(w) = s.send_wakers.pop_front() {
                    drop(s);
                    w.wake();
                }
                Ok(v)
            }
            None if s.senders == 0 => Err(TryRecvError::Closed),
            None => Err(TryRecvError::Empty),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        sched::point("mpsc.recv.drop");
        let mut s = self.inner.state.lock().expect("chan lock");
        s.receiver_alive = false;
        s.queue.clear();
        let wakers: Vec<Waker> = s.send_wakers.drain(..).collect();
        drop(s);
        for w in wakers {
            w.wake();
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    chan: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        sched::point("mpsc.recv.poll");
        // `Recv` is just a mutable borrow (always `Unpin`), so the safe
        // projection suffices.
        let this = self.get_mut();
        let mut s = this.chan.inner.state.lock().expect("chan lock");
        if let Some(v) = s.queue.pop_front() {
            if let Some(w) = s.send_wakers.pop_front() {
                drop(s);
                w.wake();
            }
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        s.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::Runtime;

    #[test]
    fn oneshot_round_trips() {
        let rt = Runtime::new(1);
        let (tx, rx) = oneshot();
        rt.spawn(async move {
            tx.send(7u32).expect("receiver alive");
        });
        assert_eq!(rt.block_on(rx), Some(7));
    }

    #[test]
    fn oneshot_reports_dropped_sender() {
        let rt = Runtime::new(1);
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        assert_eq!(rt.block_on(rx), None);
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let rt = Runtime::new(2);
        let (tx, mut rx) = channel::<u32>(2);
        let producer = rt.spawn(async move {
            for i in 0..10 {
                tx.send(i).await.expect("receiver alive");
            }
        });
        let consumer = rt.spawn(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        rt.block_on(producer);
        assert_eq!(rt.block_on(consumer), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn try_send_reports_full_and_closed() {
        let (tx, mut rx) = channel::<u32>(1);
        tx.try_send(1).expect("space");
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.try_recv(), Ok(1));
        drop(rx);
        assert!(matches!(tx.try_send(3), Err(TrySendError::Closed(3))));
    }

    #[test]
    fn recv_sees_closed_after_senders_drop() {
        let rt = Runtime::new(1);
        let (tx, mut rx) = unbounded::<u32>();
        tx.try_send(1).expect("unbounded");
        drop(tx);
        rt.block_on(async {
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.recv().await, None);
        });
    }
}
