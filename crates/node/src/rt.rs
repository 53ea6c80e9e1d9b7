//! A hand-rolled multi-threaded async executor.
//!
//! The container this reproduction targets has no network access and no
//! async runtime crates, so the node runtime brings its own: a small
//! work queue of [`std::task::Wake`]-based tasks polled by a fixed pool
//! of worker threads, a timer thread driving [`Runtime::sleep`]
//! futures, and a [`Runtime::block_on`] entry point for synchronous
//! callers. One worker (`threads = 1`) gives a fully deterministic
//! single-lane schedule; more workers only change *where* a task polls,
//! never what the gateway commits (see the crate docs on determinism).
//!
//! The design is deliberately minimal — no I/O reactor (all I/O in this
//! crate is in-process [`crate::wire`] pipes that wake wakers directly),
//! no task priorities, no work stealing: a single injector queue behind
//! a mutex + condvar is plenty for thousands of mostly-parked session
//! tasks.
//!
//! The task state machine and quiescence accounting are traced through
//! [`crate::sched`] so the `medledger-check` model checker can explore
//! their interleavings; every `Ordering::` choice here is justified in
//! `crates/check/ordering_policy.toml` under the key named by the
//! `// ordering:` marker on the line.

use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::sched::{self, TracedAtomicBool, TracedAtomicU64, TracedAtomicU8};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

// Task lifecycle states. Transitions:
//   IDLE -(wake)-> SCHEDULED -(worker picks up)-> RUNNING
//   RUNNING -(poll Pending)-> IDLE
//   RUNNING -(wake during poll)-> RESCHEDULED -(poll ends)-> SCHEDULED
//   RUNNING -(poll Ready)-> COMPLETE
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const RESCHEDULED: u8 = 3;
const COMPLETE: u8 = 4;

struct Task {
    state: TracedAtomicU8,
    /// The future, present until completion. The mutex is never
    /// contended for polling (the state machine admits one runner), it
    /// only guards the drop-on-shutdown path.
    future: Mutex<Option<BoxFuture>>,
    core: Weak<Core>,
}

impl Task {
    fn new(fut: BoxFuture, core: &Arc<Core>) -> Arc<Self> {
        Arc::new(Task {
            state: TracedAtomicU8::new("rt.task.state", SCHEDULED),
            future: Mutex::new(Some(fut)),
            core: Arc::downgrade(core),
        })
    }

    /// Polls the task once; called by a worker after dequeueing.
    fn run(self: Arc<Self>) {
        sched::point("rt.task.run");
        // ordering: task-state
        self.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        let mut slot = self.future.lock().expect("task future lock");
        let Some(fut) = slot.as_mut() else {
            // ordering: task-state
            self.state.store(COMPLETE, Ordering::Release);
            return;
        };
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                *slot = None;
                // ordering: task-state
                self.state.store(COMPLETE, Ordering::Release);
            }
            Poll::Pending => {
                drop(slot);
                // If a waker fired mid-poll the task goes straight back
                // on the queue; otherwise it parks as IDLE.
                if self
                    .state
                    // ordering: task-state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // Must have been RESCHEDULED.
                    // ordering: task-state
                    self.state.store(SCHEDULED, Ordering::Release);
                    if let Some(core) = self.core.upgrade() {
                        core.enqueue(Arc::clone(&self));
                    }
                }
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        sched::point("rt.task.wake");
        loop {
            // ordering: task-state
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        // ordering: task-state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(core) = self.core.upgrade() {
                            core.enqueue(self);
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(
                            RUNNING,
                            RESCHEDULED,
                            // ordering: task-state
                            Ordering::AcqRel,
                            // ordering: task-state
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued (or finished): nothing to do.
                SCHEDULED | RESCHEDULED | COMPLETE => return,
                _ => unreachable!("invalid task state"),
            }
        }
    }
}

/// One pending [`Runtime::sleep`] registration.
struct TimerEntry {
    deadline: Instant,
    seq: u64,
    waker: Mutex<Option<Waker>>,
    fired: AtomicBool,
}

/// Heap adapter: earliest deadline first (ties broken by registration
/// order so firing is deterministic).
struct TimerRef(Arc<TimerEntry>);

impl PartialEq for TimerRef {
    fn eq(&self, other: &Self) -> bool {
        self.0.deadline == other.0.deadline && self.0.seq == other.0.seq
    }
}
impl Eq for TimerRef {}
impl PartialOrd for TimerRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min deadline.
        (other.0.deadline, other.0.seq).cmp(&(self.0.deadline, self.0.seq))
    }
}

struct Core {
    queue: Mutex<VecDeque<Arc<Task>>>,
    available: Condvar,
    shutdown: TracedAtomicBool,
    timers: Mutex<BinaryHeap<TimerRef>>,
    timer_wake: Condvar,
    timer_seq: AtomicU64,
    /// Tasks currently being polled by a worker; together with an empty
    /// run queue this defines quiescence (see [`Runtime::drain`]).
    active: TracedAtomicU64,
}

impl Core {
    fn new() -> Arc<Self> {
        Arc::new(Core {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: TracedAtomicBool::new("rt.shutdown", false),
            timers: Mutex::new(BinaryHeap::new()),
            timer_wake: Condvar::new(),
            timer_seq: AtomicU64::new(0),
            active: TracedAtomicU64::new("rt.active", 0),
        })
    }

    fn enqueue(&self, task: Arc<Task>) {
        sched::point("rt.enqueue");
        self.queue.lock().expect("run queue lock").push_back(task);
        self.available.notify_one();
    }

    /// Pops one queued task without blocking, counting it active while
    /// the queue lock is still held so [`Core::is_quiescent`] never
    /// observes "queue empty, nothing active" between the pop and the
    /// run. Returns `None` when shut down or empty. Shared by the
    /// worker loop and the model-checker [`probe`], so both drive the
    /// exact accounting the checker verifies.
    fn try_take(&self) -> Option<Arc<Task>> {
        sched::point("rt.pop");
        let mut q = self.queue.lock().expect("run queue lock");
        // ordering: run-queue-shutdown
        if self.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let t = q.pop_front()?;
        // ordering: active-tasks
        self.active.fetch_add(1, Ordering::AcqRel);
        Some(t)
    }

    /// Polls a taken task and retires its active count.
    fn finish_run(&self, task: Arc<Task>) {
        task.run();
        // ordering: active-tasks
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// True when no task is queued and none is mid-poll. Tasks parked
    /// on wakers don't count; they hold no scheduled work.
    fn is_quiescent(&self) -> bool {
        let queued = self.queue.lock().expect("run queue lock").len();
        // The gap between the two reads is where a racy implementation
        // would let `drain` return while a task is still mid-poll.
        sched::point("rt.quiescent.gap");
        if queued != 0 {
            return false;
        }
        #[cfg(not(feature = "order-mutant"))]
        // ordering: active-tasks
        let active = self.active.load(Ordering::Acquire);
        #[cfg(feature = "order-mutant")]
        // ordering: active-tasks-mutant
        let active = self.active.load(Ordering::Relaxed);
        active == 0
    }

    fn worker_loop(&self) {
        loop {
            // Fast path: grab work (same code the model-checker probe
            // drives).
            if let Some(task) = self.try_take() {
                self.finish_run(task);
                continue;
            }
            // Slow path: park on the condvar. `try_take` returning
            // `None` means "empty or shut down at that instant", so
            // re-check both under the lock before waiting — `enqueue`
            // and `shutdown` both touch the queue lock, which makes
            // this check/wait race-free.
            let q = self.queue.lock().expect("run queue lock");
            // ordering: run-queue-shutdown
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if !q.is_empty() {
                continue;
            }
            let _woken = self.available.wait(q).expect("run queue wait");
        }
    }

    fn timer_loop(&self) {
        let mut heap = self.timers.lock().expect("timer lock");
        loop {
            // ordering: run-queue-shutdown
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            // Fire everything due.
            while heap.peek().is_some_and(|t| t.0.deadline <= now) {
                let Some(TimerRef(entry)) = heap.pop() else {
                    break;
                };
                // ordering: timer-fired
                entry.fired.store(true, Ordering::Release);
                let waker = entry.waker.lock().expect("timer waker lock").take();
                if let Some(w) = waker {
                    w.wake();
                }
            }
            heap = match heap.peek().map(|t| t.0.deadline) {
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    self.timer_wake
                        .wait_timeout(heap, timeout)
                        .expect("timer wait")
                        .0
                }
                None => self.timer_wake.wait(heap).expect("timer wait"),
            };
        }
    }
}

/// The executor: a worker pool plus a timer thread.
///
/// Dropping the runtime shuts it down: queued tasks are dropped,
/// workers joined. Tasks still owning resources release them through
/// their destructors.
pub struct Runtime {
    core: Arc<Core>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Runtime {
    /// Starts a runtime with `workers` executor threads (clamped to at
    /// least one) plus one timer thread. `workers = 1` is the
    /// deterministic single-lane schedule.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let core = Core::new();
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let c = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("medledger-rt-{i}"))
                    .spawn(move || c.worker_loop())
                    // lint: allow(unwrap) — a runtime that cannot start its
                    // worker pool cannot run at all; construction aborts.
                    .expect("spawn worker"),
            );
        }
        let c = Arc::clone(&core);
        threads.push(
            std::thread::Builder::new()
                .name("medledger-rt-timer".into())
                .spawn(move || c.timer_loop())
                // lint: allow(unwrap) — same as worker spawn above.
                .expect("spawn timer thread"),
        );
        Runtime {
            core,
            threads: Mutex::new(threads),
        }
    }

    /// A cloneable handle for spawning from inside tasks.
    pub fn handle(&self) -> Handle {
        Handle {
            core: Arc::clone(&self.core),
        }
    }

    /// Spawns a future onto the worker pool; the [`JoinHandle`] resolves
    /// to its output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.handle().spawn(fut)
    }

    /// A future resolving after `dur` (driven by the timer thread).
    pub fn sleep(&self, dur: Duration) -> Sleep {
        self.handle().sleep(dur)
    }

    /// Runs `fut` to completion on the **caller's** thread, parking
    /// between polls. Spawned tasks keep running on the worker pool.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        struct Unparker {
            thread: std::thread::Thread,
            notified: AtomicBool,
        }
        impl Wake for Unparker {
            fn wake(self: Arc<Self>) {
                // ordering: block-on-park
                self.notified.store(true, Ordering::Release);
                self.thread.unpark();
            }
        }
        let unparker = Arc::new(Unparker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&unparker));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    // ordering: block-on-park
                    while !unparker.notified.swap(false, Ordering::AcqRel) {
                        std::thread::park();
                    }
                }
            }
        }
    }

    /// Waits (bounded by `timeout`) until the pool is quiescent: no
    /// task queued and none mid-poll. Used before [`Runtime::shutdown`]
    /// to let already-woken tasks — e.g. a session delivering a final
    /// outcome — finish instead of being dropped. Tasks parked on
    /// wakers (idle readers) don't count; they hold no scheduled work.
    /// Returns `true` if quiescence was reached.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.core.is_quiescent() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Stops workers and the timer thread, dropping queued tasks. Also
    /// runs on [`Drop`].
    pub fn shutdown(&self) {
        // Store the flag while holding the queue lock: a worker either
        // checks the flag before we take the lock (then its condvar
        // wait is entered before our notify and is woken by it), or
        // after (and sees `true`). Storing without the lock loses the
        // wakeup when the store lands between a worker's check and its
        // wait — a shutdown-time hang the model checker's
        // `rt-shutdown` scenario guards against.
        {
            let _q = self.core.queue.lock().expect("run queue lock");
            // ordering: run-queue-shutdown
            self.core.shutdown.store(true, Ordering::Release);
        }
        self.core.available.notify_all();
        // Same fence for the timer thread: its loop checks the flag
        // with the timer lock held, so an empty critical section orders
        // our store before its next check-or-wait.
        drop(self.core.timers.lock().expect("timer lock"));
        self.core.timer_wake.notify_all();
        let mut threads = self.threads.lock().expect("thread registry lock");
        for t in threads.drain(..) {
            let _ = t.join();
        }
        // Release queued tasks' resources deterministically.
        self.core.queue.lock().expect("run queue lock").clear();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cloneable spawn/sleep handle onto a [`Runtime`].
#[derive(Clone)]
pub struct Handle {
    core: Arc<Core>,
}

impl Handle {
    /// See [`Runtime::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (tx, rx) = crate::sync::oneshot();
        let task = Task::new(
            Box::pin(async move {
                let _ = tx.send(fut.await);
            }),
            &self.core,
        );
        self.core.enqueue(task);
        JoinHandle { rx }
    }

    /// See [`Runtime::sleep`].
    pub fn sleep(&self, dur: Duration) -> Sleep {
        Sleep {
            deadline: Instant::now() + dur,
            entry: None,
            core: Arc::downgrade(&self.core),
        }
    }
}

/// Resolves to the spawned task's output.
///
/// Panics if awaited after the runtime shut down underneath the task
/// (the only way the output can be lost).
pub struct JoinHandle<T> {
    rx: crate::sync::OneReceiver<T>,
}

impl<T> JoinHandle<T> {
    /// The task's output if it already completed, without waiting —
    /// usable even after the runtime stopped (the value survives in
    /// the completion slot).
    pub fn try_join(&mut self) -> Option<T> {
        self.rx.try_take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Some(v)) => Poll::Ready(v),
            Poll::Ready(None) => panic!("task dropped before completion (runtime shut down?)"),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Future returned by [`Runtime::sleep`].
pub struct Sleep {
    deadline: Instant,
    entry: Option<Arc<TimerEntry>>,
    core: Weak<Core>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        if let Some(entry) = &self.entry {
            // ordering: timer-fired
            if entry.fired.load(Ordering::Acquire) {
                return Poll::Ready(());
            }
            // Keep the registered waker current across task migrations.
            *entry.waker.lock().expect("timer waker lock") = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let Some(core) = self.core.upgrade() else {
            // Runtime gone: resolve immediately rather than hang.
            return Poll::Ready(());
        };
        let entry = Arc::new(TimerEntry {
            deadline: self.deadline,
            // ordering: timer-seq
            seq: core.timer_seq.fetch_add(1, Ordering::Relaxed),
            waker: Mutex::new(Some(cx.waker().clone())),
            fired: AtomicBool::new(false),
        });
        core.timers
            .lock()
            .expect("timer lock")
            .push(TimerRef(Arc::clone(&entry)));
        core.timer_wake.notify_all();
        self.entry = Some(entry);
        Poll::Pending
    }
}

#[doc(hidden)]
pub mod probe {
    //! Model-checker window onto the executor internals.
    //!
    //! Exposes the worker fast path ([`ExecutorProbe::poll_task`]), the
    //! quiescence predicate, and shutdown flagging as directly drivable
    //! steps, sharing the executor `Core`'s real code paths without
    //! spawning any OS worker threads — the `medledger-check` harness
    //! provides the "threads" and interleaves these calls. Hidden from
    //! docs because it is an internal testing contract, not runtime API.

    use super::*;

    /// Drives the executor core's queue, task state machine, and
    /// quiescence accounting one step at a time.
    pub struct ExecutorProbe {
        core: Arc<Core>,
    }

    impl Default for ExecutorProbe {
        fn default() -> Self {
            Self::new()
        }
    }

    impl ExecutorProbe {
        /// A core with no OS threads attached.
        pub fn new() -> Self {
            ExecutorProbe { core: Core::new() }
        }

        /// Spawns `fut` onto the probe's queue, returning an external
        /// wake handle for it.
        pub fn spawn<F>(&self, fut: F) -> TaskHandle
        where
            F: Future<Output = ()> + std::marker::Send + 'static,
        {
            let task = Task::new(Box::pin(fut), &self.core);
            self.core.enqueue(Arc::clone(&task));
            TaskHandle { task }
        }

        /// Pops and polls one queued task — the worker fast path.
        /// Returns `false` when the queue was empty or the core is
        /// shut down.
        pub fn poll_task(&self) -> bool {
            match self.core.try_take() {
                Some(t) => {
                    self.core.finish_run(t);
                    true
                }
                None => false,
            }
        }

        /// The [`Runtime::drain`] predicate: queue empty and no task
        /// mid-poll.
        pub fn is_quiescent(&self) -> bool {
            self.core.is_quiescent()
        }

        /// Tasks currently queued.
        pub fn queued(&self) -> usize {
            self.core.queue.lock().expect("run queue lock").len()
        }

        /// Flags shutdown exactly like [`Runtime::shutdown`] does
        /// (store under the queue lock), without joining any threads.
        pub fn begin_shutdown(&self) {
            let _q = self.core.queue.lock().expect("run queue lock");
            // ordering: run-queue-shutdown
            self.core.shutdown.store(true, Ordering::Release);
        }
    }

    /// External waker for a probe-spawned task.
    pub struct TaskHandle {
        task: Arc<Task>,
    }

    impl TaskHandle {
        /// Wakes the task exactly as a stored [`Waker`] would.
        pub fn wake(&self) {
            Wake::wake(Arc::clone(&self.task));
        }

        /// Whether the task has polled to completion.
        pub fn is_complete(&self) -> bool {
            // ordering: task-state
            self.task.state.load(Ordering::Acquire) == COMPLETE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn spawn_and_join() {
        let rt = Runtime::new(2);
        let h = rt.spawn(async { 2 + 2 });
        assert_eq!(rt.block_on(h), 4);
    }

    #[test]
    fn tasks_run_concurrently_across_workers() {
        let rt = Runtime::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let c = Arc::clone(&counter);
                rt.spawn(async move {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        rt.block_on(async {
            for h in handles {
                h.await;
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn sleep_resolves_and_orders() {
        let rt = Runtime::new(1);
        let start = Instant::now();
        rt.block_on(rt.sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn self_waking_task_makes_progress() {
        // A future that wakes itself from inside poll must be
        // rescheduled (RUNNING -> RESCHEDULED path), not lost.
        struct SelfWake {
            polls: usize,
        }
        impl Future for SelfWake {
            type Output = usize;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
                self.polls += 1;
                if self.polls >= 5 {
                    Poll::Ready(self.polls)
                } else {
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let rt = Runtime::new(2);
        let h = rt.spawn(SelfWake { polls: 0 });
        assert_eq!(rt.block_on(h), 5);
    }

    #[test]
    fn probe_drives_spawn_run_wake_cycle() {
        struct TwoPoll {
            polls: usize,
        }
        impl Future for TwoPoll {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                self.polls += 1;
                if self.polls >= 2 {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
        let p = probe::ExecutorProbe::new();
        let h = p.spawn(TwoPoll { polls: 0 });
        assert!(!p.is_quiescent());
        assert!(p.poll_task());
        // First poll returned Pending with no waker stored: parked.
        assert!(p.is_quiescent());
        h.wake();
        assert!(!p.is_quiescent());
        assert!(p.poll_task());
        assert!(h.is_complete());
        p.begin_shutdown();
        assert!(!p.poll_task());
    }
}
