//! The scenario library: small concurrent programs over the runtime's
//! real primitives whose invariants the model checker exhausts.
//!
//! Each scenario builds fresh state and returns closures that run as
//! model threads; assertions inside them (or in the post-run `finale`)
//! become checker failures with a replayable schedule. The [`broken`]
//! module carries intentionally-buggy doubles of two primitives — the
//! checker must find their bugs, which is what the regression tests
//! assert (including that replay from the printed seed is
//! deterministic).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use medledger_node::rt::probe::{ExecutorProbe, TaskHandle};
use medledger_node::sched;
use medledger_node::sync::{self, TryRecvError, TrySendError};
use medledger_node::wire;

use crate::model::block_on;

/// A named, rebuildable concurrent program for the checker.
pub struct Scenario {
    /// Stable name (CLI selector, failure reports).
    pub name: &'static str,
    /// Builds fresh state for one execution.
    pub build: fn() -> ScenarioRun,
}

/// One execution's worth of scenario state.
pub struct ScenarioRun {
    /// Model-thread bodies; assertions inside become failures.
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Runs on the host thread after all model threads finish (skipped
    /// if the run already failed); assertions here become failures too.
    pub finale: Option<Box<dyn FnOnce()>>,
}

/// Every production scenario (the `broken` doubles are separate).
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "oneshot-send-take",
            build: oneshot_send_take,
        },
        Scenario {
            name: "oneshot-drop-vs-poll",
            build: oneshot_drop_vs_poll,
        },
        Scenario {
            name: "mpsc-handoff",
            build: mpsc_handoff,
        },
        Scenario {
            name: "mpsc-try-send-vs-recv-drop",
            build: mpsc_try_send_vs_recv_drop,
        },
        Scenario {
            name: "pipe-backpressure",
            build: pipe_backpressure,
        },
        Scenario {
            name: "rt-quiescence",
            build: rt_quiescence,
        },
        Scenario {
            name: "rt-wake-vs-park",
            build: rt_wake_vs_park,
        },
        Scenario {
            name: "rt-shutdown",
            build: rt_shutdown,
        },
        Scenario {
            name: "pump-request-reply",
            build: pump_request_reply,
        },
    ]
}

/// Looks a scenario up by name, searching production scenarios first,
/// then the [`broken`] doubles.
pub fn by_name(name: &str) -> Option<Scenario> {
    all()
        .into_iter()
        .chain(broken::all())
        .find(|s| s.name == name)
}

// ---------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------

/// The value sent through a oneshot arrives exactly once, whether the
/// receiver races in with `try_take` or parks in the future.
fn oneshot_send_take() -> ScenarioRun {
    let (tx, mut rx) = sync::oneshot::<u32>();
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);
    let got3 = Arc::clone(&got);
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                tx.send(7).expect("receiver alive");
            }),
            Box::new(move || {
                let v = match rx.try_take() {
                    Some(v) => v,
                    None => block_on(rx).expect("sender completed before drop"),
                };
                got2.lock().expect("got lock").push(v);
            }),
        ],
        finale: Some(Box::new(move || {
            assert_eq!(
                *got3.lock().expect("got lock"),
                vec![7],
                "oneshot value must arrive exactly once"
            );
        })),
    }
}

/// Dropping the sender resolves a parked receiver with `None` instead
/// of leaving it parked forever.
fn oneshot_drop_vs_poll() -> ScenarioRun {
    let (tx, rx) = sync::oneshot::<u32>();
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                drop(tx);
            }),
            Box::new(move || {
                assert_eq!(block_on(rx), None, "dropped sender must yield None");
            }),
        ],
        finale: None,
    }
}

// ---------------------------------------------------------------------
// bounded mpsc
// ---------------------------------------------------------------------

/// Capacity-1 handoff: three values cross a full/empty boundary each.
/// A lost waker on either side surfaces as a model deadlock; reordering
/// or duplication trips the finale.
fn mpsc_handoff() -> ScenarioRun {
    let (tx, mut rx) = sync::channel::<u32>(1);
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);
    let got3 = Arc::clone(&got);
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                for i in 0..3 {
                    block_on(tx.send(i)).expect("receiver alive");
                }
            }),
            Box::new(move || {
                while let Some(v) = block_on(rx.recv()) {
                    got2.lock().expect("got lock").push(v);
                }
            }),
        ],
        finale: Some(Box::new(move || {
            assert_eq!(
                *got3.lock().expect("got lock"),
                vec![0, 1, 2],
                "handoff must deliver every value in order"
            );
        })),
    }
}

/// `try_send` racing the receiver's drop: `Closed` must be terminal
/// (no `Ok` after it), and whatever the receiver took before dropping
/// must be an in-order prefix.
fn mpsc_try_send_vs_recv_drop() -> ScenarioRun {
    let (tx, mut rx) = sync::channel::<u32>(1);
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);
    let got3 = Arc::clone(&got);
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                let mut closed = false;
                let mut sent = 0u32;
                for _ in 0..64 {
                    match tx.try_send(sent) {
                        Ok(()) => {
                            assert!(!closed, "Ok after Closed: channel came back to life");
                            sent += 1;
                            if sent == 3 {
                                break;
                            }
                        }
                        Err(TrySendError::Full(_)) => sched::point("scn.trysend.retry"),
                        Err(TrySendError::Closed(_)) => closed = true,
                    }
                }
            }),
            Box::new(move || {
                for _ in 0..2 {
                    match rx.try_recv() {
                        Ok(v) => got2.lock().expect("got lock").push(v),
                        Err(TryRecvError::Empty) => sched::point("scn.tryrecv.retry"),
                        Err(TryRecvError::Closed) => break,
                    }
                }
                drop(rx);
            }),
        ],
        finale: Some(Box::new(move || {
            let got = got3.lock().expect("got lock");
            let prefix: Vec<u32> = (0..got.len() as u32).collect();
            assert_eq!(*got, prefix, "receiver must see an in-order prefix");
        })),
    }
}

// ---------------------------------------------------------------------
// pipe
// ---------------------------------------------------------------------

/// A 16-byte write through a 4-byte pipe: backpressure forces repeated
/// park/wake handoffs in both directions; a lost waker deadlocks the
/// model, and the finale checks the bytes crossed intact.
fn pipe_backpressure() -> ScenarioRun {
    let (mut w, mut r) = wire::pipe(4);
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);
    let got3 = Arc::clone(&got);
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                let data: Vec<u8> = (0..16).collect();
                block_on(w.write_all(&data)).expect("reader alive");
            }),
            Box::new(move || {
                let mut buf = [0u8; 16];
                assert!(
                    matches!(block_on(r.read_exact(&mut buf)), Ok(true)),
                    "full frame must arrive"
                );
                got2.lock().expect("got lock").extend_from_slice(&buf);
                let mut one = [0u8; 1];
                assert!(
                    matches!(block_on(r.read_exact(&mut one)), Ok(false)),
                    "writer drop must read as clean EOF"
                );
            }),
        ],
        finale: Some(Box::new(move || {
            let want: Vec<u8> = (0..16).collect();
            assert_eq!(
                *got3.lock().expect("got lock"),
                want,
                "bytes must cross intact"
            );
        })),
    }
}

// ---------------------------------------------------------------------
// executor (via rt::probe)
// ---------------------------------------------------------------------

/// Future that yields a switch point mid-poll, then records completion.
struct MidPoint {
    done: Arc<AtomicUsize>,
}

impl std::future::Future for MidPoint {
    type Output = ();
    fn poll(
        self: std::pin::Pin<&mut Self>,
        _cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        // The window: the executor has dequeued this task (queue empty,
        // active == 1) but the completion below has not happened yet.
        sched::point("scn.task.mid");
        self.done.fetch_add(1, Ordering::SeqCst);
        std::task::Poll::Ready(())
    }
}

/// `is_quiescent()` must never report quiescence while a spawned task
/// is still mid-poll. This is the scenario that catches the seeded
/// `order-mutant` build: a `Relaxed` load of the `active` counter can
/// observe a stale zero inside `MidPoint`'s window.
fn rt_quiescence() -> ScenarioRun {
    let probe = Arc::new(ExecutorProbe::new());
    let probe2 = Arc::clone(&probe);
    let done = Arc::new(AtomicUsize::new(0));
    let done2 = Arc::clone(&done);
    let spawned = Arc::new(AtomicBool::new(false));
    let spawned2 = Arc::clone(&spawned);
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                let _handle = probe.spawn(MidPoint { done });
                spawned.store(true, Ordering::SeqCst);
                probe.poll_task();
            }),
            Box::new(move || {
                for _ in 0..4 {
                    sched::point("scn.quiescence.check");
                    if spawned2.load(Ordering::SeqCst) && probe2.is_quiescent() {
                        assert!(
                            done2.load(Ordering::SeqCst) >= 1,
                            "quiescent while the spawned task is still mid-poll"
                        );
                    }
                }
            }),
        ],
        finale: None,
    }
}

/// Future that parks on a flag with the check/register/recheck protocol
/// (the recheck closes the set-flag-before-waker-stored race).
struct FlagFuture {
    flag: Arc<AtomicBool>,
}

impl std::future::Future for FlagFuture {
    type Output = ();
    fn poll(
        self: std::pin::Pin<&mut Self>,
        _cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        if self.flag.load(Ordering::SeqCst) {
            return std::task::Poll::Ready(());
        }
        // The executor's task state machine is the waker here: the
        // peer calls `TaskHandle::wake` after setting the flag, so a
        // RUNNING task re-enqueues via RESCHEDULED. The recheck covers
        // a flag set during this poll but before the wake.
        sched::point("scn.flag.recheck");
        if self.flag.load(Ordering::SeqCst) {
            return std::task::Poll::Ready(());
        }
        std::task::Poll::Pending
    }
}

/// A wake racing the task going idle must never be lost: afterwards the
/// task has either completed or is back on the queue.
fn rt_wake_vs_park() -> ScenarioRun {
    let probe = Arc::new(ExecutorProbe::new());
    let probe3 = Arc::clone(&probe);
    let flag = Arc::new(AtomicBool::new(false));
    let flag2 = Arc::clone(&flag);
    let handle: Arc<Mutex<Option<Arc<TaskHandle>>>> = Arc::new(Mutex::new(None));
    let handle2 = Arc::clone(&handle);
    let handle3 = Arc::clone(&handle);
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                let h = Arc::new(probe.spawn(FlagFuture { flag }));
                *handle.lock().expect("handle lock") = Some(Arc::clone(&h));
                for _ in 0..6 {
                    if h.is_complete() {
                        break;
                    }
                    probe.poll_task();
                    sched::point("scn.poller.loop");
                }
            }),
            Box::new(move || {
                flag2.store(true, Ordering::SeqCst);
                sched::point("scn.waker.gap");
                let h = handle2.lock().expect("handle lock").clone();
                if let Some(h) = h {
                    h.wake();
                }
            }),
        ],
        finale: Some(Box::new(move || {
            let h = handle3.lock().expect("handle lock").clone();
            if let Some(h) = h {
                assert!(
                    h.is_complete() || probe3.queued() > 0,
                    "wake was lost: task neither complete nor queued"
                );
            }
        })),
    }
}

/// After shutdown is observed on a thread, that thread must never be
/// handed another task (the steal-vs-shutdown race).
fn rt_shutdown() -> ScenarioRun {
    let probe = Arc::new(ExecutorProbe::new());
    let probe2 = Arc::clone(&probe);
    let done = Arc::new(AtomicUsize::new(0));
    let done2 = Arc::clone(&done);
    let done3 = Arc::clone(&done);
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                for _ in 0..2 {
                    let d = Arc::clone(&done);
                    probe.spawn(async move {
                        d.fetch_add(1, Ordering::SeqCst);
                    });
                    sched::point("scn.spawner.loop");
                    probe.poll_task();
                }
            }),
            Box::new(move || {
                probe2.begin_shutdown();
                let before = done2.load(Ordering::SeqCst);
                assert!(
                    !probe2.poll_task(),
                    "task handed out after this thread initiated shutdown"
                );
                assert!(
                    done2.load(Ordering::SeqCst) >= before,
                    "completion count moved backwards"
                );
            }),
        ],
        finale: Some(Box::new(move || {
            assert!(
                done3.load(Ordering::SeqCst) <= 2,
                "more completions than spawned tasks"
            );
        })),
    }
}

// ---------------------------------------------------------------------
// gateway pump model
// ---------------------------------------------------------------------

/// The gateway's request/reply path in miniature: `Deployment::{pump,
/// stats, shutdown}` each send a `PumpEvent` carrying a `OneSender` to
/// the one pump task and block on the reply. Two callers send over a
/// capacity-1 channel; the pump serves one request at a time and answers
/// over each oneshot. The busy flag asserts the pump never serves two
/// requests at once across its switch point; a lost waker anywhere in
/// the chain deadlocks.
fn pump_request_reply() -> ScenarioRun {
    let (req_tx, mut req_rx) = sync::channel::<(u32, sync::OneSender<u32>)>(1);
    let req_tx2 = req_tx.clone();
    let served = Arc::new(AtomicUsize::new(0));
    let served2 = Arc::clone(&served);
    let served3 = Arc::clone(&served);
    let busy = Arc::new(AtomicBool::new(false));
    ScenarioRun {
        threads: vec![
            Box::new(move || {
                for n in 0..2u32 {
                    let (caller, reply) = block_on(req_rx.recv()).expect("callers alive");
                    assert!(
                        !busy.swap(true, Ordering::SeqCst),
                        "pump served two requests at once"
                    );
                    sched::point("scn.pump.serve");
                    busy.store(false, Ordering::SeqCst);
                    served2.fetch_add(1, Ordering::SeqCst);
                    let _ = caller;
                    let _ = reply.send(n);
                }
            }),
            Box::new(move || {
                let (reply_tx, reply_rx) = sync::oneshot::<u32>();
                assert!(block_on(req_tx.send((0, reply_tx))).is_ok(), "pump alive");
                assert!(block_on(reply_rx).is_some(), "pump must answer caller 0");
            }),
            Box::new(move || {
                let (reply_tx, reply_rx) = sync::oneshot::<u32>();
                assert!(block_on(req_tx2.send((1, reply_tx))).is_ok(), "pump alive");
                assert!(block_on(reply_rx).is_some(), "pump must answer caller 1");
            }),
        ],
        finale: Some(Box::new(move || {
            assert_eq!(
                served3.load(Ordering::SeqCst),
                2,
                "pump must serve both callers"
            );
        })),
    }
}

// ---------------------------------------------------------------------
// intentionally broken doubles
// ---------------------------------------------------------------------

/// Buggy primitive doubles the checker must catch. These back the
/// regression tests: each scenario here has a schedule the checker
/// finds (and replays deterministically from its printed seed/trace).
pub mod broken {
    use super::*;
    use std::pin::Pin;
    use std::task::{Context, Poll, Waker};

    /// Both broken scenarios.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "broken-notify",
                build: broken_notify,
            },
            Scenario {
                name: "broken-channel",
                build: broken_channel,
            },
        ]
    }

    struct BNotifyState {
        generation: u64,
        wakers: Vec<Waker>,
    }

    /// A broadcast-notify double with a lost-wake-up bug: the generation
    /// is captured at **first poll** instead of at `notified()`, so a
    /// notify landing in between is invisible and the waiter parks
    /// forever.
    #[derive(Clone)]
    struct BrokenNotify {
        state: Arc<Mutex<BNotifyState>>,
    }

    impl BrokenNotify {
        fn new() -> Self {
            BrokenNotify {
                state: Arc::new(Mutex::new(BNotifyState {
                    generation: 0,
                    wakers: Vec::new(),
                })),
            }
        }

        fn notified(&self) -> BrokenNotified {
            sched::point("scn.bnotify.notified");
            BrokenNotified {
                state: Arc::clone(&self.state),
                observed: None,
            }
        }

        fn notify_waiters(&self) {
            sched::point("scn.bnotify.notify");
            let wakers: Vec<Waker> = {
                let mut s = self.state.lock().expect("bnotify lock");
                s.generation += 1;
                s.wakers.drain(..).collect()
            };
            for w in wakers {
                w.wake();
            }
        }
    }

    struct BrokenNotified {
        state: Arc<Mutex<BNotifyState>>,
        observed: Option<u64>,
    }

    impl std::future::Future for BrokenNotified {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            sched::point("scn.bnotify.poll");
            let this = self.get_mut();
            let mut s = this.state.lock().expect("bnotify lock");
            // BUG: first poll adopts whatever generation exists *now*.
            let observed = *this.observed.get_or_insert(s.generation);
            if s.generation != observed {
                return Poll::Ready(());
            }
            s.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }

    fn broken_notify() -> ScenarioRun {
        let n = BrokenNotify::new();
        let n2 = n.clone();
        let ready = Arc::new(AtomicBool::new(false));
        let ready2 = Arc::clone(&ready);
        ScenarioRun {
            threads: vec![
                Box::new(move || {
                    // The canonical create-future / check-condition /
                    // await pattern; with first-poll capture the notify
                    // can land in the window between the `ready` check
                    // and the first poll, and the waiter parks forever.
                    loop {
                        let fut = n.notified();
                        sched::point("scn.bnotify.gap");
                        if ready.load(Ordering::SeqCst) {
                            break;
                        }
                        block_on(fut);
                    }
                }),
                Box::new(move || {
                    ready2.store(true, Ordering::SeqCst);
                    n2.notify_waiters();
                }),
            ],
            finale: None,
        }
    }

    struct BChanState {
        queue: Vec<u32>,
        capacity: usize,
        send_waker: Option<Waker>,
        receiver_alive: bool,
    }

    /// Bounded-channel double whose receiver drop forgets to wake a
    /// parked sender — the exact waker-loss class the real channel's
    /// `Drop` handles.
    struct BrokenChan {
        state: Arc<Mutex<BChanState>>,
    }

    struct BrokenReceiver {
        state: Arc<Mutex<BChanState>>,
    }

    impl Drop for BrokenReceiver {
        fn drop(&mut self) {
            sched::point("scn.bchan.recv.drop");
            let mut s = self.state.lock().expect("bchan lock");
            s.receiver_alive = false;
            // BUG: a parked sender's waker is left in place, never
            // fired: the sender stays parked forever.
        }
    }

    struct BSend<'a> {
        chan: &'a BrokenChan,
        value: u32,
    }

    impl std::future::Future for BSend<'_> {
        type Output = Result<(), u32>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<(), u32>> {
            sched::point("scn.bchan.send.poll");
            let mut s = self.chan.state.lock().expect("bchan lock");
            if !s.receiver_alive {
                return Poll::Ready(Err(self.value));
            }
            if s.queue.len() < s.capacity {
                let v = self.value;
                s.queue.push(v);
                return Poll::Ready(Ok(()));
            }
            s.send_waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    fn broken_channel() -> ScenarioRun {
        let state = Arc::new(Mutex::new(BChanState {
            queue: Vec::new(),
            capacity: 1,
            send_waker: None,
            receiver_alive: true,
        }));
        let chan = BrokenChan {
            state: Arc::clone(&state),
        };
        let rx = BrokenReceiver { state };
        ScenarioRun {
            threads: vec![
                Box::new(move || {
                    // Second send parks once the capacity-1 queue is
                    // full; only the receiver (which never drains and
                    // then drops without waking) could release it.
                    let _ = block_on(BSend {
                        chan: &chan,
                        value: 1,
                    });
                    let _ = block_on(BSend {
                        chan: &chan,
                        value: 2,
                    });
                }),
                Box::new(move || {
                    sched::point("scn.bchan.drop.gap");
                    drop(rx);
                }),
            ],
            finale: None,
        }
    }
}
