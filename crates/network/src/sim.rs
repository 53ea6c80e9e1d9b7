//! The discrete-event network simulator.

use crate::latency::LatencyModel;
use medledger_crypto::Prg;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A node address on the simulated network.
pub type NodeId = u64;

/// A delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Virtual time of delivery (ms).
    pub at_ms: u64,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The message.
    pub msg: M,
}

/// Traffic accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages submitted for sending.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped by the loss model.
    pub dropped: u64,
    /// Total payload bytes sent (as reported by the caller).
    pub bytes: u64,
}

#[derive(Debug)]
struct Pending<M> {
    deliver_at: u64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

// BinaryHeap ordering: earliest deliver_at first (via Reverse), ties broken
// by send sequence for determinism.
impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// A deterministic virtual-time message network.
///
/// Messages are enqueued with a latency drawn from the model and delivered
/// in timestamp order by [`SimNet::step`]. The simulation clock only moves
/// when a message is delivered.
#[derive(Debug)]
pub struct SimNet<M> {
    now_ms: u64,
    latency: LatencyModel,
    drop_rate: f64,
    prg: Prg,
    queue: BinaryHeap<Reverse<Pending<M>>>,
    seq: u64,
    stats: NetStats,
}

impl<M> SimNet<M> {
    /// Creates a network with the given latency model, drop rate and seed.
    pub fn new(latency: LatencyModel, drop_rate: f64, seed: &str) -> Self {
        SimNet {
            now_ms: 0,
            latency,
            drop_rate,
            prg: Prg::from_label(seed),
            queue: BinaryHeap::new(),
            seq: 0,
            stats: NetStats::default(),
        }
    }

    /// Current virtual time (ms).
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of undelivered messages.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Sends `msg` from `from` to `to`; `bytes` is the payload size used
    /// for accounting. Returns the scheduled delivery time, or `None` if
    /// the loss model dropped the message.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M, bytes: usize) -> Option<u64> {
        self.stats.sent += 1;
        self.stats.bytes += bytes as u64;
        if self.drop_rate > 0.0 && self.prg.bernoulli(self.drop_rate) {
            self.stats.dropped += 1;
            return None;
        }
        let delay = self.latency.sample(&mut self.prg);
        let deliver_at = self.now_ms + delay.max(1);
        self.queue.push(Reverse(Pending {
            deliver_at,
            seq: self.seq,
            from,
            to,
            msg,
        }));
        self.seq += 1;
        Some(deliver_at)
    }

    /// Schedules a timer: a message from a node to itself after `delay_ms`
    /// (used for consensus timeouts and block-interval ticks). Timers are
    /// never dropped.
    pub fn schedule(&mut self, node: NodeId, msg: M, delay_ms: u64) -> u64 {
        let deliver_at = self.now_ms + delay_ms.max(1);
        self.queue.push(Reverse(Pending {
            deliver_at,
            seq: self.seq,
            from: node,
            to: node,
            msg,
        }));
        self.seq += 1;
        deliver_at
    }

    /// Delivers the next message, advancing the clock to its timestamp.
    pub fn step(&mut self) -> Option<Delivery<M>> {
        let Reverse(p) = self.queue.pop()?;
        debug_assert!(p.deliver_at >= self.now_ms, "time must not run backwards");
        self.now_ms = p.deliver_at;
        self.stats.delivered += 1;
        Some(Delivery {
            at_ms: p.deliver_at,
            from: p.from,
            to: p.to,
            msg: p.msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> SimNet<&'static str> {
        SimNet::new(LatencyModel::Constant { ms: 5 }, 0.0, "simnet-test")
    }

    #[test]
    fn delivery_in_timestamp_order() {
        let mut n = net();
        n.schedule(2, "b", 7);
        n.send(1, 2, "a", 1);
        let d1 = n.step().expect("first");
        let d2 = n.step().expect("second");
        assert_eq!(d1.msg, "a");
        assert_eq!(d1.at_ms, 5);
        assert_eq!(d2.msg, "b");
        assert_eq!(d2.at_ms, 7);
        assert!(n.step().is_none());
    }

    #[test]
    fn clock_advances_with_deliveries() {
        let mut n = net();
        n.send(1, 2, "x", 10);
        assert_eq!(n.now_ms(), 0);
        n.step();
        assert_eq!(n.now_ms(), 5);
    }

    #[test]
    fn ties_broken_by_send_order() {
        let mut n = net();
        n.send(1, 2, "first", 1);
        n.send(1, 3, "second", 1);
        assert_eq!(n.step().expect("d").msg, "first");
        assert_eq!(n.step().expect("d").msg, "second");
    }

    #[test]
    fn drop_rate_drops() {
        let mut n: SimNet<u32> = SimNet::new(LatencyModel::Constant { ms: 1 }, 0.5, "droppy");
        for i in 0..200 {
            n.send(0, 1, i, 1);
        }
        let s = n.stats();
        assert_eq!(s.sent, 200);
        assert!(s.dropped > 50 && s.dropped < 150, "dropped {}", s.dropped);
        assert_eq!(n.pending() as u64, 200 - s.dropped);
    }

    #[test]
    fn timers_fire_at_schedule() {
        let mut n = net();
        n.schedule(7, "tick", 100);
        n.send(1, 2, "msg", 1);
        assert_eq!(n.step().expect("d").msg, "msg");
        let t = n.step().expect("tick");
        assert_eq!(t.msg, "tick");
        assert_eq!(t.at_ms, 100);
        assert_eq!(t.to, 7);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut n: SimNet<u32> = SimNet::new(
                LatencyModel::Uniform {
                    min_ms: 1,
                    max_ms: 50,
                },
                0.1,
                "same",
            );
            for i in 0..50 {
                n.send(0, 1, i, 1);
            }
            let mut order = Vec::new();
            while let Some(d) = n.step() {
                order.push((d.at_ms, d.msg));
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn minimum_one_ms_latency() {
        let mut n: SimNet<u8> = SimNet::new(LatencyModel::Constant { ms: 0 }, 0.0, "zero");
        n.send(0, 1, 1, 1);
        assert_eq!(n.step().expect("d").at_ms, 1);
    }
}
