//! A virtual epoll: deterministic event multiplexing in simulated time.
//!
//! The HotCalls pay-off case is IO concurrency far beyond the lane count —
//! hundreds of thousands of connections funnelled onto a handful of
//! switchless rings. Reproducing that regime with real sockets would need
//! a kernel and wall-clock time; this module instead models the *event
//! loop* the way the rest of `sgx-sim` models the hardware: readiness is
//! a timer wheel in [`Cycles`] of the 4 GHz virtual core, and waiting
//! advances the virtual clock to the next readiness instant instead of
//! blocking.
//!
//! One `(token, ready_at)` arm per simulated connection is all the state
//! a connection costs (16 bytes in a binary heap), so a million
//! concurrent connections fit comfortably and run in deterministic order:
//! events fire strictly by `(time, token)`, independent of the host
//! machine, so a seeded load run produces the same latency histogram
//! everywhere.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::{Cycles, VirtualEpoll};
//!
//! let mut ep = VirtualEpoll::new();
//! ep.arm(7, Cycles::new(4_000)); // connection 7 ready at 1 µs
//! ep.arm(3, Cycles::new(2_000)); // connection 3 ready at 500 ns
//!
//! let batch = ep.wait(64);
//! assert_eq!(batch.len(), 1);
//! assert_eq!(batch[0].token, 3);
//! assert_eq!(ep.now(), Cycles::new(2_000)); // time jumped, not spun
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cycles::{Clock, Cycles};

/// One readiness event delivered by [`VirtualEpoll::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualEvent {
    /// The caller's identifier for the connection/timer that fired.
    pub token: u64,
    /// Virtual instant the event became ready (≤ the loop's `now` at
    /// delivery).
    pub at: Cycles,
}

/// An epoll-shaped readiness multiplexer over virtual time.
///
/// `arm` registers interest, `wait` delivers the next batch — but where a
/// real epoll blocks the thread, this one *advances the virtual clock* to
/// the earliest readiness instant. Between arms and waits the clock can
/// also be pushed forward explicitly ([`VirtualEpoll::advance`]) to model
/// the cycles the event-loop thread itself consumed servicing a batch.
#[derive(Debug, Default)]
pub struct VirtualEpoll {
    clock: Clock,
    /// Min-heap on `(ready_at, token)`: ties on time fire in token order,
    /// making delivery fully deterministic.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    /// High-water mark of concurrently armed timers.
    peak_pending: usize,
}

impl VirtualEpoll {
    /// An empty loop at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Number of armed, not-yet-delivered events — the loop's concurrent
    /// connection count.
    #[inline]
    pub fn pending(&self) -> usize {
        self.timers.len()
    }

    /// Highest [`VirtualEpoll::pending`] ever observed (the witness that
    /// a run really multiplexed N connections at once).
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Registers `token` as ready at absolute virtual instant `at`. An
    /// instant in the past is delivered by the next `wait` without moving
    /// the clock backwards. Tokens are caller-defined; arming the same
    /// token twice yields two events.
    pub fn arm(&mut self, token: u64, at: Cycles) {
        self.timers.push(Reverse((at.get(), token)));
        self.peak_pending = self.peak_pending.max(self.timers.len());
    }

    /// Models work done by the loop thread itself: pushes virtual time
    /// forward by `delta` (events that become ready in the interval are
    /// delivered by the next `wait`).
    pub fn advance(&mut self, delta: Cycles) {
        self.clock.advance(delta);
    }

    /// Delivers the next batch of ready events, at most `max_events` of
    /// them, advancing virtual time to the earliest readiness instant if
    /// nothing is ready *now*. Returns an empty batch only when no timer
    /// is armed at all — a virtual wait never times out, it time-travels.
    pub fn wait(&mut self, max_events: usize) -> Vec<VirtualEvent> {
        let mut batch = Vec::new();
        let Some(&Reverse((earliest, _))) = self.timers.peek() else {
            return batch;
        };
        // Jump, don't spin: this is where simulated idle time comes from.
        if earliest > self.clock.now().get() {
            self.clock
                .advance(Cycles::new(earliest - self.clock.now().get()));
        }
        let now = self.clock.now().get();
        while batch.len() < max_events {
            match self.timers.peek() {
                Some(&Reverse((at, token))) if at <= now => {
                    self.timers.pop();
                    batch.push(VirtualEvent {
                        token,
                        at: Cycles::new(at),
                    });
                }
                _ => break,
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_then_token_order() {
        let mut ep = VirtualEpoll::new();
        ep.arm(9, Cycles::new(100));
        ep.arm(2, Cycles::new(100));
        ep.arm(5, Cycles::new(50));
        let batch = ep.wait(16);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].token, 5);
        let batch = ep.wait(16);
        assert_eq!(
            batch.iter().map(|e| e.token).collect::<Vec<_>>(),
            vec![2, 9],
            "ties on readiness time fire in token order"
        );
        assert_eq!(ep.now(), Cycles::new(100));
    }

    #[test]
    fn wait_advances_time_instead_of_spinning() {
        let mut ep = VirtualEpoll::new();
        ep.arm(1, Cycles::new(1_000_000));
        assert_eq!(ep.wait(1).len(), 1);
        assert_eq!(ep.now(), Cycles::new(1_000_000));
        // Nothing armed: no events, no time travel.
        assert!(ep.wait(1).is_empty());
        assert_eq!(ep.now(), Cycles::new(1_000_000));
    }

    #[test]
    fn max_events_bounds_the_batch() {
        let mut ep = VirtualEpoll::new();
        for t in 0..10 {
            ep.arm(t, Cycles::new(5));
        }
        assert_eq!(ep.pending(), 10);
        let batch = ep.wait(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(ep.pending(), 6);
        // The rest are already ready; the clock does not move again.
        assert_eq!(ep.wait(100).len(), 6);
        assert_eq!(ep.now(), Cycles::new(5));
    }

    #[test]
    fn late_arm_fires_without_rewinding() {
        let mut ep = VirtualEpoll::new();
        ep.advance(Cycles::new(500));
        ep.arm(3, Cycles::new(100)); // already in the past
        let batch = ep.wait(8);
        assert_eq!(batch[0].at, Cycles::new(100));
        assert_eq!(ep.now(), Cycles::new(500), "clock never rewinds");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut ep = VirtualEpoll::new();
            // Arm a pseudo-random schedule (fixed seed).
            let mut x = 0x9e3779b97f4a7c15u64;
            for t in 0..1_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ep.arm(t, Cycles::new(x % 10_000));
            }
            let mut order = Vec::new();
            loop {
                let batch = ep.wait(32);
                if batch.is_empty() {
                    break;
                }
                order.extend(batch.iter().map(|e| e.token));
            }
            (order, ep.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hundred_thousand_pending_is_cheap() {
        let mut ep = VirtualEpoll::new();
        for t in 0..100_000u64 {
            ep.arm(t, Cycles::new(t * 7 % 1_000));
        }
        assert_eq!(ep.pending(), 100_000);
        assert_eq!(ep.peak_pending(), 100_000);
        let mut total = 0;
        loop {
            let n = ep.wait(1_024).len();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, 100_000);
    }
}
