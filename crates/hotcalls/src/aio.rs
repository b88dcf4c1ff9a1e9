//! Executor-agnostic async front end for the HotCalls planes.
//!
//! The call futures here give [`Ticket`](crate::rt::Ticket) /
//! [`MailTicket`](crate::rt::MailTicket) real `Future` semantics: each
//! ring slot carries a waker-registration cell, the async submit paths
//! *arm* it before publishing, and whichever thread completes the call —
//! a pooled responder, a work stealer, the fused inline path on the
//! submitting core, or the shutdown sweep — fires the stored waker. An
//! awaiting task therefore never busy-polls: it parks in its executor and
//! is woken exactly once, when its response is DONE.
//!
//! The waker cell is a five-state machine (`IDLE → ARMED → {SET ↔ BUSY} →
//! FIRED`) whose transitions are all read-modify-writes on one atomic, so
//! registration (the future's `poll`) and firing (the completer) are
//! race-free without locks: a completion that beats the registration
//! parks the cell in `FIRED` and `poll` observes it immediately; a
//! registration that beats the completion leaves a waker the completer
//! takes and wakes. The terminal `FIRED` state is cleared by the
//! *redeemer*, closing the slot-reuse race where a descheduled completer
//! could otherwise fire into the next call's arming.
//!
//! Two consumption styles are provided:
//!
//! * **Futures** — [`RingRequester::call_async`] and
//!   [`Requester::call_async`] return one future per call; drive them
//!   with any executor, or with the bundled [`block_on`] for
//!   executor-free tests and tools.
//! * **Reactor** — [`Reactor`] keeps a set of in-flight tickets on a
//!   [`RingRequester`] and batch-reaps them through the deadline-bounded
//!   `wait_any` variants, the shape an event loop (one thread, many
//!   thousands of logical connections) wants: submissions are never gated
//!   on completions, and one reap sweep retires everything that finished.
//!
//! No executor dependency, no allocation per call on the steady state:
//! registering a waker clones it (a refcount bump for `Arc`-backed
//! wakers), and the ticket's abandonment guard is an `Arc` clone of a
//! board the plane already owns.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::error::Result;
use crate::rt::{MailTicket, Requester, RingRequester, Ticket};

/// A park/unpark waker for [`block_on`]: `wake` sets the flag and unparks
/// the blocked thread. The flag absorbs wakes that land before the park,
/// so a completion between `poll` and `park` is never lost.
struct ThreadWaker {
    thread: Thread,
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.notified.swap(true, Ordering::Release) {
            self.thread.unpark();
        }
    }
}

/// Drives `future` to completion on the current thread, parking between
/// polls. The minimal executor: enough to await HotCall futures from
/// synchronous code (tests, benches) without pulling in a runtime.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker_state = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&waker_state));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                // Consume one notification; park until it arrives. A wake
                // that raced ahead already set the flag and this loop
                // falls straight through to the next poll.
                while !waker_state.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}

/// An in-flight call on a [`RingRequester`], awaiting its response.
///
/// Dropping the future before completion abandons the call (see
/// [`Ticket`]): the response is discarded and the slot reaped, never
/// wedged.
#[must_use = "futures do nothing unless you `.await` or poll them"]
pub struct RingCallFuture<'r, Req, Resp> {
    requester: &'r RingRequester<Req, Resp>,
    ticket: Option<Ticket>,
}

impl<Req, Resp> core::fmt::Debug for RingCallFuture<'_, Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingCallFuture")
            .field("ticket", &self.ticket)
            .finish_non_exhaustive()
    }
}

impl<Req, Resp> Future for RingCallFuture<'_, Req, Resp> {
    type Output = Result<Resp>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        this.requester.poll_ticket(&mut this.ticket, cx)
    }
}

impl<Req, Resp> RingRequester<Req, Resp> {
    /// Submits a call and returns a future resolving to its response.
    ///
    /// The submission happens *now* (open-loop: issuing is never gated on
    /// anything completing); only the wait is deferred to the `await`.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`] — claim-phase failures surface here,
    /// completion-phase errors resolve through the future.
    pub fn call_async(&self, id: u32, req: Req) -> Result<RingCallFuture<'_, Req, Resp>> {
        let ticket = self.submit_async(id, req)?;
        Ok(RingCallFuture {
            requester: self,
            ticket: Some(ticket),
        })
    }
}

/// An in-flight call on the single-slot mailbox plane, awaiting its
/// response.
///
/// Dropping the future before completion abandons the call (see
/// [`MailTicket`]).
#[must_use = "futures do nothing unless you `.await` or poll them"]
pub struct MailCallFuture<'r, Req, Resp> {
    requester: &'r Requester<Req, Resp>,
    ticket: Option<MailTicket>,
}

impl<Req, Resp> core::fmt::Debug for MailCallFuture<'_, Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MailCallFuture")
            .field("ticket", &self.ticket)
            .finish_non_exhaustive()
    }
}

impl<Req, Resp> Future for MailCallFuture<'_, Req, Resp> {
    type Output = Result<Resp>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        this.requester.poll_mail(&mut this.ticket, cx)
    }
}

impl<Req, Resp> Requester<Req, Resp> {
    /// Submits a call into the mailbox and returns a future resolving to
    /// its response. The mailbox holds one call, so at most one such
    /// future can be in flight per plane.
    ///
    /// # Errors
    ///
    /// As [`Requester::submit`] — claim-phase failures surface here,
    /// completion-phase errors resolve through the future.
    pub fn call_async(&self, id: u32, req: Req) -> Result<MailCallFuture<'_, Req, Resp>> {
        let ticket = self.submit_async(id, req)?;
        Ok(MailCallFuture {
            requester: self,
            ticket: Some(ticket),
        })
    }
}

/// A batching reap loop over one requester: the event-loop front end.
///
/// Where one future tracks one call, the reactor tracks *many* — an
/// open-loop generator submits at its offered rate through
/// [`Reactor::submit`] and the loop retires whatever completed with one
/// [`Reactor::poll_completions`] sweep per iteration (or parks in
/// [`Reactor::drain_until`] when it has nothing else to do). Reaping is
/// batched through the plane's deadline-bounded `wait_any`, so a sweep
/// costs one oldest-first scan regardless of how many tickets finish.
pub struct Reactor<'p, Req, Resp> {
    plane: &'p RingRequester<Req, Resp>,
    inflight: Vec<Ticket>,
}

impl<Req, Resp> core::fmt::Debug for Reactor<'_, Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Reactor")
            .field("inflight", &self.inflight.len())
            .finish_non_exhaustive()
    }
}

impl<'p, Req, Resp> Reactor<'p, Req, Resp> {
    /// A reactor over `plane` with no calls in flight.
    pub fn new(plane: &'p RingRequester<Req, Resp>) -> Self {
        Reactor {
            plane,
            inflight: Vec::new(),
        }
    }

    /// Submits a call and tracks its ticket, returning the sequence
    /// number completions will report.
    ///
    /// # Errors
    ///
    /// As the plane's submit; on error nothing is tracked.
    pub fn submit(&mut self, id: u32, req: Req) -> Result<u64> {
        let ticket = self.plane.submit(id, req)?;
        let seq = ticket.seq();
        self.inflight.push(ticket);
        Ok(seq)
    }

    /// Number of calls currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Reaps completions until `deadline` (or until the in-flight set is
    /// empty), feeding each `(seq, response)` to `sink`. Returns how many
    /// calls were retired.
    ///
    /// # Errors
    ///
    /// A per-call failure is returned as-is; the offending ticket is
    /// consumed and the rest stay tracked, so the loop can continue after
    /// handling it.
    pub fn drain_until(
        &mut self,
        deadline: Instant,
        mut sink: impl FnMut(u64, Resp),
    ) -> Result<usize> {
        let mut reaped = 0;
        while !self.inflight.is_empty() {
            match self.plane.wait_any_until(&mut self.inflight, deadline)? {
                Some((seq, resp)) => {
                    sink(seq, resp);
                    reaped += 1;
                }
                None => break,
            }
        }
        Ok(reaped)
    }

    /// One non-blocking sweep: retires every call that is already
    /// complete, never waits for more. Returns how many were retired.
    ///
    /// # Errors
    ///
    /// As [`Reactor::drain_until`].
    pub fn poll_completions(&mut self, sink: impl FnMut(u64, Resp)) -> Result<usize> {
        // An already-expired deadline still gets exactly one scan per
        // reap, which is precisely the non-blocking semantic.
        self.drain_until(Instant::now(), sink)
    }

    /// Blocks until everything in flight has completed (bounded per-reap
    /// by `step` so shutdown can't park forever), feeding completions to
    /// `sink`. Returns how many calls were retired.
    ///
    /// # Errors
    ///
    /// As [`Reactor::drain_until`].
    pub fn drain_all(&mut self, step: Duration, mut sink: impl FnMut(u64, Resp)) -> Result<usize> {
        let mut reaped = 0;
        while !self.inflight.is_empty() {
            reaped += self.drain_until(Instant::now() + step, &mut sink)?;
        }
        Ok(reaped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::{CallTable, HotCallServer, RingServer};
    use crate::{HotCallConfig, ResponderPolicy};

    fn inc_table() -> (CallTable<u64, u64>, u32) {
        let mut t = CallTable::new();
        let inc = t.register(|x| x + 1);
        (t, inc)
    }

    #[test]
    fn ring_future_resolves() {
        let (t, inc) = inc_table();
        let server = RingServer::spawn(t, 8, HotCallConfig::default());
        let r = server.requester();
        assert_eq!(block_on(r.call_async(inc, 41).unwrap()).unwrap(), 42);
    }

    #[test]
    fn mailbox_future_resolves() {
        let (t, inc) = inc_table();
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        assert_eq!(block_on(r.call_async(inc, 41).unwrap()).unwrap(), 42);
    }

    #[test]
    fn many_futures_resolve_in_any_order() {
        let (t, inc) = inc_table();
        let server =
            RingServer::spawn_adaptive(t, 16, ResponderPolicy::fixed(2), HotCallConfig::default())
                .unwrap();
        let r = server.requester();
        let futures: Vec<_> = (0..8u64).map(|i| r.call_async(inc, i).unwrap()).collect();
        let got = block_on(async {
            let mut got = Vec::new();
            for f in futures {
                got.push(f.await.unwrap());
            }
            got
        });
        assert_eq!(got, (1..=8u64).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_future_abandons_not_wedges() {
        let (t, inc) = inc_table();
        // Patient: this is about abandonment, not timeouts. Sixteen laps
        // of a 4-slot ring outlast the default 10x16 claim budget whenever
        // the responder is descheduled for a moment.
        let server = RingServer::spawn(t, 4, HotCallConfig::patient());
        let r = server.requester();
        // Drop more futures than the ring holds; the slots must recycle.
        for i in 0..64u64 {
            drop(r.call_async(inc, i).unwrap());
        }
        // And the plane still answers.
        assert_eq!(r.call(inc, 1).unwrap(), 2);
    }

    #[test]
    fn reactor_retires_everything() {
        let (t, inc) = inc_table();
        let server = RingServer::spawn(t, 16, HotCallConfig::default());
        let r = server.requester();
        let mut reactor = Reactor::new(&r);
        for i in 0..8u64 {
            reactor.submit(inc, i).unwrap();
        }
        assert_eq!(reactor.inflight(), 8);
        let mut sum = 0u64;
        let n = reactor
            .drain_all(Duration::from_millis(50), |_seq, resp| sum += resp)
            .unwrap();
        assert_eq!(n, 8);
        assert_eq!(sum, (1..=8u64).sum());
        assert_eq!(reactor.inflight(), 0);
    }

    #[test]
    fn reactor_poll_is_nonblocking_when_idle() {
        let (t, _inc) = inc_table();
        let server = RingServer::spawn(t, 8, HotCallConfig::default());
        let r = server.requester();
        let mut reactor = Reactor::new(&r);
        let start = Instant::now();
        assert_eq!(reactor.poll_completions(|_, _| {}).unwrap(), 0);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
