//! Criterion: the lock-free HotCalls runtime vs OS-assisted alternatives.
//!
//! The analogue of the paper's core claim on real hardware: a polling
//! shared-memory channel beats blocking hand-off primitives for call-style
//! round trips. (On the paper's machine the comparison is spin-mailbox vs
//! EENTER/EEXIT; here it is spin-mailbox vs mpsc/condvar round trips.)
//!
//! Beyond the single round trips:
//!
//! * `ring_pool/...` — the pooled MPMC ring across a requesters ×
//!   responders matrix (1/2/4/8 × 1/2/4), each sample pushing a fixed
//!   batch of calls through scoped requester threads.
//! * `pipe_1k_w16/...` — the repo benchmark's `rt_pipe` shape (1 KiB
//!   copied in, XORed in place by the other thread, word-summed on the
//!   way back, 16 calls in flight over 64 slots) on the `ByteRing` and on
//!   `pipe_floor`, a bare single-producer ring that moves one control
//!   line per hand-off and nothing else. `byte_ring` ÷ `pipe_floor` is
//!   what the plane costs on top of the work.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use hotcalls::rt::{ByteCallTable, ByteRing, CallTable, HotCallServer, RingServer};
use hotcalls::HotCallConfig;
use parking_lot::{Condvar, Mutex};

/// Spin-forever config: benches measure the channel, not timeout fallback.
fn spin_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: None,
        ..HotCallConfig::patient()
    }
}

fn inc_table() -> (CallTable<u64, u64>, u32) {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let inc = table.register(|x| x + 1);
    (table, inc)
}

// ---- Single mailbox ---------------------------------------------------------

fn bench_mailbox(c: &mut Criterion) {
    let (table, inc) = inc_table();
    let server = HotCallServer::spawn(table, spin_config());
    let requester = server.requester();
    c.bench_function("mailbox/lock_free", |b| {
        b.iter(|| requester.call(inc, std::hint::black_box(41)).unwrap())
    });
    server.shutdown();
}

// ---- OS-assisted alternatives ----------------------------------------------

fn bench_mpsc(c: &mut Criterion) {
    let (req_tx, req_rx) = mpsc::channel::<u64>();
    let (resp_tx, resp_rx) = mpsc::channel::<u64>();
    let worker = std::thread::spawn(move || {
        while let Ok(x) = req_rx.recv() {
            if resp_tx.send(x + 1).is_err() {
                break;
            }
        }
    });
    c.bench_function("mpsc_channel_roundtrip", |b| {
        b.iter(|| {
            req_tx.send(std::hint::black_box(41)).unwrap();
            resp_rx.recv().unwrap()
        })
    });
    drop(req_tx);
    worker.join().unwrap();
}

struct CondvarCell {
    slot: Mutex<Option<u64>>,
    cv: Condvar,
    done: Mutex<Option<u64>>,
    done_cv: Condvar,
}

fn bench_condvar(c: &mut Criterion) {
    let cell = Arc::new(CondvarCell {
        slot: Mutex::new(None),
        cv: Condvar::new(),
        done: Mutex::new(None),
        done_cv: Condvar::new(),
    });
    let worker_cell = Arc::clone(&cell);
    let worker = std::thread::spawn(move || loop {
        let mut slot = worker_cell.slot.lock();
        while slot.is_none() {
            worker_cell.cv.wait(&mut slot);
        }
        let x = slot.take().unwrap();
        drop(slot);
        if x == u64::MAX {
            return;
        }
        *worker_cell.done.lock() = Some(x + 1);
        worker_cell.done_cv.notify_one();
    });
    c.bench_function("mutex_condvar_roundtrip", |b| {
        b.iter(|| {
            *cell.slot.lock() = Some(std::hint::black_box(41));
            cell.cv.notify_one();
            let mut done = cell.done.lock();
            while done.is_none() {
                cell.done_cv.wait(&mut done);
            }
            done.take().unwrap()
        })
    });
    *cell.slot.lock() = Some(u64::MAX);
    cell.cv.notify_one();
    worker.join().unwrap();
}

// ---- Queued (ring) variant --------------------------------------------------

fn bench_ring(c: &mut Criterion) {
    let (table, inc) = inc_table();
    let server = RingServer::spawn(table, 8, spin_config());
    let requester = server.requester();
    c.bench_function("ring_rt_roundtrip", |b| {
        b.iter(|| requester.call(inc, std::hint::black_box(41)).unwrap())
    });
    // Pipelined: keep 4 submissions in flight.
    c.bench_function("ring_rt_pipelined_x4", |b| {
        b.iter(|| {
            let tickets: Vec<_> = (0..4u64)
                .map(|i| requester.submit(inc, std::hint::black_box(i)).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| requester.wait(t).unwrap())
                .sum::<u64>()
        })
    });
    server.shutdown();
}

// ---- Pipelined 1 KiB calls: the byte plane vs the bare-ring floor ------------

const PIPE_LEN: usize = 1024;
const PIPE_WINDOW: usize = 16;
const PIPE_SLOTS: usize = 64;
const PIPE_MASK: u8 = 0x5A;

fn pipe_xor(buf: &mut [u8]) {
    for b in buf {
        *b ^= PIPE_MASK;
    }
}

fn word_sum(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0, u64::wrapping_add)
}

#[repr(align(64))]
struct Line<T>(T);

const FREE: u8 = 0;
const SUBMITTED: u8 = 1;
const DONE: u8 = 2;

/// One slot of the floor ring: a state word alone on its line, and the
/// payload the two threads transform in place.
struct FloorSlot {
    state: Line<AtomicU8>,
    buf: Line<UnsafeCell<[u8; PIPE_LEN]>>,
}

// SAFETY: `buf` is only touched by the thread `state` designates — the
// requester while FREE or DONE, the worker while SUBMITTED — and every
// hand-off is a Release store read with Acquire.
unsafe impl Sync for FloorSlot {}

fn bench_pipe(c: &mut Criterion) {
    let payload: Vec<u8> = (0..PIPE_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let mut reply = payload.clone();
    pipe_xor(&mut reply);
    let reply_sum = word_sum(&reply);

    let mut table = ByteCallTable::new();
    let xor = table.register(|n, buf| {
        pipe_xor(&mut buf[..n]);
        n
    });
    let ring = ByteRing::spawn_pool(table, PIPE_SLOTS, 1, spin_config()).expect("valid shape");
    let mut caller = ring.caller();
    let mut tickets = Vec::with_capacity(PIPE_WINDOW);
    let check = |_seq: u64, reply: &[u8]| assert_eq!(word_sum(reply), reply_sum);
    c.bench_function("pipe_1k_w16/byte_ring", |b| {
        b.iter(|| {
            tickets.push(caller.submit(xor, &payload, PIPE_LEN).unwrap());
            if tickets.len() == PIPE_WINDOW {
                caller.wait_any_with(&mut tickets, check).unwrap();
            }
        })
    });
    while !tickets.is_empty() {
        caller.wait_any_with(&mut tickets, check).unwrap();
    }
    ring.shutdown();

    let slots: Arc<Vec<FloorSlot>> = Arc::new(
        (0..PIPE_SLOTS)
            .map(|_| FloorSlot {
                state: Line(AtomicU8::new(FREE)),
                buf: Line(UnsafeCell::new([0; PIPE_LEN])),
            })
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let (worker_slots, worker_stop) = (Arc::clone(&slots), Arc::clone(&stop));
    let worker = std::thread::spawn(move || {
        for tail in 0usize.. {
            let slot = &worker_slots[tail % PIPE_SLOTS];
            while slot.state.0.load(Ordering::Acquire) != SUBMITTED {
                if worker_stop.load(Ordering::Relaxed) {
                    return;
                }
                std::hint::spin_loop();
            }
            // SAFETY: SUBMITTED read with Acquire hands the buffer to this
            // thread until the DONE store below.
            pipe_xor(unsafe { &mut *slot.buf.0.get() });
            slot.state.0.store(DONE, Ordering::Release);
        }
    });
    let (mut head, mut reaped) = (0usize, 0usize);
    c.bench_function("pipe_1k_w16/pipe_floor", |b| {
        b.iter(|| {
            // In flight < PIPE_WINDOW <= PIPE_SLOTS and slots are freed in
            // order, so the slot at `head` is FREE: this thread's.
            let slot = &slots[head % PIPE_SLOTS];
            // SAFETY: FREE slots belong to the requester (see above).
            unsafe { &mut *slot.buf.0.get() }.copy_from_slice(&payload);
            slot.state.0.store(SUBMITTED, Ordering::Release);
            head += 1;
            if head - reaped == PIPE_WINDOW {
                let slot = &slots[reaped % PIPE_SLOTS];
                while slot.state.0.load(Ordering::Acquire) != DONE {
                    std::hint::spin_loop();
                }
                // SAFETY: DONE read with Acquire hands the buffer back.
                assert_eq!(word_sum(unsafe { &*slot.buf.0.get() }), reply_sum);
                slot.state.0.store(FREE, Ordering::Relaxed);
                reaped += 1;
            }
        })
    });
    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap();
}

// ---- Pooled ring matrix ------------------------------------------------------

/// Calls pushed per requester thread per criterion sample. Small enough to
/// keep samples fast on a shared-core host, large enough to amortize the
/// scoped-thread spawn.
const CALLS_PER_SAMPLE: u64 = 64;

fn bench_ring_pool(c: &mut Criterion) {
    // Idle sleep ON for the pool: with more threads than cores, extra
    // responders must doze rather than burn the core (and this is the
    // deployment shape the pool targets).
    let pool_config = HotCallConfig {
        idle_polls_before_sleep: Some(256),
        ..HotCallConfig::patient()
    };
    for &n_responders in &[1usize, 2, 4] {
        for &n_requesters in &[1usize, 2, 4, 8] {
            let (table, inc) = inc_table();
            let server = RingServer::spawn_pool(table, 32, n_responders, pool_config)
                .expect("pool shape is valid");
            let name = format!("ring_pool/{n_requesters}req_{n_responders}resp");
            c.bench_function(&name, |b| {
                b.iter(|| {
                    crossbeam::thread::scope(|s| {
                        for t in 0..n_requesters as u64 {
                            let r = server.requester();
                            s.spawn(move |_| {
                                for i in 0..CALLS_PER_SAMPLE {
                                    let x = t * 10_000 + i;
                                    assert_eq!(
                                        r.call(inc, std::hint::black_box(x)).unwrap(),
                                        x + 1
                                    );
                                }
                            });
                        }
                    })
                    .unwrap();
                })
            });
            server.shutdown();
        }
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_mailbox, bench_mpsc, bench_condvar, bench_ring, bench_pipe, bench_ring_pool
}
criterion_main!(benches);
