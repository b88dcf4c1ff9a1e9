//! The *threaded* HotCalls runtime as a standalone library: a dedicated
//! responder thread services calls through a polled shared-memory mailbox,
//! with timeout fallback and idle sleep — measured in wall-clock time.
//!
//! ```sh
//! cargo run --release --example switchless_rt
//! ```

use std::time::Instant;

use hotcalls_repro::hotcalls::rt::{CallTable, HotCallServer};
use hotcalls_repro::hotcalls::{HotCallConfig, HotCallError};

fn main() {
    // Register the "ocalls": a call table exactly like the SDK's.
    let mut table: CallTable<Vec<u8>, usize> = CallTable::new();
    let write_id = table.register(|buf: Vec<u8>| buf.len());
    let sum_id = table.register(|buf: Vec<u8>| buf.iter().map(|&b| b as usize).sum());

    let server = HotCallServer::spawn(table, HotCallConfig::with_idle_sleep(100_000));
    let requester = server.requester();

    // Warm-up, then time a batch of round trips.
    for _ in 0..1_000 {
        requester.call(write_id, vec![0u8; 64]).unwrap();
    }
    let n = 20_000;
    let start = Instant::now();
    for i in 0..n {
        let len = requester.call(write_id, vec![i as u8; 64]).unwrap();
        assert_eq!(len, 64);
    }
    let elapsed = start.elapsed();
    println!(
        "{} round trips in {:?} ({:.0} ns/call)",
        n,
        elapsed,
        elapsed.as_nanos() as f64 / f64::from(n)
    );

    let total: usize = requester.call(sum_id, vec![1u8; 128]).unwrap();
    println!("dispatched a second call id too: sum = {total}");

    // Timeout fallback: a call that cannot get the responder within its
    // retry budget returns `ResponderTimeout`, and the caller does the work
    // itself — the paper's fallback to a regular SDK call.
    let buf = vec![0u8; 32];
    let v = match requester.call(write_id, buf.clone()) {
        Err(HotCallError::ResponderTimeout { .. }) => buf.len(),
        other => other.unwrap(),
    };
    println!("fallback-capable call returned {v}");

    let stats = server.stats();
    println!(
        "responder stats: {} calls, {} wakeups, utilization {:.4}",
        stats.calls,
        stats.wakeups,
        stats.utilization()
    );
    server.shutdown();
}
