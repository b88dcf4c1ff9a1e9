//! Memcached 1.4.31-style key-value cache server (paper §6.2).
//!
//! Per request the server mirrors the ported application's behaviour: a
//! libevent callback into the enclave (`RunEnclaveFucntion` ecall), a
//! `read` ocall to pull the request off the socket, real binary-protocol
//! parsing, a store access that exercises the (encrypted) memory model,
//! and a `sendmsg` ocall for the response — the 3-calls-per-request mix of
//! Table 2.

pub mod protocol;
mod store;

pub use store::KvStore;

use bytes::Bytes;
use sgx_sdk::BufArg;
use sgx_sim::Addr;

use crate::env::AppEnv;
use crate::error::Result;
use crate::porting::{pad_api_table, ApiDecl};

use protocol::{Opcode, Request, Response, Status};

/// The application's name as Table 2 and the census spell it.
pub const NAME: &str = "memcached";

/// The frequent API calls of Table 2's memcached row.
pub fn frequent_apis() -> Vec<ApiDecl> {
    vec![
        ApiDecl::receives("read", 600),
        ApiDecl::sends("sendmsg", 750),
        ApiDecl::plain("epoll_wait", 400),
    ]
}

/// The full 93-symbol interface the wholesale port exposes (§6.2:
/// "Porting memcached to run inside an enclave exposed 93 external API
/// references").
pub fn api_table() -> Vec<ApiDecl> {
    pad_api_table(&frequent_apis(), 93)
}

/// Per-request application compute that is *not* memory traffic: libevent
/// dispatch and the connection state machine. Calibrated (together with
/// the metadata-touch traffic below) so the native configuration serves
/// ~316k requests/second.
const REQUEST_BASE_COMPUTE: u64 = 1_400;

/// Fixed socket receive-buffer size: the server always reads into a full
/// buffer (drain semantics), which is what the SDK's `out`-mode zeroing
/// taxes and No-Redundant-Zeroing recovers.
const RX_BUF_LEN: u64 = 2_560;

/// Size of the connection/hash/LRU metadata arena. memcached's accesses
/// are "uniform across the memory-stored database, leading to poor
/// spatial locality" (§6.2); each request touches scattered lines here.
const META_REGION_BYTES: u64 = 48 << 20;

/// Scattered metadata lines read (hash bucket chain, item headers, LRU
/// links, connection state) and written per request.
const META_READS: usize = 24;
const META_WRITES: usize = 8;

/// The memcached server.
#[derive(Debug)]
pub struct Memcached {
    store: KvStore,
    /// Network receive buffer (application data: enclave heap under SGX).
    rx_buf: Addr,
    /// Network send buffer.
    tx_buf: Addr,
    /// Hash-table / LRU / connection metadata arena.
    meta_region: Addr,
    requests: u64,
}

impl Memcached {
    /// Builds the server: store arena + socket buffers.
    ///
    /// # Errors
    ///
    /// Fails if the data arenas cannot be allocated.
    pub fn new(env: &mut AppEnv, items: usize, slab_size: u64) -> Result<Self> {
        let store = KvStore::new(env, items, slab_size)?;
        let rx_buf = env.alloc_data(16 * 1024)?;
        let tx_buf = env.alloc_data(16 * 1024)?;
        let meta_region = env.alloc_data(META_REGION_BYTES)?;
        Ok(Memcached {
            store,
            rx_buf,
            tx_buf,
            meta_region,
            requests: 0,
        })
    }

    /// Serves one request arriving as wire bytes, returning the wire
    /// response. This is the full per-request path with all edge calls.
    ///
    /// # Errors
    ///
    /// Propagates interface/protocol errors.
    pub fn serve(&mut self, env: &mut AppEnv, wire: Bytes) -> Result<Bytes> {
        self.requests += 1;
        let rx = self.rx_buf;
        let tx = self.tx_buf;
        let wire_len = wire.len() as u64;
        // libevent fires; the callback lives inside the enclave.
        env.run_enclave_function(|env| {
            // Pull the request off the socket (full receive buffer).
            env.api_call("read", &[BufArg::new(rx, RX_BUF_LEN.max(wire_len))])?;
            let response_wire = self.request_body(env, &wire)?;
            // Push the response out.
            env.api_call("sendmsg", &[BufArg::new(tx, response_wire.len() as u64)])?;
            Ok(response_wire)
        })
    }

    /// Serves a batch of ready requests in one libevent callback — the
    /// epoll-style drain loop. The hot modes pipeline the batch's socket
    /// reads, then its responses, one ring submission per call, inside
    /// one ecall shell: a batch of N requests costs one enclave callback
    /// instead of N.
    ///
    /// # Errors
    ///
    /// Propagates interface/protocol errors (a bad request fails the
    /// batch, like a bad wire frame kills a connection).
    pub fn serve_many(&mut self, env: &mut AppEnv, wires: &[Bytes]) -> Result<Vec<Bytes>> {
        if wires.is_empty() {
            return Ok(Vec::new());
        }
        let rx = self.rx_buf;
        let tx = self.tx_buf;
        env.run_enclave_function(|env| {
            // Drain the ready sockets: one read per connection, pipelined.
            let reads: Vec<(&'static str, Option<BufArg>)> = wires
                .iter()
                .map(|w| {
                    (
                        "read",
                        Some(BufArg::new(rx, RX_BUF_LEN.max(w.len() as u64))),
                    )
                })
                .collect();
            env.api_call_batch(&reads)?;
            let mut responses = Vec::with_capacity(wires.len());
            let mut sends = Vec::with_capacity(wires.len());
            for wire in wires {
                self.requests += 1;
                let response_wire = self.request_body(env, wire)?;
                sends.push(("sendmsg", Some(BufArg::new(tx, response_wire.len() as u64))));
                responses.push(response_wire);
            }
            // Ship the batch's responses as one pipelined batch.
            env.api_call_batch(&sends)?;
            Ok(responses)
        })
    }

    /// The trusted per-request work between the socket read and the
    /// response send: protocol parse, scattered metadata traffic, the
    /// store access, response encoding. No edge calls.
    fn request_body(&mut self, env: &mut AppEnv, wire: &Bytes) -> Result<Bytes> {
        // Parse the binary protocol (real work on real bytes).
        env.compute(40 + wire.len() as u64 / 16);
        let req: Request = protocol::parse_request(wire.clone())?;
        env.compute(REQUEST_BASE_COMPUTE);

        // Hash/LRU/connection metadata: scattered single-line accesses
        // with no locality — the enclave pays the MEE on each miss.
        let meta = self.meta_region;
        let mut lcg = self
            .requests
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(wire.len() as u64);
        let lines = META_REGION_BYTES / 64;
        for i in 0..META_READS + META_WRITES {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (lcg >> 17) % lines;
            if i < META_READS {
                env.machine.read(meta.offset(line * 64), 8)?;
            } else {
                env.machine.write(meta.offset(line * 64), 8)?;
            }
            env.machine.reset_stream_detector();
        }

        let resp = self.handle(env, req)?;
        Ok(protocol::encode_response(&resp))
    }

    fn handle(&mut self, env: &mut AppEnv, req: Request) -> Result<Response> {
        match req.opcode {
            Opcode::Set => {
                self.store
                    .set_with(env, req.key, req.value, req.flags, req.expiry)?;
                Ok(Response {
                    opcode: Opcode::Set,
                    status: Status::Ok,
                    value: Bytes::new(),
                    opaque: req.opaque,
                })
            }
            Opcode::Get => match self.store.get(env, &req.key)? {
                Some(value) => Ok(Response {
                    opcode: Opcode::Get,
                    status: Status::Ok,
                    value,
                    opaque: req.opaque,
                }),
                None => Ok(Response {
                    opcode: Opcode::Get,
                    status: Status::KeyNotFound,
                    value: Bytes::new(),
                    opaque: req.opaque,
                }),
            },
            Opcode::Delete => {
                let existed = self.store.delete(env, &req.key)?;
                Ok(Response {
                    opcode: Opcode::Delete,
                    status: if existed {
                        Status::Ok
                    } else {
                        Status::KeyNotFound
                    },
                    value: Bytes::new(),
                    opaque: req.opaque,
                })
            }
            Opcode::Noop => Ok(Response {
                opcode: Opcode::Noop,
                status: Status::Ok,
                value: Bytes::new(),
                opaque: req.opaque,
            }),
        }
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::IfaceMode;
    use sgx_sim::SimConfig;

    fn env(mode: IfaceMode) -> AppEnv {
        AppEnv::new(
            SimConfig::builder().deterministic().build(),
            mode,
            &api_table(),
            64 << 20,
        )
        .unwrap()
    }

    #[test]
    fn set_then_get_returns_value() {
        let mut e = env(IfaceMode::Native);
        let mut mc = Memcached::new(&mut e, 1024, 2048).unwrap();
        let set_wire = protocol::encode_set(b"hello", &[0x5A; 2048], 1);
        let resp = mc.serve(&mut e, set_wire).unwrap();
        let parsed = protocol::parse_response(resp).unwrap();
        assert_eq!(parsed.status, Status::Ok);

        let get_wire = protocol::encode_get(b"hello", 2);
        let resp = mc.serve(&mut e, get_wire).unwrap();
        let parsed = protocol::parse_response(resp).unwrap();
        assert_eq!(parsed.status, Status::Ok);
        assert_eq!(parsed.value.len(), 2048);
        assert_eq!(parsed.value[7], 0x5A);
    }

    #[test]
    fn get_missing_key_is_not_found() {
        let mut e = env(IfaceMode::Native);
        let mut mc = Memcached::new(&mut e, 64, 2048).unwrap();
        let resp = mc.serve(&mut e, protocol::encode_get(b"ghost", 3)).unwrap();
        assert_eq!(
            protocol::parse_response(resp).unwrap().status,
            Status::KeyNotFound
        );
    }

    #[test]
    fn sgx_mode_issues_three_edge_calls_per_request() {
        let mut e = env(IfaceMode::Sdk);
        let mut mc = Memcached::new(&mut e, 64, 2048).unwrap();
        mc.serve(&mut e, protocol::encode_set(b"k", &[1; 512], 1))
            .unwrap();
        assert_eq!(e.api_counts()["read"], 1);
        assert_eq!(e.api_counts()["sendmsg"], 1);
        assert_eq!(e.api_counts()["RunEnclaveFucntion"], 1);
    }

    #[test]
    fn serve_many_matches_serial_serving() {
        // The batched drain must produce byte-identical responses to the
        // one-at-a-time path, in every mode.
        for mode in [IfaceMode::Native, IfaceMode::Sdk, IfaceMode::HotCalls] {
            let wires = vec![
                protocol::encode_set(b"alpha", &[7u8; 300], 1),
                protocol::encode_get(b"alpha", 2),
                protocol::encode_get(b"ghost", 3),
            ];
            let mut serial_env = env(mode);
            let mut serial = Memcached::new(&mut serial_env, 64, 2048).unwrap();
            let want: Vec<Bytes> = wires
                .iter()
                .map(|w| serial.serve(&mut serial_env, w.clone()).unwrap())
                .collect();

            let mut batch_env = env(mode);
            let mut batched = Memcached::new(&mut batch_env, 64, 2048).unwrap();
            let got = batched.serve_many(&mut batch_env, &wires).unwrap();
            assert_eq!(got, want, "{mode:?}");
            // The batch still issues one read + one sendmsg per request
            // (pipelined in hot modes, serial otherwise)…
            assert_eq!(batch_env.api_counts()["read"], 3, "{mode:?}");
            assert_eq!(batch_env.api_counts()["sendmsg"], 3, "{mode:?}");
            // …but only one enclave callback for the whole batch.
            assert_eq!(batch_env.api_counts()["RunEnclaveFucntion"], 1, "{mode:?}");
        }
    }

    #[test]
    fn hot_mode_serves_requests_through_the_arena() {
        let mut e = env(IfaceMode::HotCallsNrz);
        let mut mc = Memcached::new(&mut e, 64, 2048).unwrap();
        for i in 0..6u32 {
            mc.serve(&mut e, protocol::encode_set(b"k", &[1; 512], i))
                .unwrap();
        }
        let arena = e.arena_stats().expect("hot mode has an arena");
        // Each request's `read` pulls a full RX_BUF_LEN out-buffer: one
        // cold slab alloc in the caller's arena, then steady-state
        // recycling. The RunEnclaveFunction shell and the small
        // set-response `sendmsg` ride inline in the slot.
        assert_eq!(arena.allocs, 1, "{arena:?}");
        assert_eq!(arena.recycles, 5, "{arena:?}");
        assert!(arena.inline_hits >= 12, "{arena:?}");
    }

    #[test]
    fn a_dozed_responder_leaves_sync_calls_inline_and_batches_on_the_ring() {
        use std::time::{Duration, Instant};
        let mut e = env(IfaceMode::HotCalls);
        let mut mc = Memcached::new(&mut e, 64, 2048).unwrap();
        // Serve until a call runs inline: the responder has then dozed, and
        // an inline call wakes nobody, so it stays asleep from here on.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let before = e.rt_stats().unwrap().fused_runs;
            mc.serve(&mut e, protocol::encode_noop(0)).unwrap();
            if e.rt_stats().unwrap().fused_runs > before {
                break;
            }
            assert!(Instant::now() < deadline, "the responder never dozed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let serviced = |e: &AppEnv| {
            let s = e.rt_stats().unwrap();
            s.calls - s.fused_runs
        };
        let (before, serviced_before) = (e.rt_stats().unwrap(), serviced(&e));

        // Every served request comes back byte-correct, each of its three
        // edge calls (`RunEnclaveFunction`, `read`, `sendmsg`) runs inline,
        // and none of them wakes the responder.
        for i in 0..8u8 {
            let key = [b'k', i];
            let value = [i.wrapping_mul(37); 2048];
            let resp = mc
                .serve(&mut e, protocol::encode_set(&key, &value, u32::from(i)))
                .unwrap();
            assert_eq!(protocol::parse_response(resp).unwrap().status, Status::Ok);
            let resp = mc
                .serve(&mut e, protocol::encode_get(&key, u32::from(i)))
                .unwrap();
            let got = protocol::parse_response(resp).unwrap();
            assert_eq!((got.status, got.opaque), (Status::Ok, u32::from(i)));
            assert_eq!(&got.value[..], &value[..]);
        }
        let after = e.rt_stats().unwrap();
        assert_eq!(after.fused_runs - before.fused_runs, 16 * 3, "{after:?}");
        assert_eq!(
            after.wakeups, before.wakeups,
            "an inline call woke the responder"
        );
        let serviced_after = serviced(&e);
        assert_eq!(serviced_after, serviced_before);

        // A pipelined batch still rides the ring: its submissions wake the
        // responder and it services every one of them.
        let rx = e.alloc_data(2048).unwrap();
        let batch = [("read", Some(BufArg::new(rx, 2048))); 6];
        e.api_call_batch(&batch).unwrap();
        let s = e.rt_stats().unwrap();
        assert_eq!(serviced(&e) - serviced_after, 6);
        assert_eq!(s.fused_runs, after.fused_runs, "{s:?}");
        assert!(s.wakeups > after.wakeups, "{s:?}");
    }

    #[test]
    fn sdk_mode_is_much_slower_per_request_than_native() {
        let per_request = |mode| {
            let mut e = env(mode);
            let mut mc = Memcached::new(&mut e, 256, 2048).unwrap();
            // Warm up.
            for i in 0..5u32 {
                mc.serve(
                    &mut e,
                    protocol::encode_set(format!("k{i}").as_bytes(), &[1; 2048], i),
                )
                .unwrap();
            }
            let s = e.machine.now();
            let n = 20;
            for i in 0..n {
                let wire = if i % 2 == 0 {
                    protocol::encode_set(b"kx", &[2; 2048], i)
                } else {
                    protocol::encode_get(b"kx", i)
                };
                mc.serve(&mut e, wire).unwrap();
            }
            (e.machine.now() - s).get() / u64::from(n)
        };
        let native = per_request(IfaceMode::Native);
        let sdk = per_request(IfaceMode::Sdk);
        let hot = per_request(IfaceMode::HotCalls);
        assert!(
            sdk as f64 > native as f64 * 2.5,
            "native={native} sdk={sdk}"
        );
        assert!(hot < sdk, "hotcalls={hot} must beat sdk={sdk}");
        assert!(hot > native, "hotcalls={hot} still above native={native}");
    }
}

#[cfg(test)]
mod opcode_tests {
    use super::*;
    use crate::env::IfaceMode;
    use sgx_sim::SimConfig;

    fn env() -> AppEnv {
        AppEnv::new(
            SimConfig::builder().deterministic().build(),
            IfaceMode::Native,
            &api_table(),
            64 << 20,
        )
        .unwrap()
    }

    #[test]
    fn delete_roundtrip_over_the_wire() {
        let mut e = env();
        let mut mc = Memcached::new(&mut e, 64, 2048).unwrap();
        mc.serve(&mut e, protocol::encode_set(b"gone", &[1; 64], 1))
            .unwrap();
        let resp = mc
            .serve(&mut e, protocol::encode_delete(b"gone", 2))
            .unwrap();
        assert_eq!(protocol::parse_response(resp).unwrap().status, Status::Ok);
        let resp = mc.serve(&mut e, protocol::encode_get(b"gone", 3)).unwrap();
        assert_eq!(
            protocol::parse_response(resp).unwrap().status,
            Status::KeyNotFound
        );
        // Deleting again reports not-found.
        let resp = mc
            .serve(&mut e, protocol::encode_delete(b"gone", 4))
            .unwrap();
        assert_eq!(
            protocol::parse_response(resp).unwrap().status,
            Status::KeyNotFound
        );
    }

    #[test]
    fn noop_roundtrip() {
        let mut e = env();
        let mut mc = Memcached::new(&mut e, 4, 2048).unwrap();
        let resp = mc.serve(&mut e, protocol::encode_noop(9)).unwrap();
        let parsed = protocol::parse_response(resp).unwrap();
        assert_eq!(parsed.opcode, protocol::Opcode::Noop);
        assert_eq!(parsed.status, Status::Ok);
        assert_eq!(parsed.opaque, 9);
    }

    #[test]
    fn set_with_expiry_expires_over_the_wire() {
        let mut e = env();
        let mut mc = Memcached::new(&mut e, 64, 2048).unwrap();
        mc.serve(&mut e, protocol::encode_set_with(b"t", &[7; 32], 1, 0, 1))
            .unwrap();
        let resp = mc.serve(&mut e, protocol::encode_get(b"t", 2)).unwrap();
        assert_eq!(protocol::parse_response(resp).unwrap().status, Status::Ok);
        e.machine.charge(sgx_sim::Cycles::new(5_000_000_000));
        let resp = mc.serve(&mut e, protocol::encode_get(b"t", 3)).unwrap();
        assert_eq!(
            protocol::parse_response(resp).unwrap().status,
            Status::KeyNotFound
        );
    }
}
