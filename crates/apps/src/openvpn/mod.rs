//! openVPN 2.3.12-style encrypted tunnel (paper §6.3).
//!
//! The tunnel moves packets between a virtual TUN device and a UDP socket,
//! encrypting with ChaCha20 and authenticating with HMAC-SHA-256
//! (encrypt-then-MAC, the role OpenSSL plays for the real openVPN). The
//! port into the enclave protects the tunnel keys; every device/socket
//! operation becomes an ocall. Table 2's striking observation — OpenSSL
//! invokes `getpid` whenever a cryptographic context is used — is
//! reproduced through the call mix.

use bytes::{BufMut, Bytes, BytesMut};
use sgx_sdk::BufArg;
use sgx_sim::crypto::{chacha20_xor, hmac_sha256, verify_tag, KEY_LEN, NONCE_LEN};
use sgx_sim::Addr;

use crate::env::{ApiMix, AppEnv};
use crate::error::{AppError, Result};
use crate::porting::{pad_api_table, ApiDecl};

/// Truncated MAC tag length (openVPN's default SHA-1 HMAC is 20 bytes; we
/// truncate SHA-256 to 16).
pub(crate) const TAG_LEN: usize = 16;
/// Per-packet header: 8-byte sequence number (also the nonce seed).
pub(crate) const HEADER_LEN: usize = 8;

/// The application's name as Table 2 and the census spell it.
pub const NAME: &str = "openvpn";

/// The frequent API calls of Table 2's openVPN row.
pub(crate) fn frequent_apis() -> Vec<ApiDecl> {
    vec![
        ApiDecl::plain("poll", 450),
        ApiDecl::plain("time", 60),
        ApiDecl::plain("getpid", 60),
        ApiDecl::sends("write", 700),
        ApiDecl::receives("recvfrom", 700),
        ApiDecl::receives("read", 600),
        ApiDecl::sends("sendto", 700),
    ]
}

/// The full 131-symbol interface of the wholesale port (§6.3).
pub fn api_table() -> Vec<ApiDecl> {
    pad_api_table(&frequent_apis(), 131)
}

/// Auxiliary calls per packet event, from Table 2 at ~43.6k packet
/// events/second (the data-path read/recvfrom/write/sendto are explicit).
fn table2_mix() -> ApiMix {
    ApiMix::new(&[
        ("poll", 2.0),
        ("time", 2.0),
        ("getpid", 0.31), // OpenSSL's per-crypto-context getpid
    ])
}

/// Per-packet compute of the VPN stack besides crypto: TUN framing,
/// routing table, reliability layer, option parsing. Calibrated so the
/// native tunnel sustains ~866 Mbit/s of 1500-byte packets on the 4 GHz
/// core.
const PACKET_BASE_COMPUTE: u64 = 29_000;

/// Cycles per byte of ChaCha20 + HMAC (OpenSSL-grade software crypto).
const CRYPTO_CYCLES_PER_BYTE: u64 = 2;

/// IPsec/openVPN-style sliding replay window: accepts bounded reordering
/// while rejecting duplicates.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayWindow {
    highest: u64,
    /// Bit i set = (highest - i) already seen.
    bitmap: u64,
}

impl ReplayWindow {
    const WIDTH: u64 = 64;

    /// Checks and records `seq`. Returns `false` for replays and packets
    /// older than the window.
    fn check_and_update(&mut self, seq: u64) -> bool {
        if seq == 0 {
            return false; // sequence numbers start at 1
        }
        if seq > self.highest {
            let shift = seq - self.highest;
            self.bitmap = if shift >= Self::WIDTH {
                0
            } else {
                self.bitmap << shift
            };
            self.bitmap |= 1;
            self.highest = seq;
            return true;
        }
        let age = self.highest - seq;
        if age >= Self::WIDTH {
            return false; // too old to judge: drop
        }
        let bit = 1u64 << age;
        if self.bitmap & bit != 0 {
            return false; // replay
        }
        self.bitmap |= bit;
        true
    }
}

/// Rekey interval: openVPN renegotiates data keys periodically; here,
/// after this many sealed packets (a packet-count trigger like
/// `--reneg-pkts`).
pub(crate) const REKEY_AFTER_PACKETS: u64 = 1 << 20;

/// The tunnel endpoint.
#[derive(Debug)]
pub struct OpenVpn {
    secret: [u8; 32],
    key: [u8; KEY_LEN],
    mac_key: [u8; 32],
    key_epoch: u32,
    seq: u64,
    replay: ReplayWindow,
    tun_buf: Addr,
    sock_buf: Addr,
    mix: ApiMix,
}

impl OpenVpn {
    /// Creates an endpoint with the given pre-shared secret.
    ///
    /// # Errors
    ///
    /// Fails if packet buffers cannot be allocated.
    pub fn new(env: &mut AppEnv, secret: &[u8; 32]) -> Result<Self> {
        let (key, mac_key) = Self::derive_epoch_keys(secret, 0);
        Ok(OpenVpn {
            secret: *secret,
            key,
            mac_key,
            key_epoch: 0,
            seq: 0,
            replay: ReplayWindow::default(),
            tun_buf: env.alloc_data(4 * 1024)?,
            sock_buf: env.alloc_data(4 * 1024)?,
            mix: table2_mix(),
        })
    }

    fn derive_epoch_keys(secret: &[u8; 32], epoch: u32) -> ([u8; KEY_LEN], [u8; 32]) {
        let mut label = *b"openvpn cipher key epoch....";
        label[24..].copy_from_slice(&epoch.to_le_bytes());
        let key = hmac_sha256(secret, &label);
        let mut label = *b"openvpn mac key epoch....   ";
        label[21..25].copy_from_slice(&epoch.to_le_bytes());
        let mac_key = hmac_sha256(secret, &label);
        (key, mac_key)
    }

    /// Rotates to the next data-key epoch (openVPN's renegotiation).
    /// Resets the sequence space and replay window under the new keys.
    pub(crate) fn rekey(&mut self) {
        self.key_epoch += 1;
        let (key, mac_key) = Self::derive_epoch_keys(&self.secret, self.key_epoch);
        self.key = key;
        self.mac_key = mac_key;
        self.seq = 0;
        self.replay = ReplayWindow::default();
    }

    /// Current key epoch (bumped by `OpenVpn::rekey`).
    pub fn key_epoch(&self) -> u32 {
        self.key_epoch
    }

    fn nonce_for(seq: u64) -> [u8; NONCE_LEN] {
        let mut n = [0u8; NONCE_LEN];
        n[..8].copy_from_slice(&seq.to_le_bytes());
        n
    }

    /// Encrypts + MACs a plaintext packet (pure crypto; no edge calls).
    /// Automatically rotates keys after `REKEY_AFTER_PACKETS` packets.
    pub fn seal(&mut self, plaintext: &[u8]) -> Bytes {
        if self.seq >= REKEY_AFTER_PACKETS {
            self.rekey();
        }
        self.seq += 1;
        let mut body = plaintext.to_vec();
        chacha20_xor(&self.key, &Self::nonce_for(self.seq), &mut body);
        let mut wire = BytesMut::with_capacity(HEADER_LEN + body.len() + TAG_LEN);
        wire.put_u64(self.seq);
        wire.put_slice(&body);
        let tag = hmac_sha256(&self.mac_key, &wire);
        wire.put_slice(&tag[..TAG_LEN]);
        wire.freeze()
    }

    /// Verifies + decrypts a wire packet (pure crypto; no edge calls).
    ///
    /// # Errors
    ///
    /// [`AppError::Protocol`] on truncated packets, MAC mismatch, or
    /// replayed sequence numbers.
    pub fn open(&mut self, wire: &[u8]) -> Result<Bytes> {
        if wire.len() < HEADER_LEN + TAG_LEN {
            return Err(AppError::Protocol("short tunnel packet".into()));
        }
        let (signed, tag) = wire.split_at(wire.len() - TAG_LEN);
        let expected = hmac_sha256(&self.mac_key, signed);
        let mut tag_buf = [0u8; 32];
        tag_buf[..TAG_LEN].copy_from_slice(tag);
        let mut expect_buf = [0u8; 32];
        expect_buf[..TAG_LEN].copy_from_slice(&expected[..TAG_LEN]);
        if !verify_tag(&expect_buf, &tag_buf) {
            return Err(AppError::Protocol("tunnel MAC mismatch".into()));
        }
        let seq = u64::from_be_bytes(signed[..8].try_into().expect("checked length"));
        if !self.replay.check_and_update(seq) {
            return Err(AppError::Protocol(format!("replayed packet seq {seq}")));
        }
        let mut body = signed[HEADER_LEN..].to_vec();
        chacha20_xor(&self.key, &Self::nonce_for(seq), &mut body);
        Ok(Bytes::from(body))
    }

    /// TUN → network: read a plaintext packet from the TUN device, seal it,
    /// send it on the socket. Returns the wire bytes. This is one "packet
    /// event" with its full Table 2 call mix.
    ///
    /// # Errors
    ///
    /// Propagates interface errors.
    pub fn egress(&mut self, env: &mut AppEnv, plaintext: &[u8]) -> Result<Bytes> {
        self.issue_mix(env)?;
        // The TUN read drains into a full MTU-sized buffer.
        env.api_call(
            "read",
            &[BufArg::new(self.tun_buf, 2048.max(plaintext.len() as u64))],
        )?;
        env.compute(PACKET_BASE_COMPUTE);
        // The crypto pass touches the whole packet.
        env.machine.read(self.tun_buf, plaintext.len() as u64)?;
        env.compute(plaintext.len() as u64 * CRYPTO_CYCLES_PER_BYTE);
        let wire = self.seal(plaintext);
        env.api_call("sendto", &[BufArg::new(self.sock_buf, wire.len() as u64)])?;
        Ok(wire)
    }

    /// Network → TUN: receive a wire packet, open it, write the plaintext
    /// to the TUN device.
    ///
    /// # Errors
    ///
    /// Propagates interface and authentication errors.
    pub fn ingress(&mut self, env: &mut AppEnv, wire: &[u8]) -> Result<Bytes> {
        self.issue_mix(env)?;
        // The socket receive drains into a full MTU-sized buffer.
        env.api_call(
            "recvfrom",
            &[BufArg::new(self.sock_buf, 2048.max(wire.len() as u64))],
        )?;
        env.compute(PACKET_BASE_COMPUTE);
        env.machine.read(self.sock_buf, wire.len() as u64)?;
        env.compute(wire.len() as u64 * CRYPTO_CYCLES_PER_BYTE);
        let plain = self.open(wire)?;
        env.api_call("write", &[BufArg::new(self.tun_buf, plain.len() as u64)])?;
        Ok(plain)
    }

    fn issue_mix(&mut self, env: &mut AppEnv) -> Result<()> {
        // The whole per-packet auxiliary mix (polls, timers, pid checks)
        // is one batch: pipelined on the ring in the hot modes.
        let tail: Vec<(&'static str, Option<BufArg>)> = self
            .mix
            .tick()
            .into_iter()
            .map(|name| (name, None))
            .collect();
        env.api_call_batch(&tail)
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
            16 << 20,
        )
        .unwrap()
    }

    fn pair(env_a: &mut AppEnv, env_b: &mut AppEnv) -> (OpenVpn, OpenVpn) {
        let secret = [0x42u8; 32];
        (
            OpenVpn::new(env_a, &secret).unwrap(),
            OpenVpn::new(env_b, &secret).unwrap(),
        )
    }

    #[test]
    fn seal_open_roundtrip_through_both_endpoints() {
        let mut ea = env(IfaceMode::Native);
        let mut eb = env(IfaceMode::Native);
        ea.enter_main().unwrap();
        eb.enter_main().unwrap();
        let (mut a, mut b) = pair(&mut ea, &mut eb);
        let payload: Vec<u8> = (0..1400).map(|i| (i % 256) as u8).collect();
        let wire = a.egress(&mut ea, &payload).unwrap();
        assert_ne!(&wire[HEADER_LEN..HEADER_LEN + 16], &payload[..16]);
        let plain = b.ingress(&mut eb, &wire).unwrap();
        assert_eq!(&plain[..], &payload[..]);
    }

    #[test]
    fn hot_mode_tunnels_packets_through_the_arena() {
        let mut e = env(IfaceMode::HotCallsNrz);
        e.enter_main().unwrap();
        let secret = [0x42u8; 32];
        let mut vpn = OpenVpn::new(&mut e, &secret).unwrap();
        let payload: Vec<u8> = (0..1400).map(|i| (i % 256) as u8).collect();
        for _ in 0..6 {
            let _ = vpn.egress(&mut e, &payload).unwrap();
        }
        let arena = e.arena_stats().expect("hot mode has an arena");
        // Packet-sized tun reads and socket sends cycle through a handful
        // of slab classes; the auxiliary poll/time mix rides inline.
        assert!(arena.recycles > 0, "{arena:?}");
        assert!(arena.inline_hits > 0, "{arena:?}");
        assert!(arena.allocs <= 4, "{arena:?}");
    }

    #[test]
    fn tampered_packet_rejected() {
        let mut ea = env(IfaceMode::Native);
        ea.enter_main().unwrap();
        let secret = [1u8; 32];
        let mut a = OpenVpn::new(&mut ea, &secret).unwrap();
        let mut b = OpenVpn::new(&mut ea, &secret).unwrap();
        let wire = a.seal(b"attack at dawn");
        let mut bad = wire.to_vec();
        bad[HEADER_LEN + 2] ^= 0x01;
        assert!(matches!(b.open(&bad), Err(AppError::Protocol(_))));
        // Untampered still works.
        assert_eq!(&b.open(&wire).unwrap()[..], b"attack at dawn");
    }

    #[test]
    fn replay_rejected() {
        let mut ea = env(IfaceMode::Native);
        let secret = [2u8; 32];
        let mut a = OpenVpn::new(&mut ea, &secret).unwrap();
        let mut b = OpenVpn::new(&mut ea, &secret).unwrap();
        let wire = a.seal(b"once");
        b.open(&wire).unwrap();
        let err = b.open(&wire).unwrap_err();
        assert!(matches!(err, AppError::Protocol(msg) if msg.contains("replay")));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut ea = env(IfaceMode::Native);
        let mut a = OpenVpn::new(&mut ea, &[3u8; 32]).unwrap();
        let mut b = OpenVpn::new(&mut ea, &[4u8; 32]).unwrap();
        let wire = a.seal(b"secret");
        assert!(b.open(&wire).is_err());
    }

    #[test]
    fn call_mix_includes_openssl_getpid() {
        let mut e = env(IfaceMode::Sdk);
        e.enter_main().unwrap();
        let mut vpn = OpenVpn::new(&mut e, &[5u8; 32]).unwrap();
        let payload = vec![0u8; 1400];
        for _ in 0..1000 {
            vpn.egress(&mut e, &payload).unwrap();
        }
        let counts = e.api_counts();
        assert_eq!(counts["poll"], 2_000);
        assert_eq!(counts["time"], 2_000);
        assert_eq!(counts["getpid"], 310);
        assert_eq!(counts["read"], 1_000);
        assert_eq!(counts["sendto"], 1_000);
    }

    #[test]
    fn short_packet_rejected() {
        let mut ea = env(IfaceMode::Native);
        let mut a = OpenVpn::new(&mut ea, &[6u8; 32]).unwrap();
        assert!(a.open(&[0u8; 10]).is_err());
    }
}

#[cfg(test)]
mod replay_and_rekey_tests {
    use super::*;
    use crate::env::IfaceMode;
    use sgx_sim::SimConfig;

    fn env() -> AppEnv {
        AppEnv::new(
            SimConfig::builder().deterministic().build(),
            IfaceMode::Native,
            &api_table(),
            16 << 20,
        )
        .unwrap()
    }

    #[test]
    fn reordered_packets_within_window_are_accepted() {
        let mut e = env();
        let secret = [8u8; 32];
        let mut tx = OpenVpn::new(&mut e, &secret).unwrap();
        let mut rx = OpenVpn::new(&mut e, &secret).unwrap();
        let wires: Vec<_> = (0..5).map(|i| tx.seal(&[i as u8; 32])).collect();
        // Deliver out of order: 2, 0, 4, 1, 3.
        for &i in &[2usize, 0, 4, 1, 3] {
            assert_eq!(
                rx.open(&wires[i]).unwrap()[0],
                i as u8,
                "reordered packet {i} must decrypt"
            );
        }
        // But replaying any of them fails.
        for w in &wires {
            assert!(rx.open(w).is_err(), "duplicate must be rejected");
        }
    }

    #[test]
    fn packets_older_than_window_are_dropped() {
        let mut e = env();
        let secret = [9u8; 32];
        let mut tx = OpenVpn::new(&mut e, &secret).unwrap();
        let mut rx = OpenVpn::new(&mut e, &secret).unwrap();
        let ancient = tx.seal(b"old");
        // Advance far beyond the 64-packet window.
        let mut last = tx.seal(b"x");
        for _ in 0..100 {
            last = tx.seal(b"x");
        }
        rx.open(&last).unwrap();
        assert!(rx.open(&ancient).is_err(), "out-of-window packet dropped");
    }

    #[test]
    fn rekey_rotates_keys_and_resets_sequence_space() {
        let mut e = env();
        let secret = [10u8; 32];
        let mut tx = OpenVpn::new(&mut e, &secret).unwrap();
        let mut rx = OpenVpn::new(&mut e, &secret).unwrap();
        let before = tx.seal(b"epoch zero");
        assert_eq!(&rx.open(&before).unwrap()[..], b"epoch zero");

        tx.rekey();
        rx.rekey();
        assert_eq!(tx.key_epoch(), 1);
        let after = tx.seal(b"epoch one");
        assert_eq!(&rx.open(&after).unwrap()[..], b"epoch one");
        // The two epochs' ciphertexts differ even for the same seq+payload.
        assert_ne!(&before[HEADER_LEN..16], &after[HEADER_LEN..16]);
    }

    #[test]
    fn epoch_mismatch_fails_authentication() {
        let mut e = env();
        let secret = [11u8; 32];
        let mut tx = OpenVpn::new(&mut e, &secret).unwrap();
        let mut rx = OpenVpn::new(&mut e, &secret).unwrap();
        tx.rekey(); // tx at epoch 1, rx still at epoch 0
        let wire = tx.seal(b"skewed");
        assert!(rx.open(&wire).is_err(), "cross-epoch packet must fail MAC");
    }
}
