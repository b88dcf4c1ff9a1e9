//! Criterion: throughput of the from-scratch crypto used by the substrate
//! (SHA-256 for measurements/MACs, ChaCha20 for the tunnel and the storage
//! data path). The `sizes` rows time each primitive at 4 KiB and 1 MiB on
//! the portable kernel and on the kernel the dispatcher picks for this CPU
//! (DESIGN.md §16) — on a host without SHA-NI / AVX2 / AVX-512 the two rows
//! of a pair run the same code. The third SHA-256 kernel, the 16-lane
//! AVX-512 multi-buffer one, hashes sixteen messages side by side and so
//! has no `digest_*` row: it shows in `keyed_batch_*_dispatched` (one call
//! for all the 4 KiB blocks) against `keyed_per_block_*_dispatched` (one
//! SHA-NI pass per block); a `4k` batch is a single block and a `portable`
//! batch never has the kernel, so those rows run the per-block code.

use std::hint::black_box;
use std::time::Duration;

use apps::openvpn::chacha20_xor;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sgx_sim::crypto::{
    chacha20_xor_offset, chacha20_xor_offset_portable, hmac_sha256, HmacSha256, Sha256,
};

/// The storage path's authentication block.
const BLOCK: usize = 4096;
const SIZES: [(&str, usize); 2] = [("4k", 4096), ("1m", 1 << 20)];

type FreshSha256 = fn() -> Sha256;
type XorOffset = fn(&[u8; 32], &[u8; 12], u64, &mut [u8]);

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xABu8; 1 << 20];
    let mut g = c.benchmark_group("sha256");
    for (label, len) in SIZES {
        g.throughput(Throughput::Bytes(len as u64));
        let kernels: [(&str, FreshSha256); 2] =
            [("portable", Sha256::portable), ("dispatched", Sha256::new)];
        for (kernel, fresh) in kernels {
            g.bench_function(&format!("digest_{label}_{kernel}"), |b| {
                b.iter(|| {
                    let mut h = fresh();
                    h.update(black_box(&data[..len]));
                    h.finalize()
                })
            });
        }
    }
    g.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0x5Au8; 1 << 20];
    let key = [7u8; 32];
    let mut g = c.benchmark_group("hmac");
    g.throughput(Throughput::Bytes(1500));
    g.bench_function("hmac_1500", |b| {
        b.iter(|| hmac_sha256(black_box(&key), black_box(&data[..1500])))
    });
    // One keyed state, one tag per 4 KiB block: the shape of the storage
    // path's block authentication and dedup index — one message at a time,
    // then all the blocks in one `tag_each`.
    for (label, len) in SIZES {
        g.throughput(Throughput::Bytes(len as u64));
        let kernels = [
            ("portable", HmacSha256::portable(&key)),
            ("dispatched", HmacSha256::new(&key)),
        ];
        for (kernel, keyed) in kernels {
            g.bench_function(&format!("keyed_per_block_{label}_{kernel}"), |b| {
                b.iter(|| {
                    let mut last = [0u8; 32];
                    for block in black_box(&data[..len]).chunks(BLOCK) {
                        let mut mac = keyed.clone();
                        mac.update(block);
                        last = mac.finalize();
                    }
                    last
                })
            });
            g.bench_function(&format!("keyed_batch_{label}_{kernel}"), |b| {
                b.iter(|| {
                    let mut last = [0u8; 32];
                    keyed.tag_each(|_| [], black_box(&data[..len]), BLOCK, |tag| last = tag);
                    last
                })
            });
        }
    }
    g.finish();
}

fn bench_chacha(c: &mut Criterion) {
    let key = [9u8; 32];
    let nonce = [3u8; 12];
    let mut g = c.benchmark_group("chacha20");
    g.throughput(Throughput::Bytes(1500));
    g.bench_function("xor_1500", |b| {
        b.iter_batched(
            || vec![0u8; 1500],
            |mut buf| chacha20_xor(&key, &nonce, &mut buf),
            criterion::BatchSize::SmallInput,
        )
    });
    let mut buf = vec![0u8; 1 << 20];
    for (label, len) in SIZES {
        g.throughput(Throughput::Bytes(len as u64));
        let kernels: [(&str, XorOffset); 2] = [
            ("portable", chacha20_xor_offset_portable),
            ("dispatched", chacha20_xor_offset),
        ];
        for (kernel, xor) in kernels {
            g.bench_function(&format!("xor_offset_{label}_{kernel}"), |b| {
                b.iter(|| xor(&key, &nonce, 0, black_box(&mut buf[..len])))
            });
        }
    }
    g.finish();
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
    targets = bench_sha256, bench_hmac, bench_chacha
}
criterion_main!(benches);
