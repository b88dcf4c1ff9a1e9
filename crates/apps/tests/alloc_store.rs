//! Allocation proof for the storage data path, in the counting-allocator
//! pattern of `crates/hotcalls/tests/alloc_zero.rs` (it lives here because
//! `apps` depends on `hotcalls`, not the other way round).
//!
//! A warm `put` + `get` allocates what it hands back or stores and nothing
//! else: the ciphertext, its block tags and the object's name on `put`; the
//! plaintext on `get`, which compares each recomputed block tag with the
//! stored one as it is sealed and keeps none. That count must not grow with
//! the object — no allocation per 4 KiB block or per batch of them (the
//! block authenticator and the dedup index MAC from the caller's slice,
//! through a cloned keyed state or sixteen lanes staged on the stack; the
//! log of fingerprints a failed `put` would take back is a buffer the
//! store reuses) and none per streamed chunk (`put` appends a chunk's
//! segments to the ciphertext it allocated up front and authenticates
//! them there, `get` appends them to the plaintext; the arena recycles
//! the segments).
//!
//! The whole file is a single `#[test]` so no sibling test can allocate
//! concurrently and muddy the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use apps::storage::SecureStore;
use hotcalls::HotCallConfig;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Heap allocations of one warm `put` + `get`, whatever the object's size:
/// ciphertext, block tags, name (`put`); plaintext (`get` — it allocates
/// only what it returns).
const ALLOCS_PER_PUT_GET: u64 = 4;

const CHUNK: usize = 64 << 10;

#[test]
fn put_and_get_allocate_per_object_not_per_block_or_chunk() {
    let mut store = SecureStore::new(&[0x5Au8; 32], 16, 1, HotCallConfig::patient()).unwrap();
    let data: Vec<u8> = (0..1usize << 20).map(|i| (i * 131 % 251) as u8).collect();

    // Warm-up: grows the caller's arena to the window, the object map to
    // its first table, and the dedup index to every block of `data` — the
    // measured objects below re-ingest the same content, so the index
    // (whose growth is amortised, not per block, but not constant either)
    // stays put.
    store.put("warm", &data, 2, || CHUNK).unwrap();
    assert_eq!(store.get("warm", 2, || CHUNK).unwrap(), data);

    let mut roundtrip = |name: &str, len: usize| {
        let mut back = Vec::new();
        let allocs = allocs_in(|| {
            store.put(name, &data[..len], 2, || CHUNK).unwrap();
            back = store.get(name, 2, || CHUNK).unwrap();
        });
        assert_eq!(back, data[..len], "{name}");
        allocs
    };
    // One chunk and 16 blocks, then 16 chunks and 256 blocks.
    let small = roundtrip("small", 64 << 10);
    let large = roundtrip("large", 1 << 20);
    assert_eq!(small, ALLOCS_PER_PUT_GET, "64 KiB object");
    assert_eq!(large, ALLOCS_PER_PUT_GET, "1 MiB object");
    store.shutdown();
}
