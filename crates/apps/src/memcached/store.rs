//! The key-value store behind the memcached server: a hash map with LRU
//! eviction and *simulated placement* — every entry owns a region of
//! simulated memory (enclave heap under SGX) so reads and writes charge
//! the cache/MEE model with memcached's characteristically uniform,
//! locality-poor access pattern.

use std::collections::HashMap;

use bytes::Bytes;
use sgx_sim::Addr;

use crate::env::AppEnv;
use crate::error::Result;

#[derive(Debug)]
struct Entry {
    value: Bytes,
    sim_addr: Addr,
    lru_tick: u64,
    flags: u32,
    /// Absolute virtual-time deadline; `None` = never expires.
    expires_at: Option<u64>,
}

/// A bounded LRU key-value store.
#[derive(Debug)]
pub(crate) struct KvStore {
    entries: HashMap<Bytes, Entry>,
    /// Free simulated slabs (fixed-size, like memcached's slab classes).
    free_slabs: Vec<Addr>,
    slab_size: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl KvStore {
    /// Creates a store of `capacity` items of up to `slab_size` bytes,
    /// pre-allocating the simulated slab arena (from the enclave heap in
    /// enclave modes).
    ///
    /// # Errors
    ///
    /// Fails if the data arena cannot be allocated.
    pub(crate) fn new(env: &mut AppEnv, capacity: usize, slab_size: u64) -> Result<Self> {
        let arena = env.alloc_data(capacity as u64 * slab_size)?;
        let free_slabs = (0..capacity as u64)
            .rev()
            .map(|i| arena.offset(i * slab_size))
            .collect();
        Ok(KvStore {
            entries: HashMap::with_capacity(capacity),
            free_slabs,
            slab_size,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        })
    }

    /// Number of stored items.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// (hits, misses, evictions).
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Stores a value with client flags and a relative expiry in seconds
    /// of *virtual* time (0 = never), evicting the LRU item if at
    /// capacity. Charges the memory model for writing the value into its
    /// slab.
    ///
    /// # Errors
    ///
    /// Propagates machine-model errors.
    pub(crate) fn set_with(
        &mut self,
        env: &mut AppEnv,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expiry_secs: u32,
    ) -> Result<()> {
        self.tick += 1;
        // Hash + bucket walk.
        env.compute(60 + key.len() as u64 / 8);
        let ghz = env.machine.config().core_ghz;
        let expires_at = (expiry_secs > 0)
            .then(|| env.machine.now().get() + (expiry_secs as f64 * ghz * 1e9) as u64);
        if let Some(e) = self.entries.get_mut(&key) {
            let len = value.len() as u64;
            e.value = value;
            e.lru_tick = self.tick;
            e.flags = flags;
            e.expires_at = expires_at;
            let addr = e.sim_addr;
            env.machine.write(addr, len.min(self.slab_size))?;
            return Ok(());
        }
        let slab = match self.free_slabs.pop() {
            Some(s) => s,
            None => {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.lru_tick)
                    .map(|(k, _)| k.clone())
                    .expect("capacity > 0 implies entries when no free slab");
                let evicted = self.entries.remove(&victim).expect("victim exists");
                self.evictions += 1;
                evicted.sim_addr
            }
        };
        let len = (value.len() as u64).min(self.slab_size);
        env.machine.write(slab, len)?;
        self.entries.insert(
            key,
            Entry {
                value,
                sim_addr: slab,
                lru_tick: self.tick,
                flags,
                expires_at,
            },
        );
        Ok(())
    }

    /// Removes a key, returning whether it existed (and was unexpired).
    ///
    /// # Errors
    ///
    /// Propagates machine-model errors.
    pub(crate) fn delete(&mut self, env: &mut AppEnv, key: &Bytes) -> Result<bool> {
        self.tick += 1;
        env.compute(60 + key.len() as u64 / 8);
        match self.entries.remove(key) {
            Some(e) => {
                let expired = e.expires_at.is_some_and(|t| env.machine.now().get() >= t);
                self.free_slabs.push(e.sim_addr);
                Ok(!expired)
            }
            None => Ok(false),
        }
    }

    /// Fetches a value, charging the memory model for reading its slab.
    /// Lazily evicts expired items (memcached's expiry-on-access).
    ///
    /// # Errors
    ///
    /// Propagates machine-model errors.
    pub(crate) fn get(&mut self, env: &mut AppEnv, key: &Bytes) -> Result<Option<Bytes>> {
        Ok(self.get_with(env, key)?.map(|(v, _flags)| v))
    }

    /// Fetches a value together with its stored client flags.
    ///
    /// # Errors
    ///
    /// Propagates machine-model errors.
    pub(crate) fn get_with(
        &mut self,
        env: &mut AppEnv,
        key: &Bytes,
    ) -> Result<Option<(Bytes, u32)>> {
        self.tick += 1;
        env.compute(60 + key.len() as u64 / 8);
        let now = env.machine.now().get();
        // Expiry-on-access: a dead item counts as a miss and frees its slab.
        if self
            .entries
            .get(key)
            .and_then(|e| e.expires_at)
            .is_some_and(|t| now >= t)
        {
            let dead = self.entries.remove(key).expect("checked present");
            self.free_slabs.push(dead.sim_addr);
            self.misses += 1;
            return Ok(None);
        }
        // Split borrows: look up first, then charge.
        let (value, flags, addr, len) = match self.entries.get_mut(key) {
            Some(e) => {
                e.lru_tick = self.tick;
                (
                    e.value.clone(),
                    e.flags,
                    e.sim_addr,
                    (e.value.len() as u64).min(self.slab_size),
                )
            }
            None => {
                self.misses += 1;
                return Ok(None);
            }
        };
        self.hits += 1;
        env.machine.read(addr, len)?;
        Ok(Some((value, flags)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::IfaceMode;
    use crate::porting::ApiDecl;
    use sgx_sim::SimConfig;

    fn env() -> AppEnv {
        AppEnv::new(
            SimConfig::builder().deterministic().build(),
            IfaceMode::Native,
            &[ApiDecl::plain("getpid", 80)],
            32 << 20,
        )
        .unwrap()
    }

    #[test]
    fn set_get_roundtrip() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 16, 2048).unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"k"),
                Bytes::from(vec![7; 100]),
                0,
                0,
            )
            .unwrap();
        let v = store.get(&mut env, &Bytes::from_static(b"k")).unwrap();
        assert_eq!(v.unwrap().len(), 100);
        assert_eq!(store.stats().0, 1);
    }

    #[test]
    fn miss_returns_none() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 4, 2048).unwrap();
        assert!(store
            .get(&mut env, &Bytes::from_static(b"nope"))
            .unwrap()
            .is_none());
        assert_eq!(store.stats().1, 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 3, 2048).unwrap();
        for i in 0..3u8 {
            store
                .set_with(
                    &mut env,
                    Bytes::from(vec![i]),
                    Bytes::from(vec![i; 10]),
                    0,
                    0,
                )
                .unwrap();
        }
        // Touch key 0 so key 1 is LRU.
        store.get(&mut env, &Bytes::from(vec![0u8])).unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from(vec![9u8]),
                Bytes::from(vec![9; 10]),
                0,
                0,
            )
            .unwrap();
        assert_eq!(store.len(), 3);
        assert!(store
            .get(&mut env, &Bytes::from(vec![1u8]))
            .unwrap()
            .is_none());
        assert!(store
            .get(&mut env, &Bytes::from(vec![0u8]))
            .unwrap()
            .is_some());
        assert_eq!(store.stats().2, 1);
    }

    #[test]
    fn overwrite_reuses_slab() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 2, 2048).unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"k"),
                Bytes::from(vec![1; 10]),
                0,
                0,
            )
            .unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"k"),
                Bytes::from(vec![2; 20]),
                0,
                0,
            )
            .unwrap();
        assert_eq!(store.len(), 1);
        let v = store
            .get(&mut env, &Bytes::from_static(b"k"))
            .unwrap()
            .unwrap();
        assert_eq!(v.len(), 20);
        assert_eq!(v[0], 2);
    }
}

#[cfg(test)]
mod expiry_tests {
    use super::*;
    use crate::env::IfaceMode;
    use crate::porting::ApiDecl;
    use sgx_sim::{Cycles, SimConfig};

    fn env() -> AppEnv {
        AppEnv::new(
            SimConfig::builder().deterministic().build(),
            IfaceMode::Native,
            &[ApiDecl::plain("getpid", 80)],
            32 << 20,
        )
        .unwrap()
    }

    #[test]
    fn expired_item_is_a_miss_and_frees_its_slab() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 2, 2048).unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"ttl"),
                Bytes::from(vec![1; 10]),
                0,
                1,
            )
            .unwrap();
        assert!(store
            .get(&mut env, &Bytes::from_static(b"ttl"))
            .unwrap()
            .is_some());
        // Advance past 1 virtual second (4e9 cycles at 4 GHz).
        env.machine.charge(Cycles::new(5_000_000_000));
        assert!(store
            .get(&mut env, &Bytes::from_static(b"ttl"))
            .unwrap()
            .is_none());
        assert_eq!(store.len(), 0);
        // The freed slab is reusable: fill to capacity again.
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"a"),
                Bytes::from(vec![2; 10]),
                0,
                0,
            )
            .unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"b"),
                Bytes::from(vec![3; 10]),
                0,
                0,
            )
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().2, 0, "no LRU eviction needed");
    }

    #[test]
    fn zero_expiry_never_expires() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 2, 2048).unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"k"),
                Bytes::from(vec![1; 8]),
                0,
                0,
            )
            .unwrap();
        env.machine.charge(Cycles::new(100_000_000_000));
        assert!(store
            .get(&mut env, &Bytes::from_static(b"k"))
            .unwrap()
            .is_some());
    }

    #[test]
    fn flags_are_stored_and_returned() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 2, 2048).unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"f"),
                Bytes::from(vec![9; 4]),
                0xDEAD,
                0,
            )
            .unwrap();
        let (v, flags) = store
            .get_with(&mut env, &Bytes::from_static(b"f"))
            .unwrap()
            .unwrap();
        assert_eq!(v.len(), 4);
        assert_eq!(flags, 0xDEAD);
    }

    #[test]
    fn delete_returns_existence_and_frees_slab() {
        let mut env = env();
        let mut store = KvStore::new(&mut env, 1, 2048).unwrap();
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"k"),
                Bytes::from(vec![1; 8]),
                0,
                0,
            )
            .unwrap();
        assert!(store.delete(&mut env, &Bytes::from_static(b"k")).unwrap());
        assert!(!store.delete(&mut env, &Bytes::from_static(b"k")).unwrap());
        // Slab freed: a new item fits without LRU eviction.
        store
            .set_with(
                &mut env,
                Bytes::from_static(b"n"),
                Bytes::from(vec![2; 8]),
                0,
                0,
            )
            .unwrap();
        assert_eq!(store.stats().2, 0);
    }
}
