//! Synchronization primitives in the SDK's style.
//!
//! `sgx_spin_lock` is "a straightforward busy-wait implementation and does
//! not relate to SGX, so it can be used by both the enclave and the
//! untrusted code" (paper §4.2). [`sim_spin_acquire`] /
//! [`sim_spin_release`] give the cycle cost of its operations against the
//! machine model, which simulated HotCalls charge.

use sgx_sim::{Addr, Cycles, Machine};

use crate::error::Result;

/// Cycle cost of acquiring an uncontended spin lock at `lock_addr` in the
/// simulated machine: one read-modify-write of the lock's cache line.
///
/// # Errors
///
/// Propagates memory-model errors.
pub fn sim_spin_acquire(m: &mut Machine, lock_addr: Addr) -> Result<Cycles> {
    let start = m.now();
    // LOCK XCHG: load + locked store on the same line.
    m.read(lock_addr, 8)?;
    m.write(lock_addr, 8)?;
    m.charge(Cycles::new(18)); // atomic-op core cost
    Ok(m.now() - start)
}

/// Cycle cost of releasing the spin lock (a plain store + release fence).
///
/// # Errors
///
/// Propagates memory-model errors.
pub fn sim_spin_release(m: &mut Machine, lock_addr: Addr) -> Result<Cycles> {
    let start = m.now();
    m.write(lock_addr, 8)?;
    Ok(m.now() - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_costs_are_small_when_warm() {
        let mut m = Machine::new(sgx_sim::SimConfig::builder().deterministic().build());
        let addr = m.alloc_untrusted(64, 64);
        sim_spin_acquire(&mut m, addr).unwrap(); // cold
        let warm = sim_spin_acquire(&mut m, addr).unwrap();
        assert!(warm.get() < 60, "warm spin acquire should be cheap: {warm}");
    }
}
