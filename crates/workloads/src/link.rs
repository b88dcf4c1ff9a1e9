//! The network link between the two openVPN endpoints.
//!
//! The paper's setup: SGX server and an Intel NUC over a 1 Gbit/s link;
//! iperf3 measured a 935 Mbit/s raw TCP ceiling, deliberately *not*
//! saturated by the tunnel so tunnel throughput is compute-bound.

use serde::{Deserialize, Serialize};

/// A point-to-point link model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Achievable TCP bandwidth ceiling, Mbit/s.
    pub(crate) bandwidth_mbps: f64,
    /// One-way propagation + switching delay, milliseconds.
    pub(crate) one_way_ms: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // The paper's measured 935 Mbit/s ceiling over the 1 Gbit link.
        LinkModel {
            bandwidth_mbps: 935.0,
            one_way_ms: 0.022,
        }
    }
}

impl LinkModel {
    /// Caps a compute-limited throughput at the link ceiling.
    pub(crate) fn cap(&self, mbps: f64) -> f64 {
        mbps.min(self.bandwidth_mbps)
    }

    /// Base round-trip time contributed by the wire itself.
    pub(crate) fn base_rtt_ms(&self) -> f64 {
        2.0 * self.one_way_ms
    }

    /// Serialization delay of one packet, milliseconds.
    pub(crate) fn serialization_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / (self.bandwidth_mbps * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_at_ceiling() {
        let l = LinkModel::default();
        assert_eq!(l.cap(2_000.0), 935.0);
        assert_eq!(l.cap(300.0), 300.0);
    }

    #[test]
    fn serialization_of_1500b_on_gigabit() {
        let l = LinkModel::default();
        let ms = l.serialization_ms(1_500);
        assert!((ms - 0.01283).abs() < 1e-4, "{ms}");
    }
}
