//! Device pools: the identical simulated GPUs a distributed run spreads
//! shards over, and the per-device health states of the executor's
//! self-healing machine.

use mdh_lowering::asm::GpuParams;
use std::fmt;

/// Health state of one pool device in the executor's state machine:
///
/// ```text
/// Healthy ──crash──────────────▶ Evicted
///    │                             │ passes `reinstate_after`
///    │ hang / straggler hedge      │ consecutive probes
///    ▼                             ▼
/// Probation ──1 passing probe──▶ Reinstating ──next probe cycle──▶ Healthy
/// ```
///
/// Only `Healthy` devices receive shards. `Probation` and `Evicted`
/// devices sit out of the rotation and are probed on the
/// [`crate::fault::HealPolicy`] cadence; `Reinstating` marks a device
/// whose probe quota was met and whose residency was just invalidated —
/// it rejoins as `Healthy` on the following probe cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// In the rotation, receiving shards.
    Healthy,
    /// Suspect (hanged or straggled into a hedge): out of rotation, one
    /// passing probe rejoins.
    Probation,
    /// Crashed: out of rotation, needs the policy's consecutive probe
    /// passes to earn reinstatement.
    Evicted,
    /// Probe quota met, residency invalidated; rejoins next cycle.
    Reinstating,
}

impl DeviceHealth {
    /// Whether the device is in the shard rotation.
    pub fn in_rotation(&self) -> bool {
        matches!(self, DeviceHealth::Healthy)
    }

    /// Stable kebab-case label used in reports and stats.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Probation => "probation",
            DeviceHealth::Evicted => "evicted",
            DeviceHealth::Reinstating => "reinstating",
        }
    }
}

impl fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// `N` identical simulated A100s. Every shard's inputs travel over one
/// shared PCIe 4.0 ×16 host link (uploads to different devices serialise
/// on it) and partials recombine in a binary tree over NVLink3-class peer
/// links ([`crate::account`] holds the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePool {
    devices: usize,
}

impl DevicePool {
    /// `n` devices, at least one — the shape `devices = N` builds in the
    /// runtime.
    pub fn gpus(n: usize) -> DevicePool {
        DevicePool { devices: n.max(1) }
    }

    pub fn len(&self) -> usize {
        self.devices
    }

    pub fn is_empty(&self) -> bool {
        self.devices == 0
    }

    /// Stable display label of device `index`, used in reports and
    /// dispatch counters.
    pub fn label(index: usize) -> String {
        format!("gpu{index}")
    }

    /// DRAM bandwidth used for modelling on-device combine passes.
    pub fn combine_bw_gib_s(&self) -> f64 {
        GpuParams::a100().dram_bw_gib_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_labels_and_rotation() {
        assert!(DeviceHealth::Healthy.in_rotation());
        for s in [
            DeviceHealth::Probation,
            DeviceHealth::Evicted,
            DeviceHealth::Reinstating,
        ] {
            assert!(!s.in_rotation(), "{s} must sit out of the rotation");
        }
        assert_eq!(DeviceHealth::Healthy.to_string(), "healthy");
        assert_eq!(DeviceHealth::Probation.label(), "probation");
        assert_eq!(DeviceHealth::Evicted.label(), "evicted");
        assert_eq!(DeviceHealth::Reinstating.label(), "reinstating");
    }

    #[test]
    fn every_device_is_labelled_gpu() {
        assert_eq!(DevicePool::label(0), "gpu0");
        assert_eq!(DevicePool::label(3), "gpu3");
    }

    #[test]
    fn gpu_pool_never_empty() {
        assert_eq!(DevicePool::gpus(0).len(), 1);
        assert_eq!(DevicePool::gpus(4).len(), 4);
        assert!(DevicePool::gpus(2).combine_bw_gib_s() > 1000.0);
    }
}
