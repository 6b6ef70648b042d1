//! Multi-node mesh: N stations and an AP sharing one channel.
//!
//! Everything below this module simulates a *single* CoS link. A real
//! deployment is a cell: many stations contending for the same medium,
//! some of them hidden from each other, all of them uplinking to one AP
//! that would like to coordinate them — and the paper's whole point is
//! that the coordination messages can ride for free as CoS silences
//! instead of costing airtime. This module is that cell:
//!
//! * [`topology`] — who hears whom ([`MeshTopology`]): per-station
//!   uplink SNRs plus the carrier-sense adjacency matrix whose missing
//!   edges are the hidden-terminal pairs,
//! * [`medium`] — a slotted DCF arbiter ([`MediumScheduler`]): mini-slot
//!   backoff with binary exponential contention windows, freezing on a
//!   sensed carrier, TDMA overrides, and the hidden-terminal barge-in
//!   that lands mid-frame collisions at the AP,
//! * [`policy`] — the AP's brain ([`CoordinationPolicy`]): a
//!   Monitor → Coordinating state machine that watches the collision
//!   rate and, once it trips, pushes [`MeshCommand`]s (TDMA grants,
//!   silence-budget grants, rate caps, mutes) to the stations — every
//!   command encoded in 12 bits and delivered through the CoS silence
//!   plane by the control ARQ,
//! * [`net`] — the cell itself ([`MeshNet`]): stations as pooled
//!   sessions on the [`BatchEngine`](crate::engine::BatchEngine), one
//!   tick per medium slot, concurrent transmissions composed through
//!   [`OverlapComposer`](cos_channel::OverlapComposer) impairments,
//!   byte-identical at any `COS_THREADS`.
//!
//! See `docs/MESH.md` for the arbitration rules, the coordination state
//! machine and the determinism contract.

pub mod medium;
pub mod net;
pub mod policy;
pub mod topology;

pub use medium::{MediumScheduler, SlotPlan, SlotTx, MINISLOT_US};
pub use net::{
    CtlEvent, DataEvent, MeshConfig, MeshNet, MeshReport, StationReport, StationTrace,
};
pub use policy::{CoordinationPolicy, MeshCommand, PolicyPhase, SlotResult};
pub use topology::MeshTopology;

/// SplitMix64 — the crate-internal seed mixer: deterministic, stateless,
/// and good enough to decorrelate per-(cell, slot, station) draws.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
