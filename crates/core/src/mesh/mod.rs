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
