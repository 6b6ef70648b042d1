//! Indoor wireless channel models for the CoS simulator.
//!
//! The paper's experiments run between two Sora nodes in an indoor lab;
//! this crate replaces the air with models that reproduce the three channel
//! properties CoS depends on:
//!
//! 1. **Frequency-selective fading** ([`multipath`]) — a tapped-delay-line
//!    Rayleigh/Rician channel with an exponential power-delay profile,
//!    giving each OFDM subcarrier a different gain (paper Fig. 5/6),
//! 2. **Slow temporal variation** ([`multipath::IndoorChannel::advance`]) —
//!    a first-order Gauss–Markov evolution of the diffuse taps around a
//!    static specular component, calibrated to walking-speed Doppler
//!    (paper Fig. 7),
//! 3. **Noise and interference** ([`awgn`], [`interference`]) — AWGN at a
//!    calibrated SNR plus optional strong pulse interference (paper
//!    Fig. 10d).
//!
//! [`sounder`] plays the role of the paper's channel-sounder equipment: it
//! reads the ground-truth taps the simulator knows exactly.
//!
//! # Examples
//!
//! ```
//! use cos_channel::{ChannelConfig, Link};
//! use cos_dsp::Complex;
//!
//! let mut link = Link::new(ChannelConfig::default(), 20.0, 42);
//! let tx = vec![Complex::ONE; 256];
//! let rx = link.transmit(&tx);
//! assert_eq!(rx.len(), 256 + link.channel().tap_count() - 1);
//! ```

pub mod awgn;
pub mod calibration;
pub mod impairment;
pub mod interference;
pub mod link;
pub mod multipath;
pub mod overlap;
pub mod sounder;

pub use awgn::Awgn;
pub use calibration::Calibration;
pub use impairment::{
    AgcTransient, BurstInterference, CfoDrift, CollisionOverlap, FaultEngine, FeedbackCorruption,
    FeedbackFate, FeedbackLoss, FeedbackStaleness, Impairment, ImpairmentCtx, MidFrameTruncation,
};
pub use interference::PulseInterferer;
pub use link::Link;
pub use overlap::{Overlap, OverlapComposer};
pub use multipath::{ChannelConfig, ConvScratch, IndoorChannel};
pub use sounder::ChannelSounder;
