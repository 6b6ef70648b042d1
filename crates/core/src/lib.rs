//! CoS — Communication through Symbol Silence (ICDCS 2017).
//!
//! CoS conveys *free* control messages inside ordinary 802.11a data
//! frames: selected data symbols are transmitted at **zero power**
//! ("silence symbols") and the control bits live in the **intervals**
//! between consecutive silences. The erased data symbols are recovered by
//! the convolutional code's redundancy via erasure Viterbi decoding, and
//! the silences are placed on **weak subcarriers** predicted from
//! per-subcarrier EVM feedback so they largely coincide with symbols
//! fading would have corrupted anyway.
//!
//! The crate maps one-to-one onto the paper's §III design components:
//!
//! * [`interval`] — modulation/demodulation of control messages
//!   (k = 4 bits per inter-silence interval; §III-B),
//! * [`power_controller`] — silence insertion at the transmitter's IFFT
//!   input (§III-B, Eq. 3),
//! * [`energy_detector`] — symbol-level energy detection with the
//!   pilot-aided adaptive threshold (§III-C, Eq. 5–6),
//! * [`subcarrier_select`] — weak-subcarrier selection by comparing
//!   per-subcarrier EVM against half the minimum constellation distance
//!   (§III-D),
//! * [`feedback`] — the one-OFDM-symbol bit-vector `V` that feeds the
//!   selection back to the transmitter (§III-D),
//! * [`duplex`] — the feedback path itself: `V` and the measured SNR
//!   riding the ACK frame as CoS silences (§III-A),
//! * erasure Viterbi decoding (§III-E) lives in [`cos_fec::viterbi`] —
//!   the detector's erasure mask becomes zero LLRs in the standard
//!   decoder,
//! * [`control_rate`] — adaptive rate selection of control messages from
//!   an SNR → `Rm` lookup table (§III-F),
//! * [`messages`] — typed, checksummed control messages (scheduling,
//!   congestion, power save) for the applications the paper motivates,
//! * [`session`] — an end-to-end CoS link tying all of the above to the
//!   802.11a PHY and the indoor channel models,
//! * [`baseline`] — an hJam/Flashback-style interference-margin side
//!   channel, the related-work comparison (§V),
//! * [`validation`] — decision-directed coherent silence validation, a
//!   receiver-side extension that recovers near-exact control accuracy on
//!   high-order QAM,
//! * [`resilience`] — the fault-tolerance layer: control-message ARQ,
//!   detector-threshold recalibration, and the degraded-mode state
//!   machine that falls back to plain data transmission when the control
//!   channel stops working (see `docs/ROBUSTNESS.md`),
//! * [`engine`] — the batched multi-session engine: a generational
//!   [`SessionPool`] plus a
//!   [`BatchEngine`] that shards frame jobs across
//!   worker threads with byte-identical outcomes at any thread count,
//! * [`adaptation`] — the closed control loop over everything above: an
//!   EWMA-SNR **rate staircase** with hysteresis bands and an RFC
//!   8899-style **silence-budget probe search**, so each session
//!   converges to the rate and silence budget its channel actually
//!   supports (§II-B, Fig. 2; see `docs/ADAPTATION.md`),
//! * [`mesh`] — the multi-node cell on top of the engine: N stations and
//!   an AP on a shared channel ([`mesh::MeshNet`]), with mini-slot DCF
//!   contention, hidden-terminal collisions composed through
//!   [`Overlap`](cos_channel::Overlap) impairments, and an AP
//!   [`CoordinationPolicy`] whose scheduling
//!   commands ride the CoS silence plane for free (see `docs/MESH.md`),
//! * [`service`] — the overload-safe async front door on the engine:
//!   admission control with typed rejection, bounded queues with
//!   deadlines and retry budgets, a watchdog + dead-letter quarantine,
//!   and a deterministic replay journal that reproduces any live run
//!   bit-exactly offline (see `docs/ROBUSTNESS.md`).
//!
//! # Examples
//!
//! ```
//! use cos_core::session::{CosSession, SessionConfig};
//!
//! let mut session = CosSession::new(SessionConfig { snr_db: 18.0, ..Default::default() }, 7);
//! let report = session.send_packet_summary(b"data payload", &[1, 0, 1, 1, 0, 0, 1, 0]);
//! assert!(report.data_ok);
//! assert!(report.control_ok, "the control bits arrive exactly as sent");
//! ```

#![warn(missing_docs)]

pub mod adaptation;
pub mod baseline;
pub mod control_rate;
pub mod duplex;
pub mod energy_detector;
pub mod engine;
pub mod feedback;
pub mod interval;
pub mod mesh;
pub mod messages;
pub mod power_controller;
pub mod resilience;
pub mod service;
pub mod session;
pub mod subcarrier_select;
pub mod validation;

pub use adaptation::{
    AdaptationConfig, AdaptationEvents, LinkAdaptationController, ProbeEvent, ProbeState,
    RateStaircase, SilenceProbeSearch, SnrEstimator, StaircaseEvent,
};
pub use control_rate::ControlRateTable;
pub use energy_detector::EnergyDetector;
pub use engine::{
    configured_threads, run_indexed, BatchEngine, ControlId, EngineConfig, JobOutcome, JobResult,
    PayloadId, SessionId, SessionPool,
};
pub use interval::IntervalCodec;
pub use mesh::{
    CoordinationConfig, CoordinationPolicy, MediumConfig, MediumScheduler, MeshCommand,
    MeshConfig, MeshNet, MeshReport, MeshTopology, StationReport,
};
pub use power_controller::PowerController;
pub use resilience::{
    ArqHistograms, ArqStats, ControlArq, DegradedModeController, LinkMode, ModeTransition,
    PhyErrorTally, ResilienceConfig, ThresholdRecalibrator,
};
pub use service::journal::{JournalError, ReplayJournal, ReplayReport};
pub use service::{
    CosService, DeadLetter, FaultPlan, QuarantineReason, Rejected, ServiceConfig, ServiceCore,
    ServiceJobKind, ServiceOutcome, ServiceResult, ServiceStats, Ticket,
};
pub use session::{
    AdaptiveSummary, CosSession, PacketSummary, ResilientSummary, SessionConfig, SessionMetrics,
};
pub use subcarrier_select::{select_control_subcarriers, SelectionPolicy};
pub use validation::sanitize_selection;
