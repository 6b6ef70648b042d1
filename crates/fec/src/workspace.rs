//! Reusable scratch buffers for the FEC chain.
//!
//! Every transform in this crate allocates its output when called through
//! the owned API (`encode`, `decode`, `interleave`, …). The `*_into`
//! variants introduced alongside them write into caller-owned buffers
//! instead, so a Monte-Carlo loop that decodes millions of frames touches
//! the allocator only while the buffers grow to their steady-state size.
//!
//! The workspaces here are plain bags of `Vec`s: no pooling, no
//! interior mutability. Ownership stays with the caller (one workspace per
//! session or per thread), which keeps the reuse story trivially
//! data-race-free and — because every `*_into` method fully overwrites the
//! region it returns — deterministic regardless of what a previous frame
//! left behind.

/// Scratch for [`crate::ViterbiDecoder::decode_into`]: the per-step
/// traceback bitsets.
#[derive(Debug, Clone, Default)]
pub struct ViterbiWorkspace {
    /// One 64-bit predecessor bitset per trellis step.
    pub(crate) prev_lsbs: Vec<u64>,
}

impl ViterbiWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the traceback scratch for a `steps`-step trellis and returns
    /// it, so staged pipelines can hand the decoder a bare slice (e.g. via
    /// [`crate::LaneFrame`]) without reaching into the workspace.
    pub fn prepared(&mut self, steps: usize) -> &mut [u64] {
        self.prev_lsbs.clear();
        self.prev_lsbs.resize(steps, 0);
        &mut self.prev_lsbs
    }
}

/// SoA staging for the batch-of-frames Viterbi kernel
/// ([`crate::ViterbiDecoder::decode_lockstep`]): the soft bits of one
/// lane group of frames transposed so position `i` of every frame is
/// contiguous (`soa_llrs[i * LANES + lane]`), which turns the lockstep
/// kernel's per-step loads into plain lane reads, plus the lane-major
/// survivor masks the lockstep traceback walks (`mask_rows[t * STATES +
/// state]`, bit `lane` = winning predecessor LSB).
///
/// One `SymbolBatch` belongs to whoever drives a batch of frames — an
/// engine worker decoding several sessions' symbols per instruction, or a
/// bench loop — not to any single session's [`FecWorkspace`], because the
/// batch spans sessions by design. The buffers grow to the largest lane
/// group ever staged and are then reused allocation-free (gated by
/// `alloc_gate --check`).
#[derive(Debug, Clone, Default)]
pub struct SymbolBatch {
    /// Lane-transposed soft bits of the current lane group.
    pub(crate) soa_llrs: Vec<f64>,
    /// Per-step, per-state winner masks of the current lane group: byte
    /// `t * STATES + state` holds one survivor bit per lane.
    pub(crate) mask_rows: Vec<u8>,
}

impl SymbolBatch {
    /// Creates an empty batch; the staging buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scratch for a full DATA-field decode pass
/// (deinterleave → depuncture → Viterbi).
///
/// The fields are public so higher layers (`cos-phy`) can thread
/// individual buffers through a staged pipeline without borrowing the
/// whole struct at once.
#[derive(Debug, Clone, Default)]
pub struct FecWorkspace {
    /// Soft bits after de-interleaving.
    pub deinterleaved: Vec<f64>,
    /// Soft bits after de-puncturing (mother-code order).
    pub mother_llrs: Vec<f64>,
    /// Viterbi output (scrambled data bits).
    pub decoded: Vec<u8>,
    /// Traceback scratch for the Viterbi decoder.
    pub viterbi: ViterbiWorkspace,
}

impl FecWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
