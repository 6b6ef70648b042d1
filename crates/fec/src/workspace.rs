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
    /// it, so staged pipelines can hand the decoder a bare slice without
    /// reaching into the workspace.
    /// Only the length is set: the decoder stores every step's word before
    /// traceback reads it, so stale words from a longer frame are never
    /// seen and refilling them with zeros would be a dead memset.
    pub fn prepared(&mut self, steps: usize) -> &mut [u64] {
        self.prev_lsbs.resize(steps, 0);
        &mut self.prev_lsbs
    }
}

/// Retired lockstep staging: holds nothing. It stays only so the
/// [`crate::ViterbiDecoder::decode_lockstep`] shim keeps the signature the
/// frame-pipeline benchmark calls, and retires with that shim.
#[derive(Debug, Clone, Default)]
pub struct SymbolBatch {
    _private: (),
}

impl SymbolBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scratch for a full DATA-field decode pass: the Viterbi input in
/// mother-code order (staged in one pass by the PHY's RX bit plan), the
/// traceback and the decoded bits.
///
/// The fields are public so higher layers (`cos-phy`) can thread
/// individual buffers through a staged pipeline without borrowing the
/// whole struct at once.
#[derive(Debug, Clone, Default)]
pub struct FecWorkspace {
    /// Viterbi input: quantised soft bits in mother-code order, `0` (an
    /// erasure) at punctured positions.
    pub mother_llrs: Vec<i16>,
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
