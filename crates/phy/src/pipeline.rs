//! The zero-copy staged pipeline: caller-owned workspaces threaded
//! through the transmit and receive chains.
//!
//! Every stage of the PHY has two entry points: an owned API that
//! allocates its result (`build_frame`, `receive`, …) and a `*_into`
//! variant that writes into buffers borrowed from a workspace defined
//! here. The owned APIs are thin wrappers over the `*_into`
//! implementations with fresh scratch, so there is exactly one
//! implementation of every transform and the two paths are bit-identical
//! by construction (see `docs/ARCHITECTURE.md` for the ownership and
//! determinism rules).
//!
//! A workspace belongs to exactly one session or one worker thread; the
//! structs here are plain bags of buffers with no interior mutability.

use crate::frame::{run_staged_viterbi, staged_lane_frame, PreparedDataField, TxBits};
use crate::ofdm::FreqSymbol;
use crate::rates::DataRate;
use crate::rx::{FrontEnd, Receiver, RxConfig, RxDecodeOut, RxFrame, RxScratch};
use crate::subcarriers::NUM_DATA;
use crate::sync::{correct_cfo, Acquisition, Synchronizer};
use crate::tx::{Transmitter, TxFrame};
use crate::error::PhyError;
use cos_dsp::lanes::LANES;
use cos_dsp::Complex;
use cos_fec::{SymbolBatch, ViterbiDecoder};

/// Transmit-side workspace: the frame under construction and its rendered
/// waveform, plus the PSDU and packed-bit scratch behind them.
#[derive(Debug, Clone)]
pub struct TxWorkspace {
    /// The frame most recently built by [`Transmitter::build_frame_into`].
    pub frame: TxFrame,
    /// The waveform most recently rendered by [`TxWorkspace::render`].
    pub samples: Vec<Complex>,
    /// PSDU assembly scratch (payload ‖ FCS).
    pub psdu: Vec<u8>,
    /// Packed scratch of the transmit bit chain.
    pub bits: TxBits,
}

impl Default for TxWorkspace {
    fn default() -> Self {
        TxWorkspace {
            frame: TxFrame::empty(),
            samples: Vec::new(),
            psdu: Vec::new(),
            bits: TxBits::new(),
        }
    }
}

impl TxWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        TxWorkspace::default()
    }

    /// Renders `self.frame` (including any silences inserted since it was
    /// built) into `self.samples`, fully overwriting them.
    pub fn render(&mut self) -> &[Complex] {
        let TxWorkspace { frame, samples, .. } = self;
        frame.to_time_samples_into(samples);
        samples
    }
}

/// Receive-side workspace: a landing zone for channel output, the
/// front-end measurements, and the decoder's scratch and output.
#[derive(Debug, Clone)]
pub struct RxWorkspace {
    /// Landing zone for the channel's output waveform (filled by e.g.
    /// `cos_channel::Link::transmit_into`).
    pub samples: Vec<Complex>,
    /// Frame-aligned, CFO-corrected copy of a raw stream (filled by
    /// [`Receiver::receive_stream_into`]).
    pub aligned: Vec<Complex>,
    /// Front-end measurements of the last received frame.
    pub fe: FrontEnd,
    /// Decoder scratch.
    pub scratch: RxScratch,
    /// Decoder output for the last received frame.
    pub out: RxDecodeOut,
}

impl Default for RxWorkspace {
    fn default() -> Self {
        RxWorkspace {
            samples: Vec::new(),
            aligned: Vec::new(),
            fe: FrontEnd::empty(),
            scratch: RxScratch::default(),
            out: RxDecodeOut::default(),
        }
    }
}

impl RxWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        RxWorkspace::default()
    }

    /// Materialises the last decode as an owned [`RxFrame`].
    pub fn to_rx_frame(&self) -> RxFrame {
        self.out.to_rx_frame(&self.fe)
    }
}

/// One session's (or one worker thread's) complete PHY scratch.
#[derive(Debug, Clone, Default)]
pub struct PhyWorkspace {
    /// Transmit-side buffers.
    pub tx: TxWorkspace,
    /// Receive-side buffers.
    pub rx: RxWorkspace,
}

impl PhyWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        PhyWorkspace::default()
    }
}

impl Receiver {
    /// Front end + decode writing entirely into a caller-owned
    /// [`RxWorkspace`] (`ws.samples` is left untouched — pass the input
    /// separately so a link can fill `ws.samples` first and hand it in).
    ///
    /// # Errors
    ///
    /// Any [`PhyError`] from the front end; `ws` holds unspecified
    /// partial results on error.
    pub fn receive_into(
        &self,
        samples: &[Complex],
        config: &RxConfig<'_>,
        ws: &mut RxWorkspace,
    ) -> Result<(), PhyError> {
        let RxWorkspace { fe, scratch, out, .. } = ws;
        self.front_end_into(samples, fe)?;
        self.decode_into(fe, config.erasures, scratch, out);
        Ok(())
    }

    /// Stream variant of [`Receiver::receive_into`]: acquires the
    /// preamble from a raw stream with unknown frame offset and CFO,
    /// aligns and CFO-corrects the frame into `ws.aligned`, then runs
    /// front end + decode into `ws`.
    ///
    /// # Errors
    ///
    /// [`PhyError::NoPreamble`] if acquisition fails, else any front-end
    /// error; `ws` holds unspecified partial results on error.
    pub fn receive_stream_into(
        &self,
        stream: &[Complex],
        config: &RxConfig<'_>,
        ws: &mut RxWorkspace,
    ) -> Result<Acquisition, PhyError> {
        let acq = Synchronizer::default().acquire(stream).ok_or(PhyError::NoPreamble)?;
        ws.aligned.clear();
        ws.aligned.extend_from_slice(&stream[acq.frame_start..]);
        correct_cfo(&mut ws.aligned, acq.cfo_hz);
        let RxWorkspace { aligned, fe, scratch, out, .. } = ws;
        self.front_end_into(aligned, fe)?;
        self.decode_into(fe, config.erasures, scratch, out);
        Ok(acq)
    }
}

/// A named stage of the zero-copy pipeline. The trait is the seam later
/// work hangs batching, sharding and per-stage instrumentation off: a
/// stage owns no buffers, declares its workspace type, and can restore
/// any workspace to a like-new state.
pub trait PipelineStage {
    /// The scratch this stage borrows per invocation.
    type Workspace;

    /// Stable, human-readable stage name (for instrumentation).
    fn name(&self) -> &'static str;

    /// Clears a workspace back to its just-constructed state (buffer
    /// capacity may be retained).
    fn reset(&self, ws: &mut Self::Workspace);
}

/// The transmit stage: payload in, frequency-domain frame + waveform out.
#[derive(Debug, Clone, Default)]
pub struct TxPipeline {
    tx: Transmitter,
}

impl TxPipeline {
    /// Creates the stage.
    pub fn new() -> Self {
        TxPipeline::default()
    }

    /// The wrapped transmitter.
    pub fn transmitter(&self) -> &Transmitter {
        &self.tx
    }

    /// Builds a frame into `ws.frame` and renders `ws.samples` in one
    /// step. Insert silences between [`Transmitter::build_frame_into`] and
    /// [`TxWorkspace::render`] instead when CoS control embedding is
    /// needed.
    pub fn build_and_render(
        &self,
        payload: &[u8],
        rate: DataRate,
        scrambler_seed: u8,
        ws: &mut TxWorkspace,
    ) {
        self.tx.build_frame_into(payload, rate, scrambler_seed, ws);
        ws.render();
    }
}

impl PipelineStage for TxPipeline {
    type Workspace = TxWorkspace;

    fn name(&self) -> &'static str {
        "tx"
    }

    fn reset(&self, ws: &mut Self::Workspace) {
        ws.frame.data_symbols.clear();
        ws.frame.mapped_points.clear();
        ws.frame.silence_mask.clear();
        ws.frame.signal_symbol = FreqSymbol::empty();
        ws.samples.clear();
        ws.psdu.clear();
    }
}

/// The receive stage: waveform in, front-end measurements + decoded bits
/// out.
#[derive(Debug, Clone, Default)]
pub struct RxPipeline {
    rx: Receiver,
}

impl RxPipeline {
    /// Creates the stage.
    pub fn new() -> Self {
        RxPipeline::default()
    }

    /// The wrapped receiver.
    pub fn receiver(&self) -> &Receiver {
        &self.rx
    }

    /// Runs front end + decode into `ws`.
    ///
    /// # Errors
    ///
    /// Any [`PhyError`] from the front end.
    pub fn receive_into(
        &self,
        samples: &[Complex],
        config: &RxConfig<'_>,
        ws: &mut RxWorkspace,
    ) -> Result<(), PhyError> {
        self.rx.receive_into(samples, config, ws)
    }

    /// Decodes a batch of independent frames, running their Viterbi
    /// trellises in lockstep ([`LANES`] frames per instruction) wherever a group
    /// of [`LANES`] frames staged cleanly — bit-identical to calling
    /// [`Receiver::decode_into`] on each frame in order.
    ///
    /// Frames whose preparation fails (e.g. too short), and the trailing
    /// `frames.len() % LANES` remainder, fall back to the per-frame kernel
    /// transparently. Each frame's `prep` slot is filled as a side effect;
    /// callers never need to initialise it beyond `None`.
    ///
    /// Allocation-free at steady state: the staging buffer in `batch`
    /// grows to the largest lane group and is then reused.
    ///
    /// # Panics
    ///
    /// Panics if an erasure mask's length differs from its frame's symbol
    /// count.
    pub fn decode_batch_into(&self, frames: &mut [RxBatchFrame<'_>], batch: &mut SymbolBatch) {
        // Stage 1: demap + FEC staging per frame.
        for f in frames.iter_mut() {
            f.prep = Some(self.rx.decode_prepare_into(f.fe, f.erasures, f.scratch, f.out));
        }
        // Stage 2: Viterbi — lockstep over whole lane groups where every
        // frame staged, per-frame otherwise.
        let decoder = ViterbiDecoder::new();
        for chunk in frames.chunks_mut(LANES) {
            if chunk.len() == LANES && chunk.iter().all(|f| matches!(f.prep, Some(Ok(_)))) {
                let mut staged = chunk.iter_mut().map(|f| {
                    let prep = f.prep.expect("just checked").expect("just checked");
                    staged_lane_frame(prep, &mut f.scratch.fec)
                });
                let mut lanes: [_; LANES] = std::array::from_fn(|_| staged.next().expect("LANES frames"));
                decoder.decode_lockstep(&mut lanes, true, batch);
            } else {
                for f in chunk.iter_mut() {
                    if let Some(Ok(prep)) = f.prep {
                        run_staged_viterbi(prep, &mut f.scratch.fec);
                    }
                }
            }
        }
        // Stage 3: descramble + CRC per frame.
        for f in frames.iter_mut() {
            let prep = f.prep.take().expect("staged above");
            self.rx.decode_finish_into(f.fe, prep, f.scratch, f.out);
        }
    }
}

/// One frame's slot in a [`RxPipeline::decode_batch_into`] call: the
/// front end it was measured with, its erasure mask, and the caller-owned
/// buffers the decode writes into. The batch seam is how `BatchEngine`
/// workers decode several sessions' symbols per instruction.
#[derive(Debug)]
pub struct RxBatchFrame<'a> {
    /// Front-end measurements of this frame.
    pub fe: &'a FrontEnd,
    /// Erasure mask (one row per DATA symbol), as in [`RxConfig`].
    pub erasures: Option<&'a [[bool; NUM_DATA]]>,
    /// This frame's decoder scratch (owned by its session/worker).
    pub scratch: &'a mut RxScratch,
    /// This frame's decoder output.
    pub out: &'a mut RxDecodeOut,
    /// Staging slot filled by [`RxPipeline::decode_batch_into`];
    /// initialise to `None`.
    pub prep: Option<Result<PreparedDataField, PhyError>>,
}

impl<'a> RxBatchFrame<'a> {
    /// Wraps one frame's borrows as a batch slot.
    pub fn new(
        fe: &'a FrontEnd,
        erasures: Option<&'a [[bool; NUM_DATA]]>,
        scratch: &'a mut RxScratch,
        out: &'a mut RxDecodeOut,
    ) -> Self {
        RxBatchFrame { fe, erasures, scratch, out, prep: None }
    }
}

impl PipelineStage for RxPipeline {
    type Workspace = RxWorkspace;

    fn name(&self) -> &'static str {
        "rx"
    }

    fn reset(&self, ws: &mut Self::Workspace) {
        ws.samples.clear();
        ws.aligned.clear();
        ws.fe.raw_symbols.clear();
        ws.fe.data_y.clear();
        ws.fe.equalized.clear();
        ws.out = RxDecodeOut::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_roundtrip_matches_owned_path() {
        let payload: Vec<u8> = (0..180).map(|i| (i * 11) as u8).collect();
        let tx = TxPipeline::new();
        let rx = RxPipeline::new();
        let mut ws = PhyWorkspace::new();
        for rate in DataRate::ALL {
            tx.build_and_render(&payload, rate, 0x2B, &mut ws.tx);
            let owned_frame = Transmitter::new().build_frame(&payload, rate, 0x2B);
            assert_eq!(ws.tx.samples, owned_frame.to_time_samples(), "{rate}");

            rx.receive_into(&ws.tx.samples, &RxConfig::ideal(), &mut ws.rx)
                .expect("clean decode");
            let owned = Receiver::new()
                .receive(&ws.tx.samples, &RxConfig::ideal())
                .expect("clean decode");
            assert_eq!(ws.rx.out.crc_ok, owned.crc_ok(), "{rate}");
            assert_eq!(ws.rx.out.payload, payload, "{rate}");
            assert_eq!(ws.rx.out.data_bits, owned.data_bits, "{rate}");
            assert_eq!(ws.rx.out.hard_coded_bits, owned.hard_coded_bits, "{rate}");
        }
    }

    #[test]
    fn silence_then_render_flows_through_workspace() {
        let tx = TxPipeline::new();
        let mut ws = TxWorkspace::new();
        tx.transmitter()
            .build_frame_into(&[0xA5; 120], DataRate::Mbps24, 0x5D, &mut ws);
        let clean_energy: f64 = ws.render().iter().map(|x| x.norm_sqr()).sum();
        ws.frame.silence(0, 3);
        ws.frame.silence(1, 17);
        let silenced_energy: f64 = ws.render().iter().map(|x| x.norm_sqr()).sum();
        assert!(silenced_energy < clean_energy);
        assert_eq!(ws.frame.silence_count(), 2);
    }

    #[test]
    fn stream_variant_matches_owned_on_dirty_workspace() {
        use crate::rx::RxFrame;
        use crate::sync::apply_cfo;

        let payload: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let mut stream = vec![Complex::ZERO; 137];
        stream.extend(
            Transmitter::new().build_frame(&payload, DataRate::Mbps24, 0x5D).to_time_samples(),
        );
        apply_cfo(&mut stream, 1_500.0);

        let rx = Receiver::new();
        let (acq_owned, frame_owned): (Acquisition, RxFrame) =
            rx.receive_stream(&stream, &RxConfig::ideal()).expect("owned stream decode");

        // Dirty the workspace with an unrelated frame first — the stream
        // variant must fully overwrite it.
        let mut ws = RxWorkspace::new();
        let other =
            Transmitter::new().build_frame(&[0x77; 90], DataRate::Mbps6, 0x11).to_time_samples();
        rx.receive_into(&other, &RxConfig::ideal(), &mut ws).expect("warm-up decode");
        let acq =
            rx.receive_stream_into(&stream, &RxConfig::ideal(), &mut ws).expect("stream decode");

        assert_eq!(acq.frame_start, acq_owned.frame_start);
        assert_eq!(acq.cfo_hz.to_bits(), acq_owned.cfo_hz.to_bits());
        assert_eq!(acq.confidence.to_bits(), acq_owned.confidence.to_bits());
        assert!(ws.out.crc_ok);
        assert_eq!(Some(&ws.out.payload), frame_owned.payload.as_ref());
        assert_eq!(ws.out.data_bits, frame_owned.data_bits);
        assert_eq!(ws.out.hard_coded_bits, frame_owned.hard_coded_bits);
    }

    #[test]
    fn batch_decode_matches_per_frame_including_remainder() {
        // 6 frames (one full lane group + 2 remainder) of mixed rates and
        // lengths, one with an erasure mask: batch decode must be
        // bit-identical to per-frame decode_into.
        let rates = [
            DataRate::Mbps6,
            DataRate::Mbps24,
            DataRate::Mbps24,
            DataRate::Mbps54,
            DataRate::Mbps12,
            DataRate::Mbps48,
        ];
        let tx = Transmitter::new();
        let rx = RxPipeline::new();
        let mut fes = Vec::new();
        let mut masks: Vec<Option<Vec<[bool; NUM_DATA]>>> = Vec::new();
        for (k, &rate) in rates.iter().enumerate() {
            let payload: Vec<u8> = (0..60 + k * 37).map(|i| (i * 31 + k) as u8).collect();
            let mut frame = tx.build_frame(&payload, rate, 0x5D);
            let mask = if k == 2 {
                let mut m = vec![[false; NUM_DATA]; frame.n_data_symbols()];
                for (n, row) in m.iter_mut().enumerate() {
                    let sc = (n * 5) % NUM_DATA;
                    frame.silence(n, sc);
                    row[sc] = true;
                }
                Some(m)
            } else {
                None
            };
            let fe = rx.receiver().front_end(&frame.to_time_samples()).expect("front end");
            fes.push(fe);
            masks.push(mask);
        }

        // Per-frame reference.
        let mut reference = Vec::new();
        for (fe, mask) in fes.iter().zip(masks.iter()) {
            let mut scratch = RxScratch::default();
            let mut out = RxDecodeOut::default();
            rx.receiver().decode_into(fe, mask.as_deref(), &mut scratch, &mut out);
            reference.push(out);
        }

        // Batched decode into dirty workspaces.
        let mut scratches: Vec<RxScratch> = Vec::new();
        let mut outs: Vec<RxDecodeOut> = Vec::new();
        for fe in fes.iter() {
            let mut scratch = RxScratch::default();
            let mut out = RxDecodeOut::default();
            rx.receiver().decode_into(&fes[0], None, &mut scratch, &mut out); // dirty
            let _ = fe;
            scratches.push(scratch);
            outs.push(out);
        }
        let mut frames: Vec<RxBatchFrame<'_>> = fes
            .iter()
            .zip(masks.iter())
            .zip(scratches.iter_mut().zip(outs.iter_mut()))
            .map(|((fe, mask), (scratch, out))| RxBatchFrame::new(fe, mask.as_deref(), scratch, out))
            .collect();
        let mut batch = SymbolBatch::new();
        rx.decode_batch_into(&mut frames, &mut batch);
        drop(frames);

        for (k, (got, want)) in outs.iter().zip(reference.iter()).enumerate() {
            assert_eq!(got.crc_ok, want.crc_ok, "frame {k}");
            assert_eq!(got.payload, want.payload, "frame {k}");
            assert_eq!(got.data_bits, want.data_bits, "frame {k}");
            assert_eq!(got.hard_coded_bits, want.hard_coded_bits, "frame {k}");
            assert_eq!(got.scrambler_seed, want.scrambler_seed, "frame {k}");
            assert!(got.crc_ok, "frame {k} should decode cleanly");
        }
    }

    #[test]
    fn stage_reset_clears_workspaces() {
        let tx = TxPipeline::new();
        let rx = RxPipeline::new();
        let mut ws = PhyWorkspace::new();
        tx.build_and_render(b"reset me", DataRate::Mbps6, 0x11, &mut ws.tx);
        rx.receive_into(&ws.tx.samples.clone(), &RxConfig::ideal(), &mut ws.rx)
            .expect("decodes");
        assert_eq!(tx.name(), "tx");
        assert_eq!(rx.name(), "rx");
        tx.reset(&mut ws.tx);
        rx.reset(&mut ws.rx);
        assert!(ws.tx.samples.is_empty());
        assert!(ws.tx.frame.data_symbols.is_empty());
        assert!(ws.rx.samples.is_empty());
        assert!(!ws.rx.out.crc_ok);
    }
}
