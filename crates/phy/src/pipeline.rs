//! The zero-copy staged pipeline: caller-owned workspaces threaded
//! through the transmit and receive chains.
//!
//! Every stage of the PHY has two entry points: an allocating form
//! (`build_frame`, `decode`, `receive`, …) and a `*_into` form that
//! writes into buffers borrowed from a workspace defined here. An
//! allocating form returns exactly the type its `*_into` form fills
//! ([`Receiver::receive`] an [`RxWorkspace`], [`Receiver::decode`] an
//! [`RxDecodeOut`]) by running that form on fresh scratch, so there is
//! exactly one implementation of every transform and the two paths are
//! bit-identical by construction (see `docs/ARCHITECTURE.md` for the
//! ownership and determinism rules). An erasure mask from the energy
//! detector goes in one way: a borrowed `Option<&[[bool; NUM_DATA]]>`,
//! one row per DATA symbol, never cloned per frame.
//!
//! A workspace belongs to exactly one session or one worker thread; the
//! structs here are plain bags of buffers with no interior mutability.

use crate::error::PhyError;
use crate::frame::TxBits;
use crate::rx::{FrontEnd, Receiver, RxDecodeOut, RxScratch};
use crate::subcarriers::NUM_DATA;
use crate::sync::{correct_cfo, Acquisition, Synchronizer};
use crate::tx::TxFrame;
use cos_dsp::Complex;

/// Transmit-side workspace: the frame under construction and its rendered
/// waveform, plus the PSDU and packed-bit scratch behind them.
#[derive(Debug, Clone)]
pub struct TxWorkspace {
    /// The frame most recently built by
    /// [`Transmitter::build_frame_into`](crate::tx::Transmitter::build_frame_into).
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
    /// Front end + decode in one call, into a fresh [`RxWorkspace`]: the
    /// front end in `fe`, the decode in `out`.
    ///
    /// # Errors
    ///
    /// Any [`PhyError`] from the front end.
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn receive(
        &self,
        samples: &[Complex],
        erasures: Option<&[[bool; NUM_DATA]]>,
    ) -> Result<RxWorkspace, PhyError> {
        let mut ws = RxWorkspace::new();
        self.receive_into(samples, erasures, &mut ws)?;
        Ok(ws)
    }

    /// [`Receiver::receive`] writing entirely into a caller-owned
    /// [`RxWorkspace`] (`ws.samples` is left untouched — pass the input
    /// separately so a link can fill `ws.samples` first and hand it in).
    ///
    /// # Errors
    ///
    /// Any [`PhyError`] from the front end; `ws` holds unspecified
    /// partial results on error.
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn receive_into(
        &self,
        samples: &[Complex],
        erasures: Option<&[[bool; NUM_DATA]]>,
        ws: &mut RxWorkspace,
    ) -> Result<(), PhyError> {
        let RxWorkspace { fe, scratch, out, .. } = ws;
        self.front_end_into(samples, fe)?;
        self.decode_into(fe, erasures, scratch, out);
        Ok(())
    }

    /// Receives from a raw stream with unknown frame offset and carrier
    /// frequency offset, into a fresh [`RxWorkspace`]: acquires the
    /// preamble, corrects the CFO and decodes (see
    /// [`Receiver::receive_stream_into`]).
    ///
    /// # Errors
    ///
    /// [`PhyError::NoPreamble`] if acquisition fails, else any front-end
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn receive_stream(
        &self,
        stream: &[Complex],
        erasures: Option<&[[bool; NUM_DATA]]>,
    ) -> Result<(Acquisition, RxWorkspace), PhyError> {
        let mut ws = RxWorkspace::new();
        let acq = self.receive_stream_into(stream, erasures, &mut ws)?;
        Ok((acq, ws))
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
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn receive_stream_into(
        &self,
        stream: &[Complex],
        erasures: Option<&[[bool; NUM_DATA]]>,
        ws: &mut RxWorkspace,
    ) -> Result<Acquisition, PhyError> {
        let acq = Synchronizer::default().acquire(stream).ok_or(PhyError::NoPreamble)?;
        ws.aligned.clear();
        ws.aligned.extend_from_slice(&stream[acq.frame_start..]);
        correct_cfo(&mut ws.aligned, acq.cfo_hz);
        let RxWorkspace { aligned, fe, scratch, out, .. } = ws;
        self.front_end_into(aligned, fe)?;
        self.decode_into(fe, erasures, scratch, out);
        Ok(acq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::DataRate;
    use crate::tx::Transmitter;

    #[test]
    fn workspace_roundtrip_matches_owned_path() {
        let payload: Vec<u8> = (0..180).map(|i| (i * 11) as u8).collect();
        let tx = Transmitter::new();
        let rx = Receiver::new();
        let mut ws = PhyWorkspace::new();
        for rate in DataRate::ALL {
            tx.build_frame_into(&payload, rate, 0x2B, &mut ws.tx);
            ws.tx.render();
            let owned_frame = Transmitter::new().build_frame(&payload, rate, 0x2B);
            assert_eq!(ws.tx.samples, owned_frame.to_time_samples(), "{rate}");

            // `ws.rx` still holds the previous rate's decode.
            rx.receive_into(&ws.tx.samples, None, &mut ws.rx).expect("clean decode");
            let fresh = Receiver::new().receive(&ws.tx.samples, None).expect("clean decode");
            assert!(ws.rx.out.crc_ok, "{rate}");
            assert_eq!(ws.rx.out.payload, payload, "{rate}");
            assert_eq!(ws.rx.out, fresh.out, "{rate}");
        }
    }

    #[test]
    fn silence_then_render_flows_through_workspace() {
        let mut ws = TxWorkspace::new();
        Transmitter::new().build_frame_into(&[0xA5; 120], DataRate::Mbps24, 0x5D, &mut ws);
        let clean_energy: f64 = ws.render().iter().map(|x| x.norm_sqr()).sum();
        ws.frame.silence(0, 3);
        ws.frame.silence(1, 17);
        let silenced_energy: f64 = ws.render().iter().map(|x| x.norm_sqr()).sum();
        assert!(silenced_energy < clean_energy);
        assert_eq!(ws.frame.silence_count(), 2);
    }

    #[test]
    fn stream_variant_matches_owned_on_dirty_workspace() {
        use crate::sync::apply_cfo;

        let payload: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let mut stream = vec![Complex::ZERO; 137];
        stream.extend(
            Transmitter::new().build_frame(&payload, DataRate::Mbps24, 0x5D).to_time_samples(),
        );
        apply_cfo(&mut stream, 1_500.0);

        let rx = Receiver::new();
        let (acq_fresh, fresh) = rx.receive_stream(&stream, None).expect("fresh stream decode");

        // Dirty the workspace with an unrelated frame first — the stream
        // variant must fully overwrite it.
        let mut ws = RxWorkspace::new();
        let other =
            Transmitter::new().build_frame(&[0x77; 90], DataRate::Mbps6, 0x11).to_time_samples();
        rx.receive_into(&other, None, &mut ws).expect("warm-up decode");
        let acq = rx.receive_stream_into(&stream, None, &mut ws).expect("stream decode");

        assert_eq!(acq.frame_start, acq_fresh.frame_start);
        assert_eq!(acq.cfo_hz.to_bits(), acq_fresh.cfo_hz.to_bits());
        assert_eq!(acq.confidence.to_bits(), acq_fresh.confidence.to_bits());
        assert_eq!(ws.aligned, fresh.aligned);
        assert!(ws.out.crc_ok);
        assert_eq!(ws.out.payload, payload);
        assert_eq!(ws.out, fresh.out);
    }
}
