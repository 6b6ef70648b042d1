//! An end-to-end link: multipath channel + AWGN (+ optional impairments,
//! interference among them) at a calibrated SNR.
//!
//! The link defines its SNR against the **nominal** transmit power of an
//! 802.11a waveform (52 used bins over a 64-sample body ⇒ 52/64 per
//! sample) and a unit-mean channel gain, so the *actual* received SNR of a
//! given realisation fluctuates with the channel draw — precisely the
//! spread between nominal, measured and actual SNR that the paper's Fig. 2
//! exploits.

use crate::awgn::Awgn;
use crate::calibration::Calibration;
use crate::impairment::{rotate_cfo, FaultEngine, FeedbackFate, ImpairmentCtx};
use crate::multipath::{ChannelConfig, IndoorChannel};
use crate::sounder::ChannelSounder;
use cos_dsp::{db_to_linear, Complex, KernelMode};

/// The nominal per-sample transmit power of an 802.11a waveform: 52
/// unit-energy bins through a `1/N`-normalised 64-point IFFT put
/// `52/64` total energy into 64 samples, i.e. `52/64²` per sample.
pub const NOMINAL_TX_POWER: f64 = 52.0 / (64.0 * 64.0);

/// A point-to-point link at a configured average SNR.
#[derive(Debug, Clone)]
pub struct Link {
    channel: IndoorChannel,
    awgn: Awgn,
    snr_db: f64,
    /// Carrier frequency offset between the two radios' oscillators (Hz).
    cfo_hz: f64,
    /// Noise-only samples prepended before the frame (receiver sees an
    /// idle channel first, as a real stream would).
    lead_in: usize,
    /// Optional fault-injection engine (see [`crate::impairment`]).
    faults: Option<FaultEngine>,
    /// Packets transmitted so far — drives fault windows.
    packet_index: u64,
    /// Accumulated airtime in seconds (at 20 Msps) — drives drift faults.
    airtime_s: f64,
}

impl Link {
    /// Creates a link over a fresh channel realisation.
    ///
    /// `snr_db` is the average SNR: nominal TX power over noise power for
    /// a unit-gain channel.
    pub fn new(config: ChannelConfig, snr_db: f64, seed: u64) -> Self {
        let noise_var = NOMINAL_TX_POWER / db_to_linear(snr_db);
        Link {
            channel: IndoorChannel::new(config, seed),
            awgn: Awgn::new(noise_var, seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
            snr_db,
            cfo_hz: 0.0,
            lead_in: 0,
            faults: None,
            packet_index: 0,
            airtime_s: 0.0,
        }
    }

    /// Adds a carrier frequency offset between the radios. 802.11 allows
    /// ±20 ppm per side; at 5.2 GHz that is up to ≈ ±208 kHz combined.
    pub fn with_cfo(mut self, cfo_hz: f64) -> Self {
        self.cfo_hz = cfo_hz;
        self
    }

    /// Prepends `samples` of noise-only lead-in to each transmission, so
    /// the receiver must find the frame (exercises `cos_phy::sync`
    /// when the samples are consumed by `Receiver::receive_stream`).
    pub fn with_lead_in(mut self, samples: usize) -> Self {
        self.lead_in = samples;
        self
    }

    /// Attaches a fault-injection engine (builder style).
    pub fn with_faults(mut self, engine: FaultEngine) -> Self {
        self.faults = Some(engine);
        self
    }

    /// Attaches or clears the fault-injection engine.
    pub fn set_faults(&mut self, engine: Option<FaultEngine>) {
        self.faults = engine;
    }

    /// The attached fault engine, if any.
    pub fn faults(&self) -> Option<&FaultEngine> {
        self.faults.as_ref()
    }

    /// The fate of the EVM feedback report for the packet most recently
    /// transmitted — [`FeedbackFate::Deliver`] when no engine is attached.
    pub fn feedback_fate(&mut self) -> FeedbackFate {
        let ctx = ImpairmentCtx {
            packet_index: self.packet_index.saturating_sub(1),
            time_s: self.airtime_s,
            noise_var: self.awgn.noise_var(),
        };
        match &mut self.faults {
            Some(engine) => engine.feedback_fate(&ctx),
            None => FeedbackFate::Deliver,
        }
    }

    /// The configured average SNR in dB.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }

    /// Retargets the link's average SNR mid-stream by recomputing the
    /// AWGN variance. The channel realisation, its temporal evolution and
    /// the noise RNG stream are all untouched, so a drift trajectory
    /// (e.g. the mobility ramp in `fig07_adaptation`) stays bit-exactly
    /// reproducible: the noise draws depend only on how many samples have
    /// been transmitted, never on when the SNR changed.
    pub fn set_snr_db(&mut self, snr_db: f64) {
        self.snr_db = snr_db;
        self.awgn.set_noise_var(NOMINAL_TX_POWER / db_to_linear(snr_db));
    }

    /// The time-domain noise variance in use.
    pub fn noise_var(&self) -> f64 {
        self.awgn.noise_var()
    }

    /// The underlying channel (for the sounder and for temporal evolution).
    pub fn channel(&self) -> &IndoorChannel {
        &self.channel
    }

    /// Mutable access to the channel, e.g. to [`IndoorChannel::advance`]
    /// time between packets.
    pub fn channel_mut(&mut self) -> &mut IndoorChannel {
        &mut self.channel
    }

    /// A dBm calibration anchored at this link's *frequency-domain* noise
    /// power (64 × the time-domain variance, matching what the receiver's
    /// FFT outputs and pilot-aided estimator see).
    pub fn calibration(&self) -> Calibration {
        Calibration::new(self.awgn.noise_var() * 64.0)
    }

    /// The nominal per-subcarrier SNR for a unit-gain channel: only 52 of
    /// the 64 bins carry signal, so each used bin sees `64/52` more SNR
    /// than the per-sample figure.
    pub fn per_subcarrier_snr0(&self) -> f64 {
        db_to_linear(self.snr_db) * 64.0 / 52.0
    }

    /// The ground-truth **actual SNR** of the current channel realisation,
    /// via the channel sounder.
    pub fn actual_snr_db(&self) -> f64 {
        ChannelSounder::new().actual_snr_db(&self.channel, self.per_subcarrier_snr0())
    }

    /// Propagates a transmit waveform: channel convolution, CFO, injected
    /// faults (interference included), AWGN, with any configured
    /// noise-only lead-in.
    pub fn transmit(&mut self, tx: &[Complex]) -> Vec<Complex> {
        let mut rx = Vec::new();
        self.transmit_into(tx, &mut rx);
        rx
    }

    /// [`Link::transmit`] writing the received waveform into a
    /// caller-owned buffer, which is fully overwritten — the zero-copy
    /// pipeline's landing zone (e.g. `RxWorkspace::samples`).
    pub fn transmit_into(&mut self, tx: &[Complex], rx: &mut Vec<Complex>) {
        rx.clear();
        rx.resize(self.lead_in, Complex::ZERO);
        self.channel.apply_append_with(tx, rx, KernelMode::Lanes);
        if self.cfo_hz != 0.0 {
            // The oscillator offset rotates everything the receiver sees.
            rotate_cfo(rx, self.cfo_hz);
        }
        if let Some(engine) = &mut self.faults {
            let ctx = ImpairmentCtx {
                packet_index: self.packet_index,
                time_s: self.airtime_s,
                noise_var: self.awgn.noise_var(),
            };
            engine.impair_waveform(rx, &ctx);
        }
        self.awgn.add_noise_in_place(rx);
        self.packet_index += 1;
        self.airtime_s += rx.len() as f64 / 20e6;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_var_matches_snr() {
        let link = Link::new(ChannelConfig::flat(), 20.0, 1);
        let expect = NOMINAL_TX_POWER / 100.0;
        assert!((link.noise_var() - expect).abs() < 1e-15);
    }

    #[test]
    fn set_snr_db_retargets_noise_without_disturbing_rng_stream() {
        let tx = vec![Complex::ONE; 64];
        let mut steady = Link::new(ChannelConfig::default(), 20.0, 7);
        let mut drifted = Link::new(ChannelConfig::default(), 20.0, 7);
        let a1 = steady.transmit(&tx);
        let b1 = drifted.transmit(&tx);
        assert_eq!(a1, b1);
        // A no-op retarget must leave the stream bit-identical…
        drifted.set_snr_db(20.0);
        assert_eq!(steady.transmit(&tx), drifted.transmit(&tx));
        // …and a real retarget must change only the variance.
        drifted.set_snr_db(10.0);
        assert!((drifted.noise_var() - NOMINAL_TX_POWER / 10.0).abs() < 1e-15);
        assert!((drifted.snr_db() - 10.0).abs() < 1e-15);
    }

    #[test]
    fn transmit_lengthens_by_channel_memory() {
        let mut link = Link::new(ChannelConfig::default(), 30.0, 2);
        let rx = link.transmit(&vec![Complex::ONE; 100]);
        assert_eq!(rx.len(), 100 + link.channel().tap_count() - 1);
    }

    #[test]
    fn received_snr_is_approximately_configured() {
        // Flat unit channel: measure signal+noise power separately.
        let mut link = Link::new(ChannelConfig::flat(), 10.0, 3);
        let gain = link.channel().power_gain();
        let tx = vec![Complex::new(NOMINAL_TX_POWER.sqrt(), 0.0); 200_000];
        let rx = link.transmit(&tx);
        let rx_power: f64 = rx.iter().map(|x| x.norm_sqr()).sum::<f64>() / rx.len() as f64;
        // rx power = gain·P + noise = gain·P + P/10.
        let p = NOMINAL_TX_POWER;
        let expect = gain * p + p / 10.0;
        assert!((rx_power - expect).abs() / expect < 0.03, "rx {rx_power} vs {expect}");
    }

    #[test]
    fn actual_snr_tracks_channel_gain() {
        // The sounder averages over the 48 data bins while the power gain
        // is the all-bin (Parseval) average, so they agree only up to the
        // guard-band contribution — within a couple of dB.
        for seed in 0..20 {
            let link = Link::new(ChannelConfig::default(), 15.0, seed);
            let actual = link.actual_snr_db();
            let expect = 15.0 + cos_dsp::linear_to_db(link.channel().power_gain());
            assert!((actual - expect).abs() < 2.0, "seed {seed}: {actual} vs {expect}");
        }
    }

    #[test]
    fn calibration_anchors_freq_domain_noise() {
        let link = Link::new(ChannelConfig::flat(), 20.0, 9);
        let cal = link.calibration();
        assert!((cal.to_dbm(link.noise_var() * 64.0) + 95.0).abs() < 1e-9);
    }

    #[test]
    fn interferer_raises_received_power() {
        let tx = vec![Complex::ZERO; 80 * 200];
        let mut quiet = Link::new(ChannelConfig::flat(), 20.0, 4);
        let mut loud = Link::new(ChannelConfig::flat(), 20.0, 4).with_faults(
            FaultEngine::new().with(crate::interference::PulseInterferer::new(10.0, 0.5, 80, 99)),
        );
        let p_quiet: f64 = quiet.transmit(&tx).iter().map(|x| x.norm_sqr()).sum();
        let p_loud: f64 = loud.transmit(&tx).iter().map(|x| x.norm_sqr()).sum();
        assert!(p_loud > 10.0 * p_quiet);
    }
}
