//! Small shared pieces: the seeded input generator, quantiles, the
//! outcome digest and the simulated-outcome tally.

use cos_core::engine::JobResult;
use cos_core::session::PacketSummary;
use cos_core::LinkMode;
use cos_phy::rates::DataRate;

/// SplitMix64: the benchmark's only source of input randomness. Every
/// workload input is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponential draw with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next_u64() >> 56) as u8).collect()
    }

    /// `n` pseudo-random bits (one per byte, 0 or 1).
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next_u64() >> 63) as u8).collect()
    }
}

/// The SplitMix64 finaliser.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stable hash of a few indices under a seed, for per-(session, round)
/// choices that must not depend on iteration order.
pub fn pick(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64(a.wrapping_mul(0xA24B_AED4_963E_E407) ^ b))
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `v` and returns its median (0 for an empty vector).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// FNV-1a over the outcome stream: the per-workload outcome digest. Equal
/// digests mean byte-identical simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01b3);
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn packet(&mut self, p: &PacketSummary) {
        self.byte(p.data_ok as u8);
        self.byte(p.control_present as u8);
        self.byte(p.control_ok as u8);
        self.u64(p.silences_sent as u64);
        self.u64(p.detection.false_positives as u64);
        self.u64(p.detection.false_negatives as u64);
        self.u64(p.measured_snr_db.to_bits());
        self.byte(p.rate as u8);
        self.u64(p.selected_hash);
        self.u64(p.control_hash);
    }

    /// Folds one job result (session index included) into the digest.
    pub fn result(&mut self, session: usize, r: &JobResult) {
        self.u64(session as u64);
        let mode = |m: LinkMode| m as u8;
        match r {
            JobResult::Plain(p) => {
                self.byte(1);
                self.packet(p);
            }
            JobResult::Resilient(r) => {
                self.byte(2);
                self.packet(&r.packet);
                self.byte(mode(r.mode));
                self.byte(mode(r.mode_after));
                self.byte(r.control_acked as u8);
                self.byte(r.feedback_delivered as u8);
            }
            JobResult::Adaptive(a) => {
                self.byte(3);
                self.packet(&a.packet);
                self.u64(a.budget as u64);
                self.byte(a.rate_after as u8);
                self.byte(a.control_acked as u8);
                self.byte(a.feedback_delivered as u8);
            }
            JobResult::StaleSession => self.byte(4),
        }
    }
}

/// Simulated outcomes of a run's fixed prefix of jobs: every figure here
/// is a pure function of the seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub frames: u64,
    pub data_ok: u64,
    pub control_carried: u64,
    pub control_delivered: u64,
    /// CRC-pass payload bits.
    pub good_bits: u64,
    /// Airtime of every frame sent, in microseconds.
    pub airtime_us: f64,
}

impl Tally {
    /// Counts one completed job that carried a `payload_len`-byte payload.
    /// Control delivery follows each path's own definition: exact
    /// recovery for plain jobs, an ARQ acknowledgement for resilient and
    /// adaptive ones (counted only when the frame carried control).
    pub fn add(&mut self, r: &JobResult, payload_len: usize) {
        let (p, carried, delivered) = match r {
            JobResult::Plain(p) => (p, true, p.control_ok),
            JobResult::Resilient(r) => (&r.packet, r.control_attempted, r.control_acked),
            JobResult::Adaptive(a) => (&a.packet, a.packet.silences_sent > 0, a.control_acked),
            JobResult::StaleSession => return,
        };
        self.frames += 1;
        self.data_ok += p.data_ok as u64;
        self.control_carried += carried as u64;
        self.control_delivered += (carried && delivered) as u64;
        if p.data_ok {
            self.good_bits += payload_len as u64 * 8;
        }
        self.airtime_us += airtime_us(p.rate, payload_len);
    }

    pub fn data_prr(&self) -> f64 {
        ratio(self.data_ok, self.frames)
    }

    pub fn control_delivery(&self) -> f64 {
        ratio(self.control_delivered, self.control_carried)
    }

    /// CRC-pass payload bits over the airtime of every frame sent.
    pub fn goodput_mbps(&self) -> f64 {
        if self.airtime_us > 0.0 {
            self.good_bits as f64 / self.airtime_us
        } else {
            0.0
        }
    }
}

/// Airtime of one frame carrying `payload_len` bytes (plus the 4-byte
/// FCS) at `rate`.
pub fn airtime_us(rate: DataRate, payload_len: usize) -> f64 {
    rate.frame_airtime_us(payload_len + 4)
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
