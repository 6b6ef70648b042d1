//! Calibrates the minimum measured SNR per data rate: the lowest measured
//! SNR at which a plain (no-silence) 1024-byte packet stream sustains
//! PRR >= 99.3 % at the median channel position. The values adopted in
//! `cos_phy::rates::DataRate::min_snr_db` are these plus 0.5 dB headroom.

use cos_channel::Link;
use cos_experiments::harness::{measure_prr, paper_channel, probe_channel, TrialConfig, TARGET_PRR};
use cos_phy::rates::DataRate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    cos_experiments::harness::init_threads_only();
    for rate in DataRate::ALL {
        print!("{rate}: ");
        let mut found = None;
        for snr10 in (30..300).step_by(5) {
            let snr = snr10 as f64 / 10.0;
            let mut prrs = Vec::new();
            let mut measured_acc = 0.0;
            for seed in 0..7 {
                let mut link = Link::new(paper_channel(), snr, 777 + seed * 31);
                let probe = probe_channel(&mut link);
                measured_acc += probe.measured_snr_db;
                let cfg = TrialConfig::paper(rate, 0);
                let mut rng = StdRng::seed_from_u64(seed);
                prrs.push(measure_prr(&mut link, &cfg, &[0], 150, &mut rng));
            }
            prrs.sort_by(f64::total_cmp);
            let median = prrs[prrs.len() / 2];
            if median >= TARGET_PRR {
                found = Some((snr, measured_acc / 7.0));
                break;
            }
        }
        match found {
            Some((snr, measured)) => println!("nominal {snr:.1} dB -> measured {measured:.1} dB"),
            None => println!("never reliable in sweep"),
        }
    }
}
