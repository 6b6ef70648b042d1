//! Property tests for the zero-copy workspace pipeline: a dirty,
//! previously-used workspace must produce results **bit-identical** to
//! the allocating forms' fresh ones, across rates, channels, fault
//! scenarios and arbitrary-byte PSDUs built without the CRC framing.
//!
//! This is the determinism contract of `docs/ARCHITECTURE.md` made
//! executable: every `*_into` stage fully overwrites its outputs, so
//! buffer reuse can never leak state between frames.

use cos::channel::{BurstInterference, ChannelConfig, FaultEngine, Link};
use cos::core::power_controller::PowerController;
use cos::dsp::rng::{cases, Xoshiro256};
use cos::fec::bits::bits_to_bytes;
use cos::phy::evm::reconstruct_points_into;
use cos::phy::frame::SERVICE_BITS;
use cos::phy::rates::DataRate;
use cos::phy::rx::{FrontEnd, Receiver, RxDecodeOut, RxScratch};
use cos::phy::subcarriers::NUM_DATA;
use cos::phy::tx::{Transmitter, TxFrame};
use cos::phy::{PhyWorkspace, TxWorkspace};

fn rate(rng: &mut Xoshiro256) -> DataRate {
    DataRate::ALL[rng.below(DataRate::ALL.len())]
}

/// `lens.start..lens.end` random bytes: the length is drawn first.
fn bytes(rng: &mut Xoshiro256, lens: std::ops::Range<usize>) -> Vec<u8> {
    (0..lens.start + rng.below(lens.len())).map(|_| rng.next_u64() as u8).collect()
}

/// Leaves unrelated garbage in every buffer of the workspace so reuse
/// bugs (stale lengths, leftover tails) have something to leak.
fn dirty(tx: &Transmitter, rx: &Receiver, ws: &mut PhyWorkspace) {
    tx.build_frame_into(&[0x5A; 333], DataRate::Mbps54, 0x31, &mut ws.tx);
    ws.tx.render();
    let samples = ws.tx.samples.clone();
    rx.receive_into(&samples, None, &mut ws.rx).expect("clean loopback");
}

/// Field-by-field equality of two decodes (the front ends they ran on
/// are compared separately where it matters).
fn assert_same_decode(ws: &RxDecodeOut, fresh: &RxDecodeOut) {
    assert_eq!(ws.crc_ok, fresh.crc_ok);
    assert_eq!(&ws.payload, &fresh.payload);
    assert_eq!(&ws.data_bits, &fresh.data_bits);
    assert_eq!(ws.scrambler_seed, fresh.scrambler_seed);
    assert_eq!(ws.decode_error, fresh.decode_error);
}

fn point_bits(rows: &[[cos::dsp::Complex; NUM_DATA]]) -> Vec<(u64, u64)> {
    rows.iter().flatten().map(|p| (p.re.to_bits(), p.im.to_bits())).collect()
}

fn assert_same_frame(got: &TxFrame, fresh: &TxFrame, what: &str) {
    assert_eq!(got.data_field.interleaved, fresh.data_field.interleaved, "{what}: interleaved");
    assert_eq!(got.data_field.n_symbols, fresh.data_field.n_symbols, "{what}: symbols");
    assert_eq!(point_bits(&got.mapped_points), point_bits(&fresh.mapped_points), "{what}: points");
    assert_eq!(got.data_symbols, fresh.data_symbols, "{what}: DATA symbols");
    assert_eq!(got.signal_symbol, fresh.signal_symbol, "{what}: SIGNAL");
    assert_eq!(got.silence_mask, fresh.silence_mask, "{what}: silence mask");
    assert_eq!((got.rate, got.psdu_len, got.scrambler_seed), (fresh.rate, fresh.psdu_len, fresh.scrambler_seed));
}

/// A long frame leaves packed words, tail bits and rows behind in the
/// packed TX scratch; shorter frames built or reconstructed into the same
/// workspace afterwards must not see any of it.
#[test]
fn packed_tx_scratch_shrinks_cleanly_across_rates_and_lengths() {
    let tx = Transmitter::new();
    let long: Vec<u8> = (0..1500u32).map(|i| (i * 151 + 7) as u8).collect();
    let frames: [(&[u8], DataRate, u8); 3] = [
        (&long, DataRate::Mbps54, 0x5D),
        (&[0xA7], DataRate::Mbps6, 0x01),
        (&long[..333], DataRate::Mbps9, 0x7F),
    ];
    let mut ws = TxWorkspace::new();
    let mut reference = TxWorkspace::new();
    for (payload, rate, seed) in frames {
        let what = format!("{} B at {rate}", payload.len());
        let fresh = tx.build_frame(payload, rate, seed);
        tx.build_frame_into(payload, rate, seed, &mut ws);
        assert_same_frame(&ws.frame, &fresh, &what);
        let bits = |xs: &[cos::dsp::Complex]| -> Vec<(u64, u64)> {
            xs.iter().map(|x| (x.re.to_bits(), x.im.to_bits())).collect()
        };
        assert_eq!(bits(ws.render()), bits(&fresh.to_time_samples()), "{what}: samples");

        let got = reconstruct_points_into(payload, rate, seed, &mut reference);
        assert_eq!(point_bits(got), point_bits(&fresh.mapped_points), "{what}: reconstruction");
        assert_eq!(reference.frame.data_field.interleaved, fresh.data_field.interleaved, "{what}");
    }
}

#[test]
fn dirty_workspace_receive_matches_owned() {
    for mut rng in cases(24) {
        let payload = bytes(&mut rng, 1..500);
        let rate = rate(&mut rng);
        let seed = 1 + rng.below(0x7F) as u8;
        let channel_seed = rng.below(500) as u64;
        let snr_db = 8.0 + rng.unit_f64() * 22.0;
        let tx = Transmitter::new();
        let rx = Receiver::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        // Workspace path: build, render, propagate, receive — all into
        // reused buffers.
        tx.build_frame_into(&payload, rate, seed, &mut ws.tx);
        ws.tx.render();
        let owned_samples = Transmitter::new().build_frame(&payload, rate, seed).to_time_samples();
        assert_eq!(&ws.tx.samples, &owned_samples);

        let mut link_ws = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        let mut link_owned = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        link_ws.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let rx_samples = link_owned.transmit(&owned_samples);
        assert_eq!(&ws.rx.samples, &rx_samples);

        let ws_result = rx.receive_into(&rx_samples, None, &mut ws.rx);
        let fresh_result = Receiver::new().receive(&rx_samples, None);
        match (ws_result, fresh_result) {
            (Ok(()), Ok(fresh)) => {
                assert_same_decode(&ws.rx.out, &fresh.out);
                assert_eq!(&ws.rx.fe.h_est[..], &fresh.fe.h_est[..]);
                assert_eq!(&ws.rx.fe.equalized, &fresh.fe.equalized);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("paths diverged: workspace {:?} vs fresh {:?}", a, b.map(|f| f.out.crc_ok)),
        }
    }
}

#[test]
fn demap_into_dirty_scratch_matches_fresh_across_modulations() {
    for mut rng in cases(24) {
        let channel_seed = rng.below(300) as u64;
        let mask_seed = rng.next_u64();
        let snr_db = 20.0 + rng.unit_f64() * 12.0;
        // A long 64QAM frame leaves 6-bit groups in every buffer; a short
        // BPSK frame with erasures then demaps into the same buffers,
        // which must shrink and be overwritten exactly — in both orders.
        let front_end = |payload: &[u8], rate: DataRate| -> FrontEnd {
            let samples = Transmitter::new().build_frame(payload, rate, 0x47).to_time_samples();
            let mut link = Link::new(ChannelConfig::default(), snr_db, channel_seed);
            let rx_samples = link.transmit(&samples);
            Receiver::new().front_end(&rx_samples).expect("high-SNR acquisition")
        };
        let long = front_end(&[0x3C; 1500], DataRate::Mbps54);
        let short = front_end(&[0xC3; 20], DataRate::Mbps6);
        let mut x = mask_seed;
        let mask: Vec<[bool; NUM_DATA]> = short.equalized.iter().map(|_| {
            std::array::from_fn(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 61 == 0
            })
        }).collect();

        let rx = Receiver::new();
        type Mask<'a> = Option<&'a [[bool; NUM_DATA]]>;
        type Buffers = (RxScratch, RxDecodeOut, Vec<u8>);
        let demap = |fe: &FrontEnd, erasures: Mask<'_>, (scratch, out, hard): &mut Buffers| {
            rx.demap_into(fe, erasures, scratch, out);
            rx.hard_decisions_into(fe, erasures, hard);
            (scratch.llrs.clone(), hard.clone())
        };
        let mut buffers = Buffers::default();
        let fresh = |fe: &FrontEnd, erasures: Mask<'_>| demap(fe, erasures, &mut Buffers::default());
        let fresh_short = fresh(&short, Some(&mask));
        let fresh_long = fresh(&long, None);
        assert_eq!(fresh_short.0.len(), short.equalized.len() * short.rate.ncbps());
        assert_eq!(fresh_long.1.len(), long.equalized.len() * long.rate.ncbps());

        demap(&long, None, &mut buffers);
        assert_eq!(&demap(&short, Some(&mask), &mut buffers), &fresh_short);
        assert_eq!(&demap(&long, None, &mut buffers), &fresh_long);

        // Erased points carry zero LLRs and hard group 0.
        for (n, row) in mask.iter().enumerate() {
            for (sc, &erased) in row.iter().enumerate() {
                let i = n * NUM_DATA + sc;
                if erased {
                    assert_eq!(fresh_short.0[i], 0);
                    assert_eq!(fresh_short.1[i], 0);
                }
            }
        }
    }
}

#[test]
fn erasure_decode_matches_owned_with_dirty_workspace() {
    for mut rng in cases(24) {
        let channel_seed = rng.below(300) as u64;
        let groups = 1 + rng.below(7);
        let msg_seed = rng.next_u64();
        let snr_db = 14.0 + rng.unit_f64() * 12.0;
        // Embed a control message as silences and decode with the genie
        // erasure mask — the CoS receive path — on both pipelines.
        let mut x = msg_seed;
        let bits: Vec<u8> = (0..groups * 4).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 63) & 1) as u8
        }).collect();
        let selected = vec![3usize, 12, 20, 29, 37, 45];

        let tx = Transmitter::new();
        let rx = Receiver::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        tx.build_frame_into(&[0xAA; 700], DataRate::Mbps24, 0x5D, &mut ws.tx);
        let mut owned_frame = Transmitter::new().build_frame(&[0xAA; 700], DataRate::Mbps24, 0x5D);
        let controller = PowerController::default();
        controller.embed(&mut ws.tx.frame, &selected, &bits).expect("fits");
        controller.embed(&mut owned_frame, &selected, &bits).expect("fits");
        ws.tx.render();
        assert_eq!(&ws.tx.samples, &owned_frame.to_time_samples());

        let mut link_ws = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        let mut link_owned = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        link_ws.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let rx_samples = link_owned.transmit(&owned_frame.to_time_samples());

        let mask: Vec<[bool; NUM_DATA]> = owned_frame.silence_mask.clone();
        let ws_result = rx.receive_into(&rx_samples, Some(&mask), &mut ws.rx);
        let fresh_result = Receiver::new().receive(&rx_samples, Some(&mask));
        match (ws_result, fresh_result) {
            (Ok(()), Ok(fresh)) => assert_same_decode(&ws.rx.out, &fresh.out),
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("paths diverged"),
        }
    }
}

#[test]
fn faulty_channel_decode_matches_owned() {
    for mut rng in cases(24) {
        let payload = bytes(&mut rng, 1..300);
        let channel_seed = rng.below(200) as u64;
        let fault_seed = rng.below(50) as u64;
        // Burst interference corrupts frames mid-air; both paths must
        // fail (or survive) identically, bit for bit.
        let mk_link = |seed: u64| {
            Link::new(ChannelConfig::default(), 14.0, seed).with_faults(
                FaultEngine::new().with(BurstInterference::new(25.0, 300, 0.5, fault_seed)),
            )
        };
        let tx = Transmitter::new();
        let rx = Receiver::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        tx.build_frame_into(&payload, DataRate::Mbps12, 0x47, &mut ws.tx);
        ws.tx.render();
        let mut link_ws = mk_link(channel_seed);
        let mut link_owned = mk_link(channel_seed);
        link_ws.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let rx_samples = link_owned.transmit(
            &Transmitter::new().build_frame(&payload, DataRate::Mbps12, 0x47).to_time_samples(),
        );
        assert_eq!(&ws.rx.samples, &rx_samples);

        let ws_result = rx.receive_into(&rx_samples, None, &mut ws.rx);
        let fresh_result = Receiver::new().receive(&rx_samples, None);
        match (ws_result, fresh_result) {
            (Ok(()), Ok(fresh)) => assert_same_decode(&ws.rx.out, &fresh.out),
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("paths diverged"),
        }
    }
}

#[test]
fn psdu_roundtrips_through_dirty_workspace() {
    for mut rng in cases(24) {
        let psdu = bytes(&mut rng, 1..400);
        let rate = rate(&mut rng);
        // The PSDU path carries arbitrary bytes with no FCS appended:
        // build through a dirty workspace, receive into it, read the
        // DATA-field PSDU back.
        let tx = Transmitter::new();
        let rx = Receiver::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        tx.build_frame_from_psdu_into(&psdu, rate, 0x2B, &mut ws.tx);
        ws.tx.render();
        let owned_samples =
            Transmitter::new().build_frame_from_psdu(&psdu, rate, 0x2B).to_time_samples();
        assert_eq!(&ws.tx.samples, &owned_samples);

        let samples = ws.tx.samples.clone();
        rx.receive_into(&samples, None, &mut ws.rx).expect("clean loopback");
        // The DATA-field PSDU round-trips exactly.
        let psdu_bits = &ws.rx.out.data_bits[SERVICE_BITS..][..psdu.len() * 8];
        assert_eq!(&bits_to_bytes(psdu_bits), &psdu);
    }
}
