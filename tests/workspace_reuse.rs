//! Property tests for the zero-copy workspace pipeline: a dirty,
//! previously-used workspace must produce results **bit-identical** to
//! the freshly-allocating owned APIs, across rates, channels, fault
//! scenarios and A-MPDU aggregation.
//!
//! This is the determinism contract of `docs/ARCHITECTURE.md` made
//! executable: every `*_into` stage fully overwrites its outputs, so
//! buffer reuse can never leak state between frames.

use cos::channel::{BurstInterference, ChannelConfig, FaultEngine, Link};
use cos::core::power_controller::PowerController;
use cos::fec::bits::bits_to_bytes;
use cos::phy::aggregation::{aggregate, deaggregate};
use cos::phy::evm::reconstruct_points_into;
use cos::phy::frame::SERVICE_BITS;
use cos::phy::rates::DataRate;
use cos::phy::rx::{FrontEnd, Receiver, RxConfig, RxDecodeOut, RxFrame, RxScratch};
use cos::phy::subcarriers::NUM_DATA;
use cos::phy::tx::{Transmitter, TxFrame};
use cos::phy::{PhyWorkspace, RxPipeline, TxPipeline, TxWorkspace};
use proptest::prelude::*;

fn arb_rate() -> impl Strategy<Value = DataRate> {
    proptest::sample::select(DataRate::ALL.to_vec())
}

/// Leaves unrelated garbage in every buffer of the workspace so reuse
/// bugs (stale lengths, leftover tails) have something to leak.
fn dirty(tx: &TxPipeline, rx: &RxPipeline, ws: &mut PhyWorkspace) {
    tx.build_and_render(&[0x5A; 333], DataRate::Mbps54, 0x31, &mut ws.tx);
    let samples = ws.tx.samples.clone();
    rx.receive_into(&samples, &RxConfig::ideal(), &mut ws.rx).expect("clean loopback");
}

/// Field-by-field equality of the decode result (ignoring the front-end
/// clone, which is compared separately where it matters).
fn assert_same_decode(ws_frame: &RxFrame, owned: &RxFrame) {
    prop_assert_eq!(&ws_frame.payload, &owned.payload);
    prop_assert_eq!(&ws_frame.data_bits, &owned.data_bits);
    prop_assert_eq!(ws_frame.scrambler_seed, owned.scrambler_seed);
    prop_assert_eq!(&ws_frame.hard_coded_bits, &owned.hard_coded_bits);
    prop_assert_eq!(ws_frame.decode_error, owned.decode_error);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dirty_workspace_receive_matches_owned(
        payload in proptest::collection::vec(any::<u8>(), 1..500),
        rate in arb_rate(),
        seed in 1u8..0x80,
        channel_seed in 0u64..500,
        snr_db in 8.0f64..30.0,
    ) {
        let tx = TxPipeline::new();
        let rx = RxPipeline::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        // Workspace path: build, render, propagate, receive — all into
        // reused buffers.
        tx.build_and_render(&payload, rate, seed, &mut ws.tx);
        let owned_samples = Transmitter::new().build_frame(&payload, rate, seed).to_time_samples();
        prop_assert_eq!(&ws.tx.samples, &owned_samples);

        let mut link_ws = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        let mut link_owned = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        link_ws.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let rx_samples = link_owned.transmit(&owned_samples);
        prop_assert_eq!(&ws.rx.samples, &rx_samples);

        let ws_result = rx.receive_into(&rx_samples, &RxConfig::ideal(), &mut ws.rx);
        let owned_result = Receiver::new().receive(&rx_samples, &RxConfig::ideal());
        match (ws_result, owned_result) {
            (Ok(()), Ok(owned)) => {
                assert_same_decode(&ws.rx.to_rx_frame(), &owned);
                prop_assert_eq!(&ws.rx.fe.h_est[..], &owned.front_end.h_est[..]);
                prop_assert_eq!(&ws.rx.fe.equalized, &owned.front_end.equalized);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "paths diverged: workspace {:?} vs owned {:?}", a, b.map(|f| f.crc_ok())),
        }
    }

    #[test]
    fn demap_into_dirty_scratch_matches_fresh_across_modulations(
        channel_seed in 0u64..300,
        mask_seed in any::<u64>(),
        snr_db in 20.0f64..32.0,
    ) {
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
        let demap =
            |fe: &FrontEnd, erasures: Mask<'_>, scratch: &mut RxScratch, out: &mut RxDecodeOut| {
                rx.demap_into(fe, erasures, scratch, out);
                let llr_bits: Vec<u64> = scratch.llrs.iter().map(|l| l.to_bits()).collect();
                (llr_bits, out.hard_coded_bits.clone())
            };
        let (mut scratch, mut out) = (RxScratch::default(), RxDecodeOut::default());
        let fresh = |fe: &FrontEnd, erasures: Mask<'_>| {
            demap(fe, erasures, &mut RxScratch::default(), &mut RxDecodeOut::default())
        };
        let fresh_short = fresh(&short, Some(&mask));
        let fresh_long = fresh(&long, None);
        prop_assert_eq!(fresh_short.0.len(), short.equalized.len() * short.rate.ncbps());
        prop_assert_eq!(fresh_long.1.len(), long.equalized.len() * long.rate.ncbps());

        demap(&long, None, &mut scratch, &mut out);
        prop_assert_eq!(&demap(&short, Some(&mask), &mut scratch, &mut out), &fresh_short);
        prop_assert_eq!(&demap(&long, None, &mut scratch, &mut out), &fresh_long);

        // Erased points carry zero LLRs and hard group 0.
        for (n, row) in mask.iter().enumerate() {
            for (sc, &erased) in row.iter().enumerate() {
                let i = n * NUM_DATA + sc;
                if erased {
                    prop_assert_eq!(fresh_short.0[i], 0);
                    prop_assert_eq!(fresh_short.1[i], 0);
                }
            }
        }
    }

    #[test]
    fn erasure_decode_matches_owned_with_dirty_workspace(
        channel_seed in 0u64..300,
        groups in 1usize..8,
        msg_seed in any::<u64>(),
        snr_db in 14.0f64..26.0,
    ) {
        // Embed a control message as silences and decode with the genie
        // erasure mask — the CoS receive path — on both pipelines.
        let mut x = msg_seed;
        let bits: Vec<u8> = (0..groups * 4).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 63) & 1) as u8
        }).collect();
        let selected = vec![3usize, 12, 20, 29, 37, 45];

        let tx = TxPipeline::new();
        let rx = RxPipeline::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        tx.transmitter().build_frame_into(&[0xAA; 700], DataRate::Mbps24, 0x5D, &mut ws.tx);
        let mut owned_frame = Transmitter::new().build_frame(&[0xAA; 700], DataRate::Mbps24, 0x5D);
        let controller = PowerController::default();
        controller.embed(&mut ws.tx.frame, &selected, &bits).expect("fits");
        controller.embed(&mut owned_frame, &selected, &bits).expect("fits");
        ws.tx.render();
        prop_assert_eq!(&ws.tx.samples, &owned_frame.to_time_samples());

        let mut link_ws = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        let mut link_owned = Link::new(ChannelConfig::default(), snr_db, channel_seed);
        link_ws.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let rx_samples = link_owned.transmit(&owned_frame.to_time_samples());

        let mask: Vec<[bool; NUM_DATA]> = owned_frame.silence_mask.clone();
        let config = RxConfig::with_erasures(&mask);
        let ws_result = rx.receive_into(&rx_samples, &config, &mut ws.rx);
        let owned_result = Receiver::new().receive(&rx_samples, &config);
        match (ws_result, owned_result) {
            (Ok(()), Ok(owned)) => assert_same_decode(&ws.rx.to_rx_frame(), &owned),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "paths diverged"),
        }
    }

    #[test]
    fn faulty_channel_decode_matches_owned(
        payload in proptest::collection::vec(any::<u8>(), 1..300),
        channel_seed in 0u64..200,
        fault_seed in 0u64..50,
    ) {
        // Burst interference corrupts frames mid-air; both paths must
        // fail (or survive) identically, bit for bit.
        let mk_link = |seed: u64| {
            Link::new(ChannelConfig::default(), 14.0, seed).with_faults(
                FaultEngine::new().with(BurstInterference::new(25.0, 300, 0.5, fault_seed)),
            )
        };
        let tx = TxPipeline::new();
        let rx = RxPipeline::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        tx.build_and_render(&payload, DataRate::Mbps12, 0x47, &mut ws.tx);
        let mut link_ws = mk_link(channel_seed);
        let mut link_owned = mk_link(channel_seed);
        link_ws.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let rx_samples = link_owned.transmit(
            &Transmitter::new().build_frame(&payload, DataRate::Mbps12, 0x47).to_time_samples(),
        );
        prop_assert_eq!(&ws.rx.samples, &rx_samples);

        let ws_result = rx.receive_into(&rx_samples, &RxConfig::ideal(), &mut ws.rx);
        let owned_result = Receiver::new().receive(&rx_samples, &RxConfig::ideal());
        match (ws_result, owned_result) {
            (Ok(()), Ok(owned)) => assert_same_decode(&ws.rx.to_rx_frame(), &owned),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "paths diverged"),
        }
    }

    #[test]
    fn aggregated_psdu_roundtrips_through_dirty_workspace(
        subframes in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 1..4),
        rate in arb_rate(),
    ) {
        // A-MPDU aggregation rides the PSDU path: aggregate, transmit
        // through a dirty workspace, receive into it, deaggregate.
        let psdu = aggregate(&subframes).expect("aggregates");
        let tx = TxPipeline::new();
        let rx = RxPipeline::new();
        let mut ws = PhyWorkspace::new();
        dirty(&tx, &rx, &mut ws);

        tx.transmitter().build_frame_from_psdu_into(&psdu, rate, 0x2B, &mut ws.tx);
        ws.tx.render();
        let owned_samples =
            Transmitter::new().build_frame_from_psdu(&psdu, rate, 0x2B).to_time_samples();
        prop_assert_eq!(&ws.tx.samples, &owned_samples);

        let samples = ws.tx.samples.clone();
        rx.receive_into(&samples, &RxConfig::ideal(), &mut ws.rx).expect("clean loopback");
        // The DATA-field PSDU round-trips exactly: every subframe back out.
        let psdu_bits = &ws.rx.out.data_bits[SERVICE_BITS..][..psdu.len() * 8];
        let rx_psdu = bits_to_bytes(psdu_bits);
        prop_assert_eq!(&rx_psdu, &psdu);
        let rebuilt: Vec<Option<Vec<u8>>> = deaggregate(&rx_psdu);
        let got: Vec<Vec<u8>> = rebuilt.into_iter().flatten().collect();
        prop_assert_eq!(got, subframes);
    }
}
