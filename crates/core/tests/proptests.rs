//! Property-based tests for the CoS core.

use cos_core::interval::IntervalCodec;
use cos_core::power_controller::PowerController;
use cos_phy::rates::DataRate;
use cos_phy::tx::Transmitter;
use proptest::prelude::*;

fn arb_bits(groups: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=1, groups * 4..=groups * 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interval_roundtrip_any_message(groups in 0usize..24, bits in proptest::collection::vec(0u8..=1, 0..96)) {
        let codec = IntervalCodec::default();
        let take = (bits.len() / 4) * 4;
        let msg = &bits[..take];
        let _ = groups;
        let positions = codec.encode(msg);
        let decoded = codec.decode(&positions);
        prop_assert_eq!(decoded.as_deref(), Some(msg));
    }

    #[test]
    fn encoded_positions_are_strictly_increasing(bits in arb_bits(10)) {
        let codec = IntervalCodec::default();
        let positions = codec.encode(&bits);
        for w in positions.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert_eq!(positions.len(), codec.silences_for(bits.len()));
    }

    #[test]
    fn any_detection_shift_is_caught_or_harmlessly_decoded(bits in arb_bits(6), shift_at in 0usize..7, delta in 1usize..3) {
        // Shifting one silence position either still decodes to a
        // *different* message (never silently the same bits at wrong
        // positions... it may coincide) or is rejected. Key invariant:
        // decode never panics and length stays consistent.
        let codec = IntervalCodec::default();
        let mut positions = codec.encode(&bits);
        let idx = shift_at % positions.len();
        positions[idx] += delta;
        positions.sort_unstable();
        positions.dedup();
        if let Some(decoded) = codec.decode(&positions) {
            prop_assert_eq!(decoded.len() % 4, 0);
        }
    }

    #[test]
    fn embed_capacity_contract(groups in 1usize..12, sel_seed in any::<u64>()) {
        // guaranteed_capacity_bits is honoured by embed for any message
        // of that size.
        let controller = PowerController::default();
        let frame = Transmitter::new().build_frame(&[0u8; 400], DataRate::Mbps24, 0x5D);
        let mut selected: Vec<usize> = (0..48).filter(|i| (sel_seed >> (i % 48)) & 1 == 1).collect();
        if selected.len() < 2 {
            selected = vec![3, 17, 31];
        }
        let cap = controller.guaranteed_capacity_bits(frame.n_data_symbols(), selected.len());
        let bits_len = (groups * 4).min(cap / 4 * 4);
        let bits = vec![1u8; bits_len]; // worst case spacing
        let mut frame = frame;
        controller.embed(&mut frame, &selected, &bits).expect("guaranteed fit");
        prop_assert_eq!(frame.silence_count(), 1 + bits_len / 4);
    }
}
