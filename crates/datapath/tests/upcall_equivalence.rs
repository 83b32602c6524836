//! `PipelineMode::Bounded` under zero capacity pressure (unbounded
//! queue, infinite handler budget, one drain per packet) must be
//! observationally identical to `PipelineMode::Inline`: per-packet
//! verdicts, outputs, resolved paths, total work and cycles, and every statistics
//! counter (`SwitchStats`, `EmcStats`, `MfcStats`, `TssStats`,
//! megaflow/mask populations). The pipeline only *moves* slow-path work
//! to a handler step; any divergence under these configs means it
//! changed semantics.
//!
//! The agreement granularity is the drain step: draining after every
//! packet makes each install land before the next packet, which is
//! exactly the inline schedule. (Coarser steps intentionally diverge —
//! that's the miss-to-install window the pipeline exists to model.)

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_classifier::table::whitelist_with_default_deny;
use pi_core::{Field, FlowKey, FlowMask, MaskedKey, SimTime, SplitMix64};
use pi_datapath::{DpConfig, PathTaken, PipelineMode, UpcallPipelineConfig, VSwitch};

const POD_A: [u8; 4] = [10, 0, 0, 99];
const POD_B: [u8; 4] = [10, 0, 0, 100];

/// Two pods; A whitelists 10/8 (off-net sources are denied and mint new
/// masks), B allows everything. Same topology as the batch-equivalence
/// suite so the packet mix exercises every pipeline level.
fn build_switch(pipeline: PipelineMode, staged: bool, flow_limit: usize) -> VSwitch {
    let mut sw = VSwitch::new(DpConfig {
        trie_fields: vec![Field::IpSrc],
        staged_lookup: staged,
        emc_entries: 64,
        flow_limit,
        pipeline,
        ..DpConfig::default()
    });
    sw.attach_pod(u32::from_be_bytes(POD_A), 1);
    sw.attach_pod(u32::from_be_bytes(POD_B), 2);
    let allow = MaskedKey::new(
        FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
        FlowMask::default().with_prefix(Field::IpSrc, 8),
    );
    sw.install_acl(
        u32::from_be_bytes(POD_A),
        whitelist_with_default_deny(&[allow]),
    );
    sw
}

/// A deterministic mix of hot repeated flows (EMC traffic), fresh
/// allowed and denied sources (megaflow hits + upcalls) and unroutable
/// destinations.
fn packet_sequence(n: usize, seed: u64) -> Vec<FlowKey> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let dst = if rng.gen_bool(0.8) { POD_A } else { POD_B };
        let key = match rng.gen_range(4) {
            0 | 1 => FlowKey::tcp(
                [10, 0, 1, (rng.gen_range(4) + 1) as u8],
                dst,
                40_000 + rng.gen_range(4) as u16,
                5201,
            ),
            2 => FlowKey::tcp(
                [10, rng.gen_range(250) as u8 + 1, rng.next_u32() as u8, 7],
                dst,
                rng.gen_range(60_000) as u16 + 1,
                5201,
            ),
            _ => {
                if rng.gen_bool(0.3) {
                    FlowKey::tcp([10, 1, 1, 1], [172, 16, 0, 9], 555, 80)
                } else {
                    FlowKey::tcp([(rng.gen_range(100) + 100) as u8, 0, 0, 1], dst, 1000, 5201)
                }
            }
        };
        out.push(key);
    }
    out
}

fn assert_same_state(inline: &VSwitch, bounded: &VSwitch) {
    assert_eq!(inline.stats(), bounded.stats(), "SwitchStats diverged");
    assert_eq!(inline.emc_stats(), bounded.emc_stats(), "EmcStats diverged");
    assert_eq!(inline.mfc_stats(), bounded.mfc_stats(), "MfcStats diverged");
    assert_eq!(
        inline.megaflows().tss_stats(),
        bounded.megaflows().tss_stats(),
        "TssStats diverged"
    );
    assert_eq!(inline.mask_count(), bounded.mask_count());
    assert_eq!(inline.megaflow_count(), bounded.megaflow_count());
}

/// Feeds both switches the same timed sequence, draining the bounded
/// pipeline after every packet, and asserts bit-identical observations.
fn run_differential(staged: bool, flow_limit: usize, seed: u64, sweep: bool) {
    let keys = packet_sequence(600, seed);
    let mut inline = build_switch(PipelineMode::Inline, staged, flow_limit);
    let mut bounded = build_switch(
        PipelineMode::Bounded(UpcallPipelineConfig::unbounded()),
        staged,
        flow_limit,
    );

    let mut t = SimTime::from_millis(1);
    for (i, k) in keys.iter().enumerate() {
        let want = inline.process(k, t);

        let got = bounded.process(k, t);
        let resolved = if got.path.is_queued() {
            let mut out = Vec::new();
            let n = bounded.drain_upcalls(t, |r| out.push(r));
            assert_eq!(n, 1, "exactly the one pending upcall resolves");
            Some(out[0])
        } else {
            assert_eq!(bounded.drain_upcalls(t, |_| panic!("nothing pending")), 0);
            None
        };

        match resolved {
            None => assert_eq!(want, got, "fast-path outcome diverged at packet {i}"),
            Some(r) => {
                assert!(want.path.is_upcall(), "inline must also have upcalled");
                assert_eq!(r.key, *k);
                assert_eq!(r.outcome.verdict, want.verdict, "verdict diverged at {i}");
                assert_eq!(r.outcome.output, want.output, "routing diverged at {i}");
                assert_eq!(r.outcome.path, want.path, "resolved path diverged at {i}");
                assert!(
                    matches!(got.path, PathTaken::UpcallQueued { .. }),
                    "expected queued path, got {:?}",
                    got.path
                );
                // Fast-path share + handler share == inline total: the
                // pipeline moves work, it never invents or loses any.
                assert_eq!(
                    got.work + r.outcome.work,
                    want.work,
                    "work split diverged at {i}"
                );
                assert_eq!(
                    got.cycles + r.outcome.cycles,
                    want.cycles,
                    "cycle split diverged at {i}"
                );
            }
        }
        if sweep && i % 97 == 0 {
            // The shared sweep clock: revalidation at the same instants
            // must keep the two switches in lockstep too.
            let a = inline.revalidate(t);
            let b = bounded.revalidate(t);
            assert_eq!(a, b, "revalidator reports diverged at {i}");
        }
        t += SimTime::from_micros(37);
    }
    assert_same_state(&inline, &bounded);
    let up = bounded.upcall_stats();
    assert_eq!(up.enqueued, up.handled, "nothing left pending");
    assert_eq!(up.queue_drops, 0, "unbounded queue never drops");
    assert_eq!(up.wait_steps, 0, "per-packet drain resolves immediately");
    assert_eq!(
        up.installs_flushed,
        inline.mfc_stats().installs + inline.mfc_stats().install_drops
    );
}

#[test]
fn bounded_zero_pressure_equals_inline() {
    run_differential(false, 200_000, 0xe9_u64 ^ 0x51de, false);
    run_differential(true, 200_000, 0x7a11, false);
}

#[test]
fn bounded_zero_pressure_equals_inline_under_flow_limit() {
    // A tight flow limit exercises the batched-install TableFull
    // prediction: refused installs must be reported (installed=false)
    // and counted exactly as inline does.
    run_differential(false, 40, 0xf10a_u64 ^ 0x9, false);
}

#[test]
fn bounded_zero_pressure_equals_inline_across_sweeps() {
    run_differential(false, 200_000, 0x5ee9, true);
}

/// The covert attack sequence end to end: populate + scan through both
/// pipeline modes, per-packet drain, identical cache shapes and stats.
#[test]
fn attack_sequence_equal_under_both_modes() {
    let spec_keys: Vec<FlowKey> = {
        // A hand-rolled analogue of the covert stream against pod A's
        // /8 whitelist: the 8 complement packets (each minting a deny
        // mask), the allow packet, then unique scan packets.
        let mut v = Vec::new();
        for o in [128u8, 64, 32, 16, 0, 12, 8, 11] {
            v.push(FlowKey::tcp([o, 0, 0, 1], POD_A, 1, 1));
        }
        v.push(FlowKey::tcp([10, 0, 0, 1], POD_A, 1, 1));
        for i in 0..500u16 {
            v.push(FlowKey::tcp(
                [10, 200, (i >> 8) as u8, i as u8],
                POD_A,
                1 + i,
                5201,
            ));
        }
        v
    };
    let mut inline = build_switch(PipelineMode::Inline, false, 200_000);
    let mut bounded = build_switch(
        PipelineMode::Bounded(UpcallPipelineConfig::unbounded()),
        false,
        200_000,
    );
    let mut t = SimTime::from_millis(1);
    for k in &spec_keys {
        let want = inline.process(k, t);
        let got = bounded.process(k, t);
        if got.path.is_queued() {
            bounded.drain_upcalls(t, |r| {
                assert_eq!(r.outcome.verdict, want.verdict);
                assert_eq!(r.outcome.path, want.path);
            });
        } else {
            assert_eq!(want, got);
        }
        t += SimTime::from_micros(100);
    }
    assert_same_state(&inline, &bounded);
    assert_eq!(
        bounded.mask_count(),
        8,
        "Fig. 2b masks through the pipeline"
    );
}
