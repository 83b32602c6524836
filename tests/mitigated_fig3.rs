//! The Fig. 3 scenario re-run with defenses — the system-level ablation
//! complement to the switch-level numbers of E7.

use pi_mitigation::hit_sort_config;
use policy_injection::prelude::*;

fn short_params() -> Fig3Params {
    Fig3Params {
        duration: SimTime::from_secs(24),
        attack_start: SimTime::from_secs(12),
        ..Fig3Params::default()
    }
}

fn victim_before_after(params: &Fig3Params) -> (f64, f64) {
    let (sim, handles) = fig3_scenario(params);
    let report = sim.run();
    let victim = &report.throughput_bps[handles.source("victim")];
    (
        victim.mean_between(SimTime::from_secs(2), params.attack_start) / 1e9,
        victim.mean_between(SimTime::from_secs(18), params.duration) / 1e9,
    )
}

/// Hit-count subtable sorting attenuates but does **not** prevent the
/// Fig. 3 collapse — a system-level finding the switch-level E7 numbers
/// alone would overstate. Sorting defuses the scan stream (its one hot
/// subtable floats to the front), but the *refresh* stream touches all
/// ~9.5 k entries uniformly, so its hits are spread across all ~8 k
/// subtables and no ordering helps: ~1.9 kpps of refreshes × ~4 k
/// probes each still saturates the core. The victim improves an order
/// of magnitude (≈1% → ≈10% of baseline) and no further.
#[test]
fn hit_sorting_attenuates_but_does_not_rescue_fig3() {
    let undefended = victim_before_after(&short_params());
    let defended = victim_before_after(&Fig3Params {
        dp: hit_sort_config(DpConfig::default()),
        ..short_params()
    });
    // Undefended: collapse (same assertion as the e2e test).
    assert!(undefended.1 < 0.15 * undefended.0, "{undefended:?}");
    // Defended: order-of-magnitude better than undefended…
    assert!(
        defended.1 > 4.0 * undefended.1,
        "sorting must attenuate: defended {defended:?} vs undefended {undefended:?}"
    );
    // …but still far from healthy: the refresh walk keeps the core hot.
    assert!(
        defended.1 < 0.5 * defended.0,
        "if this starts passing, the refresh-walk saturation analysis \
         in this test's doc comment needs revisiting: {defended:?}"
    );
}

/// A mask-budget-hardened CMS never installs the ACL, so the scenario
/// degenerates to the baseline: run the same topology minus the attack
/// policy and verify no degradation — the end state admission control
/// buys.
#[test]
fn admission_control_end_state_is_attack_free() {
    // Verify the policy would be rejected…
    let spec = AttackSpec::masks_8192();
    let table = spec.compile();
    assert!(!MaskBudget::default()
        .check(
            &table,
            &[Field::IpSrc, Field::IpDst, Field::TpSrc, Field::TpDst]
        )
        .admitted());
    // …and that without it the victim sails through the whole window.
    let params = Fig3Params {
        // Attack "starts" after the run ends ⇒ no covert traffic, which
        // is observationally identical to the ACL never installing.
        attack_start: SimTime::from_secs(1_000),
        ..short_params()
    };
    let (before, after) = victim_before_after(&params);
    assert!(before > 0.9);
    assert!(after > 0.9);
}
