//! `ablation` (E7) — the demo-discussion defenses, quantified on three
//! axes:
//!
//! 1. **attacked capacity** — fast-path pps under the covert probe
//!    workload (the amplification axis);
//! 2. **late-victim probes** — subtable walk length for a hot flow that
//!    starts *after* the masks exist (the victim-experience axis);
//! 3. **admission verdict** — whether the policy installs at all.
//!
//! Output: `mitigation_ablation.csv`.

use pi_attack::{AttackSpec, CovertSequence};
use pi_backend::{build_backend, process_one, BackendKind};
use pi_cms::PolicyDialect;
use pi_core::{Field, FlowKey, SimTime};
use pi_datapath::{CostModel, DpConfig, VSwitch};
use pi_detect::{ControllerConfig, DefenseController, DefenseState};
use pi_metrics::CsvTable;
use pi_mitigation::{hit_sort_config, staged_config, MaskBudget};
use pi_sim::measure_capacity;

use crate::{Claim, Output};

const CPU: u64 = 1_200_000_000;
const TRIE_FIELDS: [Field; 4] = [Field::IpSrc, Field::IpDst, Field::TpSrc, Field::TpDst];

/// Probe walk length for a hot victim flow arriving after the attack.
fn late_victim_probes(dp: DpConfig, spec: &AttackSpec) -> usize {
    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let mut sw = VSwitch::new(DpConfig {
        emc_enabled: false, // isolate the megaflow walk
        ..dp
    });
    sw.attach_pod(victim_ip, 1);
    sw.attach_pod(attacker_ip, 2);
    sw.install_acl(attacker_ip, spec.compile());
    let seq = CovertSequence::new(spec.build_target(attacker_ip));
    for (i, p) in seq.populate_packets().enumerate() {
        sw.process(&p, SimTime::from_millis(2 + i as u64));
    }
    let mut last = 0;
    for sport in 0..5_000u16 {
        let mut k = FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 10], 40_000, 5201);
        k.tp_src = 10_000 + (sport % 50);
        last = sw.process(&k, SimTime::from_secs(40)).work.subtables as usize;
    }
    last
}

/// One closed-loop row.
struct Adaptive {
    masks: usize,
    capacity_pps: f64,
    late_victim_probes: usize,
    detected_at_masks: usize,
    /// Whether the loop still held its mitigations when the capacity
    /// was measured.
    held: bool,
}

/// The closed-loop rows: the policy installs (admission passes), the
/// covert populate runs, and a [`DefenseController`] sampling every 64
/// packets detects the mask inflation and actuates at runtime.
fn adaptive_ablation(cfg: ControllerConfig, spec: &AttackSpec, cpu: u64) -> Adaptive {
    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    // The *late* victim: a pod untouched until after the attack, so
    // its megaflow (hence its subtable-walk position) is created under
    // whatever masks survive the mitigation — the same semantics as
    // `late_victim_probes` for the static rows.
    let late_victim_ip = u32::from_be_bytes([10, 1, 0, 11]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let mut sw = VSwitch::new(DpConfig::default());
    sw.attach_pod(victim_ip, 1);
    sw.attach_pod(late_victim_ip, 3);
    sw.attach_pod(attacker_ip, 2);
    sw.install_acl(attacker_ip, spec.compile());
    let mut ctl = DefenseController::new(cfg);
    let seq = CovertSequence::new(spec.build_target(attacker_ip));
    let mut detected_at_masks = 0;
    let mut t = SimTime::from_secs(1);
    // Pre-attack quiet phase: the detector baselines learn an idle
    // switch (the sim scenario's benign phase, condensed). No traffic:
    // warming any flow here would pre-create its ip_dst-only subtable
    // and falsify the late-victim walk measured below.
    for _ in 0..6 {
        ctl.step(&mut sw, t);
        t += SimTime::from_millis(100);
    }
    t = SimTime::from_secs(2);
    for (i, p) in seq.populate_packets().enumerate() {
        sw.process(&p, t);
        if i % 64 == 63 {
            ctl.step(&mut sw, t);
            if detected_at_masks == 0 && ctl.report().first_detection().is_some() {
                detected_at_masks = sw.mask_count();
            }
        }
        t += SimTime::from_millis(1);
    }
    // Settle the control loop (confirm → mitigate) on quiet samples.
    for _ in 0..4 {
        ctl.step(&mut sw, t);
        t += SimTime::from_millis(100);
    }
    // Post-quarantine the signals quiet down, so the loop may already
    // be cooling — but it must never have reverted to Idle (that would
    // release the quarantine before we measure).
    let held = matches!(
        ctl.state(),
        DefenseState::Mitigating | DefenseState::Cooldown
    );
    // Attacked capacity: the covert probe workload against the
    // mitigated switch.
    sw.process(&seq.scan_packet(0), t);
    let before = sw.stats();
    let samples = 2_000u64;
    for n in 0..samples {
        sw.process(&seq.scan_packet(1 + n), t);
    }
    let after = sw.stats();
    let avg = (after.cycles - before.cycles) as f64 / samples as f64;
    // Late victim experience under the mitigated switch: every packet
    // carries a fresh source port so it can never be an EMC hit — the
    // last one reports the real megaflow-walk length to the late
    // victim's (post-attack) subtable, comparable with the
    // EMC-disabled static rows.
    let mut probes = 0;
    for sport in 0..5_000u16 {
        let k = FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 11], 10_000 + sport, 5201);
        probes = sw.process(&k, t).work.subtables as usize;
    }
    Adaptive {
        masks: sw.mask_count(),
        capacity_pps: cpu as f64 / avg,
        late_victim_probes: probes,
        detected_at_masks,
        held,
    }
}

/// Runs the seven defenses.
pub(crate) fn run() -> pi_core::Result<Output> {
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let mut table = String::new();
    say!(
        table,
        "defense ablation vs the 512-mask Kubernetes injection\n"
    );
    let mut csv = CsvTable::new(&[
        "defense",
        "masks",
        "attacked_capacity_pps",
        "capacity_vs_none",
        "late_victim_probes",
        "policy_admitted",
    ]);

    // None.
    let (unattacked, none_cap) = measure_capacity(DpConfig::default(), CPU, &spec, 2_000);
    let none_probes = late_victim_probes(DpConfig::default(), &spec);
    csv.push_row(&[
        "none".into(),
        none_cap.masks.to_string(),
        format!("{:.0}", none_cap.capacity_pps),
        "1.00".into(),
        none_probes.to_string(),
        "yes".into(),
    ]);

    // Staged lookup.
    let (_, staged_cap) = measure_capacity(staged_config(DpConfig::default()), CPU, &spec, 2_000);
    let staged_probes = late_victim_probes(staged_config(DpConfig::default()), &spec);
    csv.push_row(&[
        "staged lookup".into(),
        staged_cap.masks.to_string(),
        format!("{:.0}", staged_cap.capacity_pps),
        format!("{:.2}", staged_cap.capacity_pps / none_cap.capacity_pps),
        staged_probes.to_string(),
        "yes".into(),
    ]);

    // Hit-count sorting.
    let (_, sort_cap) = measure_capacity(hit_sort_config(DpConfig::default()), CPU, &spec, 5_000);
    let sort_probes = late_victim_probes(hit_sort_config(DpConfig::default()), &spec);
    csv.push_row(&[
        "hit-count sorting".into(),
        sort_cap.masks.to_string(),
        format!("{:.0}", sort_cap.capacity_pps),
        format!("{:.2}", sort_cap.capacity_pps / none_cap.capacity_pps),
        sort_probes.to_string(),
        "yes".into(),
    ]);

    // Mask budget (admission control).
    let admitted = MaskBudget::default()
        .check(&spec.compile(), &TRIE_FIELDS)
        .admitted();
    // Policy never installs, so the datapath stays at its unattacked
    // capacity and a late victim walks its own subtable only.
    csv.push_row(&[
        "mask budget (256)".into(),
        unattacked.masks.to_string(),
        format!("{:.0}", unattacked.capacity_pps),
        format!("{:.2}", unattacked.capacity_pps / none_cap.capacity_pps),
        "1".into(),
        if admitted {
            "yes (BUG)"
        } else {
            "no — rejected"
        }
        .into(),
    ]);

    // Adaptive rows: the same detector loop, one actuator each — so
    // the static rows above have a direct closed-loop counterpart.
    let quarantine = adaptive_ablation(
        ControllerConfig {
            fair_share_quota: None,
            enable_staged_lookup: false,
            quarantine_offenders: true,
            ..ControllerConfig::default()
        },
        &spec,
        CPU,
    );
    csv.push_row(&[
        "adaptive: detect+quarantine".into(),
        quarantine.masks.to_string(),
        format!("{:.0}", quarantine.capacity_pps),
        format!("{:.2}", quarantine.capacity_pps / none_cap.capacity_pps),
        quarantine.late_victim_probes.to_string(),
        format!("yes — detected at {} masks", quarantine.detected_at_masks),
    ]);
    let staged = adaptive_ablation(
        ControllerConfig {
            fair_share_quota: None,
            enable_staged_lookup: true,
            quarantine_offenders: false,
            ..ControllerConfig::default()
        },
        &spec,
        CPU,
    );
    csv.push_row(&[
        "adaptive: detect+staged".into(),
        staged.masks.to_string(),
        format!("{:.0}", staged.capacity_pps),
        format!("{:.2}", staged.capacity_pps / none_cap.capacity_pps),
        staged.late_victim_probes.to_string(),
        "yes — staged enabled live".into(),
    ]);

    // Cache-less compiled datapath: the `LpmTier` backend, priced by
    // the same `CostModel` and measured by the same probe workload as
    // every row above. Its "probes" are the fixed stride walk every
    // packet pays, late victim or not.
    let lpm = DpConfig {
        backend: BackendKind::LpmTier,
        ..DpConfig::default()
    };
    let (_, lpm_cap) = measure_capacity(lpm.clone(), CPU, &spec, 20_000);
    let mut lpm = build_backend(lpm, CostModel::default());
    lpm.attach_pod(u32::from_be_bytes([10, 1, 0, 10]), 1);
    let late_victim = FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 10], 40_000, 5201);
    let lpm_probes = process_one(&mut *lpm, &late_victim, SimTime::from_secs(40))
        .work
        .subtables as usize;
    csv.push_row(&[
        "cache-less compiled".into(),
        lpm_cap.masks.to_string(),
        format!("{:.0}", lpm_cap.capacity_pps),
        format!("{:.2}", lpm_cap.capacity_pps / none_cap.capacity_pps),
        lpm_probes.to_string(),
        "yes".into(),
    ]);

    say!(table, "{}", csv.to_aligned_text());
    say!(
        table,
        "reading:\n\
         • staged lookup cuts the per-probe constant (≈3×) but the walk stays O(masks);\n\
         • hit-count sorting rescues hot victims (probes → 1) and even the probe\n\
           workload itself, but the covert miss path still walks everything;\n\
         • the mask budget refuses the policy outright (trade-off: caps legitimate\n\
           fine-grained policies too);\n\
         • adaptive detect+quarantine admits the policy, catches the inflation\n\
           mid-populate, evicts the offender's megaflows and refuses its misses —\n\
           close to unattacked capacity without pre-judging any policy;\n\
         • adaptive detect+staged is the same loop flipping the staged-lookup knob\n\
           at runtime — it lands on the static staged row's numbers;\n\
         • the compiled datapath (the LpmTier backend) is structurally immune —\n\
           every packet pays the same fixed stride walk, attack or no attack."
    );

    let claims = vec![
        Claim::new(
            "the 256-mask admission budget rejects the 512-mask policy",
            if admitted { "admitted" } else { "rejected" },
            !admitted,
        ),
        Claim::new(
            "both adaptive loops still hold their mitigations when capacity is measured",
            format_args!("detected at {} masks", quarantine.detected_at_masks),
            quarantine.held && staged.held,
        ),
    ];
    Ok(Output {
        files: vec![("mitigation_ablation.csv", csv.to_csv())],
        table,
        claims,
    })
}
