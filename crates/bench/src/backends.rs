//! `backends` — the cross-backend policy-injection immunity
//! matrix: every dataplane architecture ([`pi_backend`]) against every
//! attack class in the repo, with and without that attack's canonical
//! defense.
//!
//! Rows are `{backend × attack × defense}` cells. Each cell runs the
//! attack's scenario twice — benign baseline and attacked — on the same
//! backend and reports the victim's **retained capacity**: the attacked
//! victim metric over the baseline one (1.0 = immune, → 0 = collapse).
//!
//! The attacks:
//!
//! * `tuple_space` — the paper's policy injection against an
//!   *established* victim flow, measured by
//!   [`pi_sim::measure_backend_capacity`] with a sustained 8:1
//!   covert:victim interleave. This tier probes first-level cache
//!   *residency*: EMC collision churn on the OVS pipeline, FIFO
//!   replacement on the bounded NIC offload table.
//! * `tuple_space_churn` — the same injection against a victim
//!   *accepting fresh connections* (the paper's E3/E4 EMC-missing
//!   probe methodology). This tier is where the megaflow mask
//!   explosion lands; the `OvsCache` row reproduces the Fig. 3 / E3
//!   collapse, and is the matrix's anchor baseline.
//! * `upcall_flood` — the handler-saturation attack
//!   ([`pi_sim::upcall_saturation_scenario`]): a unique-destination
//!   spray monopolises the bounded slow path while a victim's
//!   connection churn needs it.
//! * `policy_flap` — the control-plane attack
//!   ([`pi_sim::policy_churn_scenario`]): zero attack packets, just ACL
//!   re-installs whose global cache flushes destroy co-located
//!   tenants' fast-path state.
//!
//! The defense column is each attack's canonical mitigation, applied
//! uniformly (backends without the corresponding structure treat the
//! knob as a no-op, which is itself a matrix result): staged subtable
//! lookup for the tuple-space rows, the per-port fair-share quota for
//! the flood, destination-scoped invalidation for the flap.
//!
//! Output: `BENCH_backends.json`. The slowest experiment (≈ 50 s
//! release): 32 cells, the 8192-mask capacity ones dominating.

use pi_attack::AttackSpec;
use pi_core::SimTime;
use pi_datapath::{BackendKind, DpConfig};
use pi_sim::scenario::UPCALL_VICTIM_START;
use pi_sim::{
    measure_backend_capacity, policy_churn_scenario, upcall_saturation_scenario, CapacityWorkload,
    PolicyChurnParams, UpcallSaturationParams,
};

use crate::report::{Fields, Report};
use crate::{Claim, Output};

/// Probe samples per capacity measurement.
const CAPACITY_SAMPLES: u64 = 2_000;
/// Covert packets interleaved per victim packet.
const COVERT_PER_VICTIM: u64 = 8;
const FLOOD_SECS: u64 = 6;
const FLAP_SECS: u64 = 4;

/// One matrix cell.
struct Cell {
    backend: BackendKind,
    attack: &'static str,
    defense: &'static str,
    defended: bool,
    baseline_pps: f64,
    attacked_pps: f64,
    retained: f64,
    /// Wildcard masks present after the attack (the Fig. 3 observable;
    /// 0 for architectures without a mask space, and for the scenario
    /// cells where it isn't the interesting axis).
    masks_attacked: usize,
}

fn capacity_cell(backend: BackendKind, workload: CapacityWorkload, defended: bool) -> Cell {
    let dp = DpConfig {
        backend,
        staged_lookup: defended,
        ..DpConfig::default()
    };
    let spec = AttackSpec::masks_8192();
    let cpu = 1_200_000_000u64;
    let (base, attacked) = measure_backend_capacity(
        dp,
        cpu,
        &spec,
        workload,
        CAPACITY_SAMPLES,
        COVERT_PER_VICTIM,
    );
    Cell {
        backend,
        attack: match workload {
            CapacityWorkload::CachedFlow => "tuple_space",
            CapacityWorkload::ConnectionSetup => "tuple_space_churn",
        },
        defense: "staged_lookup",
        defended,
        baseline_pps: base.capacity_pps,
        attacked_pps: attacked.capacity_pps,
        retained: attacked.capacity_pps / base.capacity_pps,
        masks_attacked: attacked.masks,
    }
}

fn flood_cell(backend: BackendKind, defended: bool) -> Cell {
    let run = |attack: bool| {
        let params = UpcallSaturationParams {
            duration: SimTime::from_secs(FLOOD_SECS),
            backend,
            attack,
            port_quota_per_step: defended.then_some(8),
            ..Default::default()
        };
        let (sim, handles) = upcall_saturation_scenario(&params);
        let report = sim.run();
        let victim = &report.source_totals[handles.source("victim")];
        let window = (params.duration - UPCALL_VICTIM_START).as_secs_f64();
        victim.delivered as f64 / window
    };
    let baseline_pps = run(false);
    let attacked_pps = run(true);
    Cell {
        backend,
        attack: "upcall_flood",
        defense: "fair_share_quota",
        defended,
        baseline_pps,
        attacked_pps,
        retained: attacked_pps / baseline_pps,
        masks_attacked: 0,
    }
}

fn flap_cell(backend: BackendKind, defended: bool) -> Cell {
    let run = |flap: bool| {
        let params = PolicyChurnParams {
            duration: SimTime::from_secs(FLAP_SECS),
            attack_start: SimTime::from_secs(1),
            flap,
            scoped_invalidation: defended,
            dp: DpConfig {
                backend,
                ..DpConfig::default()
            },
            ..Default::default()
        };
        let (sim, handles) = policy_churn_scenario(&params);
        let report = sim.run();
        let victim = &report.source_totals[handles.source("victim")];
        victim.delivered as f64 / params.duration.as_secs_f64()
    };
    let baseline_pps = run(false);
    let attacked_pps = run(true);
    Cell {
        backend,
        attack: "policy_flap",
        defense: "scoped_invalidation",
        defended,
        baseline_pps,
        attacked_pps,
        retained: attacked_pps / baseline_pps,
        masks_attacked: 0,
    }
}

/// Runs the 32 cells.
pub(crate) fn run() -> pi_core::Result<Output> {
    let mut table = String::new();
    say!(
        table,
        "{} backends x 4 attacks x 2 defense settings",
        BackendKind::ALL.len()
    );
    say!(
        table,
        "{:>11} {:>18} {:>20} {:>9} {:>14} {:>14} {:>9} {:>7}",
        "backend",
        "attack",
        "defense",
        "defended",
        "baseline_pps",
        "attacked_pps",
        "retained",
        "masks"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for backend in BackendKind::ALL {
        for defended in [false, true] {
            cells.push(capacity_cell(
                backend,
                CapacityWorkload::CachedFlow,
                defended,
            ));
            cells.push(capacity_cell(
                backend,
                CapacityWorkload::ConnectionSetup,
                defended,
            ));
            cells.push(flood_cell(backend, defended));
            cells.push(flap_cell(backend, defended));
        }
    }
    for c in &cells {
        say!(
            table,
            "{:>11} {:>18} {:>20} {:>9} {:>14.0} {:>14.0} {:>9.3} {:>7}",
            c.backend.name(),
            c.attack,
            c.defense,
            c.defended,
            c.baseline_pps,
            c.attacked_pps,
            c.retained,
            c.masks_attacked
        );
    }

    let mut report = Report::new("backend_matrix", "backend_immunity_matrix").params(
        Fields::new()
            .u("capacity_samples", CAPACITY_SAMPLES)
            .u("covert_per_victim", COVERT_PER_VICTIM)
            .u("flood_secs", FLOOD_SECS)
            .u("flap_secs", FLAP_SECS)
            .s("tuple_space_spec", "masks_8192"),
    );
    for c in &cells {
        report.row(
            Fields::new()
                .s("backend", c.backend.name())
                .s("attack", c.attack)
                .s("defense", c.defense)
                .b("defended", c.defended)
                .f("baseline_pps", c.baseline_pps, 1)
                .f("attacked_pps", c.attacked_pps, 1)
                .f("retained", c.retained, 4)
                .zu("masks_attacked", c.masks_attacked),
        );
    }

    // A cell the loop above did not produce reads as NaN, which fails
    // every bar it is held to.
    let retained = |backend: BackendKind, attack: &str, defended: bool| {
        cells
            .iter()
            .find(|c| c.backend == backend && c.attack == attack && c.defended == defended)
            .map_or(f64::NAN, |c| c.retained)
    };
    use BackendKind::{ExactHash, OvsCache};
    let churn = retained(OvsCache, "tuple_space_churn", false);
    let exact_churn = retained(ExactHash, "tuple_space_churn", false);
    let flood = retained(OvsCache, "upcall_flood", false);
    let flood_quota = retained(OvsCache, "upcall_flood", true);
    let flood_exact = retained(ExactHash, "upcall_flood", false);
    let flap = retained(OvsCache, "policy_flap", false);
    let flap_scoped = retained(OvsCache, "policy_flap", true);
    let claims = vec![
        Claim::new(
            "connection churn collapses the undefended tuple-space cache (retained < 0.01)",
            format_args!("{churn:.4}"),
            churn < 0.01,
        ),
        Claim::new(
            "exact-hash is immune to the same churn by construction (retained ≥ 0.99)",
            format_args!("{exact_churn:.4}"),
            exact_churn >= 0.99,
        ),
        Claim::new(
            "the upcall flood starves the bounded OVS slow path (< 0.5) but not the inline exact pipeline (> 0.9)",
            format_args!("{flood:.3} / {flood_exact:.3}"),
            flood < 0.5 && flood_exact > 0.9,
        ),
        Claim::new(
            "the fair-share quota defeats the upcall flood (retained ≥ 0.99)",
            format_args!("{flood_quota:.4}"),
            flood_quota >= 0.99,
        ),
        Claim::new(
            "the flap collapses global-flush OVS (< 0.6) and scoped invalidation restores it (> 0.9)",
            format_args!("{flap:.3} / {flap_scoped:.3}"),
            flap < 0.6 && flap_scoped > 0.9,
        ),
    ];
    Ok(Output {
        files: vec![("BENCH_backends.json", report.render())],
        table,
        claims,
    })
}
