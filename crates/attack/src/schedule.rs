//! Attack pacing: a [`TrafficSource`] emitting the covert stream.
//!
//! Three concerns share the bandwidth budget:
//! 1. **Populate** — emit every populate packet once, as fast as the
//!    budget allows (masks appear within seconds of attack start, the
//!    Fig. 3 cliff at t = 60 s).
//! 2. **Refresh** — touch every megaflow entry once per refresh
//!    interval (default half the idle timeout) so the revalidator never
//!    reclaims a mask.
//! 3. **Scan** — spend whatever remains on unique allow-rule packets
//!    that each force a near-full subtable walk (the CPU amplifier).
//!
//! [`AttackSchedule::upcall_flood`] switches the schedule to a second
//! attack mode aimed at the *bounded slow path* instead of the fast
//! path: every emitted packet targets a never-before-seen destination,
//! so each one is a guaranteed megaflow miss that must upcall. Paced at
//! any rate above the handler service rate, the stream keeps its upcall
//! queue pinned at capacity and keeps the handler cycle budget busy —
//! starving co-located tenants' flow setups (and, once the flow limit
//! fills, their installs too).

use pi_core::SimTime;
use pi_traffic::{GenPacket, TrafficSource};

use crate::covert::CovertSequence;

/// What the paced budget is spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Populate + refresh + scan against the injected ACL's masks (the
    /// paper's fast-path attack).
    Covert,
    /// Unique-destination spray: every packet upcalls, pinning the
    /// bounded slow-path pipeline at capacity.
    UpcallFlood,
}

/// The paced attack stream.
#[derive(Debug, Clone)]
pub struct AttackSchedule {
    seq: CovertSequence,
    mode: Mode,
    /// Covert budget, bits/second.
    bandwidth_bps: f64,
    /// Frame size used for budget accounting (the attack wants small
    /// frames: pps is what matters, bytes are the cost).
    frame_bytes: usize,
    /// Attack start time (Fig. 3: 60 s).
    start: SimTime,
    /// Refresh period for the populate set.
    refresh_interval: SimTime,
    /// Whether to spend spare budget on scan packets.
    scan_enabled: bool,

    // State.
    active_ns: u64,
    emitted: u64,
    populate_cursor: u64,
    refresh_cursor: u64,
    refresh_credit: f64,
    scan_counter: u64,
    label: String,
}

impl AttackSchedule {
    /// A schedule for `seq` within `bandwidth_bps`, starting at `start`.
    pub fn new(seq: CovertSequence, bandwidth_bps: f64, start: SimTime) -> Self {
        AttackSchedule {
            seq,
            mode: Mode::Covert,
            bandwidth_bps,
            frame_bytes: 64,
            start,
            refresh_interval: SimTime::from_secs(5),
            scan_enabled: true,
            active_ns: 0,
            emitted: 0,
            populate_cursor: 0,
            refresh_cursor: 0,
            refresh_credit: 0.0,
            scan_counter: 0,
            label: "attack".to_string(),
        }
    }

    /// Disables the scan stream (populate + refresh only) — used by the
    /// covert-bandwidth experiment to isolate refresh economics.
    #[must_use]
    pub fn without_scan(mut self) -> Self {
        self.scan_enabled = false;
        self
    }

    /// Switches the schedule to the upcall-flood mode: the whole budget
    /// goes to unique-destination packets (a rolling spray through an
    /// off-cluster block), each of which is a guaranteed megaflow miss
    /// that must be serviced by a slow-path handler. Paced above the
    /// handler service rate, the flood pins the bounded upcall queue at
    /// capacity and monopolises the per-step handler budget; the mask
    /// machinery (populate/refresh/scan) is not used.
    #[must_use]
    pub fn upcall_flood(mut self) -> Self {
        self.mode = Mode::UpcallFlood;
        self
    }

    /// The `n`-th flood packet: unique destination (172.16/12-style
    /// spray) and a rolling source port, so no cache level ever absorbs
    /// the stream. The source address is derived from the attacker pod
    /// so fanned-out floods stay distinguishable in dumps.
    fn flood_packet(&self, n: u64) -> pi_core::FlowKey {
        let dst = 0xac10_0000u32 | (n as u32 & 0x000f_ffff);
        let src = 0x0a00_4200u32 | (self.seq.target().dst_ip & 0xff);
        let sport = 1024 + (n % 60_000) as u16;
        pi_core::FlowKey::tcp(src.to_be_bytes(), dst.to_be_bytes(), sport, 7)
    }

    /// Packets/second the budget affords.
    pub fn pps(&self) -> f64 {
        self.bandwidth_bps / (self.frame_bytes as f64 * 8.0)
    }

    /// True once every populate packet has been sent at least once.
    pub fn populated(&self) -> bool {
        self.populate_cursor >= self.seq.packet_count()
    }

    /// The covert sequence driving this schedule.
    pub fn sequence(&self) -> &CovertSequence {
        &self.seq
    }

    /// Names the schedule for reports.
    #[must_use]
    pub fn named(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// The **policy-flap** attack: a control-plane program that
    /// re-installs the attacker's *own* ACL at `acl_ip` once every
    /// `period` from `start` until `until` — entirely through the
    /// CMS's sanctioned policy API, with **zero attack packets**.
    ///
    /// Each re-install is policy-wise a no-op (the same table lands
    /// again), but the switch cannot know that: every install triggers
    /// a cache invalidation, and under OVS's global-flush semantics
    /// that wipes *every* tenant's megaflows and microflows. The
    /// co-located victims pay the rebuild — one slow-path upcall per
    /// live flow per flap — while the attacker pays nothing but API
    /// calls. This is the paper's control-plane seam taken to its
    /// logical end: no covert stream, no bandwidth budget, just churn.
    /// A window that starts at or after `until` is the attack switched
    /// off: the program is empty.
    ///
    /// Feed the returned program to
    /// `FleetBuilder::attach_control_plane`; pair with
    /// the scoped-invalidation ablation to measure exactly how much of
    /// the damage the global flush is responsible for.
    pub fn policy_flap(
        acl_ip: u32,
        table: &pi_classifier::FlowTable,
        start: SimTime,
        until: SimTime,
        period: SimTime,
    ) -> pi_cms::ControlPlaneProgram {
        assert!(period > SimTime::ZERO, "flap period must be positive");
        let window = until.saturating_sub(start);
        let count = window.as_nanos().div_ceil(period.as_nanos());
        let mut program = pi_cms::ControlPlaneProgram::new();
        program.install_acl_every(start, period, count as usize, acl_ip, table);
        program
    }

    /// Fans one attack spec out across a fleet: one paced schedule per
    /// attacker pod, each targeting its own pod's ACL, with starts
    /// staggered by `stagger` (a synchronized fleet-wide burst is easy
    /// to spot; a rolling one is how a patient attacker saturates many
    /// hosts). Schedules are labelled `attack@<i>`.
    pub fn fan_out(
        spec: &crate::acl::AttackSpec,
        attacker_pod_ips: &[u32],
        bandwidth_bps: f64,
        start: SimTime,
        stagger: SimTime,
    ) -> Vec<AttackSchedule> {
        attacker_pod_ips
            .iter()
            .enumerate()
            .map(|(i, &ip)| {
                let begin = start + SimTime::from_nanos(stagger.as_nanos() * i as u64);
                AttackSchedule::new(
                    CovertSequence::new(spec.build_target(ip)),
                    bandwidth_bps,
                    begin,
                )
                .named(&format!("attack@{i}"))
            })
            .collect()
    }
}

impl TrafficSource for AttackSchedule {
    fn generate(&mut self, from: SimTime, to: SimTime, out: &mut Vec<GenPacket>) {
        let from = from.max(self.start);
        if from >= to {
            return;
        }
        let dt_ns = (to - from).as_nanos();
        self.active_ns += dt_ns;
        let target = (self.pps() * self.active_ns as f64 / 1e9).floor() as u64;
        let mut slots = target.saturating_sub(self.emitted);
        self.emitted = target;

        if self.mode == Mode::UpcallFlood {
            // The whole budget is spent on guaranteed-miss packets; the
            // steady pace (anything above the handler service rate)
            // keeps the upcall queue pinned at capacity.
            let frame = self.frame_bytes;
            for _ in 0..slots {
                let key = self.flood_packet(self.scan_counter);
                self.scan_counter += 1;
                out.push(GenPacket { key, bytes: frame });
            }
            return;
        }

        // Refresh credit accrues regardless of phase; it is only spent
        // once the populate pass finished.
        let refresh_pps = self.seq.packet_count() as f64 / self.refresh_interval.as_secs_f64();
        self.refresh_credit += refresh_pps * dt_ns as f64 / 1e9;

        let frame = self.frame_bytes;
        while slots > 0 {
            slots -= 1;
            let key = if self.populate_cursor < self.seq.packet_count() {
                let k = self.seq.populate_packet(self.populate_cursor);
                self.populate_cursor += 1;
                k
            } else if self.refresh_credit >= 1.0 {
                self.refresh_credit -= 1.0;
                let k = self.seq.populate_packet(self.refresh_cursor);
                self.refresh_cursor = (self.refresh_cursor + 1) % self.seq.packet_count();
                k
            } else if self.scan_enabled {
                self.scan_counter += 1;
                self.seq.scan_packet(self.scan_counter)
            } else {
                break; // nothing to spend budget on
            };
            out.push(GenPacket { key, bytes: frame });
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn next_activity(&self, from: SimTime) -> SimTime {
        from.max(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::AttackSpec;
    use pi_cms::PolicyDialect;

    fn schedule(bw: f64) -> AttackSchedule {
        let target = AttackSpec::masks_512(PolicyDialect::Kubernetes).build_target(0x0a000042);
        AttackSchedule::new(CovertSequence::new(target), bw, SimTime::from_secs(60))
    }

    fn drive(s: &mut AttackSchedule, from_s: u64, to_s: u64) -> Vec<GenPacket> {
        let mut out = Vec::new();
        for ms in from_s * 1000..to_s * 1000 {
            s.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out,
            );
        }
        out
    }

    #[test]
    fn silent_before_start() {
        let mut s = schedule(2e6);
        let out = drive(&mut s, 0, 60);
        assert!(out.is_empty());
        assert!(!s.populated());
    }

    #[test]
    fn budget_is_respected() {
        let mut s = schedule(2e6);
        let out = drive(&mut s, 60, 70);
        let bits: usize = out.iter().map(|p| p.bytes * 8).sum();
        let bps = bits as f64 / 10.0;
        assert!(
            (bps - 2e6).abs() / 2e6 < 0.01,
            "offered {bps} b/s vs 2 Mb/s budget"
        );
    }

    #[test]
    fn populate_happens_first_and_fast() {
        let mut s = schedule(2e6);
        // 2 Mb/s of 64-B frames ≈ 3906 pps; 561 populate packets < 1 s.
        let out = drive(&mut s, 60, 61);
        assert!(s.populated());
        let expected: Vec<_> = s.sequence().populate_packets().collect();
        assert_eq!(
            &out[..expected.len()]
                .iter()
                .map(|p| p.key)
                .collect::<Vec<_>>(),
            &expected
        );
    }

    #[test]
    fn steady_state_mixes_refresh_and_scan() {
        let mut s = schedule(2e6);
        drive(&mut s, 60, 62); // populate done
        let out = drive(&mut s, 62, 72); // 10 s of steady state
        let populate_set: std::collections::HashSet<_> = s.sequence().populate_packets().collect();
        let refreshes = out.iter().filter(|p| populate_set.contains(&p.key)).count();
        let scans = out.len() - refreshes;
        // Refresh: 561 packets / 5 s × 10 s ≈ 1122.
        assert!((1000..1300).contains(&refreshes), "refreshes = {refreshes}");
        assert!(scans > 10_000, "scan stream should dominate: {scans}");
        // Every populate packet refreshed at least once in 10 s.
        let refreshed: std::collections::HashSet<_> = out
            .iter()
            .filter(|p| populate_set.contains(&p.key))
            .map(|p| p.key)
            .collect();
        assert_eq!(refreshed.len(), populate_set.len());
    }

    #[test]
    fn without_scan_stays_minimal() {
        let mut s = schedule(2e6).without_scan();
        drive(&mut s, 60, 62);
        let out = drive(&mut s, 62, 72);
        // Only refreshes: ≈ 561/5 × 10 ≈ 1122 packets in 10 s.
        assert!(out.len() < 1500, "got {} packets", out.len());
        assert!(!out.is_empty());
    }

    #[test]
    fn tiny_budget_still_sustains_refresh() {
        // 0.5 Mb/s ≈ 977 pps ≫ 561/5 s — populate slower, but refresh
        // fits (E6's point).
        let mut s = schedule(0.5e6);
        drive(&mut s, 60, 63);
        assert!(s.populated(), "populate must finish within seconds");
    }

    #[test]
    fn upcall_flood_emits_unique_destinations_at_full_budget() {
        let mut s = schedule(2e6).upcall_flood();
        assert!(drive(&mut s, 0, 60).is_empty(), "silent before start");
        let out = drive(&mut s, 60, 70);
        // Budget still binds: 2 Mb/s of 64-B frames ≈ 3906 pps.
        let bps = out.iter().map(|p| p.bytes * 8).sum::<usize>() as f64 / 10.0;
        assert!((bps - 2e6).abs() / 2e6 < 0.01, "offered {bps} b/s");
        // Every packet is a brand-new flow to a brand-new destination.
        let dsts: std::collections::HashSet<_> = out.iter().map(|p| p.key.ip_dst).collect();
        assert_eq!(dsts.len(), out.len(), "destinations never repeat");
        for p in &out {
            assert_eq!(p.key.ip_dst & 0xfff0_0000, 0xac10_0000, "off-cluster spray");
        }
        // No populate/refresh machinery runs in flood mode.
        assert!(!s.populated());
    }

    #[test]
    fn policy_flap_builds_a_zero_packet_install_train() {
        let table = pi_cms::PolicyCompiler.compile_k8s(&pi_cms::NetworkPolicy {
            name: "attacker".into(),
            ingress: vec![],
        });
        let program = AttackSchedule::policy_flap(
            0x0a01_0042,
            &table,
            SimTime::from_secs(60),
            SimTime::from_secs(61),
            SimTime::from_millis(10),
        );
        // 1 s of flapping at 10 ms = 100 installs, all at the same IP,
        // and not a single packet anywhere.
        assert_eq!(program.len(), 100);
        assert!(program.updates().iter().all(|u| matches!(
            u.update,
            pi_cms::PolicyUpdate::InstallAcl {
                ip: 0x0a01_0042,
                ..
            }
        )));
        let mut cp = program.compile();
        assert!(cp.due(SimTime::from_millis(59_999)).is_empty());
        assert_eq!(cp.due(SimTime::from_secs(61)).len(), 100);
        // A window that starts at or after its end is the attack off.
        let at = SimTime::from_secs(61);
        let off =
            AttackSchedule::policy_flap(0x0a01_0042, &table, at, at, SimTime::from_millis(10));
        assert!(off.is_empty());
    }

    #[test]
    fn fan_out_staggers_starts_and_targets() {
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let ips = [0x0a01_0042u32, 0x0a02_0042, 0x0a03_0042];
        let mut fleet = AttackSchedule::fan_out(
            &spec,
            &ips,
            2e6,
            SimTime::from_secs(60),
            SimTime::from_secs(10),
        );
        assert_eq!(fleet.len(), 3);
        for (i, s) in fleet.iter().enumerate() {
            assert_eq!(s.label(), format!("attack@{i}"));
            // Each schedule aims its own pod's ACL.
            assert_eq!(s.sequence().target().dst_ip, ips[i]);
        }
        // Stagger: the second attacker is still silent when the first
        // has finished populating.
        let out0 = drive(&mut fleet[0], 0, 65);
        let out1 = drive(&mut fleet[1], 0, 65);
        assert!(!out0.is_empty());
        assert!(out1.is_empty(), "second attacker starts at 70 s");
    }

    #[test]
    fn scan_packets_are_unique_across_ticks() {
        let mut s = schedule(2e6);
        drive(&mut s, 60, 61);
        let out = drive(&mut s, 61, 63);
        let populate_set: std::collections::HashSet<_> = s.sequence().populate_packets().collect();
        let scan_keys: Vec<_> = out
            .iter()
            .map(|p| p.key)
            .filter(|k| !populate_set.contains(k))
            .collect();
        let distinct: std::collections::HashSet<_> = scan_keys.iter().collect();
        assert_eq!(distinct.len(), scan_keys.len(), "scans must never repeat");
    }
}
