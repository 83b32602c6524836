//! Datapath configuration.

use pi_classifier::SubtableOrder;
use pi_core::{Field, SimTime};

use crate::upcall::PipelineMode;

/// Which dataplane architecture a node runs. The enum lives here (not in
/// `pi_backend`, where the implementations do) so a [`DpConfig`] can name
/// a backend without a dependency cycle: `pi_backend` depends on this
/// crate and resolves the kind into a concrete pipeline at build time.
///
/// The variants mirror the architectures deployed across real clouds:
///
/// * [`BackendKind::OvsCache`] — the EMC→TSS→upcall hierarchy the paper
///   attacks ([`crate::VSwitch`], unchanged).
/// * [`BackendKind::ExactHash`] — an eBPF/Cilium-style exact-match hash
///   pipeline: no wildcard cache, so no mask space to explode.
/// * [`BackendKind::LpmTier`] — a DPDK-style compiled longest-prefix
///   tier: fixed per-packet trie walk, no flow cache at all.
/// * [`BackendKind::NicOffload`] — a SmartNIC with a bounded exact-match
///   offload table and a costed host slow path behind it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The OVS-like three-level cache hierarchy (the paper's target).
    #[default]
    OvsCache,
    /// Exact-match hash pipeline (eBPF/Cilium-style connection map).
    ExactHash,
    /// Compiled longest-prefix-match tier (DPDK-style, cacheless).
    LpmTier,
    /// Bounded SmartNIC offload table with host fallback.
    NicOffload,
}

impl BackendKind {
    /// All backends, in matrix/report order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::OvsCache,
        BackendKind::ExactHash,
        BackendKind::LpmTier,
        BackendKind::NicOffload,
    ];

    /// The stable lowercase identifier used in CLI arguments and bench
    /// output rows.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::OvsCache => "ovs_cache",
            BackendKind::ExactHash => "exact_hash",
            BackendKind::LpmTier => "lpm_tier",
            BackendKind::NicOffload => "nic_offload",
        }
    }

    /// Parses the identifier produced by [`BackendKind::name`]
    /// (case-insensitive, `-` and `_` interchangeable).
    pub fn parse(s: &str) -> Option<BackendKind> {
        let canon = s.to_ascii_lowercase().replace('-', "_");
        BackendKind::ALL.into_iter().find(|k| k.name() == canon)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunables of one virtual switch, with defaults matching the OVS
/// deployment the paper attacks.
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// Whether the first-level exact-match cache exists at all (the
    /// cache-less ablation turns it off).
    pub emc_enabled: bool,
    /// Microflow cache capacity in entries (OVS EMC default: 8192),
    /// rounded up to a power-of-two number of 2-way sets, at least one.
    pub emc_entries: usize,
    /// Probability of inserting a flow into the microflow cache after a
    /// megaflow hit. OVS-DPDK ships 1/100 to bound insertion overhead;
    /// 1.0 makes small tests deterministic.
    pub emc_insert_prob: f64,
    /// Maximum megaflow entries before installs are refused (OVS
    /// `flow-limit`, default 200 000).
    pub flow_limit: usize,
    /// Megaflow idle timeout (OVS default 10 s) — evicted by the
    /// revalidator if unused this long. The revalidator sweeps once a
    /// second ([`crate::Revalidator::INTERVAL`]). Sets the covert refresh
    /// bandwidth the attack needs (paper: 1–2 Mb/s).
    pub idle_timeout: SimTime,
    /// Scope of the cache invalidation a policy change triggers. False
    /// (the OVS behaviour the paper attacks) flushes the megaflow cache
    /// wholesale; true evicts only the megaflows pinned to the updated
    /// destination ([`crate::MegaflowCache::evict_destination`] — sound
    /// because this pipeline's megaflows always pin `ip_dst`), leaving
    /// other tenants' fast-path state intact. The scoped path also
    /// scopes the microflow cache: only EMC entries keyed to the updated
    /// destination are evicted
    /// ([`crate::MicroflowCache::evict_destination`]), so benign flows
    /// keep their EMC hits across an unrelated tenant's ACL install.
    pub scoped_invalidation: bool,
    /// Fields with prefix tries enabled for megaflow generation. The
    /// paper's mask counts (8 / 512 / 8192) require tries on the IP
    /// source and the L4 ports, matching the demo's OVS configuration.
    pub trie_fields: Vec<Field>,
    /// Enables staged subtable lookup (mitigation ablation).
    pub staged_lookup: bool,
    /// Subtable walk order (mitigation ablation uses hit-count sorting).
    pub subtable_order: SubtableOrder,
    /// How megaflow misses reach the slow path: synchronously
    /// ([`PipelineMode::Inline`], the historical semantics) or through
    /// the bounded per-port upcall pipeline
    /// ([`PipelineMode::Bounded`]).
    pub pipeline: PipelineMode,
    /// Seed for the datapath's internal randomness (EMC way eviction,
    /// probabilistic insertion).
    pub seed: u64,
    /// Which dataplane architecture to build when this config reaches a
    /// simulator node (`pi_backend::build_backend`). [`crate::VSwitch`]
    /// itself ignores the field — constructing one directly always
    /// yields the OVS-style pipeline the other variants are compared
    /// against.
    pub backend: BackendKind,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            emc_enabled: true,
            emc_entries: 8192,
            emc_insert_prob: 1.0,
            flow_limit: 200_000,
            idle_timeout: SimTime::from_secs(10),
            scoped_invalidation: false,
            trie_fields: vec![Field::IpSrc, Field::IpDst, Field::TpSrc, Field::TpDst],
            staged_lookup: false,
            subtable_order: SubtableOrder::Insertion,
            pipeline: PipelineMode::Inline,
            seed: 0x05_eed0_f0e5,
            backend: BackendKind::OvsCache,
        }
    }
}

impl DpConfig {
    /// OVS-DPDK-flavoured defaults: probabilistic EMC insertion.
    pub fn dpdk_like() -> Self {
        DpConfig {
            emc_insert_prob: 0.01,
            ..Self::default()
        }
    }

    /// The cache-less configuration used by the mitigation comparison.
    pub fn no_emc() -> Self {
        DpConfig {
            emc_enabled: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        let c = DpConfig::default();
        assert!(c.emc_enabled);
        assert_eq!(c.emc_entries, 8192);
        assert_eq!(c.flow_limit, 200_000);
        assert_eq!(c.idle_timeout, SimTime::from_secs(10));
        assert!(!c.scoped_invalidation, "global flush is the OVS default");
        assert!(c.trie_fields.contains(&Field::IpSrc));
        assert!(c.trie_fields.contains(&Field::TpSrc));
        assert!(c.trie_fields.contains(&Field::TpDst));
        assert!(!c.staged_lookup);
        assert_eq!(c.subtable_order, SubtableOrder::Insertion);
        assert_eq!(c.pipeline, PipelineMode::Inline, "inline is the default");
        assert_eq!(
            c.backend,
            BackendKind::OvsCache,
            "the paper's target pipeline is the default architecture"
        );
    }

    #[test]
    fn variants() {
        assert_eq!(DpConfig::dpdk_like().emc_insert_prob, 0.01);
        assert!(!DpConfig::no_emc().emc_enabled);
    }

    #[test]
    fn backend_kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(
                BackendKind::parse(&kind.name().replace('_', "-")),
                Some(kind)
            );
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(BackendKind::parse("OVS_CACHE"), Some(BackendKind::OvsCache));
        assert_eq!(BackendKind::parse("not-a-backend"), None);
    }
}
