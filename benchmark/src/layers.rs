//! Unit costs: one isolated loop per public function a workload's time
//! goes to, each on state prepared to a workload's operating point.
//!
//! Every loop times *batches* (32 calls where the call is cheap, one
//! call where it is not) for a fixed share of the time budget, and
//! reports the median host nanoseconds per operation, plus the p99 over
//! batches for the loops on a workload's critical path. State that a
//! call consumes (a fresh flow can miss only once) is rebuilt between
//! batches, outside the timed region.
//!
//! The numbers are cache-warm lower bounds — the same call inside a run
//! shares the cache with everything else — which is why the ledger
//! reports an explicit residual instead of forcing the rows to sum to 1.

// audit: allow-file(determinism) -- the harness times the library from outside; nothing here feeds a simulation
use std::hint::black_box;
use std::time::{Duration, Instant};

use pi_attack::{AttackSchedule, AttackSpec, CovertSequence, MaliciousAcl};
use pi_backend::build_backend;
use pi_classifier::{Action, FlowTable, PrefixTrie, SubtableOrder, TupleSpaceSearch};
use pi_cms::{Cidr, IngressRule, NetworkPolicy, PolicyCompiler, PolicyDialect, Protocol};
use pi_core::{Field, FlowKey, FlowMask, KeyWords, MaskWords, MaskedKey, SimTime};
use pi_datapath::{
    BackendKind, CostModel, DpConfig, PipelineMode, SlowPath, UpcallPipelineConfig, VSwitch,
};
use pi_detect::{DetectorBank, DetectorConfig, TelemetryTap};
use pi_sim::{NodeCell, NodePacket};
use pi_trace::{chrome_trace_json, TraceConfig, TraceEventKind, TraceReport, Tracer};
use pi_traffic::{FanSource, GenPacket, IperfSource, PoissonFlowSource, TrafficSource};

use crate::spans::Spans;
use crate::stats;

/// Calls per timed batch for the cheap operations (OVS's burst size, and
/// what `VSwitch::process_batch` hashes in one phase).
const BATCH: usize = 32;
/// A loop always runs at least this many batches, however small its
/// share of the time budget.
const MIN_BATCHES: usize = 30;
/// Entries at the flap workload's operating point (its whitelist size).
const CLIENTS: usize = 512;

const POD: u32 = u32::from_be_bytes([10, 1, 0, 66]);
const VICTIM: u32 = u32::from_be_bytes([10, 1, 0, 10]);
const T0: SimTime = SimTime::from_millis(1);

/// Timed loops in [`measure`] (each gets an equal share of the budget).
pub const LOOPS: u32 = 33;

/// One measured unit cost.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitCost {
    /// Metric name (`<crate>.<what>_ns[.<operating point>]`).
    pub name: &'static str,
    /// Median host nanoseconds per operation.
    pub ns: f64,
    /// 99th percentile over batches, for the starred loops.
    pub p99: Option<f64>,
}

/// The measured unit costs, by name.
#[derive(Debug, Clone, Default)]
pub struct UnitCosts(pub Vec<UnitCost>);

impl UnitCosts {
    /// Median ns/op of `name` (0 for an unknown name).
    pub fn ns(&self, name: &str) -> f64 {
        self.0.iter().find(|c| c.name == name).map_or(0.0, |c| c.ns)
    }
}

/// Times `f` once.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = black_box(f());
    (result, start.elapsed())
}

struct Bench<'a> {
    spans: &'a mut Spans,
    per_loop: Duration,
    out: UnitCosts,
}

impl Bench<'_> {
    /// Runs `batch` until this loop's share of the budget is spent.
    /// `batch(i)` returns the time of its measured region and how many
    /// operations that region performed; a batch that performed none is
    /// discarded.
    fn run(
        &mut self,
        name: &'static str,
        tail: bool,
        mut batch: impl FnMut(u64) -> (Duration, f64),
    ) {
        let per_loop = self.per_loop;
        let mut samples = Vec::new();
        self.spans.time(&format!("layer.{name}"), |_| {
            let start = Instant::now();
            let mut i = 0u64;
            while samples.len() < MIN_BATCHES || start.elapsed() < per_loop {
                let (spent, ops) = batch(i);
                i += 1;
                if ops > 0.0 {
                    samples.push(spent.as_nanos() as f64 / ops);
                }
            }
        });
        self.out.0.push(UnitCost {
            name,
            ns: stats::median(&samples),
            p99: tail.then(|| stats::p99(&samples)),
        });
    }

    /// [`Bench::run`] for a region of exactly [`BATCH`] operations.
    fn run32(&mut self, name: &'static str, tail: bool, mut batch: impl FnMut(u64) -> Duration) {
        self.run(name, tail, |i| (batch(i), BATCH as f64));
    }
}

fn compile(spec: &AttackSpec) -> FlowTable {
    match spec.build_policy() {
        MaliciousAcl::K8s(p) => PolicyCompiler.compile_k8s(&p),
        MaliciousAcl::OpenStack(p) => PolicyCompiler.compile_security_group(&p),
        MaliciousAcl::Calico(p) => PolicyCompiler.compile_calico(&p),
    }
}

fn masks_512() -> AttackSpec {
    AttackSpec::masks_512(PolicyDialect::Kubernetes)
}

/// Every covert populate packet of `spec` aimed at [`POD`]: one distinct
/// megaflow mask each.
fn populate_packets(spec: &AttackSpec) -> Vec<FlowKey> {
    CovertSequence::new(spec.build_target(POD))
        .populate_packets()
        .collect()
}

fn client_ip(i: usize) -> [u8; 4] {
    [10, 2, (i >> 8) as u8, (i & 0xff) as u8]
}

/// The flap workload's victim policy: one /32 whitelist entry per client.
fn whitelist_policy() -> NetworkPolicy {
    NetworkPolicy {
        name: "victim-peers".into(),
        ingress: vec![IngressRule {
            from: (0..CLIENTS).map(|i| Cidr::host(client_ip(i))).collect(),
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    }
}

/// One live flow per whitelisted client, as the flap workload sends.
fn client_flows() -> Vec<FlowKey> {
    (0..CLIENTS)
        .map(|i| FlowKey::tcp(client_ip(i), VICTIM.to_be_bytes(), 40_000 + i as u16, 5201))
        .collect()
}

/// The `i`-th (cyclically) run of up to [`BATCH`] keys, and whether it is
/// the first of a cycle.
fn chunk_at(keys: &[FlowKey], i: u64) -> (&[FlowKey], bool) {
    let at = i as usize % keys.len().div_ceil(BATCH);
    (&keys[at * BATCH..keys.len().min((at + 1) * BATCH)], at == 0)
}

/// 32 distinct benign flows to [`POD`].
fn benign_flows() -> [FlowKey; BATCH] {
    std::array::from_fn(|i| {
        FlowKey::tcp(
            [10, 0, 0, 1 + i as u8],
            POD.to_be_bytes(),
            1000 + i as u16,
            443,
        )
    })
}

/// A switch with [`POD`] attached behind `spec`'s ACL, every covert mask
/// installed.
fn populated_switch(dp: DpConfig, spec: &AttackSpec) -> VSwitch {
    let mut sw = VSwitch::new(dp);
    sw.attach_pod(POD, 1);
    sw.install_acl(POD, compile(spec));
    for key in populate_packets(spec) {
        sw.process(&key, T0);
    }
    sw
}

/// Masks a bare no-EMC switch holds after one full covert populate pass
/// of the paper's 8192-mask policy.
pub fn masks_reached() -> u64 {
    populated_switch(DpConfig::no_emc(), &AttackSpec::masks_8192()).mask_count() as u64
}

/// A switch with [`VICTIM`] attached behind the 512-client whitelist and
/// [`POD`] attached bare (the flap's re-install target).
fn whitelist_switch(dp: DpConfig) -> VSwitch {
    let mut sw = VSwitch::new(dp);
    sw.attach_pod(VICTIM, 1);
    sw.attach_pod(POD, 2);
    sw.install_acl(VICTIM, PolicyCompiler.compile_k8s(&whitelist_policy()));
    sw
}

/// A TSS holding `masks` distinct masks (ip-src prefix × dst-port prefix
/// [× src-port prefix] — the shape the injected ACL produces).
fn tss_with_masks(masks: usize) -> TupleSpaceSearch<u32> {
    let mut tss = TupleSpaceSearch::new(SubtableOrder::Insertion);
    let base = FlowKey::tcp([10, 0, 0, 1], POD.to_be_bytes(), 4444, 443);
    let sport_lens = masks.div_ceil(CLIENTS) as u8;
    'fill: for sport_len in 0..sport_lens {
        for ip_len in 1..=32u8 {
            for dport_len in 1..=16u8 {
                if tss.subtable_count() >= masks {
                    break 'fill;
                }
                let mut mask = FlowMask::default()
                    .with_prefix(Field::IpSrc, ip_len)
                    .with_prefix(Field::TpDst, dport_len);
                if sport_len > 0 {
                    mask = mask.with_prefix(Field::TpSrc, sport_len);
                }
                let value = tss.subtable_count() as u32;
                tss.insert(MaskedKey::new(base, mask), value);
            }
        }
    }
    assert_eq!(tss.subtable_count(), masks, "distinct masks");
    tss
}

/// Times `src.generate` over `ticks` one-millisecond windows per batch;
/// the operation is one emitted packet.
fn drive(b: &mut Bench<'_>, name: &'static str, ticks: u64, src: &mut dyn TrafficSource) {
    let tick = SimTime::from_millis(1);
    let mut out: Vec<GenPacket> = Vec::with_capacity(1024);
    let mut from = SimTime::ZERO;
    b.run(name, false, |_| {
        let mut spent = Duration::ZERO;
        let mut emitted = 0usize;
        for _ in 0..ticks {
            let to = from + tick;
            out.clear();
            spent += timed(|| src.generate(from, to, &mut out)).1;
            // A lossless path: loss-responsive sources stay at line rate.
            src.feedback(out.len() as u64, 0);
            emitted += out.len();
            from = to;
        }
        (spent, emitted as f64)
    });
}

/// Measures every unit cost, spending about `budget` in total.
pub fn measure(spans: &mut Spans, budget: Duration) -> UnitCosts {
    let mut b = Bench {
        spans,
        per_loop: budget / LOOPS,
        out: UnitCosts::default(),
    };
    let mut sink = 0u64;
    let flows = benign_flows();
    let spec512 = masks_512();
    let spec8192 = AttackSpec::masks_8192();
    let populate512 = populate_packets(&spec512);
    let populate8192 = populate_packets(&spec8192);
    let clients = client_flows();
    let trie_fields = DpConfig::default().trie_fields;

    // --- pi_core ---------------------------------------------------
    b.run32("core.keywords_ns", false, |_| {
        timed(|| {
            for key in &flows {
                sink ^= KeyWords::of(black_box(key)).full_hash();
            }
        })
        .1
    });
    let words = KeyWords::of(&flows[0]);
    let mask_words: Vec<MaskWords> = (1..=BATCH as u8)
        .map(|len| {
            MaskWords::of(
                &FlowMask::default()
                    .with_prefix(Field::IpSrc, len)
                    .with_prefix(Field::TpDst, len.div_ceil(2)),
            )
        })
        .collect();
    b.run32("core.masked_hash_ns", false, |_| {
        timed(|| {
            for mask in &mask_words {
                sink ^= words.masked_hash(black_box(mask));
            }
        })
        .1
    });

    // --- pi_classifier ---------------------------------------------
    let miss = FlowKey::tcp([192, 168, 0, 1], [172, 16, 0, 1], 1, 1);
    let miss_words = KeyWords::of(&miss);
    for (name, masks, peeks) in [
        ("classifier.tss_probe_ns.512", 512usize, 8usize),
        ("classifier.tss_probe_ns.8192", 8192, 1),
    ] {
        let tss = tss_with_masks(masks);
        b.run(name, true, |_| {
            let (probes, spent) = timed(|| {
                (0..peeks)
                    .map(|_| tss.peek_with(black_box(&miss), &miss_words).probes)
                    .sum::<usize>()
            });
            (spent, probes as f64)
        });
    }
    // The flap's megaflows: 512 entries under one exact-match mask.
    let flap_mask = FlowMask::default()
        .with_exact(Field::IpSrc)
        .with_exact(Field::IpDst)
        .with_exact(Field::IpProto)
        .with_exact(Field::TpDst);
    let mut tss: TupleSpaceSearch<u32> = TupleSpaceSearch::new(SubtableOrder::Insertion);
    for (i, key) in clients.iter().enumerate() {
        tss.insert(MaskedKey::new(*key, flap_mask), i as u32);
    }
    let extra: Vec<MaskedKey> = (0..BATCH)
        .map(|i| {
            let key = FlowKey::tcp([10, 3, 0, i as u8], VICTIM.to_be_bytes(), 40_000, 5201);
            MaskedKey::new(key, flap_mask)
        })
        .collect();
    b.run32("classifier.tss_insert_ns", false, |_| {
        let spent = timed(|| {
            for mk in &extra {
                black_box(tss.insert(*mk, 0));
            }
        })
        .1;
        for mk in &extra {
            tss.remove(mk);
        }
        spent
    });
    b.run32("classifier.tss_remove_ns", false, |_| {
        for mk in &extra {
            tss.insert(*mk, 0);
        }
        timed(|| {
            for mk in &extra {
                black_box(tss.remove(mk));
            }
        })
        .1
    });
    let mut trie = PrefixTrie::new(Field::IpSrc);
    for i in 0..CLIENTS {
        trie.insert(u64::from(u32::from_be_bytes(client_ip(i))), 32);
    }
    b.run32("classifier.trie_unwildcard_ns", false, |i| {
        timed(|| {
            for j in 0..BATCH as u64 {
                // Alternate whitelisted and foreign addresses.
                let v = u64::from(u32::from_be_bytes(client_ip(((i * 7 + j) % 1024) as usize)));
                sink += u64::from(trie.unwildcard_bits(black_box(v)));
            }
        })
        .1
    });

    // --- pi_datapath -----------------------------------------------
    let mut emc_switch = VSwitch::new(DpConfig::default());
    emc_switch.attach_pod(POD, 1);
    for _ in 0..2 {
        emc_switch.process_batch(&flows, T0, |_, _| true);
    }
    b.run32("datapath.emc_hit_ns", true, |_| {
        timed(|| {
            emc_switch.process_batch(&flows, T0, |_, o| {
                sink += o.cycles;
                true
            })
        })
        .1
    });
    assert!(emc_switch.stats().emc_hit_rate() > 0.99, "EMC-hit stream");

    let mut one_mask = VSwitch::new(DpConfig::no_emc());
    one_mask.attach_pod(POD, 1);
    one_mask.process_batch(&flows, T0, |_, _| true);
    b.run32("datapath.mfc_hit_ns.1", false, |_| {
        timed(|| {
            one_mask.process_batch(&flows, T0, |_, o| {
                sink += o.cycles;
                true
            })
        })
        .1
    });
    let mut walk = populated_switch(DpConfig::no_emc(), &spec512);
    assert_eq!(walk.mask_count() as u64, spec512.predicted_masks());
    b.run("datapath.mfc_hit_ns.512", true, |i| {
        let (chunk, _) = chunk_at(&populate512, i);
        let (done, spent) = timed(|| {
            walk.process_batch(chunk, T0, |_, o| {
                sink += o.cycles;
                true
            })
        });
        (spent, done as f64)
    });

    // Fresh flows against the injected ACL: the covert populate pass,
    // nearly every packet an upcall that installs a new mask, on a
    // switch rebuilt for every pass.
    let mut fresh = VSwitch::new(DpConfig::default());
    b.run("datapath.upcall_inline_ns.acl512", true, |i| {
        let (chunk, first) = chunk_at(&populate512, i);
        if first {
            fresh = VSwitch::new(DpConfig::default());
            fresh.attach_pod(POD, 1);
            fresh.install_acl(POD, compile(&spec512));
        }
        let spent = timed(|| {
            for key in chunk {
                sink += fresh.process(black_box(key), T0).cycles;
            }
        })
        .1;
        (spent, chunk.len() as f64)
    });
    // Fresh flows against the whitelist: the flap's rebuild. A
    // re-install flushes, so every client misses again.
    let whitelist = PolicyCompiler.compile_k8s(&whitelist_policy());
    for (name, dp) in [
        ("datapath.upcall_inline_ns.wl512", DpConfig::default()),
        (
            "datapath.upcall_bounded_ns",
            DpConfig {
                pipeline: PipelineMode::Bounded(UpcallPipelineConfig::unbounded()),
                ..DpConfig::default()
            },
        ),
    ] {
        let mut sw = whitelist_switch(dp);
        b.run(name, true, |i| {
            let (chunk, first) = chunk_at(&clients, i);
            if first {
                sw.install_acl(VICTIM, whitelist.clone());
            }
            let spent = timed(|| {
                for key in chunk {
                    sink += sw.process(black_box(key), T0).cycles;
                }
                sw.drain_upcalls(T0, |r| sink += r.outcome.cycles);
            })
            .1;
            (spent, chunk.len() as f64)
        });
        assert!(sw.stats().upcalls > 0, "fresh flows reach the slow path");
    }
    for (name, table, keys) in [
        (
            "datapath.slowpath_ns.acl512",
            compile(&spec512),
            &populate512,
        ),
        ("datapath.slowpath_ns.wl512", whitelist.clone(), &clients),
        (
            "datapath.slowpath_ns.acl8192",
            compile(&spec8192),
            &populate8192,
        ),
    ] {
        let slow = SlowPath::new(table, &trie_fields, Action::Deny);
        b.run(name, false, |i| {
            let (chunk, _) = chunk_at(keys, i);
            let spent = timed(|| {
                for key in chunk {
                    sink += black_box(slow.process_upcall(black_box(key))).rules_examined as u64;
                }
            })
            .1;
            (spent, chunk.len() as f64)
        });
    }

    // The flap itself: re-installing an unrelated pod's ACL flushes the
    // victim's 512 resident megaflows.
    let mut flapped = whitelist_switch(DpConfig::default());
    let attacker_acl = compile(&spec512);
    b.run("datapath.flush_ns_per_mf", false, |_| {
        for key in &clients {
            flapped.process(key, T0);
        }
        let table = attacker_acl.clone();
        let (outcome, spent) = timed(|| flapped.apply_install_acl(POD, table));
        (spent, outcome.flushed_megaflows as f64)
    });
    // One sweep per simulated second over 512 live megaflows (no EMC, so
    // every refresh packet touches its megaflow and none idles out).
    let mut swept = whitelist_switch(DpConfig::no_emc());
    let mut now = T0;
    b.run("datapath.revalidate_ns_per_mf", false, |_| {
        now += SimTime::from_secs(1);
        for key in &clients {
            swept.process(key, now);
        }
        let (report, spent) = timed(|| swept.revalidate(now));
        (spent, report.map_or(0.0, |r| r.remaining as f64))
    });

    // --- pi_backend ------------------------------------------------
    let warm_backend = |kind: BackendKind| {
        let dp = DpConfig {
            backend: kind,
            ..DpConfig::default()
        };
        let mut backend = build_backend(dp, CostModel::default());
        backend.attach_pod(POD, 1);
        for _ in 0..2 {
            backend.process_batch(&flows, T0, &mut |_, _| true);
        }
        backend
    };
    for (name, kind) in [
        ("backend.ovs_boxed_hit_ns", BackendKind::OvsCache),
        ("backend.exact_hit_ns", BackendKind::ExactHash),
        ("backend.lpm_ns", BackendKind::LpmTier),
        ("backend.nic_hit_ns", BackendKind::NicOffload),
    ] {
        let mut backend = warm_backend(kind);
        b.run32(name, false, |_| {
            timed(|| {
                backend.process_batch(&flows, T0, &mut |_, o| {
                    sink += o.cycles;
                    true
                })
            })
            .1
        });
    }
    // Dispatch = the boxed `dyn DataplaneBackend` call minus the direct
    // `VSwitch` call on the same EMC-hit stream. A difference of two
    // medians: it can read slightly negative when the two are equal.
    let dispatch = b.out.ns("backend.ovs_boxed_hit_ns") - b.out.ns("datapath.emc_hit_ns");
    b.out.0.push(UnitCost {
        name: "backend.dispatch_ns",
        ns: dispatch,
        p99: None,
    });

    // --- pi_traffic / pi_attack ------------------------------------
    let victim_flow = FlowKey::tcp([10, 0, 0, 1], POD.to_be_bytes(), 40_000, 5201);
    drive(
        &mut b,
        "traffic.iperf_gen_ns",
        1,
        &mut IperfSource::new(victim_flow, 1500, 1e9),
    );
    let endpoints = (0..8u32)
        .map(|i| (u32::from_be_bytes([10, 0, 200, i as u8]), POD))
        .collect();
    drive(
        &mut b,
        "traffic.poisson_gen_ns",
        250,
        &mut PoissonFlowSource::new(endpoints, 10.0, 20.0, 200.0, 200, 2018),
    );
    drive(
        &mut b,
        "traffic.fan_gen_ns",
        1,
        &mut FanSource::new(clients.clone(), 400, 40_000.0),
    );
    let mut covert = AttackSchedule::fan_out(&spec512, &[POD], 2e6, SimTime::ZERO, SimTime::ZERO);
    drive(&mut b, "attack.schedule_gen_ns", 8, &mut covert.remove(0));

    // --- pi_cms ----------------------------------------------------
    let (MaliciousAcl::K8s(acl512), MaliciousAcl::Calico(acl8192)) =
        (spec512.build_policy(), spec8192.build_policy())
    else {
        unreachable!("masks_512 is Kubernetes, masks_8192 is Calico");
    };
    b.run32("cms.compile_ns.acl512", false, |_| {
        timed(|| {
            for _ in 0..BATCH {
                sink += PolicyCompiler.compile_k8s(black_box(&acl512)).len() as u64;
            }
        })
        .1
    });
    b.run32("cms.compile_ns.acl8192", false, |_| {
        timed(|| {
            for _ in 0..BATCH {
                sink += PolicyCompiler.compile_calico(black_box(&acl8192)).len() as u64;
            }
        })
        .1
    });

    // --- pi_sim ----------------------------------------------------
    let mut node: NodeCell<u32> = NodeCell::new(DpConfig::default(), CostModel::default());
    node.backend_mut().attach_pod(POD, 1);
    let step = |node: &mut NodeCell<u32>, sink: &mut u64| {
        for key in &flows {
            node.enqueue(
                NodePacket {
                    key: *key,
                    bytes: 1500,
                    source: 0,
                },
                8192,
            );
        }
        node.step(T0, 1 << 40, |pkt, _| *sink += pkt.bytes as u64);
    };
    step(&mut node, &mut sink);
    step(&mut node, &mut sink);
    b.run32("sim.node_step_ns", true, |_| {
        timed(|| step(&mut node, &mut sink)).1
    });
    let node_self = b.out.ns("sim.node_step_ns") - b.out.ns("backend.ovs_boxed_hit_ns");
    b.out.0.push(UnitCost {
        name: "sim.node_self_ns",
        ns: node_self,
        p99: None,
    });

    // --- pi_detect / pi_trace --------------------------------------
    // Not on any untraced workload's path: these explain
    // `trace.overhead_frac` and nothing else.
    let mut watched = warm_backend(BackendKind::OvsCache);
    watched.install_acl(POD, compile(&spec512));
    for key in &populate512 {
        watched.process_batch(std::slice::from_ref(key), T0, &mut |_, _| true);
    }
    let mut tap = TelemetryTap::new();
    let mut at = T0;
    b.run("detect.sample_ns", false, |_| {
        at += SimTime::from_millis(100);
        let (sample, spent) = timed(|| tap.sample(&*watched, at));
        sink += sample.packets;
        (spent, 1.0)
    });
    let sample = tap.sample(&*watched, at + SimTime::from_millis(100));
    let mut bank = DetectorBank::new(DetectorConfig::default());
    b.run32("detect.observe_ns", false, |_| {
        timed(|| {
            for _ in 0..BATCH {
                sink += bank.observe(black_box(&sample)).len() as u64;
            }
        })
        .1
    });
    let window = TraceEventKind::BatchWindow {
        packets: 32,
        microflow_hits: 31,
        megaflow_hits: 1,
        upcalls: 0,
        policy_drops: 0,
        cycles: 4096,
    };
    let tracer = Tracer::for_host(TraceConfig::enabled(), 0);
    b.run32("trace.emit_ns", false, |i| {
        timed(|| {
            for _ in 0..BATCH {
                tracer.emit(i * 1_000_000, black_box(window));
            }
        })
        .1
    });
    let ring = Tracer::for_host(TraceConfig::enabled(), 0);
    for i in 0..4096u64 {
        ring.emit(i * 1_000_000, window);
    }
    let report = TraceReport::collect(TraceConfig::enabled(), &[ring]);
    b.run("trace.export_ns_per_event", false, |_| {
        let (json, spent) = timed(|| chrome_trace_json(&report));
        sink += json.len() as u64;
        (spent, report.events.len() as f64)
    });

    black_box(sink);
    assert_eq!(
        b.out.0.len() as u32,
        LOOPS + 2,
        "LOOPS matches the loops above"
    );
    b.out
}
