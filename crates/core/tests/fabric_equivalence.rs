//! N-domain fabric conformance: every fabric backend commits exactly what
//! the co-operative queue-fabric baseline commits, per domain and per edge,
//! for N ∈ {2, 3, 8} — and the N = 2 fabric degenerates bit-for-bit to the
//! two-domain session it generalizes.
//!
//! The comparison is the transport-conformance property lifted to the
//! fabric: per-domain committed cycles, merged virtual-time ledgers, and
//! channel statistics, plus per-edge merged-trace hashes, must be identical
//! across queue / threaded / TCP / shm / reliable link backends. A seeded
//! fault sweep additionally pins the reliable fabric's repaired results to
//! the clean baseline.

mod common;

use common::conformance::{
    shm_opts, tcp_opts, test_opts, workload_config, workload_matrix, Workload,
};
use common::{assert_commits_golden, figure2_soc};
use predpkt_channel::{ChannelStats, FaultSpec, Side};
use predpkt_core::{
    EmuSession, FabricSession, ReliableInner, SessionError, SocBlueprint, TransportSelect,
};
use predpkt_sim::VirtualTime;

/// Everything one domain of a fabric run exposes.
#[derive(Debug, PartialEq, Eq)]
struct DomainObserved {
    committed: u64,
    channel: ChannelStats,
    ledger_total: VirtualTime,
}

/// Everything a fabric conformance run compares.
#[derive(Debug, PartialEq, Eq)]
struct FabricObserved {
    committed: u64,
    domains: Vec<DomainObserved>,
    edge_hashes: Vec<u64>,
    ledger_total: VirtualTime,
}

/// Every fabric link backend, with its stable name. The queue baseline is
/// first; fault-injecting variants appear in their fault-free configuration
/// (seeded fault sweeps have their own test).
fn fabric_backends() -> Vec<(&'static str, TransportSelect)> {
    vec![
        ("queue", TransportSelect::Queue),
        ("threaded", TransportSelect::Threaded(test_opts())),
        ("tcp", TransportSelect::Tcp(tcp_opts())),
        ("shm", TransportSelect::Shm(shm_opts())),
        ("shm+file", TransportSelect::Shm(shm_opts().file_backed())),
        (
            "reliable+queue",
            TransportSelect::reliable(ReliableInner::Queue),
        ),
        (
            "reliable+threaded",
            TransportSelect::reliable(ReliableInner::Threaded(test_opts())),
        ),
        (
            "reliable+tcp",
            TransportSelect::reliable(ReliableInner::Tcp(tcp_opts())),
        ),
        (
            "reliable+shm",
            TransportSelect::reliable(ReliableInner::Shm(shm_opts())),
        ),
    ]
}

fn observe_fabric(session: &FabricSession, blueprint: &SocBlueprint) -> FabricObserved {
    let placement = blueprint.placement();
    let domains = (0..session.domains())
        .map(|d| DomainObserved {
            committed: session.domain_committed(d),
            channel: session.domain_channel_stats(d),
            ledger_total: session.domain_ledger(d).total(),
        })
        .collect();
    let edge_hashes = (0..session.edges().len())
        .map(|e| {
            session
                .edge_trace(e, |s, a| placement.merge_records(s, a))
                .hash()
        })
        .collect();
    FabricObserved {
        committed: session.committed_cycles(),
        domains,
        edge_hashes,
        ledger_total: session.ledger().total(),
    }
}

fn run_fabric(n: usize, link: TransportSelect, workload: &Workload) -> FabricObserved {
    let blueprint = figure2_soc();
    observe_fabric(&fabric_session(n, link, workload, &blueprint), &blueprint)
}

/// Builds an `n`-domain `blueprint` fabric over `link` and runs `workload`.
fn fabric_session(
    n: usize,
    link: TransportSelect,
    workload: &Workload,
    blueprint: &SocBlueprint,
) -> FabricSession {
    let mut session = FabricSession::from_blueprint(blueprint, n)
        .config(workload_config(workload))
        .link(link)
        .build()
        .expect("fabric session builds");
    session
        .run_until_committed(workload.cycles)
        .expect("fabric session completes");
    session
}

/// The co-operative queue-fabric baseline, with every edge held to the
/// golden oracle — so every backend compared against it is golden-checked
/// transitively.
fn queue_baseline(n: usize, workload: &Workload) -> FabricObserved {
    let blueprint = figure2_soc();
    let session = fabric_session(n, TransportSelect::Queue, workload, &blueprint);
    let placement = blueprint.placement();
    for edge in 0..session.edges().len() {
        assert_commits_golden(
            &blueprint,
            session.committed_cycles(),
            &session.edge_trace(edge, |s, a| placement.merge_records(s, a)),
        );
    }
    observe_fabric(&session, &blueprint)
}

/// The whole-matrix conformance sweep for an `n`-domain fabric.
fn assert_fabric_conformance(n: usize) {
    for workload in workload_matrix() {
        let baseline = queue_baseline(n, &workload);
        assert_eq!(
            baseline.domains.len(),
            n,
            "{}: baseline reports every domain",
            workload.name
        );
        assert_eq!(
            baseline.edge_hashes.len(),
            n * (n - 1) / 2,
            "{}: full mesh has one edge per domain pair",
            workload.name
        );
        for d in &baseline.domains {
            assert!(
                d.committed >= workload.cycles,
                "{}: every domain reaches the target",
                workload.name
            );
        }
        for (name, link) in fabric_backends().into_iter().skip(1) {
            let observed = run_fabric(n, link, &workload);
            assert_eq!(
                baseline, observed,
                "{}/{name}: n={n} fabric diverged from the queue-fabric baseline",
                workload.name
            );
        }
    }
}

#[test]
fn two_domain_fabric_conforms_across_backends() {
    assert_fabric_conformance(2);
}

#[test]
fn three_domain_fabric_conforms_across_backends() {
    assert_fabric_conformance(3);
}

/// The wide sweep: 8 domains, 28 links, 8 domain threads with 7 ports each.
/// Expensive, so ignored by default; CI's slow-tests job runs it.
#[test]
#[ignore = "wide fabric sweep; run with --ignored (CI slow-tests does)"]
fn eight_domain_fabric_conforms_across_backends() {
    assert_fabric_conformance(8);
}

/// Per-edge seeded faults under the reliable layer repair to results
/// bit-identical to the clean queue baseline (the two-domain fault-recovery
/// property, lifted to the fabric).
#[test]
fn faulted_reliable_fabric_matches_clean_baseline() {
    let workload = workload_matrix().remove(0);
    for n in [2usize, 3] {
        let baseline = queue_baseline(n, &workload);
        for seed in [11u64, 97] {
            let faulted = TransportSelect::reliable(ReliableInner::Tcp(
                tcp_opts().fault(FaultSpec::drops(seed, 0.15)),
            ));
            let observed = run_fabric(n, faulted, &workload);
            assert_eq!(
                baseline, observed,
                "n={n} seed={seed}: faulted reliable fabric diverged from clean baseline"
            );
        }
    }
}

/// With N = 2 the fabric is one edge — and must commit exactly what today's
/// two-domain session commits: same trace, same boundary, same channel
/// statistics, same virtual time. This pins the generalization to the code
/// it replaces.
#[test]
fn two_domain_fabric_degenerates_to_emu_session() {
    let blueprint = figure2_soc();
    let placement = blueprint.placement();
    for workload in workload_matrix() {
        let mut emu = EmuSession::from_blueprint(&blueprint)
            .config(workload_config(&workload))
            .transport(TransportSelect::Threaded(test_opts()))
            .build()
            .expect("two-domain session builds");
        emu.run_until_committed(workload.cycles)
            .expect("two-domain session completes");

        for (name, link) in fabric_backends() {
            let fabric = run_fabric(2, link, &workload);
            let ctx = |what: &str| format!("{}/{name}: {what}", workload.name);
            assert_eq!(
                emu.merged_trace(|s, a| placement.merge_records(s, a))
                    .hash(),
                fabric.edge_hashes[0],
                "{}",
                ctx("fabric edge trace diverged from the two-domain session")
            );
            assert_eq!(
                emu.committed_cycles(),
                fabric.committed,
                "{}",
                ctx("fabric stopped at a different boundary")
            );
            let mut fabric_channel = fabric.domains[0].channel.clone();
            fabric_channel.merge(&fabric.domains[1].channel);
            assert_eq!(
                emu.channel_stats(),
                fabric_channel,
                "{}",
                ctx("fabric channel statistics diverged")
            );
            assert_eq!(
                emu.ledger().total(),
                fabric.ledger_total,
                "{}",
                ctx("fabric virtual time diverged")
            );
        }
    }
}

/// Domain roles are fixed by edge direction: on every edge the
/// lower-numbered domain leads (`Side::Simulator`). Spot-check the exported
/// edge list agrees.
#[test]
fn fabric_edges_fix_roles_by_domain_order() {
    let blueprint = figure2_soc();
    let session = FabricSession::from_blueprint(&blueprint, 3)
        .build()
        .expect("fabric session builds");
    let edges = session.edges();
    assert_eq!(edges.len(), 3);
    for edge in edges {
        assert!(edge.a() < edge.b());
        assert_eq!(edge.role_of(edge.a()), Side::Simulator);
        assert_eq!(edge.role_of(edge.b()), Side::Accelerator);
    }
}

/// A fabric needs at least two domains; fewer is a configuration error, not
/// a panic.
#[test]
fn fabric_rejects_fewer_than_two_domains() {
    let blueprint = figure2_soc();
    for n in [0usize, 1] {
        match FabricSession::from_blueprint(&blueprint, n).build() {
            Err(SessionError::Config(e)) => {
                assert!(
                    e.to_string().contains("at least two domains"),
                    "unexpected config error: {e}"
                );
            }
            other => panic!("n={n}: expected a config error, got {other:?}"),
        }
    }
}
