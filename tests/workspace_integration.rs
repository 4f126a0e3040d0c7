//! Workspace-level integration: the umbrella crate's public API drives every
//! subsystem together — blueprints → co-emulation → reports → analytic model.

use predpkt::core::{FabricSession, ReliableInner, ShmOptions, TcpOptions};
use predpkt::prelude::*;
use predpkt::sim::Trace;
use predpkt::workloads::{
    dma_offload_soc, figure2_soc, irq_driven_soc, split_heavy_soc, stream_soc,
};
use std::time::Duration;

fn golden_hash(blueprint: &SocBlueprint, cycles: u64) -> u64 {
    let mut bus = blueprint.build_golden().expect("golden builds");
    bus.run(cycles);
    assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    bus.trace().hash()
}

fn coemu_hash(blueprint: &SocBlueprint, policy: ModePolicy, cycles: u64) -> (u64, PerfReport) {
    let config = CoEmuConfig::paper_defaults()
        .policy(policy)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true);
    let mut coemu = CoEmulator::from_blueprint(blueprint, config).expect("pair builds");
    coemu.run_until_committed(cycles).expect("no deadlock");
    let placement = blueprint.placement();
    let mut merged = coemu.merged_trace(|s, a| placement.merge_records(s, a));
    merged.truncate_to_len(cycles as usize);
    (merged.hash(), coemu.report())
}

/// Asserts a merged committed trace matches golden over `cycles` cycles.
fn assert_commits_golden(blueprint: &SocBlueprint, cycles: u64, mut merged: Trace, what: &str) {
    merged.truncate_to_len(cycles as usize);
    assert_eq!(
        merged.hash(),
        golden_hash(blueprint, cycles),
        "{what} diverged from golden"
    );
}

#[test]
fn every_session_backend_and_a_fabric_commit_golden_traces() {
    let blueprint = figure2_soc(7);
    let placement = blueprint.placement();
    let opts = ThreadedOpts {
        poll_interval: Duration::from_micros(500),
        deadlock_timeout: Duration::from_secs(10),
    };
    let tcp = TcpOptions::default().threaded(opts);
    let shm = ShmOptions::default().threaded(opts);
    let backends = [
        ("queue", TransportSelect::Queue),
        ("lossy", TransportSelect::Lossy(FaultSpec::none(1))),
        ("threaded", TransportSelect::Threaded(opts)),
        ("tcp", TransportSelect::Tcp(tcp)),
        ("shm", TransportSelect::Shm(shm)),
        (
            "reliable+queue",
            TransportSelect::reliable(ReliableInner::Queue),
        ),
        (
            "reliable+lossy",
            TransportSelect::reliable(ReliableInner::Lossy(FaultSpec::none(2))),
        ),
        (
            "reliable+threaded",
            TransportSelect::reliable(ReliableInner::Threaded(opts)),
        ),
        (
            "reliable+tcp",
            TransportSelect::reliable(ReliableInner::Tcp(tcp)),
        ),
        (
            "reliable+shm",
            TransportSelect::reliable(ReliableInner::Shm(shm)),
        ),
    ];
    for (name, backend) in backends {
        let mut session = EmuSession::from_blueprint(&blueprint)
            .policy(ModePolicy::Auto)
            .transport(backend)
            .build()
            .unwrap_or_else(|e| panic!("{name}: session builds: {e}"));
        assert_eq!(session.backend(), name);
        session
            .run_until_committed(200)
            .unwrap_or_else(|e| panic!("{name}: run completes: {e}"));
        let merged = session.merged_trace(|s, a| placement.merge_records(s, a));
        assert_commits_golden(&blueprint, session.committed_cycles(), merged, name);
    }

    let mut fabric = FabricSession::from_blueprint(&blueprint, 3)
        .policy(ModePolicy::Auto)
        .link(TransportSelect::Threaded(opts))
        .build()
        .expect("fabric builds");
    assert_eq!(fabric.backend(), "fabric+threaded");
    fabric
        .run_until_committed(200)
        .expect("fabric run completes");
    for edge in 0..fabric.edges().len() {
        let merged = fabric.edge_trace(edge, |s, a| placement.merge_records(s, a));
        let what = format!("fabric edge {edge}");
        assert_commits_golden(&blueprint, fabric.committed_cycles(), merged, &what);
    }
}

#[test]
fn every_scenario_is_equivalent_under_every_mode() {
    let scenarios: Vec<(&str, SocBlueprint)> = vec![
        ("figure2", figure2_soc(7)),
        ("dma_offload", dma_offload_soc(64)),
        ("irq_driven", irq_driven_soc(12)),
        ("split_heavy", split_heavy_soc(4, 3)),
        ("stream", stream_soc(3)),
    ];
    for (name, blueprint) in scenarios {
        let cycles = 400;
        let golden = golden_hash(&blueprint, cycles);
        for policy in [
            ModePolicy::Conservative,
            ModePolicy::ForcedAls,
            ModePolicy::ForcedSla,
            ModePolicy::Auto,
        ] {
            let (hash, _) = coemu_hash(&blueprint, policy, cycles);
            assert_eq!(hash, golden, "{name} under {policy:?} diverged from golden");
        }
    }
}

#[test]
fn optimistic_beats_conservative_on_every_scenario() {
    let scenarios: Vec<(&str, SocBlueprint)> = vec![
        ("figure2", figure2_soc(7)),
        ("dma_offload", dma_offload_soc(64)),
        ("irq_driven", irq_driven_soc(12)),
        ("stream", stream_soc(3)),
    ];
    for (name, blueprint) in scenarios {
        let (_, cons) = coemu_hash(&blueprint, ModePolicy::Conservative, 800);
        let (_, auto) = coemu_hash(&blueprint, ModePolicy::Auto, 800);
        assert!(
            auto.performance_cps() > cons.performance_cps(),
            "{name}: auto {} !> conservative {}",
            auto.performance_cps(),
            cons.performance_cps()
        );
        assert!(
            auto.accesses_per_cycle() < cons.accesses_per_cycle(),
            "{name}: channel traffic must shrink"
        );
    }
}

#[test]
fn prelude_covers_the_quickstart_path() {
    // The doc example, as a compiled test.
    let blueprint = figure2_soc(42);
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    let mut coemu = CoEmulator::from_blueprint(&blueprint, config).unwrap();
    coemu.run_until_committed(500).unwrap();
    let report = coemu.report();
    assert!(report.accesses_per_cycle() < 2.0);
    assert!(report.committed_cycles() >= 500);
}

#[test]
fn analytic_model_is_reachable_from_prelude() {
    let config = CoEmuConfig::paper_defaults();
    let params = ModelParams::from_config(&config, Side::Accelerator);
    let row = AnalyticRow::at(&params, 1.0);
    assert!(row.ratio > 15.0);
}

#[test]
fn virtual_time_accounting_is_exact_integers() {
    // Two identical runs produce bit-identical ledgers (no float drift).
    let blueprint = figure2_soc(99);
    let run = || {
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::Auto)
            .rollback_vars(None);
        let mut coemu = CoEmulator::from_blueprint(&blueprint, config).unwrap();
        coemu.run_until_committed(600).unwrap();
        (
            coemu.ledger().total(),
            coemu.channel_stats().total_words(),
            coemu.committed_cycles(),
        )
    };
    assert_eq!(run(), run(), "runs must be exactly reproducible");
}
