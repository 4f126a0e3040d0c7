//! Shared seeded round-trip harness over the workspace's `Snapshot` impls.
//!
//! One law, checked for every snapshottable component the workspace exports:
//! saving a *seeded* instance (one driven through representative activity,
//! not a freshly constructed one), restoring the words into a *fresh*
//! instance, and saving again must reproduce the original state vector
//! exactly — and a truncated vector must be rejected with a typed
//! [`SnapshotError`], after which the good vector still restores cleanly
//! (a failed restore never bricks the component).
//!
//! Restores overwrite owned vectors in place, so the law is also checked on
//! a *dirty* target: the target's own prior state and the seeded state are
//! restored over each other in both directions, each landing exactly. Where
//! a test passes a target that was itself driven (not fresh), the two states
//! have vectors of different lengths.
//!
//! The aggregate impls pull their members in recursively: the
//! [`AhbDomainModel`] case covers the bus, fabric, arbiter, master/slave
//! engines, signal codecs, and the paper predictor suite in one vector; the
//! reliable-transport case covers windows, clocks, and recovery counters.
//! `SyntheticModel` (the one impl living above this crate in the dependency
//! order) has the same harness applied in its own crate's tests.

mod common;

use common::figure2_soc;
use predpkt_channel::{
    ChannelCostModel, ChannelStats, CostedChannel, FaultSpec, LossyTransport, Packet, PacketTag,
    QueueTransport, ReliableConfig, ReliableTransport, ShmTransport, TcpTransport,
    ThreadedTransport, Transport,
};
use predpkt_core::{CwStats, DomainModel, Side, TickKind};
use predpkt_predict::{
    AdaptiveConfig, AdaptiveMasterPredictor, AdaptiveSlavePredictor, BurstFollower,
    ContextMasterPredictor, ContextSlavePredictor, ContextTable, LastValueMasterPredictor,
    LastValuePredictor, LastValueSlavePredictor, Lob, LobEntry, MasterPredictor, MasterSignals,
    PaperMasterPredictor, PaperSlavePredictor, SlavePredictor, SlaveSignals, WaitPredictor,
};
use predpkt_sim::{
    restore_from_vec, save_to_vec, CostCategory, Snapshot, SplitMix64, StateVec, TimeLedger, Trace,
    VirtualTime,
};

/// The law: seeded → save → restore-into-target → save is a fixed point,
/// also with the target dirty (holding the other state), a truncated vector
/// is rejected typed, and the rejection is recoverable.
fn assert_roundtrip<T: Snapshot + ?Sized>(name: &str, seeded: &T, fresh: &mut T) {
    let saved = save_to_vec(seeded);
    let prior = save_to_vec(fresh);
    restore_from_vec(fresh, &saved)
        .unwrap_or_else(|e| panic!("{name}: restore into a fresh instance failed: {e}"));
    let resaved = save_to_vec(fresh);
    assert_eq!(
        saved, resaved,
        "{name}: save → restore → save is not a fixed point"
    );

    // Dirty-target leg: the target's prior state restored over the seeded
    // one, then the seeded state over that again.
    for (state, over) in [(&prior, "seeded"), (&saved, "prior")] {
        restore_from_vec(fresh, state)
            .unwrap_or_else(|e| panic!("{name}: restore over the {over} state failed: {e}"));
        assert_eq!(
            &save_to_vec(fresh),
            state,
            "{name}: restore over the {over} state is not exact"
        );
    }

    if saved.is_empty() {
        return; // Nothing to truncate (the endpoint no-op impls).
    }
    let truncated = StateVec::from(saved.words()[..saved.len() - 1].to_vec());
    restore_from_vec(fresh, &truncated)
        .expect_err(&format!("{name}: a truncated vector must be rejected"));
    // The failed restore may have left `fresh` in any state, but never an
    // unrestorable one: the good words must still land.
    restore_from_vec(fresh, &saved)
        .unwrap_or_else(|e| panic!("{name}: restore after a rejected vector failed: {e}"));
    assert_eq!(
        save_to_vec(fresh),
        saved,
        "{name}: the recovery restore lost state"
    );
}

#[test]
fn sim_components_roundtrip() {
    let mut rng = SplitMix64::new(0x5eed_cafe);
    for _ in 0..17 {
        rng.next_u64();
    }
    assert_roundtrip("SplitMix64", &rng, &mut SplitMix64::new(0));

    let mut trace = Trace::new();
    for i in 0..32u64 {
        trace.record(vec![i, i.wrapping_mul(0x9e37_79b9), i ^ 0xff]);
    }
    assert_roundtrip("Trace", &trace, &mut Trace::new());

    let mut ledger = TimeLedger::new();
    ledger.charge(CostCategory::Simulator, VirtualTime::from_nanos(1_234));
    ledger.charge(CostCategory::Channel, VirtualTime::from_micros(56));
    ledger.charge(CostCategory::StateRestore, VirtualTime::from_nanos(789));
    assert_roundtrip("TimeLedger", &ledger, &mut TimeLedger::new());
}

/// Drives representative traffic through a transport: a burst of tagged
/// packets each way, some left queued in flight.
fn seed_transport<T: Transport>(t: &mut T) {
    for i in 0..6u32 {
        t.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, vec![i, i + 100]),
        );
        t.send(
            Side::Accelerator,
            Packet::new(PacketTag::ReportSuccess, vec![i ^ 0xabcd]),
        );
    }
    // Drain a few so cursors sit mid-stream, leaving the rest in flight.
    for _ in 0..3 {
        t.recv(Side::Accelerator);
        t.recv(Side::Simulator);
    }
}

#[test]
fn channel_components_roundtrip() {
    let packet = Packet::new(PacketTag::Burst, vec![1, 2, 3, 0xdead_beef]);
    assert_roundtrip(
        "Packet",
        &packet,
        &mut Packet::new(PacketTag::Handshake, vec![]),
    );

    let mut stats = ChannelStats::new();
    stats.record(
        Side::Simulator.outbound(),
        40,
        VirtualTime::from_nanos(2_000),
    );
    stats.record(
        Side::Accelerator.outbound(),
        7,
        VirtualTime::from_nanos(530),
    );
    assert_roundtrip("ChannelStats", &stats, &mut ChannelStats::new());

    let mut queue = QueueTransport::new();
    seed_transport(&mut queue);
    assert_roundtrip("QueueTransport", &queue, &mut QueueTransport::new());

    let mut costed = CostedChannel::new(ChannelCostModel::iprove_pci());
    costed.send(
        Side::Simulator,
        Packet::new(PacketTag::CycleOutputs, vec![9, 8, 7]),
    );
    costed.send(
        Side::Accelerator,
        Packet::new(PacketTag::ReportSuccess, vec![6]),
    );
    costed.recv(Side::Accelerator);
    assert_roundtrip(
        "CostedChannel<QueueTransport>",
        &costed,
        &mut CostedChannel::new(ChannelCostModel::iprove_pci()),
    );

    // The lossy wrapper's RNG cursor and fault counters are part of the cut —
    // a restored transport continues the same fault plan.
    let spec = FaultSpec::drops(0xfa57, 0.25);
    let mut lossy = LossyTransport::new(QueueTransport::new(), spec);
    seed_transport(&mut lossy);
    assert_roundtrip(
        "LossyTransport<QueueTransport>",
        &lossy,
        &mut LossyTransport::new(QueueTransport::new(), spec),
    );

    let reliable_fresh = || {
        ReliableTransport::new(
            QueueTransport::new(),
            ReliableConfig::default(),
            ChannelCostModel::iprove_pci(),
        )
    };
    let mut reliable = reliable_fresh();
    seed_transport(&mut reliable);
    assert_roundtrip(
        "ReliableTransport<QueueTransport>",
        &reliable,
        &mut reliable_fresh(),
    );

    // The endpoint impls are deliberate no-ops: their medium lives outside
    // the process image, so a checkpoint carries zero words for them.
    let (threaded, _peer) = ThreadedTransport::pair();
    assert!(save_to_vec(&threaded).is_empty());
    let mut fresh = ThreadedTransport::pair().0;
    assert_roundtrip("ThreadedEndpoint", &threaded, &mut fresh);

    let (shm, _peer) = ShmTransport::pair();
    assert!(save_to_vec(&shm).is_empty());
    let mut fresh = ShmTransport::pair().0;
    assert_roundtrip("ShmEndpoint", &shm, &mut fresh);

    let (tcp, _peer) = TcpTransport::loopback_pair().expect("loopback pair");
    assert!(save_to_vec(&tcp).is_empty());
    let (mut fresh, _fresh_peer) = TcpTransport::loopback_pair().expect("loopback pair");
    assert_roundtrip("TcpEndpoint", &tcp, &mut fresh);
}

#[test]
fn predictor_components_roundtrip() {
    let mut last = LastValuePredictor::new(3);
    for v in [17, 17, 92, 4] {
        last.observe(v);
    }
    assert_roundtrip("LastValuePredictor", &last, &mut LastValuePredictor::new(0));

    let mut follower = BurstFollower::new();
    let mut sig = MasterSignals::default();
    for i in 0..8u32 {
        sig.wdata = i * 3;
        follower.observe(&sig, i % 2 == 0);
        follower.predict_and_advance();
    }
    assert_roundtrip("BurstFollower", &follower, &mut BurstFollower::new());

    let mut wait = WaitPredictor::new();
    for i in 0..10 {
        wait.observe(i % 3 == 0, i % 4 != 0);
        wait.predict_and_advance();
    }
    assert_roundtrip("WaitPredictor", &wait, &mut WaitPredictor::new());

    let mut lob = Lob::new(8);
    for i in 0..5u32 {
        lob.push(LobEntry {
            local: vec![i, i + 1],
            predicted: (i % 2 == 0).then(|| vec![i * 10]),
        })
        .expect("LOB has room");
    }
    assert_roundtrip("Lob", &lob, &mut Lob::new(8));

    let mut paper_master = PaperMasterPredictor::new();
    let mut sig = MasterSignals::default();
    for i in 0..12u32 {
        sig.wdata = i.wrapping_mul(7);
        sig.busreq = i % 3 != 0;
        paper_master.observe(&sig, i % 2 == 0);
        paper_master.predict();
    }
    assert_roundtrip(
        "PaperMasterPredictor",
        &paper_master,
        &mut PaperMasterPredictor::new(),
    );

    let mut paper_slave = PaperSlavePredictor::new();
    let mut ssig = SlaveSignals::idle();
    for i in 0..12u32 {
        ssig.rdata = i.wrapping_mul(13);
        ssig.ready = i % 3 != 2;
        paper_slave.observe(&ssig, (i % 2 == 0).then_some(i % 4 == 0));
        paper_slave.begin_phase(i % 4 == 0);
        paper_slave.predict(i % 2 == 0);
    }
    assert_roundtrip(
        "PaperSlavePredictor",
        &paper_slave,
        &mut PaperSlavePredictor::new(),
    );

    let mut lv_master = LastValueMasterPredictor::new();
    let mut sig = MasterSignals::default();
    for i in 0..6u32 {
        sig.wdata = i + 1;
        lv_master.observe(&sig, true);
        lv_master.predict();
    }
    assert_roundtrip(
        "LastValueMasterPredictor",
        &lv_master,
        &mut LastValueMasterPredictor::new(),
    );

    let mut lv_slave = LastValueSlavePredictor::new();
    let mut ssig = SlaveSignals::idle();
    for i in 0..6u32 {
        ssig.rdata = i + 42;
        lv_slave.observe(&ssig, Some(true));
        lv_slave.predict(true);
    }
    assert_roundtrip(
        "LastValueSlavePredictor",
        &lv_slave,
        &mut LastValueSlavePredictor::new(),
    );
}

/// The context/Markov and adaptive predictors: their state vectors carry
/// learned tables, speculative-timeline cursors, shadow candidates, and the
/// scoreboard's pending switch billing — all of which must survive the cut.
#[test]
fn adaptive_predictor_components_roundtrip() {
    let mut table = ContextTable::new();
    let mut rng = SplitMix64::new(0xc0_17ab1e);
    for i in 0..200u32 {
        // Mix of reinforced entries (learned to full confidence), contested
        // slots (conf decay), and one-shot noise.
        let key = rng.below(96);
        table.observe(key, (key as u32).wrapping_mul(5) + (i % 7 == 0) as u32);
    }
    assert_roundtrip("ContextTable", &table, &mut ContextTable::new());

    // Drive the master through a repeating gapped single-transfer stream so
    // the phase machine, stride history, and run counters are all mid-flight
    // at the cut.
    let mut ctx_master = ContextMasterPredictor::new();
    for period in 0..5u32 {
        for cycle in 0..9u32 {
            let mut sig = MasterSignals::idle();
            sig.busreq = (2..5).contains(&cycle);
            if cycle == 4 {
                sig.addr = 0x100 + period * 0x20;
                sig.trans = predpkt_predict::Htrans::Nonseq;
                sig.write = true;
                sig.wdata = period;
            }
            ctx_master.observe(&sig, cycle == 4);
            ctx_master.predict();
        }
    }
    assert_roundtrip(
        "ContextMasterPredictor",
        &ctx_master,
        &mut ContextMasterPredictor::new(),
    );

    let mut ctx_slave = ContextSlavePredictor::new();
    let mut ssig = SlaveSignals::idle();
    for i in 0..40u32 {
        ssig.ready = i % 3 != 1;
        ssig.rdata = i.wrapping_mul(31);
        ssig.irq = i % 8 == 7;
        ctx_slave.observe(&ssig, (i % 2 == 0).then_some(i % 4 == 0));
        ctx_slave.begin_phase(i % 4 == 0);
        ctx_slave.predict(i % 2 == 0);
    }
    assert_roundtrip(
        "ContextSlavePredictor",
        &ctx_slave,
        &mut ContextSlavePredictor::new(),
    );

    // A twitchy config so the scoreboard actually switches (and banks pending
    // control words) within the short seeding run.
    let cfg = AdaptiveConfig {
        window: 16,
        margin: 1,
        cooldown: 2,
        switch_words: 2,
    };
    let mut ad_master = AdaptiveMasterPredictor::new(cfg);
    for i in 0..48u32 {
        let mut sig = MasterSignals::idle();
        sig.busreq = i % 4 < 2;
        if i % 4 == 1 {
            sig.addr = 0x40 * (i / 4);
            sig.trans = predpkt_predict::Htrans::Nonseq;
        }
        ad_master.observe(&sig, i % 4 == 1);
        ad_master.predict();
    }
    assert_roundtrip(
        "AdaptiveMasterPredictor",
        &ad_master,
        &mut AdaptiveMasterPredictor::new(cfg),
    );
    // Un-drained switch billing is part of the cut: the restored twin must
    // bill the same words the donor owed.
    let mut restored = AdaptiveMasterPredictor::new(cfg);
    restore_from_vec(&mut restored, &save_to_vec(&ad_master)).unwrap();
    assert_eq!(
        restored.take_control_words(),
        ad_master.take_control_words(),
        "pending switch billing must survive restore"
    );

    let mut ad_slave = AdaptiveSlavePredictor::new(cfg);
    let mut ssig = SlaveSignals::idle();
    for i in 0..48u32 {
        ssig.ready = i % 5 != 0;
        ssig.rdata = 0x5a5a_0000 | i;
        ssig.irq = i % 6 < 3;
        ad_slave.observe(&ssig, (i % 2 == 0).then_some(i % 8 == 0));
        ad_slave.begin_phase(i % 8 == 0);
        ad_slave.predict(i % 2 == 1);
    }
    assert_roundtrip(
        "AdaptiveSlavePredictor",
        &ad_slave,
        &mut AdaptiveSlavePredictor::new(cfg),
    );
}

/// The big aggregate: one seeded [`AhbDomainModel`] vector covers the bus
/// fabric, arbiter, every master/slave engine, the signal codecs, the
/// committed trace, and the paper predictor suite, recursively.
#[test]
fn domain_models_roundtrip() {
    let blueprint = figure2_soc();
    let (mut sim, mut acc) = blueprint.build_pair().expect("pair builds");
    // Lockstep conservative execution: each domain ticks on the other's
    // actual outputs, training predictors and advancing every engine.
    for _ in 0..64 {
        let sim_out = sim.local_outputs();
        let acc_out = acc.local_outputs();
        sim.tick(&acc_out, TickKind::Actual);
        acc.tick(&sim_out, TickKind::Actual);
    }
    assert!(sim.cycle() > 0 && acc.cycle() > 0);

    let (mut fresh_sim, mut fresh_acc) = blueprint.build_pair().expect("pair builds");
    assert_roundtrip("AhbDomainModel (simulator)", &sim, &mut fresh_sim);
    assert_roundtrip("AhbDomainModel (accelerator)", &acc, &mut fresh_acc);

    // Dirty targets driven to a different point: engines mid-op against
    // idle ones, so owned vectors change length in both directions.
    let (mut other_sim, mut other_acc) = blueprint.build_pair().expect("pair builds");
    for _ in 0..5 {
        let sim_out = other_sim.local_outputs();
        let acc_out = other_acc.local_outputs();
        other_sim.tick(&acc_out, TickKind::Actual);
        other_acc.tick(&sim_out, TickKind::Actual);
    }
    assert_ne!(
        save_to_vec(&other_acc).len(),
        save_to_vec(&acc).len(),
        "the dirty target must hold vectors of other lengths"
    );
    assert_roundtrip("AhbDomainModel (simulator, dirty)", &sim, &mut other_sim);
    assert_roundtrip("AhbDomainModel (accelerator, dirty)", &acc, &mut other_acc);

    // The model's own Snapshot is the *rollback* cut, which deliberately
    // excludes the committed trace (rollback must never rewrite committed
    // history; whole-session checkpoints carry the trace separately through
    // the wrapper). Hand the trace over explicitly before comparing onward
    // behavior.
    *fresh_sim.trace_mut() = sim.trace().clone();

    // The restored replica is behaviorally identical, not just byte-equal:
    // running both onward in lockstep commits the same trace.
    for _ in 0..32 {
        let a = sim.local_outputs();
        let b = fresh_sim.local_outputs();
        assert_eq!(a, b, "restored model diverged");
        let acc_out = acc.local_outputs();
        sim.tick(&acc_out, TickKind::Actual);
        fresh_sim.tick(&acc_out, TickKind::Actual);
        acc.tick(&a, TickKind::Actual);
    }
    assert_eq!(sim.trace().hash(), fresh_sim.trace().hash());
}

#[test]
fn wrapper_stats_roundtrip() {
    let stats = CwStats {
        transitions: 41,
        clean_transitions: 30,
        rollbacks: 11,
        predicted_cycles: 400,
        replayed_cycles: 55,
        head_cycles: 11,
        conservative_cycles: 23,
        ..CwStats::default()
    };
    assert_roundtrip("CwStats", &stats, &mut CwStats::default());
}
