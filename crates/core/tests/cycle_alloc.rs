//! Allocation guard for the co-emulation cycle.
//!
//! A speculative cycle pays only if it is cheap, so the steady-state cycle
//! must stay (nearly) free of heap traffic: the AHB model ticks and verifies
//! predictions in stack buffers, the trace records into chunks,
//! and the protocol moves LOB entries instead of copying them. What is left
//! per committed cycle is the packed output vectors the `DomainModel`
//! methods return and the packets the channel carries.

mod alloc_counter;
mod common;

use alloc_counter::allocations_during;
use common::figure2_soc;
use predpkt_core::{AhbDomainModel, CoEmuConfig, CoEmulator, DomainModel, ModePolicy, TickKind};
use predpkt_sim::{restore_from_vec, save_into, Snapshot, StateVec};

const CYCLES: u64 = 2_000;
/// Allocation budget per committed cycle, both domains together.
const BUDGET_PER_CYCLE: f64 = 10.0;

/// The benchmark's `spec_queue` configuration: Auto mode, head-actuals
/// carry and adaptive run-ahead, billing the actual snapshot size. The other
/// modes change only the policy.
fn spec_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

fn allocations_per_committed_cycle(config: CoEmuConfig) -> f64 {
    let mut emu = CoEmulator::from_blueprint(&figure2_soc(), config).expect("soc builds");
    let n = allocations_during(|| emu.run_until_synchronized(CYCLES).expect("run"));
    n as f64 / emu.committed_cycles() as f64
}

#[test]
fn speculative_auto_cycle_stays_within_budget() {
    let per_cycle = allocations_per_committed_cycle(spec_config());
    assert!(
        per_cycle <= BUDGET_PER_CYCLE,
        "auto: {per_cycle:.2} allocations per committed cycle"
    );
}

#[test]
fn forced_als_cycle_stays_within_budget() {
    let per_cycle = allocations_per_committed_cycle(spec_config().policy(ModePolicy::ForcedAls));
    assert!(
        per_cycle <= BUDGET_PER_CYCLE,
        "forced ALS: {per_cycle:.2} allocations per committed cycle"
    );
}

#[test]
fn conservative_cycle_stays_within_budget() {
    let per_cycle = allocations_per_committed_cycle(spec_config().policy(ModePolicy::Conservative));
    assert!(
        per_cycle <= BUDGET_PER_CYCLE,
        "conservative: {per_cycle:.2} allocations per committed cycle"
    );
}

/// Ticks `model` twice from the same state: once to warm the trace chunk
/// the cycle records into, then counted after a rollback.
fn warm_tick_allocations<M: Snapshot>(
    model: &mut M,
    buffer: &mut StateVec,
    mut tick: impl FnMut(&mut M),
    mut rewind: impl FnMut(&mut M),
) -> u64 {
    save_into(model, buffer);
    tick(model);
    restore_from_vec(model, buffer).expect("restore");
    rewind(model);
    allocations_during(|| tick(model))
}

/// The AHB model adds no allocation to a warm tick, and verifies without
/// one. Components may allocate themselves (a master starting a bus op
/// builds its address list), so each split cycle is held to the golden
/// bus's warm tick of the same cycle, whose components are in the same
/// state: the two domains together may allocate no more than it does.
#[test]
fn warm_model_tick_and_verify_do_not_allocate() {
    let soc = figure2_soc();
    let (mut sim, mut acc) = soc.build_pair().expect("pair builds");
    let mut golden = soc.build_golden().expect("golden builds");
    let mut buffer = StateVec::new();
    let mut quiet_cycles = 0;
    // A lockstep run long enough to cross trace chunks, so the fabric is
    // caught idle, mid-burst, in wait states and in data phases.
    const RUN: u64 = 600;
    for cycle in 0..RUN {
        let sim_out = sim.local_outputs();
        let acc_out = acc.local_outputs();
        // Verify both a correct and a wrong prediction in each direction.
        let mut wrong_acc = acc_out.clone();
        wrong_acc[0] ^= 1;
        let mut wrong_sim = sim_out.clone();
        wrong_sim[0] ^= 1;
        let verifies = allocations_during(|| {
            sim.verify_prediction(&acc_out, &sim_out);
            sim.verify_prediction(&acc_out, &wrong_sim);
            acc.verify_prediction(&sim_out, &acc_out);
            acc.verify_prediction(&sim_out, &wrong_acc)
        });
        assert_eq!(verifies, 0, "cycle {cycle}: verify_prediction allocated");

        let mut domain_tick = |model: &mut AhbDomainModel, remote: &[u32]| {
            let mark = model.trace_mark();
            warm_tick_allocations(
                model,
                &mut buffer,
                |m| m.tick(remote, TickKind::Actual),
                |m| m.trace_truncate(mark),
            )
        };
        let split = domain_tick(&mut sim, &acc_out) + domain_tick(&mut acc, &sim_out);
        let bus = warm_tick_allocations(
            &mut golden,
            &mut buffer,
            |b| {
                b.tick();
            },
            |_| {},
        );
        assert!(
            split <= bus,
            "cycle {cycle}: the split domains allocated {split}, the golden bus {bus}"
        );
        quiet_cycles += u64::from(bus == 0);
    }
    assert!(
        quiet_cycles > RUN / 2,
        "only {quiet_cycles} cycles held to zero allocations"
    );
}
