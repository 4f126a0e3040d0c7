//! Allocation guard for the rollback path.
//!
//! The leader stores its state before every run-ahead and restores it after
//! a failed prediction. Once the rollback buffer and the components' owned
//! vectors are warm, neither direction may touch the heap: a store is
//! `save_into` a buffer that already held a same-size snapshot, and a
//! restore overwrites the vectors in place.
//!
//! The counting allocator (`alloc_counter`) tallies allocations per thread,
//! so the test harness's other threads cannot disturb the count.

mod alloc_counter;
mod common;

use alloc_counter::allocations_during;
use common::figure2_soc;
use predpkt_core::{AhbDomainModel, DomainModel, TickKind};
use predpkt_sim::{restore_from_vec, save_into, StateVec};

/// Checks both directions at one cut of `model`, after one warm-up each.
fn assert_warm_rollback_is_allocation_free(name: &str, model: &mut AhbDomainModel) {
    let cycle = model.cycle();
    let mut buffer = StateVec::new();
    save_into(model, &mut buffer);
    let snapshot = buffer.clone();
    let stores = allocations_during(|| save_into(model, &mut buffer));
    assert_eq!(stores, 0, "{name} @ {cycle}: warm store allocated");
    assert_eq!(buffer, snapshot, "{name} @ {cycle}: store changed words");

    restore_from_vec(model, &snapshot).expect("warm-up restore");
    let restores = allocations_during(|| {
        restore_from_vec(model, &snapshot).expect("restore");
    });
    assert_eq!(restores, 0, "{name} @ {cycle}: warm restore allocated");
}

#[test]
fn warm_store_and_restore_do_not_allocate_on_either_domain() {
    let (mut sim, mut acc) = figure2_soc().build_pair().expect("pair builds");
    // Every cut of a lockstep run, so the engines are caught idle, mid-op,
    // and holding results.
    for _ in 0..96 {
        assert_warm_rollback_is_allocation_free("simulator", &mut sim);
        assert_warm_rollback_is_allocation_free("accelerator", &mut acc);
        let sim_out = sim.local_outputs();
        let acc_out = acc.local_outputs();
        sim.tick(&acc_out, TickKind::Actual);
        acc.tick(&sim_out, TickKind::Actual);
    }
}

#[test]
fn the_counter_sees_allocations() {
    let n = allocations_during(|| {
        let v: Vec<u64> = Vec::with_capacity(16);
        std::hint::black_box(v);
    });
    assert_eq!(n, 1);
}
