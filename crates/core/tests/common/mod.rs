//! Shared fixtures for the integration suites.

pub mod conformance;

use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::{CpuMaster, CpuProfile, DmaDescriptor, DmaMaster, TrafficGenMaster};
use predpkt_ahb::signals::{Hburst, Hsize};
use predpkt_ahb::slaves::{MemorySlave, PeripheralSlave};
use predpkt_core::{Side, SocBlueprint};
use predpkt_sim::Trace;

/// The paper's Fig. 2 shape (see `equivalence.rs`): traffic irregular enough
/// to exercise predictions, rollbacks, bursts, and conservative fallbacks, so
/// every protocol packet kind crosses the channel. Both the
/// transport-equivalence and the fault-recovery suites compare runs of this
/// one blueprint, which is what makes their bit-identical assertions
/// meaningful.
pub fn figure2_soc() -> SocBlueprint {
    SocBlueprint::new()
        .master(Side::Simulator, || {
            Box::new(CpuMaster::new(0xbeef, CpuProfile::default()))
        })
        .master(Side::Accelerator, || {
            Box::new(DmaMaster::new(vec![
                DmaDescriptor::new(0x0000_0100, 0x0000_1100, 24),
                DmaDescriptor::new(0x0000_1200, 0x0000_0200, 12),
            ]))
        })
        .master(Side::Accelerator, || {
            Box::new(
                TrafficGenMaster::from_ops(vec![
                    BusOp::read_burst(0x0000_0040, Hsize::Word, Hburst::Wrap8),
                    BusOp::write_single(0x0000_2004, 0xabcd),
                ])
                .looping()
                .with_idle_gap(11),
            )
        })
        .slave(Side::Simulator, 0x0000_0000, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
        .slave(Side::Simulator, 0x0000_1000, 0x1000, || {
            Box::new(MemorySlave::with_waits(0x1000, 2, 1))
        })
        .slave(Side::Accelerator, 0x0000_2000, 0x1000, || {
            Box::new(PeripheralSlave::new(1))
        })
}

/// Asserts the paper's correctness oracle: `trace`, a run's merged
/// committed trace, holds exactly what the monolithic golden simulation of
/// `blueprint` commits over its first `cycles` cycles (the trace may run
/// past `cycles`; only that prefix is compared).
pub fn assert_commits_golden(blueprint: &SocBlueprint, cycles: u64, trace: &Trace) {
    let mut bus = blueprint.build_golden().expect("golden bus builds");
    bus.run(cycles);
    assert!(
        bus.violations().is_empty(),
        "golden run must be protocol-clean: {:?}",
        bus.violations()
    );
    let mut prefix = trace.clone();
    prefix.truncate_to_len(cycles as usize);
    assert_eq!(
        prefix.len(),
        bus.trace().len(),
        "trace holds fewer than the {cycles} committed cycles"
    );
    if let Some(cycle) = prefix.first_divergence(bus.trace()) {
        panic!("committed trace diverges from golden at cycle {cycle}");
    }
}
