//! Save/restore throughput of the rollback snapshot machinery — the host-side
//! cost behind the paper's `Tstore`/`Trestore` virtual-time rows.

use predpkt_bench::micro::BenchGroup;
use predpkt_core::{DomainModel, TickKind};
use predpkt_sim::{restore_from_vec, save_into, save_to_vec, StateVec};
use predpkt_workloads::figure2_soc;

fn main() {
    let mut group = BenchGroup::new("snapshot");
    let blueprint = figure2_soc(42);
    let (mut sim, mut acc) = blueprint.build_pair().expect("valid blueprint");
    // Age the domains so the snapshots carry realistic state.
    for _ in 0..500 {
        let s = sim.local_outputs();
        let a = acc.local_outputs();
        sim.tick(&a, TickKind::Actual);
        acc.tick(&s, TickKind::Actual);
    }
    let state = save_to_vec(&sim);
    let acc_state = save_to_vec(&acc);
    println!("simulator-domain snapshot: {} words", state.len());

    group.bench("save_sim_domain", || save_to_vec(&sim));
    // The engine's path: each transition saves over the last snapshot in
    // one reused rollback buffer.
    let mut buffer = StateVec::new();
    group.bench("save_into_sim_domain", || {
        save_into(&sim, &mut buffer);
        buffer.len()
    });
    group.bench("restore_sim_domain", || {
        restore_from_vec(&mut sim, &state).expect("restore succeeds");
        sim.cycle()
    });
    group.bench("save_acc_domain", || save_to_vec(&acc));
    group.bench("restore_acc_domain", || {
        restore_from_vec(&mut acc, &acc_state).expect("restore succeeds");
        acc.cycle()
    });
}
