//! Batch-path conformance at the transport level: for every backend,
//! `send_batch` must deliver a packet sequence bit-identical to the same
//! packets pushed through sequential `send` calls — coalescing is a physical
//! optimization, never a semantic one. The session-level cross-transport
//! harness (`predpkt-core`) proves the same property end-to-end; this suite
//! pins it where it is implemented, per backend, including the by-reference
//! batch entry points.

use predpkt_channel::{
    ChannelCostModel, FaultSpec, Link, LossyTransport, Packet, PacketTag, QueueTransport,
    ReliableConfig, ReliableTransport, ShmTransport, Side, TcpTransport, Transport, WaitTransport,
};
use std::time::Duration;

/// An irregular packet mix: every tag class the protocol uses, payload sizes
/// from empty through a few dozen words, so frame boundaries land everywhere.
fn packet_mix() -> Vec<Packet> {
    (0..40u32)
        .map(|i| {
            let tag = PacketTag::ALL[i as usize % PacketTag::ALL.len()];
            let len = (i * 7 % 33) as usize;
            Packet::new(
                tag,
                (0..len as u32).map(|w| w ^ i.wrapping_mul(31)).collect(),
            )
        })
        .collect()
}

#[test]
fn queue_batch_matches_sequential() {
    let packets = packet_mix();
    let mut sequential = QueueTransport::new();
    for p in &packets {
        sequential.send(Side::Simulator, p.clone());
    }
    let mut batched = QueueTransport::new();
    batched.send_batch(Side::Simulator, &mut packets.clone());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    sequential.drain(Side::Accelerator, &mut a);
    batched.drain(Side::Accelerator, &mut b);
    assert_eq!(a, packets);
    assert_eq!(b, packets);
}

#[test]
fn lossy_faultless_batch_is_transparent() {
    let packets = packet_mix();
    let mut t = LossyTransport::over_queue(FaultSpec::none(3));
    t.send_batch(Side::Simulator, &mut packets.clone());
    let mut got = Vec::new();
    t.drain(Side::Accelerator, &mut got);
    assert_eq!(got, packets);
}

#[test]
fn lossy_seeded_batch_matches_sequential_fault_for_fault() {
    // The seeded fault stream is part of the contract: a batch must draw
    // exactly the faults the sequential sends would have drawn, so the
    // delivered sequence (and the fault counters) are identical.
    let packets = packet_mix();
    let spec = FaultSpec {
        drop_rate: 0.2,
        truncate_rate: 0.2,
        duplicate_rate: 0.2,
        ..FaultSpec::none(0x5eed)
    };
    let mut sequential = LossyTransport::over_queue(spec);
    for p in &packets {
        sequential.send(Side::Simulator, p.clone());
    }
    let mut batched = LossyTransport::over_queue(spec);
    batched.send_batch(Side::Simulator, &mut packets.clone());
    assert_eq!(sequential.fault_stats(), batched.fault_stats());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    sequential.drain(Side::Accelerator, &mut a);
    batched.drain(Side::Accelerator, &mut b);
    assert_eq!(a, b, "identical fault draws, identical deliveries");

    // The by-reference path draws the same stream too.
    let mut by_ref = LossyTransport::over_queue(spec);
    by_ref.send_batch_ref(Side::Simulator, &mut packets.iter());
    assert_eq!(by_ref.fault_stats(), batched.fault_stats());
    let mut c = Vec::new();
    by_ref.drain(Side::Accelerator, &mut c);
    assert_eq!(c, b);
}

#[test]
fn tcp_batch_matches_sequential_and_coalesces_writes() {
    let packets = packet_mix();
    let (mut seq_sim, mut seq_acc) = TcpTransport::loopback_pair().expect("loopback");
    for p in &packets {
        seq_sim.send(Side::Simulator, p.clone());
    }
    let (mut bat_sim, mut bat_acc) = TcpTransport::loopback_pair().expect("loopback");
    bat_sim.send_batch(Side::Simulator, &mut packets.clone());

    let recv_all = |end: &mut predpkt_channel::TcpEndpoint, n: usize| {
        let mut got = Vec::new();
        while got.len() < n {
            assert!(
                end.wait_for_packet(Duration::from_secs(10)),
                "socket starved at {}/{n}",
                got.len()
            );
            end.drain(Side::Accelerator, &mut got);
        }
        got
    };
    assert_eq!(recv_all(&mut seq_acc, packets.len()), packets);
    assert_eq!(recv_all(&mut bat_acc, packets.len()), packets);

    let seq_stats = seq_sim.batch_stats().unwrap();
    let bat_stats = bat_sim.batch_stats().unwrap();
    assert_eq!(seq_stats.frames, packets.len() as u64);
    assert_eq!(bat_stats.frames, packets.len() as u64);
    assert_eq!(
        seq_stats.physical_writes,
        packets.len() as u64,
        "sequential sends pay one write per frame"
    );
    assert_eq!(
        bat_stats.physical_writes, 1,
        "the batch coalesces into a single write"
    );
}

/// A session holds every link stack as a `Box<dyn Link>`: the box must
/// forward the batch hooks, or a boxed socket would fall back to one write
/// per frame.
#[test]
fn boxed_tcp_link_keeps_one_write_per_batch() {
    let packets = packet_mix();
    let (sim, mut acc) = TcpTransport::loopback_pair().expect("loopback");
    let mut link: Box<dyn Link> = Box::new(sim);
    link.send_batch(Side::Simulator, &mut packets.clone());
    let mut got = Vec::new();
    while got.len() < packets.len() {
        assert!(
            acc.wait_for_packet(Duration::from_secs(10)),
            "socket starved at {}/{}",
            got.len(),
            packets.len()
        );
        acc.drain(Side::Accelerator, &mut got);
    }
    assert_eq!(got, packets);
    let stats = link.batch_stats().expect("a socket reports batch stats");
    assert_eq!(stats.frames, packets.len() as u64);
    assert_eq!(
        stats.physical_writes, 1,
        "the boxed batch is still one write"
    );
    assert_eq!(link.fault_stats(), None);
    assert_eq!(link.recovery_stats(), None);
}

#[test]
fn shm_batch_matches_sequential_and_shares_publications() {
    let packets = packet_mix();
    let (mut seq_sim, mut seq_acc) = ShmTransport::pair();
    for p in &packets {
        seq_sim.send(Side::Simulator, p.clone());
    }
    let (mut bat_sim, mut bat_acc) = ShmTransport::pair();
    bat_sim.send_batch(Side::Simulator, &mut packets.clone());

    let (mut a, mut b) = (Vec::new(), Vec::new());
    seq_acc.drain(Side::Accelerator, &mut a);
    bat_acc.drain(Side::Accelerator, &mut b);
    assert_eq!(a, packets);
    assert_eq!(b, packets);

    let seq_stats = seq_sim.batch_stats().unwrap();
    let bat_stats = bat_sim.batch_stats().unwrap();
    assert_eq!(seq_stats.frames, packets.len() as u64);
    assert_eq!(bat_stats.frames, packets.len() as u64);
    assert!(
        bat_stats.physical_writes < seq_stats.physical_writes,
        "batching must share head publications: batch {} vs sequential {}",
        bat_stats.physical_writes,
        seq_stats.physical_writes
    );
    assert!(bat_stats.frames_per_write().unwrap() > 1.0);
}

#[test]
fn reliable_batch_matches_sequential_deliveries() {
    let packets = packet_mix();
    let pump = |t: &mut ReliableTransport<QueueTransport>, n: usize| {
        let mut got = Vec::new();
        for _ in 0..100_000 {
            if let Some(p) = t.recv(Side::Accelerator) {
                got.push(p);
            }
            let _ = t.recv(Side::Simulator);
            if got.len() == n {
                break;
            }
        }
        got
    };
    let mut sequential = ReliableTransport::new(
        QueueTransport::new(),
        ReliableConfig::default(),
        ChannelCostModel::iprove_pci(),
    );
    for p in &packets {
        sequential.send(Side::Simulator, p.clone());
    }
    let a = pump(&mut sequential, packets.len());
    let mut batched = ReliableTransport::new(
        QueueTransport::new(),
        ReliableConfig::default(),
        ChannelCostModel::iprove_pci(),
    );
    batched.send_batch(Side::Simulator, &mut packets.clone());
    let b = pump(&mut batched, packets.len());
    assert_eq!(a, packets, "sequential reliable path delivers in order");
    assert_eq!(b, packets, "batched reliable path delivers identically");
    // Framing overhead is identical: one header per frame either way (the
    // standalone-ack count may differ with polling cadence, so it is
    // subtracted out).
    let headers_only = |s: predpkt_channel::RecoveryStats| {
        s.overhead_words - 3 * (s.acks_sent - s.acks_piggybacked)
    };
    assert_eq!(
        headers_only(sequential.recovery_stats()),
        headers_only(batched.recovery_stats()),
        "same per-frame header bill regardless of batching"
    );
}

#[test]
fn send_ref_matches_owned_send_on_endpoints() {
    let packets = packet_mix();
    let (mut sim, mut acc) = ShmTransport::pair();
    for p in &packets {
        sim.send_ref(Side::Simulator, p);
    }
    let mut got = Vec::new();
    acc.drain(Side::Accelerator, &mut got);
    assert_eq!(got, packets);
}
