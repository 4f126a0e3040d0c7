//! # predpkt-channel — the simulator–accelerator channel substrate
//!
//! The paper's whole premise is a channel whose **static startup overhead
//! (12.2 µs per access)** dwarfs its **per-word payload cost (49.95 ns/word
//! simulator→accelerator, 75.73 ns/word accelerator→simulator)**, measured on a
//! PCI-based iPROVE accelerator (§1.2). This crate models that channel:
//!
//! * [`ChannelCostModel`] — startup + per-word virtual-time costs, composable from
//!   the paper's three layers (API / device driver / physical medium) via
//!   [`LayeredStartup`]. The preset [`ChannelCostModel::iprove_pci`] carries the
//!   paper's exact constants.
//! * [`Packet`] — a word-addressed payload with a message tag.
//! * [`Transport`] — the pluggable mailbox abstraction between the two
//!   domains; a [`Link`] is any transport that can also block, be probed,
//!   and be checkpointed, so a whole layered stack rides as one
//!   `Box<dyn Link>`. Five backends ship with the crate: the deterministic
//!   in-process [`QueueTransport`], the real-thread [`ThreadedTransport`] (each
//!   [`ThreadedEndpoint`] implements [`Transport`] for its own side), the
//!   socket-backed [`TcpTransport`] (per-side [`TcpEndpoint`]s moving
//!   length-prefixed frames over `std::net::TcpStream`, for co-emulation
//!   split across processes or hosts), the shared-memory [`ShmTransport`]
//!   (per-side [`ShmEndpoint`]s over lock-free SPSC rings — in-process or
//!   through a `/dev/shm` region file, for multi-process co-emulation on one
//!   host), and the fault-injecting [`LossyTransport`] for
//!   protocol-robustness scenarios.
//! * [`CostedChannel`] — a transport combined with the cost model and
//!   [`ChannelStats`], returning the virtual-time cost of every access so the
//!   caller can charge its ledger.
//! * [`ReliableTransport`] — an ack-and-retransmit wrapper (sequence numbers,
//!   per-frame CRC-32, sliding window, virtual-time retransmission timeouts)
//!   that turns any inner transport — including a fault-injecting
//!   [`LossyTransport`] — into a lossless one, with the recovery traffic
//!   billed through the cost model into [`RecoveryStats`].
//!
//! # Example
//!
//! ```
//! use predpkt_channel::{ChannelCostModel, Direction};
//!
//! let pci = ChannelCostModel::iprove_pci();
//! // One conventional-mode cycle: two accesses, a few words each.
//! let fwd = pci.access_cost(Direction::SimToAcc, 2);
//! let rev = pci.access_cost(Direction::AccToSim, 1);
//! assert_eq!((fwd + rev).as_picos(), 12_200_000 * 2 + 2 * 49_950 + 75_730);
//! ```
//!
//! # Quickstart: surviving a lossy channel
//!
//! Wrap a faulty link in [`ReliableTransport`] and it behaves like a clean
//! FIFO; the price appears in [`RecoveryStats`], not in lost packets:
//!
//! ```
//! use predpkt_channel::{
//!     ChannelCostModel, FaultSpec, LossyTransport, Packet, PacketTag, QueueTransport,
//!     ReliableConfig, ReliableTransport, Side, Transport,
//! };
//!
//! // One packet in four is dropped, one in ten truncated.
//! let spec = FaultSpec {
//!     drop_rate: 0.25,
//!     truncate_rate: 0.1,
//!     ..FaultSpec::none(42)
//! };
//! let lossy = LossyTransport::new(QueueTransport::new(), spec);
//! let mut link =
//!     ReliableTransport::new(lossy, ReliableConfig::default(), ChannelCostModel::iprove_pci());
//!
//! for i in 0..32u32 {
//!     link.send(Side::Simulator, Packet::new(PacketTag::CycleOutputs, vec![i, i + 1]));
//! }
//! let mut received = Vec::new();
//! while received.len() < 32 {
//!     if let Some(p) = link.recv(Side::Accelerator) {
//!         received.push(p.payload()[0]); // in order, bit-exact
//!     }
//!     let _ = link.recv(Side::Simulator); // the sender drains acks
//! }
//! assert_eq!(received, (0..32).collect::<Vec<_>>());
//! assert!(link.inner().fault_stats().total() > 0, "faults really fired");
//! assert!(link.recovery_stats().overhead_words > 0, "…and were paid for");
//! ```
//!
//! # Quickstart: remote co-emulation over TCP
//!
//! The [`TcpEndpoint`] carries the same packets over a real socket, so the
//! two domains can run in **different processes or on different hosts** — a
//! software simulator on a workstation talking to a remote accelerator farm.
//! One process listens, the other dials; each wraps its endpoint in its own
//! per-side [`CostedChannel`] (and, for links that must absorb real-world
//! loss, a per-side [`ReliableTransport`] via
//! [`for_side`](ReliableTransport::for_side), exactly like the
//! one-thread-per-domain backend does):
//!
//! ```no_run
//! use predpkt_channel::{
//!     ChannelCostModel, CostedChannel, Packet, PacketTag, Side, TcpEndpoint, Transport,
//!     WaitTransport,
//! };
//! use std::time::Duration;
//!
//! // ── Process A: the accelerator farm ─────────────────────────────────
//! // $ accel-farm 0.0.0.0:7000
//! let endpoint = TcpEndpoint::listen("0.0.0.0:7000", Side::Accelerator)?;
//! let mut acc = CostedChannel::with_transport(endpoint, ChannelCostModel::iprove_pci());
//! loop {
//!     if acc.transport_mut().wait_for_packet(Duration::from_millis(2)) {
//!         let packet = acc.recv(Side::Accelerator).expect("a frame is ready");
//!         // ...tick the hardware model, then answer:
//!         acc.send(Side::Accelerator, Packet::new(PacketTag::CycleOutputs, vec![0xacc]));
//!     }
//! }
//! # #[allow(unreachable_code)]
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ```no_run
//! use predpkt_channel::{
//!     ChannelCostModel, CostedChannel, Packet, PacketTag, Side, TcpEndpoint, Transport,
//!     WaitTransport,
//! };
//! use std::time::Duration;
//!
//! // ── Process B: the software simulator ───────────────────────────────
//! // $ simulator farm-host:7000
//! let endpoint = TcpEndpoint::connect("farm-host:7000", Side::Simulator)?;
//! let mut sim = CostedChannel::with_transport(endpoint, ChannelCostModel::iprove_pci());
//! let cost = sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
//! // `cost` is the virtual-time bill under the paper's channel model — the
//! // accounting is identical to every in-process backend, which is what the
//! // cross-transport conformance suite in `predpkt-core` asserts.
//! while !sim.transport_mut().wait_for_packet(Duration::from_millis(2)) {}
//! let reply = sim.recv(Side::Simulator).expect("a frame is ready");
//! # let _ = (cost, reply);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! In-process sessions and tests use [`TcpTransport::loopback_pair`], which
//! binds an ephemeral localhost port so parallel runs never collide. The
//! frame codec itself ([`tcp::write_frame`] / [`tcp::read_frame`] /
//! [`tcp::FrameDecoder`]) is public too, and rejects malformed input — short
//! reads, oversized length prefixes, unknown tags — with typed
//! [`tcp::FrameError`]s instead of panicking.
//!
//! # Quickstart: multi-process co-emulation on one host
//!
//! When both domains live on the *same* machine, a socket is needless
//! overhead: the [`ShmEndpoint`] carries the same length-prefixed frames
//! through a lock-free shared-memory ring — the lowest-latency channel the
//! crate models. The file-backed form puts the ring in a `/dev/shm` tempfile
//! so two separate processes can share it: one process creates the region,
//! the other attaches by path, and each wraps its endpoint in its own
//! per-side [`CostedChannel`], exactly like the TCP endpoints above:
//!
//! ```no_run
//! # #[cfg(unix)] fn demo() -> Result<(), std::io::Error> {
//! use predpkt_channel::{
//!     ChannelCostModel, CostedChannel, Packet, PacketTag, ShmEndpoint, Side, Transport,
//!     WaitTransport,
//! };
//! use std::time::Duration;
//!
//! // ── Process A: the accelerator, creating the shared region ──────────
//! // $ accel /dev/shm/coemu.ring
//! let endpoint = ShmEndpoint::create("/dev/shm/coemu.ring", Side::Accelerator)?;
//! let mut acc = CostedChannel::with_transport(endpoint, ChannelCostModel::iprove_pci());
//! loop {
//!     if acc.transport_mut().wait_for_packet(Duration::from_millis(2)) {
//!         let packet = acc.recv(Side::Accelerator).expect("a frame is ready");
//!         // ...tick the hardware model, then answer:
//!         acc.send(Side::Accelerator, Packet::new(PacketTag::CycleOutputs, vec![0xacc]));
//!     }
//! }
//! # #[allow(unreachable_code)]
//! # Ok(())
//! # }
//! ```
//!
//! ```no_run
//! # #[cfg(unix)] fn demo() -> Result<(), std::io::Error> {
//! use predpkt_channel::{
//!     ChannelCostModel, CostedChannel, Packet, PacketTag, ShmEndpoint, Side, Transport,
//!     WaitTransport,
//! };
//! use std::time::Duration;
//!
//! // ── Process B: the simulator, attaching to the region ───────────────
//! // $ simulator /dev/shm/coemu.ring
//! let endpoint = ShmEndpoint::attach("/dev/shm/coemu.ring", Side::Simulator)?;
//! let mut sim = CostedChannel::with_transport(endpoint, ChannelCostModel::iprove_pci());
//! let cost = sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
//! // Identical billing to every other backend — the cross-transport
//! // conformance suite asserts bit-identical traces, stats, and ledgers.
//! while !sim.transport_mut().wait_for_packet(Duration::from_millis(2)) {}
//! let reply = sim.recv(Side::Simulator).expect("a frame is ready");
//! # let _ = (cost, reply);
//! # Ok(())
//! # }
//! ```
//!
//! In-process sessions and tests use [`ShmTransport::pair`] (a heap region
//! shared through an [`Arc<ShmRegion>`](ShmRegion)) or
//! [`ShmTransport::file_pair`] (an auto-unlinked `/dev/shm` tempfile); both
//! forms run the identical ring algorithm. Malformed ring contents — a torn
//! frame left by a peer that died mid-write, an oversized or unknown-tag
//! frame — surface as typed [`RingError`]s, never panics, and dropping an
//! endpoint flips its liveness flag so a peer blocked in
//! [`WaitTransport::wait_for_packet`] wakes promptly.
//!
//! # Quickstart: running a session farm
//!
//! A server multiplexing *thousands* of sessions cannot spend a blocked
//! thread per link — that is what [`PollSet`] is for. Every endpoint
//! implements [`PollReady`], a non-blocking probe cheap enough to sweep over
//! thousands of parked sources; one thread calls
//! [`wait_any`](PollSet::wait_any) over the whole set and pays the
//! spin-then-park latency ladder once, regardless of how many links it
//! covers. [`Readiness`] distinguishes *data waiting* ([`Readiness::Ready`])
//! from *peer gone* ([`Readiness::Dead`]) from *healthy but quiet*
//! ([`Readiness::Idle`]) — so a scheduler can run the first, fail the second
//! fast, and park the third at zero thread cost:
//!
//! ```
//! use predpkt_channel::{Packet, PacketTag, PollSet, Readiness, Side, ShmTransport, Transport};
//! use std::time::Duration;
//!
//! // Three idle links parked on one poller; data lands on the last one.
//! let mut links: Vec<_> = (0..3).map(|_| ShmTransport::pair()).collect();
//! links[2].1.send(Side::Accelerator, Packet::new(PacketTag::CycleOutputs, vec![7]));
//!
//! let mut parked: Vec<_> = links.iter_mut().map(|(sim, _)| sim).collect();
//! let hit = PollSet::new().wait_any(&mut parked, Duration::from_millis(100));
//! assert_eq!(hit, Some((2, Readiness::Ready)));
//! ```
//!
//! The `predpkt-farm` crate builds the full server on top of this: a
//! `SessionFarm` runs whole co-emulation sessions as cooperative slices over
//! a fixed worker pool, parking every blocked session on one poll-set
//! (tuned via [`PollSet::syscall_probes`] because TCP probes embed a socket
//! drain), with bounded admission and per-session fault isolation. Sketch:
//!
//! ```text
//! let farm = SessionFarm::new(FarmConfig::new().workers(8).capacity(10_000))?;
//! for blueprint in incoming {
//!     let id = farm.submit(move || {
//!         Ok(EmuSession::from_blueprint(&blueprint).build()?.into_sliced(cycles))
//!     })?; // Err(FarmError::Saturated{..}) when the admission queue is full
//! }
//! let report = farm.join(); // per-session outcomes + sessions/sec, p50/p99
//! ```
//!
//! Scheduling never changes results: a farm-scheduled session commits
//! bit-identical traces, channel statistics, and virtual-time ledgers to a
//! dedicated-thread run — asserted per transport by the farm's stress suite
//! and the `session_farm` bench.
//!
//! # Quickstart: checkpoint, migrate, replay
//!
//! A whole-session checkpoint (`SessionCheckpoint` in `predpkt-core`) rides
//! this crate's frame codec: the blob is a sequence of
//! [`PacketTag::Checkpoint`] frames, each length-prefixed and CRC-sealed
//! exactly like the frames a [`TcpEndpoint`] puts on the wire —
//!
//! ```text
//! frame 0 (header):   [magic "PKCP"] [version] [backend name] [committed
//!                     cycles] [section count] [CRC-32]
//! frame 1..:          [section label: "wrapper.sim", "channel", "ledger", …]
//!                     [word count] [state words] [CRC-32]
//!                     (+ label-less continuation frames for big sections)
//! ```
//!
//! **Versioning rules:** the header's version is bumped whenever the layout
//! changes, and there are no compatibility shims — an older or newer blob is
//! rejected with a typed error (`CheckpointError::BadVersion`) instead of
//! being misread, a truncated or bit-flipped blob fails its CRC with the
//! damaged section named, and a backend-name mismatch is refused before any
//! state is touched. A restore that fails mid-way poisons the target
//! session, which then refuses to step: there is no half-restored state.
//!
//! Because the blob is just framed bytes, **live migration is plain socket
//! I/O** — no bespoke serialization on either end. And because a session
//! whose transport dies can carry its latest cut out, failover is one call:
//! `EmuSession::resume_from` (in `predpkt-core`) salvages the dead session's
//! domain models, rebuilds a *fresh* transport from a `TransportSelect`,
//! restores the cut, and resumes — bit-identical to an uninterrupted run:
//!
//! ```text
//! // A seeded terminal fault (FaultSpec::disconnect_after) kills the link…
//! let err = sliced.run_slice(steps).unwrap_err();  // Deadlock / RetryBudget…
//! let cut = sliced.take_latest_checkpoint();       // auto-captured boundary
//! let dead = sliced.into_session();
//!
//! // …and the session heals onto a clean transport, replaying nothing:
//! let mut healed = dead.resume_from(&cut?, TransportSelect::Tcp(opts))?;
//! healed.run_until_committed(target)?;             // bit-identical commit
//! ```
//!
//! The session farm automates the whole loop: a session admitted through
//! `SessionFarm::submit_healable` under a `ReadmitPolicy` is, after a
//! transport death (failure *or* eviction — both outcomes carry the latest
//! auto-captured cut), rebuilt by its respawn closure on a fresh link after
//! an exponential-backoff delay and resumed from the cut. Retries are
//! budgeted and capped; a death the policy declines lands as its real
//! outcome and is counted in `FarmStats::gave_up`, never dropped silently.
//! The same blob still migrates across hosts the manual way: ship
//! `ckpt.to_bytes()` over any medium, `SessionCheckpoint::from_bytes` +
//! `restore` on the far side.
//!
//! # Quickstart: an N-domain fabric
//!
//! One co-emulation can span more than two domains. A [`Fabric`] hosts the
//! links of an N-domain **full mesh**: one directed link per domain pair,
//! every pair an independent two-sided channel. For `N = 4`:
//!
//! ```text
//!        d0 ──────── d1          edge {a,b}, a < b:
//!        │ ╲        ╱ │            a plays Side::Simulator,
//!        │   ╲    ╱   │            b plays Side::Accelerator
//!        │     ╳      │
//!        │   ╱    ╲   │          links: {0,1} {0,2} {0,3}
//!        │ ╱        ╲ │                 {1,2} {1,3} {2,3}
//!        d2 ──────── d3
//! ```
//!
//! **Routing is structural and single-hop**: a packet for domain `d` goes
//! out on the one link that ends at `d`; no domain ever forwards another
//! pair's traffic, so there is no routing table to keep consistent and no
//! ordering hazard across hops. **Roles are fixed by domain order**
//! ([`FabricEdge::role_of`]): on every edge the lower-numbered domain is the
//! [`Side::Simulator`] end — a deterministic assignment, which is what lets
//! N-domain runs be compared bit-for-bit across backends.
//!
//! ```
//! use predpkt_channel::{Fabric, Packet, PacketTag, Side, Transport};
//!
//! // All six links of a 4-domain mesh over in-process endpoints; shm_mesh
//! // packs the same shape into ONE shared region (heap or /dev/shm file),
//! // and tcp_mesh opens one loopback socket pair per edge.
//! let fabric = Fabric::threaded_mesh(4);
//! assert_eq!(fabric.edges().len(), 6);
//!
//! // Per-link layering via map: wrap every endpoint in whatever stack the
//! // deployment needs — fault injection, the reliable ack/retransmit layer,
//! // or both — with the edge's fixed role picking each wrapper's side:
//! // fabric.map(|edge, _, role, end| {
//! //     ReliableTransport::new(end, cfg, model).for_side(role)
//! // })
//! let (domains, edges, mut links) = fabric.into_parts();
//! assert_eq!((domains, edges[0].a(), edges[0].b()), (4, 0, 1));
//! let (sim, acc) = &mut links[0];
//! sim.send(Side::Simulator, Packet::new(PacketTag::CycleOutputs, vec![9]));
//! assert_eq!(acc.recv(Side::Accelerator).unwrap().payload(), &[9]);
//! ```
//!
//! `predpkt-core` builds the full runner on top: a `FabricSession` hosts one
//! protocol engine pair per edge, runs boundary-halt across all domains (a
//! halted domain keeps pumping acks on every link until *every* peer halts),
//! and reports per-domain ledgers — bit-identical across queue, threaded,
//! TCP, shm, and reliable link backends, with `N = 2` degenerating exactly
//! to the two-domain session. Each edge builds its own, independent model
//! pair and no state crosses ports: a fabric run is `N(N−1)/2` pairwise
//! co-emulations multiplexed onto `N` domain threads.
//!
//! # Hot-path performance notes
//!
//! The paper's premise is that channel traffic dominates co-emulation cost;
//! the host-side packet path is engineered so the *host* does not add an
//! allocation, copy, or syscall per packet on top:
//!
//! * **Zero-copy encode/decode.** [`Packet::encode_into`] serializes into a
//!   caller-owned scratch buffer and [`PacketView`] decodes by borrowing —
//!   use them (not [`Packet::to_wire`] / [`Packet::from_wire`]) anywhere
//!   per-packet throughput matters. [`BufferPool`] is the companion free
//!   list: layers that retire packets release the payload buffers, layers
//!   that produce them acquire the buffers back, and a warmed pool serves
//!   the steady state without touching the allocator (the
//!   [`ReliableTransport`] does exactly this; its
//!   [`pool_stats`](ReliableTransport::pool_stats) hit rate sits at ~1.0
//!   after warm-up, asserted by the `frame_codec` bench).
//! * **Batching.** [`Transport::send_batch`] / [`Transport::send_batch_ref`]
//!   coalesce a burst of frames into **one** physical operation: one
//!   `write_all` on a [`TcpEndpoint`] (≈20× faster than per-frame writes in
//!   the `frame_codec` bench), one chunked head publication run on a
//!   [`ShmEndpoint`]. [`CostedChannel::set_batching`] parks sends in an
//!   outbox flushed on the next receive, which is how the threaded session
//!   runner batches per scheduling slice; billing is identical either way,
//!   so traces/statistics never depend on the batching mode.
//!   [`BatchStats`] (via [`Transport::batch_stats`]) reports the achieved
//!   frames-per-write.
//! * **Ack piggybacking.** The reliable layer rides its cumulative ack in
//!   every outgoing data frame (`RelData` header word 2) and emits a
//!   standalone [`PacketTag::RelAck`] only on idle polls — when traffic is
//!   bidirectional, nearly all acknowledgements travel for free
//!   ([`RecoveryStats::ack_piggyback_ratio`] ≈ 1 in the loopback benches),
//!   which is a ~33% cut in recovery overhead words and removes one
//!   startup-dominated channel access per exchange.
//! * **When `TCP_NODELAY` matters.** [`TcpEndpoint`] always enables it: the
//!   protocol exchanges small, latency-critical request/response frames —
//!   precisely the workload Nagle's algorithm penalizes with up to an RTT of
//!   buffering. Batching makes coalescing explicit (one write per slice), so
//!   nothing is left for Nagle to usefully merge.
//! * **Wait tuning.** A blocked [`ShmEndpoint`] spins a bounded window
//!   (covering the peer's few-microsecond turnaround) before parking in
//!   short slices; the `/dev/shm` file backing parks early instead, since
//!   its polls cost syscalls. This halves the shared-memory loopback
//!   session's wall clock versus sleep-first waiting.

// The shm module's lock-free SPSC ring stores its data words in
// `UnsafeCell`s (published by the head/tail atomics); it carries the
// crate's only `unsafe`, each block documented. Everything else stays
// unsafe-free under this deny.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cost;
pub mod fabric;
mod knob;
mod lossy;
mod message;
mod poll;
mod pool;
mod reliable;
pub mod shm;
mod stats;
pub mod tcp;
mod threaded;
mod transport;

pub use cost::{ChannelCostModel, Direction, LayeredStartup, Side};
pub use fabric::{full_mesh, Fabric, FabricEdge};
pub use knob::KnobError;
pub use lossy::{FaultSpec, FaultStats, LossyTransport};
pub use message::{Packet, PacketTag, PacketView};
pub use poll::{PollReady, PollSet, Readiness};
pub use pool::{BufferPool, PoolStats, DEFAULT_POOL_RETAIN};
pub use reliable::{
    crc32, crc32_feed, crc32_parts, RecoveryStats, ReliableConfig, ReliableTransport,
    RetryExhausted, TransportDead, DATA_HEADER_WORDS,
};
pub use shm::{RingError, ShmEndpoint, ShmRegion, ShmTransport, DEFAULT_RING_WORDS};
pub use stats::ChannelStats;
pub use tcp::{
    ConnectRetryError, FrameError, RetryPolicy, TcpEndpoint, TcpTransport, MAX_FRAME_WORDS,
};
pub use threaded::{ThreadedEndpoint, ThreadedTransport};
pub use transport::{BatchStats, CostedChannel, Link, QueueTransport, Transport, WaitTransport};
