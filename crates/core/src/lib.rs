//! # predpkt-core — the prediction-packetizing co-emulation engine
//!
//! This crate is the paper's contribution: optimistic simulator–accelerator
//! synchronization built on **prediction and rollback**, applied to an
//! AHB-based SoC split across two verification domains.
//!
//! ## Architecture (paper §4–§5)
//!
//! * A [`SocBlueprint`] places every master and slave in one of the two
//!   domains. [`AhbDomainModel`] is a **half-bus model**: the local components,
//!   a replicated arbiter + decoder ([`predpkt_ahb::fabric::Fabric`]), and
//!   proxy slots holding the most recent remote signal values — HBMS/HBMA with
//!   their channel-wrapper mimicry. Remote-signal prediction strategies are
//!   pluggable through [`predpkt_predict::PredictorSuite`].
//! * [`ChannelWrapper`] runs the per-domain protocol state machine (the paper's
//!   Fig. 3 paths — P, S, L, R, C, F — surfaced as [`PaperPath`] statistics):
//!   a leader runs ahead on predictions, packetizes its outputs plus the
//!   predictions into the LOB, flushes them as one burst, and rolls back /
//!   rolls forth when the lagger reports a misprediction.
//! * [`EmuSession`] is the front door: a builder composing a blueprint (or an
//!   explicit model pair), a [`CoEmuConfig`], a [`TransportSelect`] backend
//!   (deterministic queue, fault-injecting lossy, one-thread-per-domain, a
//!   real TCP socket pair, a shared-memory ring pair, or an
//!   ack-and-retransmit reliable layer over any of them), a predictor suite,
//!   and [`EmuObserver`] hooks that stream every protocol
//!   event (mode switches, rollbacks, LOB flushes, channel accesses).
//! * [`CoEmulator`] is the co-operative engine under the sessions whose two
//!   domains share one in-process medium, generic over any
//!   [`Transport`](predpkt_channel::Transport);
//!   [`CoEmulator::from_blueprint`] remains as a thin compatibility shim.
//!   Sessions over per-domain endpoints (threads, TCP, shm) run on the
//!   [`FabricSession`] runner instead, as its one-edge, two-domain case.
//! * [`FabricSession`] joins `N` domains over a full mesh of links. Each
//!   edge builds its own, independent model pair from the blueprint and no
//!   state crosses ports, so a fabric run is `N(N−1)/2` pairwise
//!   co-emulations multiplexed onto `N` domain threads.
//! * [`DomainModel`] abstracts the domain content so the same protocol engine
//!   drives both the real AHB SoC and the controlled-accuracy synthetic
//!   workloads used to regenerate the paper's parametric evaluation.
//!
//! ## Correctness invariant
//!
//! Lagger domains only ever tick on verified values, and leaders replay
//! mispredicted segments from a snapshot — so the merged committed trace is
//! bit-identical to a monolithic golden simulation for every mode, policy,
//! prediction accuracy, *and transport backend*. The integration suite
//! asserts exactly that.
//!
//! ## Example
//!
//! ```
//! use predpkt_core::{EmuSession, EventCounters, ModePolicy, Side, SocBlueprint};
//! use predpkt_ahb::engine::BusOp;
//! use predpkt_ahb::masters::TrafficGenMaster;
//! use predpkt_ahb::slaves::MemorySlave;
//!
//! let blueprint = SocBlueprint::new()
//!     .master(Side::Accelerator, || {
//!         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
//!     })
//!     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
//! let counters = EventCounters::new();
//! let mut session = EmuSession::from_blueprint(&blueprint)
//!     .policy(ModePolicy::Auto)
//!     .observer(Box::new(counters.clone()))
//!     .build()?;
//! session.run_until_committed(200)?;
//! assert!(session.committed_cycles() >= 200);
//! assert!(counters.snapshot().transitions > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Checkpoint, migrate, replay
//!
//! [`EmuSession::checkpoint`] captures one consistent cut of a running
//! session — models, predictors, committed traces, channel, reliability
//! windows, and ledgers — at a committed transition boundary (where every
//! [`run_until_committed`](EmuSession::run_until_committed) call halts).
//! [`SessionCheckpoint::to_bytes`] turns the cut into a self-describing byte
//! blob (CRC-sealed frames; see the [`checkpoint`](SessionCheckpoint) docs
//! for the wire format and versioning rules), and
//! [`EmuSession::restore`] rewinds any freshly built session of the same
//! backend onto it. Restore-then-run is bit-identical to running straight
//! through:
//!
//! ```
//! use predpkt_core::{EmuSession, ModePolicy, SessionCheckpoint, Side, SocBlueprint};
//! use predpkt_ahb::engine::BusOp;
//! use predpkt_ahb::masters::TrafficGenMaster;
//! use predpkt_ahb::slaves::MemorySlave;
//!
//! let blueprint = SocBlueprint::new()
//!     .master(Side::Accelerator, || {
//!         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
//!     })
//!     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
//! let build = || EmuSession::from_blueprint(&blueprint).policy(ModePolicy::Auto).build();
//!
//! // Donor: run half-way, cut a checkpoint, keep going to the end.
//! let mut donor = build()?;
//! donor.run_until_committed(100)?;
//! let blob = donor.checkpoint()?.to_bytes();
//! donor.run_until_committed(200)?;
//!
//! // Twin (another process, another host, a farm re-admission…): decode,
//! // restore, and replay the remaining half. Same committed outcome.
//! let mut twin = build()?;
//! twin.restore(&SessionCheckpoint::from_bytes(&blob)?)?;
//! twin.run_until_committed(200)?;
//! assert_eq!(twin.committed_cycles(), donor.committed_cycles());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! When the *transport* is what died — socket reset, severed link,
//! exhausted retry budget — there is no need to rebuild by hand:
//! [`EmuSession::resume_from`] consumes the dead session, salvages its
//! domain models and configuration, builds a **fresh** transport from a
//! [`TransportSelect`], and rewinds it onto the cut. Run to the original
//! target and the commit is bit-identical to a run that never failed
//! (asserted across every fault-capable backend by the kill-at-every-
//! boundary sweeps in `tests/self_healing.rs`):
//!
//! ```
//! # use predpkt_core::{EmuSession, ModePolicy, Side, SocBlueprint, TransportSelect};
//! # use predpkt_ahb::engine::BusOp;
//! # use predpkt_ahb::masters::TrafficGenMaster;
//! # use predpkt_ahb::slaves::MemorySlave;
//! # let blueprint = SocBlueprint::new()
//! #     .master(Side::Accelerator, || {
//! #         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
//! #     })
//! #     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
//! let mut session = EmuSession::from_blueprint(&blueprint).policy(ModePolicy::Auto).build()?;
//! session.run_until_committed(100)?;
//! let ckpt = session.checkpoint()?; // …the link dies somewhere after this cut
//!
//! // Self-healing in one call: fresh transport, same models, rewound cut.
//! let mut healed = session.resume_from(&ckpt, TransportSelect::Queue)?;
//! healed.run_until_committed(200)?;
//! assert!(healed.committed_cycles() >= 200);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Long-running sliced sessions can capture cuts automatically
//! ([`SlicedSession::set_auto_checkpoint`]): the farm crate uses this so a
//! failed or evicted session leaves carrying its latest consistent cut
//! instead of losing the run — and, under a `ReadmitPolicy`, heals it
//! without caller involvement: `SessionFarm::submit_healable` re-admits the
//! death onto a fresh transport after exponential backoff, within a bounded
//! retry budget (declined heals are counted, never silent). A failed
//! restore — wrong backend, truncated blob, bad CRC, mismatched section
//! shape — is a typed [`CheckpointError`] and never a half-restored
//! session: the target is poisoned and refuses to step until a later
//! restore succeeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ahb_model;
mod blueprint;
mod checkpoint;
mod coemu;
mod fabric;
mod link;
mod model;
mod observer;
mod protocol;
mod report;
mod session;
mod wrapper;

pub use ahb_model::AhbDomainModel;
pub use blueprint::{Placement, SocBlueprint};
pub use checkpoint::{CheckpointError, SessionCheckpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use coemu::{CoEmuConfig, CoEmulator, ConfigError, SliceStatus};
pub use fabric::{FabricSession, FabricSessionBuilder};
pub use model::{DomainModel, TickKind};
pub use observer::{EmuEvent, EmuObserver, EventCounters, EventCounts, EventLog, NoopObserver};
pub use protocol::{Message, ProtocolError};
pub use report::PerfReport;
pub use session::{
    BlueprintSessionBuilder, EmuSession, EmuSessionBuilder, ReliableInner, SessionError,
    ShmOptions, SlicedSession, TcpOptions, ThreadedOpts, TransportSelect,
};
pub use wrapper::{ChannelWrapper, CwStats, ModePolicy, PaperPath, Progress};

// Re-export the pieces users need to drive the engine.
pub use predpkt_channel::Side;
pub use predpkt_channel::{full_mesh, FabricEdge};
