//! Transport-generic co-emulation sessions.
//!
//! An [`EmuSession`] composes the four ingredients of a co-emulation run —
//! a pair of domain models (usually from a [`SocBlueprint`]), a
//! [`CoEmuConfig`], a transport backend, and an optional [`EmuObserver`] —
//! behind one builder, and runs the same protocol over any backend.
//!
//! A [`TransportSelect`] is lowered into one layered link stack per
//! channel end — the medium, then an optional fault layer, then an optional
//! ack-and-retransmit layer — and the session runs on one of two engines:
//!
//! * **The co-operative engine** ([`CoEmulator`]) for the in-process media
//!   both domains share. Both domains step round-robin on the calling
//!   thread, so every run is exactly reproducible:
//!   * [`TransportSelect::Queue`] — the deterministic
//!     [`QueueTransport`](predpkt_channel::QueueTransport)
//!     (the evaluation default);
//!   * [`TransportSelect::Lossy`] — a
//!     [`LossyTransport`](predpkt_channel::LossyTransport) over the queue,
//!     injecting seeded drops, truncations, and duplicates for
//!     protocol-robustness scenarios.
//! * **The endpoint engine** for media with one endpoint per domain: one
//!   port per side over one link pair, each side on its own OS thread (or
//!   both stepped on the calling thread when [sliced](SlicedSession)):
//!   * [`TransportSelect::Threaded`] — in-process mpsc endpoints
//!     ([`ThreadedTransport`](predpkt_channel::ThreadedTransport)),
//!     exercising the protocol under genuine concurrency;
//!   * [`TransportSelect::Tcp`] — a real TCP socket pair (per-side
//!     [`TcpEndpoint`](predpkt_channel::TcpEndpoint)s moving
//!     length-prefixed frames), the machinery that carries a session whose
//!     domains live in different processes or hosts;
//!   * [`TransportSelect::Shm`] — a shared-memory ring pair (per-side
//!     [`ShmEndpoint`](predpkt_channel::ShmEndpoint)s moving the same
//!     frames through lock-free SPSC rings, heap-shared or in a `/dev/shm`
//!     region file), the multi-process-on-one-host configuration.
//!
//! [`TransportSelect::Reliable`] adds an ack-and-retransmit
//! [`ReliableTransport`](predpkt_channel::ReliableTransport) over any of these (chosen with [`ReliableInner`]),
//! on whichever engine its medium runs: the session *survives* injected
//! faults, committing bit-identical traces and ledgers to a clean run,
//! with the repair traffic billed into [`RecoveryStats`] (see
//! [`EmuSession::recovery_stats`]).
//!
//! Sessions halt at **transition boundaries**: a domain stops only when it is
//! synchronized with its peer and has committed at least the target cycle
//! count. The stop point is therefore a protocol event, not a scheduling
//! artifact — a queue run and a threaded run of the same blueprint commit
//! bit-identical traces and exchange exactly the same packets, which the
//! transport-equivalence suite asserts.
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
//! assert!(counters.snapshot().lob_flushes > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::blueprint::SocBlueprint;
use crate::checkpoint::{CheckpointError, SessionCheckpoint};
use crate::coemu::{CoEmuConfig, CoEmulator, ConfigError, SliceStatus};
use crate::endpoint::EndpointCore;
use crate::link::{
    lower, map_reliable_outcome, map_reliable_slice, merge_reports, LinkPlan, Medium,
};
use crate::model::DomainModel;
use crate::observer::{EmuObserver, NoopObserver};
use crate::report::PerfReport;
use crate::wrapper::{merge_committed_traces, ChannelWrapper, CwStats, ModePolicy};
use crate::AhbDomainModel;
use predpkt_ahb::bus::BusConfigError;
use predpkt_channel::{
    BatchStats, ChannelStats, CostedChannel, FaultSpec, FaultStats, Link, PollReady, Readiness,
    RecoveryStats, ReliableConfig, RetryExhausted, DEFAULT_RING_WORDS,
};
use predpkt_predict::{PaperSuite, PredictorSuite};
use predpkt_sim::{SimError, TimeLedger, Trace};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Why a session could not be built.
#[derive(Debug)]
pub enum SessionError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The blueprint could not be built into domain models.
    Bus(BusConfigError),
    /// A socket-backed transport could not be set up (bind, connect, or
    /// accept failed).
    Io(std::io::Error),
    /// A checkpoint restore failed while resuming a session
    /// ([`EmuSession::resume_from`]): the rebuilt session rejected the cut —
    /// wrong backend, missing section, or corrupt words.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Config(e) => write!(f, "invalid configuration: {e}"),
            SessionError::Bus(e) => write!(f, "invalid blueprint: {e}"),
            SessionError::Io(e) => write!(f, "transport setup failed: {e}"),
            SessionError::Checkpoint(e) => write!(f, "resume failed: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Config(e) => Some(e),
            SessionError::Bus(e) => Some(e),
            SessionError::Io(e) => Some(e),
            SessionError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> Self {
        SessionError::Config(e)
    }
}

impl From<BusConfigError> for SessionError {
    fn from(e: BusConfigError) -> Self {
        SessionError::Bus(e)
    }
}

/// Tuning knobs for the real-thread backend.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedOpts {
    /// How long a blocked domain waits on its endpoint before re-checking the
    /// halt and deadlock conditions.
    pub poll_interval: Duration,
    /// How long both domains may starve (no protocol progress anywhere)
    /// before the run is reported as deadlocked. This is wall-clock time, so
    /// an extreme OS scheduling stall is indistinguishable from protocol
    /// starvation — the generous default trades detection latency for
    /// robustness on loaded (e.g. CI) machines.
    pub deadlock_timeout: Duration,
}

impl Default for ThreadedOpts {
    fn default() -> Self {
        ThreadedOpts {
            poll_interval: Duration::from_millis(2),
            deadlock_timeout: Duration::from_secs(10),
        }
    }
}

/// Tuning knobs for the TCP socket backend.
///
/// The session spawns an ephemeral localhost pair
/// ([`TcpTransport::loopback_pair`](predpkt_channel::TcpTransport::loopback_pair))
/// and runs one domain thread per endpoint through the same runner as the
/// mpsc backend — so the traffic crosses a real socket while the session
/// stays externally synchronous. `fault`
/// optionally wraps each endpoint in a per-side
/// [`LossyTransport`](predpkt_channel::LossyTransport), injecting seeded
/// faults *on the socket path*; compose with [`TransportSelect::Reliable`]
/// (via [`ReliableInner::Tcp`]) when the session must survive them.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpOptions {
    /// Domain-thread scheduling knobs (poll interval doubles as the socket
    /// read timeout while a domain is blocked).
    pub threaded: ThreadedOpts,
    /// Seeded per-side fault plan applied on top of the sockets; `None`
    /// leaves the link clean (the wrapper is then bit-for-bit transparent).
    pub fault: Option<FaultSpec>,
}

impl TcpOptions {
    /// Overrides the domain-thread scheduling knobs.
    pub fn threaded(mut self, opts: ThreadedOpts) -> Self {
        self.threaded = opts;
        self
    }

    /// Injects seeded faults on the socket path.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }
}

/// Tuning knobs for the shared-memory ring backend.
///
/// The session spawns a per-side
/// [`ShmEndpoint`](predpkt_channel::ShmEndpoint) pair — a heap region shared
/// through an `Arc` by default, or a `/dev/shm` region file when
/// [`file_backed`](Self::file_backed) is set (the multi-process codepath,
/// exercised here within one process) — and runs one domain thread per
/// endpoint through the same runner as the mpsc and socket backends. `fault`
/// optionally wraps each endpoint in a per-side
/// [`LossyTransport`](predpkt_channel::LossyTransport), injecting seeded
/// faults *on the ring path*; compose with [`TransportSelect::Reliable`]
/// (via [`ReliableInner::Shm`]) when the session must survive them.
#[derive(Debug, Clone, Copy)]
pub struct ShmOptions {
    /// Domain-thread scheduling knobs (poll interval doubles as the park
    /// timeout while a domain is blocked on the ring).
    pub threaded: ThreadedOpts,
    /// Seeded per-side fault plan applied on top of the rings; `None`
    /// leaves the channel clean (the wrapper is then bit-for-bit
    /// transparent).
    pub fault: Option<FaultSpec>,
    /// Per-direction ring capacity in words (rounded up to a power of two).
    pub ring_words: u32,
    /// Put the rings in a `/dev/shm` region file instead of a shared heap
    /// allocation — the same codepath two separate processes would use.
    pub file_backed: bool,
}

impl Default for ShmOptions {
    fn default() -> Self {
        ShmOptions {
            threaded: ThreadedOpts::default(),
            fault: None,
            ring_words: DEFAULT_RING_WORDS,
            file_backed: false,
        }
    }
}

impl ShmOptions {
    /// Overrides the domain-thread scheduling knobs.
    pub fn threaded(mut self, opts: ThreadedOpts) -> Self {
        self.threaded = opts;
        self
    }

    /// Injects seeded faults on the ring path.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Overrides the per-direction ring capacity in words.
    pub fn ring_words(mut self, words: u32) -> Self {
        self.ring_words = words;
        self
    }

    /// Backs the rings with a `/dev/shm` region file.
    pub fn file_backed(mut self) -> Self {
        self.file_backed = true;
        self
    }
}

/// The transport backend a session runs over.
#[derive(Debug, Clone, Copy, Default)]
pub enum TransportSelect {
    /// Deterministic in-process FIFOs, co-operative scheduling (the default).
    #[default]
    Queue,
    /// Seeded fault injection over in-process FIFOs.
    Lossy(FaultSpec),
    /// One OS thread per domain over `std::sync::mpsc` channels.
    Threaded(ThreadedOpts),
    /// One OS thread per domain over a real TCP socket pair.
    Tcp(TcpOptions),
    /// One OS thread per domain over a shared-memory ring pair — the
    /// multi-process-on-one-host configuration (and the lowest-latency
    /// channel the crate models).
    Shm(ShmOptions),
    /// An ack-and-retransmit
    /// [`ReliableTransport`](predpkt_channel::ReliableTransport) over one of the inner
    /// backends — the session *survives* channel faults instead of merely
    /// detecting them, and bills the recovery traffic (see
    /// [`EmuSession::recovery_stats`]).
    Reliable {
        /// The transport underneath the reliability layer.
        inner: ReliableInner,
        /// Sliding-window size (unacknowledged frames per direction).
        window: usize,
        /// Retransmissions allowed per frame before the session fails with
        /// [`SimError::RetryBudgetExhausted`].
        retry_budget: u32,
    },
}

impl TransportSelect {
    /// A reliable backend with the default window (8) and retry budget (16).
    pub fn reliable(inner: ReliableInner) -> Self {
        let defaults = ReliableConfig::default();
        TransportSelect::Reliable {
            inner,
            window: defaults.window,
            retry_budget: defaults.retry_budget,
        }
    }
}

/// The transport underneath a [`TransportSelect::Reliable`] layer.
#[derive(Debug, Clone, Copy, Default)]
pub enum ReliableInner {
    /// Deterministic in-process FIFOs (the default).
    #[default]
    Queue,
    /// Seeded fault injection — the combination the reliability layer exists
    /// for: the session commits bit-identical results to a clean run while
    /// `RecoveryStats` records the repairs.
    Lossy(FaultSpec),
    /// One OS thread per domain.
    Threaded(ThreadedOpts),
    /// One OS thread per domain over a real TCP socket pair — the remote-
    /// accelerator configuration. With [`TcpOptions::fault`] set, seeded
    /// faults fire *on the socket path* and the per-side reliability layers
    /// absorb them.
    Tcp(TcpOptions),
    /// One OS thread per domain over a shared-memory ring pair — the
    /// one-host multi-process configuration. With [`ShmOptions::fault`]
    /// set, seeded faults fire *on the ring path* and the per-side
    /// reliability layers absorb them.
    Shm(ShmOptions),
}

/// The setters both session builders share, over their `config`,
/// `transport`, and `observer` fields.
macro_rules! session_knobs {
    () => {
        /// Overrides the configuration (defaults to
        /// [`CoEmuConfig::paper_defaults`]).
        pub fn config(mut self, config: CoEmuConfig) -> Self {
            self.config = config;
            self
        }

        /// Overrides the operating-mode policy on the current configuration.
        pub fn policy(mut self, policy: ModePolicy) -> Self {
            self.config = self.config.policy(policy);
            self
        }

        /// Overrides the LOB depth on the current configuration, deferring
        /// validation to [`build`](Self::build).
        pub fn lob_depth(mut self, depth: usize) -> Self {
            // Store the raw depth; build() validates through CoEmuConfig::validate.
            self.config.lob_depth = depth;
            self
        }

        /// Selects the transport backend (defaults to the deterministic queue).
        pub fn transport(mut self, transport: TransportSelect) -> Self {
            self.transport = transport;
            self
        }

        /// Installs an observer receiving every protocol event.
        pub fn observer(mut self, observer: Box<dyn EmuObserver>) -> Self {
            self.observer = Some(observer);
            self
        }
    };
}

/// Builder for an [`EmuSession`] from an explicit pair of domain models.
///
/// Obtained from [`EmuSession::builder`]; for AHB SoCs prefer
/// [`EmuSession::from_blueprint`], which also composes a [`PredictorSuite`].
pub struct EmuSessionBuilder<M: DomainModel + Send + 'static> {
    sim: M,
    acc: M,
    config: CoEmuConfig,
    transport: TransportSelect,
    observer: Option<Box<dyn EmuObserver>>,
}

impl<M: DomainModel + Send + 'static> EmuSessionBuilder<M> {
    session_knobs!();

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Config`] for invalid configurations — a zero
    /// LOB depth set through [`lob_depth`](Self::lob_depth), an out-of-range
    /// [`FaultSpec`] rate on the lossy backends, or a degenerate
    /// [`ReliableConfig`] knob on the reliable backend.
    ///
    /// # Panics
    ///
    /// Panics if the two models' sides or widths disagree.
    pub fn build(self) -> Result<EmuSession<M>, SessionError> {
        self.config.validate()?;
        let (medium, plan) = lower(self.transport, self.config.channel)?;
        let inner = match medium {
            Medium::Shared(link) => SessionInner::Shared(Box::new(
                CoEmulator::with_transport(self.sim, self.acc, self.config, link)
                    .with_observer(self.observer.unwrap_or_else(|| Box::new(NoopObserver))),
            )),
            Medium::Endpoints(sim_end, acc_end) => {
                SessionInner::Endpoints(Box::new(EndpointCore::new(
                    (self.sim, self.acc),
                    (sim_end, acc_end),
                    self.config,
                    plan.opts,
                    self.observer,
                )))
            }
        };
        Ok(EmuSession { inner, plan })
    }
}

/// Builder for an [`EmuSession`] over an AHB [`SocBlueprint`], composing the
/// blueprint with a [`PredictorSuite`] on top of the generic session knobs.
pub struct BlueprintSessionBuilder<'bp> {
    blueprint: &'bp SocBlueprint,
    suite: Box<dyn PredictorSuite>,
    config: CoEmuConfig,
    transport: TransportSelect,
    observer: Option<Box<dyn EmuObserver>>,
}

impl<'bp> BlueprintSessionBuilder<'bp> {
    session_knobs!();

    /// Swaps the predictor suite (defaults to the paper's
    /// [`PaperSuite`]).
    pub fn predictors(mut self, suite: impl PredictorSuite + 'static) -> Self {
        self.suite = Box::new(suite);
        self
    }

    /// Builds the two half-bus domain models and the session around them.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Bus`] for broken blueprints and
    /// [`SessionError::Config`] for invalid configurations.
    pub fn build(self) -> Result<EmuSession<AhbDomainModel>, SessionError> {
        let (sim, acc) = self.blueprint.build_pair_with(self.suite.as_ref())?;
        let mut builder = EmuSession::builder(sim, acc)
            .config(self.config)
            .transport(self.transport);
        if let Some(obs) = self.observer {
            builder = builder.observer(obs);
        }
        builder.build()
    }
}

/// A co-emulation run composed from models, config, transport, and observer.
///
/// See the module docs for the backend catalogue ([`TransportSelect`]) and
/// the boundary-halt semantics shared by every backend.
pub struct EmuSession<M: DomainModel + Send + 'static> {
    inner: SessionInner<M>,
    plan: LinkPlan,
}

/// The two engines a session runs on.
enum SessionInner<M: DomainModel + Send + 'static> {
    /// The co-operative engine over a medium both domains share.
    Shared(Box<CoEmulator<M, Box<dyn Link>>>),
    /// The endpoint engine: one port per side over one link pair.
    Endpoints(Box<EndpointCore<M>>),
}

/// What a session needs from its engine, so every accessor is written once.
pub(crate) trait Engine<M: DomainModel> {
    /// The simulator- and accelerator-side protocol engines.
    fn wrappers(&self) -> (&ChannelWrapper<M>, &ChannelWrapper<M>);
    /// Every costed channel with its ledger: one shared, or one per side.
    fn channels(&self) -> Vec<(&CostedChannel<Box<dyn Link>>, &TimeLedger)>;
    fn config(&self) -> &CoEmuConfig;
    /// Runs to the boundary-halt condition.
    fn run_to(&mut self, cycles: u64) -> Result<(), SimError>;
    /// One bounded slice toward the boundary-halt condition.
    fn slice_to(&mut self, target: u64, max_steps: u32) -> Result<SliceStatus, SimError>;
    fn save_sections(&self, ckpt: &mut SessionCheckpoint) -> Result<(), CheckpointError>;
    fn restore_sections(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError>;
}

impl EmuSession<AhbDomainModel> {
    /// Starts a builder over an AHB blueprint with the paper's predictor
    /// wiring, paper-default configuration, and the queue transport.
    pub fn from_blueprint(blueprint: &SocBlueprint) -> BlueprintSessionBuilder<'_> {
        BlueprintSessionBuilder {
            blueprint,
            suite: Box::new(PaperSuite),
            config: CoEmuConfig::paper_defaults(),
            transport: TransportSelect::Queue,
            observer: None,
        }
    }
}

impl<M: DomainModel + Send + 'static> EmuSession<M> {
    /// Starts a builder from an explicit pair of domain models (simulator
    /// side first).
    pub fn builder(sim: M, acc: M) -> EmuSessionBuilder<M> {
        EmuSessionBuilder {
            sim,
            acc,
            config: CoEmuConfig::paper_defaults(),
            transport: TransportSelect::Queue,
            observer: None,
        }
    }

    fn engine(&self) -> &dyn Engine<M> {
        match &self.inner {
            SessionInner::Shared(c) => c.as_ref(),
            SessionInner::Endpoints(f) => f.as_ref(),
        }
    }

    fn engine_mut(&mut self) -> &mut dyn Engine<M> {
        match &mut self.inner {
            SessionInner::Shared(c) => c.as_mut(),
            SessionInner::Endpoints(f) => f.as_mut(),
        }
    }

    /// The session's link stacks: one shared, or one per side.
    fn links(&self) -> impl Iterator<Item = &dyn Link> {
        self.engine()
            .channels()
            .into_iter()
            .map(|(ch, _)| &**ch.transport())
    }

    /// The first frame a reliability layer gave up on, if any.
    fn failure(&self) -> Option<RetryExhausted> {
        self.links().find_map(|l| l.failure())
    }

    /// A stable name for the backend in force (telemetry).
    pub fn backend(&self) -> &'static str {
        self.plan.backend
    }

    /// Runs until both domains have committed at least `cycles` cycles and
    /// stand synchronized at a transition boundary (a deterministic protocol
    /// event — identical across backends; the run may overshoot `cycles` by
    /// up to one transition).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when the protocol starves (e.g. a
    /// lossy transport dropped a packet with no reliability layer installed),
    /// [`SimError::RetryBudgetExhausted`] when a reliable backend gives up on
    /// a frame, or any protocol/snapshot error — including decode failures
    /// for corrupted packets.
    pub fn run_until_committed(&mut self, cycles: u64) -> Result<(), SimError> {
        let result = self.engine_mut().run_to(cycles);
        map_reliable_outcome(
            result,
            || self.failure(),
            self.plan.replay_seed,
            self.committed_cycles(),
        )
    }

    /// Cycles both domains have committed.
    pub fn committed_cycles(&self) -> u64 {
        let (sim, acc) = self.engine().wrappers();
        sim.cycle().min(acc.cycle())
    }

    /// The virtual-time ledger (merged across the two per-side ledgers of
    /// the endpoint backends).
    pub fn ledger(&self) -> TimeLedger {
        let mut out = TimeLedger::new();
        for (_, ledger) in self.engine().channels() {
            out.merge(ledger);
        }
        out
    }

    /// Channel statistics (merged across the two per-side channels of the
    /// endpoint backends). Recovery overhead of a reliable backend is *not*
    /// included — see [`recovery_stats`](Self::recovery_stats) — so these
    /// figures stay comparable with a clean run.
    pub fn channel_stats(&self) -> ChannelStats {
        let mut out = ChannelStats::default();
        for (ch, _) in self.engine().channels() {
            out.merge(ch.stats());
        }
        out
    }

    /// Fault counters, when the session injects faults (the lossy backend,
    /// directly or under the reliability layer; the TCP and shm backends
    /// when a fault plan that can fire is in force, merged across the two
    /// per-side fault layers).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        if !self.plan.reports_faults {
            return None;
        }
        merge_reports(self.links().map(|l| l.fault_stats()), FaultStats::merge)
    }

    /// Recovery counters, when the session runs over a reliable backend
    /// (merged across the two per-side layers of the endpoint backends).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        merge_reports(
            self.links().map(|l| l.recovery_stats()),
            RecoveryStats::merge,
        )
    }

    /// Physical-write efficiency counters (frames per socket write / ring
    /// publication), when the backend coalesces frames — TCP and shm,
    /// merged across both sides, directly or under the lossy/reliable
    /// layers. `None` for backends with no physical write concept (queue,
    /// lossy-over-queue, mpsc).
    pub fn batch_stats(&self) -> Option<BatchStats> {
        merge_reports(self.links().map(|l| l.batch_stats()), BatchStats::merge)
    }

    /// Simulator-side wrapper statistics.
    pub fn sim_stats(&self) -> &CwStats {
        self.engine().wrappers().0.stats()
    }

    /// Accelerator-side wrapper statistics.
    pub fn acc_stats(&self) -> &CwStats {
        self.engine().wrappers().1.stats()
    }

    /// The simulator-side model.
    pub fn sim_model(&self) -> &M {
        self.engine().wrappers().0.model()
    }

    /// The accelerator-side model.
    pub fn acc_model(&self) -> &M {
        self.engine().wrappers().1.model()
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoEmuConfig {
        self.engine().config()
    }

    /// Builds the performance report over the committed cycles, including
    /// the recovery bill for reliable backends.
    pub fn report(&self) -> PerfReport {
        let report = PerfReport::new(
            self.ledger(),
            self.committed_cycles(),
            self.channel_stats(),
            self.sim_stats().clone(),
            self.acc_stats().clone(),
        );
        let report = match self.recovery_stats() {
            Some(recovery) => report.with_recovery(recovery),
            None => report,
        };
        match self.batch_stats() {
            Some(batch) => report.with_batch(batch),
            None => report,
        }
    }

    /// Merges the two domains' committed local-output traces into full-bus
    /// records (see [`CoEmulator::merged_trace`]).
    pub fn merged_trace(&self, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        let (sim, acc) = self.engine().wrappers();
        merge_committed_traces(sim, acc, merge)
    }

    /// Whether both domains stand at a committed transition boundary — the
    /// only cut at which [`checkpoint`](Self::checkpoint) succeeds. True
    /// after every [`run_until_committed`](Self::run_until_committed) call
    /// (the halt condition *is* the boundary).
    pub fn at_checkpoint_boundary(&self) -> bool {
        let (sim, acc) = self.engine().wrappers();
        sim.at_transition_boundary() && acc.at_transition_boundary()
    }

    /// Takes a whole-session checkpoint: both domains' model, predictor,
    /// trace, and statistics state, the channel (in-flight frames of the
    /// cooperative backends; the reliability layer's windows, clock, and
    /// recovery counters where one is installed), and the virtual-time
    /// ledgers — one consistent cut, stamped with the
    /// [`backend`](Self::backend) name and the committed cycle count.
    ///
    /// Restoring the checkpoint into a freshly built session of the same
    /// shape ([`restore`](Self::restore)) and running on commits
    /// bit-identical results to never having stopped. Serialize with
    /// [`SessionCheckpoint::to_bytes`] to migrate the session between
    /// processes or hosts.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotAtBoundary`] unless the session is halted at a
    /// committed transition boundary, and [`CheckpointError::Poisoned`]
    /// after a failed restore.
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        let mut ckpt = SessionCheckpoint::new(self.backend(), self.committed_cycles());
        self.engine().save_sections(&mut ckpt)?;
        Ok(ckpt)
    }

    /// Restores this session to a checkpoint's cut. The session must run
    /// the same [`backend`](Self::backend) and be built from the same
    /// models and configuration as the one the checkpoint was taken on.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BackendMismatch`] or
    /// [`CheckpointError::MissingSection`] for a checkpoint of the wrong
    /// shape (rejected before any state is touched), and
    /// [`CheckpointError::Snapshot`] when a component rejects its words —
    /// the session is then **poisoned**: every subsequent step fails with
    /// [`SimError::StatePoisoned`] until a full restore succeeds.
    pub fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        if ckpt.backend() != self.backend() {
            return Err(CheckpointError::BackendMismatch {
                expected: self.backend().to_string(),
                found: ckpt.backend().to_string(),
            });
        }
        self.engine_mut().restore_sections(ckpt)
    }

    /// Rebuilds this session on a **fresh transport** and rewinds it onto
    /// `ckpt` — the self-healing path for a session whose transport died
    /// (socket reset, severed link, exhausted retry budget). The dead
    /// session is consumed: its domain models, configuration, and observer
    /// are salvaged (their current state is irrelevant — the restore
    /// overwrites every bit of it), everything transport-scoped is dropped,
    /// and the checkpoint's committed prefix is restored into the new
    /// session exactly as [`restore`](Self::restore) would.
    ///
    /// Running the result to the original target then commits results
    /// bit-identical to a run that never failed — asserted across backends
    /// by the terminal-fault sweeps in `tests/self_healing.rs`.
    ///
    /// `transport` must produce the same [`backend`](Self::backend) name the
    /// checkpoint was taken on (a *new instance* of the same shape — fresh
    /// sockets, fresh rings, fresh fault-injector state); a mismatch is
    /// rejected before any state is touched.
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`]/[`SessionError::Io`] if the fresh transport
    /// cannot be built, and [`SessionError::Checkpoint`] if the rebuilt
    /// session rejects the cut (backend mismatch, missing section, corrupt
    /// words).
    pub fn resume_from(
        self,
        ckpt: &SessionCheckpoint,
        transport: TransportSelect,
    ) -> Result<EmuSession<M>, SessionError> {
        let (sim, acc, config, observer) = match self.inner {
            SessionInner::Shared(c) => c.into_parts(),
            SessionInner::Endpoints(f) => f.into_parts(),
        };
        let mut session = EmuSession::builder(sim, acc)
            .config(config)
            .transport(transport)
            .observer(observer)
            .build()?;
        session.restore(ckpt)?;
        Ok(session)
    }
}

impl<M: DomainModel + Send + fmt::Debug + 'static> fmt::Debug for EmuSession<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmuSession")
            .field("backend", &self.backend())
            .field("committed", &self.committed_cycles())
            .finish()
    }
}

/// An [`EmuSession`] scheduled in bounded slices instead of run to completion
/// on dedicated threads — the unit a [session
/// farm](https://docs.rs/predpkt-farm) multiplexes over a fixed worker pool.
///
/// Every backend the session layer offers runs sliced, with the same
/// committed results: the queue-backed variants already were co-operative,
/// and the two-endpoint variants (mpsc, TCP, shm — bare or under the
/// reliable layer) step both domains on the calling thread, moving the
/// blocking waits out to the caller as [`SliceStatus::Idle`] +
/// [`readiness`](Self::readiness). The cross-transport conformance property
/// carries over: driving a session to [`SliceStatus::Done`] through *any*
/// interleaving of slices commits bit-identical traces, channel statistics,
/// and ledgers to one uninterrupted [`EmuSession::run_until_committed`]
/// call.
///
/// ```
/// use predpkt_core::{EmuSession, SliceStatus, SocBlueprint, Side};
/// use predpkt_ahb::engine::BusOp;
/// use predpkt_ahb::masters::TrafficGenMaster;
/// use predpkt_ahb::slaves::MemorySlave;
///
/// let blueprint = SocBlueprint::new()
///     .master(Side::Accelerator, || {
///         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
///     })
///     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
/// let session = EmuSession::from_blueprint(&blueprint).build()?;
/// let mut sliced = session.into_sliced(200);
/// loop {
///     match sliced.run_slice(256)? {
///         SliceStatus::Done => break,
///         // Queue-backed sessions never go Idle; a farm would park on
///         // `readiness()` here for the endpoint-backed ones.
///         _ => continue,
///     }
/// }
/// assert!(sliced.committed_cycles() >= 200);
/// let session = sliced.into_session();
/// assert!(session.report().billed_words() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SlicedSession<M: DomainModel + Send + 'static> {
    session: EmuSession<M>,
    target: u64,
    /// When set, a fresh checkpoint is stashed every time a slice ends with
    /// the session at a new committed transition boundary.
    auto_checkpoint: bool,
    /// Committed cycles between auto-checkpoint cuts (see
    /// [`set_checkpoint_interval`](Self::set_checkpoint_interval)).
    checkpoint_interval: u64,
    latest_checkpoint: Option<Box<SessionCheckpoint>>,
    /// Committed cycles at the last stash, so boundaries are checkpointed
    /// once instead of on every subsequent no-op slice.
    checkpointed_at: Option<u64>,
}

/// Default committed-cycle spacing between auto-checkpoint cuts.
const DEFAULT_CHECKPOINT_INTERVAL: u64 = 16;

impl<M: DomainModel + Send + 'static> EmuSession<M> {
    /// Converts the session into its sliced form, targeting `cycles`
    /// committed cycles at a transition boundary (the same stop condition as
    /// [`run_until_committed`](Self::run_until_committed)).
    pub fn into_sliced(self, cycles: u64) -> SlicedSession<M> {
        SlicedSession {
            session: self,
            target: cycles,
            auto_checkpoint: false,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            latest_checkpoint: None,
            checkpointed_at: None,
        }
    }
}

impl<M: DomainModel + Send + 'static> SlicedSession<M> {
    /// Runs at most `max_steps` scheduling rounds toward the target.
    ///
    /// Returns [`SliceStatus::Done`] once both domains stand halted at the
    /// target boundary (further calls are no-ops returning `Done` again),
    /// [`SliceStatus::Working`] when the budget ran out mid-flight, and
    /// [`SliceStatus::Idle`] when progress now depends on the transport
    /// medium — park the session and re-run it when
    /// [`readiness`](Self::readiness) turns actionable.
    ///
    /// # Errors
    ///
    /// The same errors as [`EmuSession::run_until_committed`], with one
    /// scheduling difference: starvation on a *live* medium is the caller's
    /// to detect (a session parked `Idle` past a deadlock window), because
    /// only the caller knows how long the session has actually been starved
    /// across slices. A dead medium still fails fast with
    /// [`SimError::Deadlock`], and a reliable backend that abandoned a frame
    /// surfaces [`SimError::RetryBudgetExhausted`] as soon as the session
    /// would otherwise park.
    pub fn run_slice(&mut self, max_steps: u32) -> Result<SliceStatus, SimError> {
        if !self.auto_checkpoint {
            return self.dispatch_slice(self.target, max_steps);
        }
        // Checkpoints are only consistent with both domains halted at the
        // same committed boundary, and free-running domains pipeline past
        // each other — they almost never align on their own. So aim the
        // engine at the next interval cut instead of the final target: it
        // halts there exactly like `run_until_committed` would (the linger
        // drains are protocol no-ops, so the committed stream is unchanged),
        // the stash captures the cut, and `Working` tells the scheduler the
        // real target still lies ahead.
        // Anchor cuts at fixed interval multiples: a moving `committed +
        // interval` cut would recede ahead of the run and never be reached.
        let iv = self.checkpoint_interval.max(1);
        let cut = (self.session.committed_cycles() / iv)
            .saturating_add(1)
            .saturating_mul(iv)
            .min(self.target);
        let status = self.dispatch_slice(cut, max_steps)?;
        self.stash_fresh_boundary();
        match status {
            SliceStatus::Done if cut < self.target => Ok(SliceStatus::Working),
            s => Ok(s),
        }
    }

    /// One bounded run of the backend engine toward `target`, with no
    /// checkpoint capture.
    fn dispatch_slice(&mut self, target: u64, max_steps: u32) -> Result<SliceStatus, SimError> {
        let session = &mut self.session;
        let result = session.engine_mut().slice_to(target, max_steps);
        map_reliable_slice(
            result,
            || session.failure(),
            session.plan.replay_seed,
            session.committed_cycles(),
        )
    }

    /// Stashes a checkpoint if the session stands at a committed boundary
    /// it has not checkpointed yet.
    fn stash_fresh_boundary(&mut self) {
        if self.checkpointed_at != Some(self.session.committed_cycles())
            && self.session.at_checkpoint_boundary()
        {
            if let Ok(ckpt) = self.session.checkpoint() {
                self.checkpointed_at = Some(ckpt.committed_cycles());
                self.latest_checkpoint = Some(Box::new(ckpt));
            }
        }
    }

    /// Enables (or disables) automatic checkpoint capture: the sliced run
    /// periodically halts at a committed transition boundary (every
    /// [`checkpoint interval`](Self::set_checkpoint_interval) cycles) and
    /// stashes a whole-session checkpoint there, retrievable with
    /// [`take_latest_checkpoint`](Self::take_latest_checkpoint). The halts
    /// do not change what the session commits — they are the same boundary
    /// stops `run_until_committed` makes, and the committed stream stays
    /// bit-identical to an uninterrupted run. A session farm enables this so
    /// an evicted session leaves carrying its most recent consistent cut
    /// instead of losing the run.
    pub fn set_auto_checkpoint(&mut self, enabled: bool) {
        self.auto_checkpoint = enabled;
    }

    /// Sets the committed-cycle spacing between auto-checkpoint cuts
    /// (default 16; clamped to at least 1). Smaller intervals lose less work
    /// on eviction but serialize the session more often.
    pub fn set_checkpoint_interval(&mut self, cycles: u64) {
        self.checkpoint_interval = cycles.max(1);
    }

    /// Whether automatic checkpoint capture is on.
    pub fn auto_checkpoint(&self) -> bool {
        self.auto_checkpoint
    }

    /// Takes ownership of the most recent auto-captured checkpoint, if any
    /// (see [`set_auto_checkpoint`](Self::set_auto_checkpoint)).
    pub fn take_latest_checkpoint(&mut self) -> Option<Box<SessionCheckpoint>> {
        self.latest_checkpoint.take()
    }

    /// Takes a whole-session checkpoint now (see
    /// [`EmuSession::checkpoint`]); the session must stand at a committed
    /// transition boundary, e.g. after [`SliceStatus::Done`].
    ///
    /// # Errors
    ///
    /// Those of [`EmuSession::checkpoint`].
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        self.session.checkpoint()
    }

    /// Restores the underlying session to a checkpoint's cut (see
    /// [`EmuSession::restore`]).
    ///
    /// # Errors
    ///
    /// Those of [`EmuSession::restore`].
    pub fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        self.session.restore(ckpt)
    }

    /// The committed-cycle target this sliced run halts at.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Cycles both domains have committed so far.
    pub fn committed_cycles(&self) -> u64 {
        self.session.committed_cycles()
    }

    /// The backend's stable name (see [`EmuSession::backend`]).
    pub fn backend(&self) -> &'static str {
        self.session.backend()
    }

    /// Shared access to the underlying session (reports, statistics,
    /// traces).
    pub fn session(&self) -> &EmuSession<M> {
        &self.session
    }

    /// Unwraps back into the plain session — typically after
    /// [`SliceStatus::Done`], to harvest the report and traces.
    pub fn into_session(self) -> EmuSession<M> {
        self.session
    }
}

impl<M: DomainModel + Send + 'static> PollReady for SlicedSession<M> {
    /// The probe a parked session is woken by. Queue-backed sessions are
    /// always `Ready` (both transport ends live in the session object, so
    /// stepping always makes progress or fails deterministically); the
    /// endpoint-backed ones fold both endpoints' probes. `Dead` is
    /// actionable too: scheduling the session lets it discover the loss and
    /// fail fast, freeing its slot.
    fn readiness(&mut self) -> Readiness {
        match &mut self.session.inner {
            SessionInner::Shared(_) => Readiness::Ready,
            SessionInner::Endpoints(f) => f.readiness(),
        }
    }
}

impl<M: DomainModel + Send + fmt::Debug + 'static> fmt::Debug for SlicedSession<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlicedSession")
            .field("backend", &self.session.backend())
            .field("target", &self.target)
            .field("committed", &self.session.committed_cycles())
            .finish()
    }
}
