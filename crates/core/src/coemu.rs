//! The co-emulation orchestrator.

use crate::blueprint::SocBlueprint;
use crate::checkpoint::{restore_section, save_section, CheckpointError, SessionCheckpoint};
use crate::model::DomainModel;
use crate::observer::{EmuObserver, NoopObserver};
use crate::report::PerfReport;
use crate::session::Engine;
use crate::wrapper::{ChannelWrapper, CwStats, DomainCosts, ModePolicy, Progress};
use crate::AhbDomainModel;
use predpkt_ahb::bus::BusConfigError;
use predpkt_channel::{
    ChannelCostModel, ChannelStats, CostedChannel, Link, QueueTransport, Side, Transport,
};
use predpkt_sim::{CostCategory, Frequency, SimError, Snapshot, TimeLedger, Trace, VirtualTime};
use std::error::Error;
use std::fmt;

/// A rejected co-emulation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The LOB depth was zero (the leader could never run ahead).
    ZeroLobDepth,
    /// A domain speed was zero cycles per second.
    ZeroSpeed {
        /// The offending domain.
        side: Side,
    },
    /// A fault-injection rate was not a probability.
    InvalidFaultSpec {
        /// The offending `FaultSpec` field.
        field: &'static str,
        /// Why the value was rejected.
        detail: String,
    },
    /// A reliable-transport knob was rejected (zero window, zero retry
    /// budget, or a degenerate timeout).
    InvalidReliableConfig {
        /// The offending `ReliableConfig` field.
        field: &'static str,
        /// Why the value was rejected.
        detail: String,
    },
    /// A fabric session was asked for fewer than two domains — there is no
    /// channel to co-emulate over.
    TooFewDomains {
        /// The rejected domain count.
        domains: usize,
    },
    /// A fabric session was asked for the lossy in-process queue, which has
    /// no per-link endpoints to carry a fabric (inject fabric faults through
    /// a TCP or shm fault plan instead).
    LossyFabric,
}

impl ConfigError {
    /// Lifts a channel-layer [`KnobError`] from `FaultSpec::validate`,
    /// preserving the offending field name.
    pub(crate) fn invalid_fault_spec(e: predpkt_channel::KnobError) -> Self {
        ConfigError::InvalidFaultSpec {
            field: e.field,
            detail: e.detail,
        }
    }

    /// Lifts a channel-layer [`KnobError`] from `ReliableConfig::validate`,
    /// preserving the offending field name.
    pub(crate) fn invalid_reliable_config(e: predpkt_channel::KnobError) -> Self {
        ConfigError::InvalidReliableConfig {
            field: e.field,
            detail: e.detail,
        }
    }

    /// The offending configuration field, when the error concerns one —
    /// uniform across the fault-spec and reliable-transport paths.
    pub fn field(&self) -> Option<&'static str> {
        match self {
            ConfigError::InvalidFaultSpec { field, .. }
            | ConfigError::InvalidReliableConfig { field, .. } => Some(field),
            _ => None,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroLobDepth => write!(f, "LOB depth must be non-zero"),
            ConfigError::ZeroSpeed { side } => {
                write!(f, "{side:?} speed must be non-zero")
            }
            ConfigError::InvalidFaultSpec { field, detail } => {
                write!(f, "invalid fault spec: {field}: {detail}")
            }
            ConfigError::InvalidReliableConfig { field, detail } => {
                write!(f, "invalid reliable transport config: {field}: {detail}")
            }
            ConfigError::TooFewDomains { domains } => {
                write!(f, "a fabric needs at least two domains (got {domains})")
            }
            ConfigError::LossyFabric => write!(
                f,
                "the lossy queue backend has no fabric form; use a tcp or shm fault plan"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Builds the two channel wrappers from a model pair and a configuration —
/// the single place wrapper knobs are wired, shared by the co-operative
/// engine and the endpoint runner so the backends can never drift.
///
/// # Panics
///
/// Panics if the models' sides or widths disagree.
pub(crate) fn build_wrapper_pair<M: DomainModel>(
    sim_model: M,
    acc_model: M,
    config: &CoEmuConfig,
) -> (ChannelWrapper<M>, ChannelWrapper<M>) {
    assert_eq!(sim_model.side(), Side::Simulator);
    assert_eq!(acc_model.side(), Side::Accelerator);
    assert_eq!(sim_model.local_width(), acc_model.remote_width());
    assert_eq!(acc_model.local_width(), sim_model.remote_width());
    let build = |model: M| {
        ChannelWrapper::new(model, config.lob_depth, config.policy)
            .with_carry_actuals(config.carry_actuals)
            .with_adaptive_depth(config.adaptive_depth)
    };
    (build(sim_model), build(acc_model))
}

/// Configuration of a co-emulation run: domain speeds, LOB depth, operating
/// mode, channel and rollback cost models.
#[derive(Debug, Clone, Copy)]
pub struct CoEmuConfig {
    /// Simulator speed (the paper evaluates 100 k and 1,000 kcycles/s).
    pub sim_speed: Frequency,
    /// Accelerator speed (the paper fixes 10 Mcycles/s).
    pub acc_speed: Frequency,
    /// LOB depth (the paper evaluates 8 and 64).
    pub lob_depth: usize,
    /// Operating-mode policy.
    pub policy: ModePolicy,
    /// Channel cost model.
    pub channel: ChannelCostModel,
    /// Simulator-side snapshot cost per rollback variable (memcpy-style).
    pub sim_store_per_var: VirtualTime,
    /// Accelerator-side snapshot cost per rollback variable (hardware shadow
    /// copy; calibrated to the paper's Tstore row).
    pub acc_store_per_var: VirtualTime,
    /// When set, store/restore costs bill as if the leader state had this many
    /// variables (the paper's parametric "1,000 rollback variables").
    pub rollback_vars_override: Option<usize>,
    /// Whether reports and bursts carry the sender's next-cycle outputs so the
    /// next transition's head cycle runs on actual values (a protocol
    /// refinement over the paper; disable for paper-faithful accounting).
    pub carry_actuals: bool,
    /// Adaptive run-ahead depth: ramp toward the LOB cap on clean transitions,
    /// shrink to the observed run length on failures. Matches the paper's
    /// low-accuracy behaviour far better than a fixed full-depth run-ahead.
    pub adaptive_depth: bool,
}

impl CoEmuConfig {
    /// The paper's Table 2 configuration: simulator 1,000 kcycles/s,
    /// accelerator 10 Mcycles/s, LOB depth 64, iPROVE PCI channel, 1,000
    /// rollback variables, forced ALS.
    pub fn paper_defaults() -> Self {
        CoEmuConfig {
            sim_speed: Frequency::from_kcycles_per_sec(1_000),
            acc_speed: Frequency::from_mcycles_per_sec(10),
            lob_depth: 64,
            policy: ModePolicy::ForcedAls,
            channel: ChannelCostModel::iprove_pci(),
            sim_store_per_var: VirtualTime::from_picos(10_000), // 10 ns
            acc_store_per_var: VirtualTime::from_picos(30),     // 0.03 ns
            rollback_vars_override: Some(1_000),
            carry_actuals: false,
            adaptive_depth: false,
        }
    }

    /// Overrides the simulator speed.
    pub fn sim_speed(mut self, f: Frequency) -> Self {
        self.sim_speed = f;
        self
    }

    /// Overrides the accelerator speed.
    pub fn acc_speed(mut self, f: Frequency) -> Self {
        self.acc_speed = f;
        self
    }

    /// Overrides the LOB depth, rejecting invalid depths.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroLobDepth`] if `depth` is zero.
    pub fn try_lob_depth(mut self, depth: usize) -> Result<Self, ConfigError> {
        if depth == 0 {
            return Err(ConfigError::ZeroLobDepth);
        }
        self.lob_depth = depth;
        Ok(self)
    }

    /// Checks the configuration for internal consistency. The
    /// [`EmuSession`](crate::EmuSession) builder calls this before
    /// constructing anything.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lob_depth == 0 {
            return Err(ConfigError::ZeroLobDepth);
        }
        if self.sim_speed.cycles_per_sec() == 0 {
            return Err(ConfigError::ZeroSpeed {
                side: Side::Simulator,
            });
        }
        if self.acc_speed.cycles_per_sec() == 0 {
            return Err(ConfigError::ZeroSpeed {
                side: Side::Accelerator,
            });
        }
        Ok(())
    }

    /// Overrides the operating-mode policy.
    pub fn policy(mut self, policy: ModePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the channel cost model.
    pub fn channel(mut self, channel: ChannelCostModel) -> Self {
        self.channel = channel;
        self
    }

    /// Overrides the rollback-variable count used for store/restore costing
    /// (`None` bills actual snapshot size).
    pub fn rollback_vars(mut self, vars: Option<usize>) -> Self {
        self.rollback_vars_override = vars;
        self
    }

    /// Enables or disables the head-actuals carry refinement (see
    /// [`CoEmuConfig::carry_actuals`]).
    pub fn carry(mut self, enabled: bool) -> Self {
        self.carry_actuals = enabled;
        self
    }

    /// Enables or disables adaptive run-ahead depth (see
    /// [`CoEmuConfig::adaptive_depth`]).
    pub fn adaptive(mut self, enabled: bool) -> Self {
        self.adaptive_depth = enabled;
        self
    }

    /// Both domains' virtual-time cost parameters, simulator side first.
    pub(crate) fn costs(&self) -> [DomainCosts; 2] {
        [
            DomainCosts {
                cycle: self.sim_speed.cycle_time(),
                category: CostCategory::Simulator,
                store_per_var: self.sim_store_per_var,
                restore_per_var: self.sim_store_per_var,
                rollback_vars_override: self.rollback_vars_override,
            },
            DomainCosts {
                cycle: self.acc_speed.cycle_time(),
                category: CostCategory::Accelerator,
                store_per_var: self.acc_store_per_var,
                restore_per_var: self.acc_store_per_var,
                rollback_vars_override: self.rollback_vars_override,
            },
        ]
    }
}

/// What a bounded scheduling slice achieved — the vocabulary a session
/// server schedules by (see [`SlicedSession`](crate::SlicedSession)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStatus {
    /// Both domains are halted at the target transition boundary: the run is
    /// complete and further slices are no-ops.
    Done,
    /// The step budget ran out with protocol work still flowing; the session
    /// is runnable and should be rescheduled.
    Working,
    /// Both domains are blocked with nothing locally deliverable: progress
    /// now depends on the transport medium (frames in flight through the
    /// kernel or ring). The session should be parked until its transports
    /// report readiness — or declared starved after a deadlock window.
    Idle,
}

/// The co-emulator: two channel wrappers, one costed channel, one ledger.
///
/// Domains are scheduled co-operatively: each scheduling round steps both
/// wrappers; a wrapper blocked on a read yields. Virtual time follows the
/// paper's serialized model (the Table 2 `Perform.` arithmetic), so the ledger
/// total *is* the emulation wall time.
///
/// The channel is generic over any [`Transport`] backend (deterministic
/// [`QueueTransport`] by default; see
/// [`LossyTransport`](predpkt_channel::LossyTransport) for fault injection).
/// For real-thread execution use [`EmuSession`](crate::EmuSession), which
/// runs one wrapper per OS thread instead of this co-operative loop.
pub struct CoEmulator<M: DomainModel, T: Transport = QueueTransport> {
    sim: ChannelWrapper<M>,
    acc: ChannelWrapper<M>,
    channel: CostedChannel<T>,
    ledger: TimeLedger,
    config: CoEmuConfig,
    observer: Box<dyn EmuObserver>,
}

impl CoEmulator<AhbDomainModel> {
    /// Builds a co-emulator for a split AHB SoC over the deterministic queue
    /// transport — the compatibility entry point; new code composes the same
    /// pieces through [`EmuSession`](crate::EmuSession).
    ///
    /// # Errors
    ///
    /// Returns [`BusConfigError`] for broken blueprints.
    pub fn from_blueprint(
        blueprint: &SocBlueprint,
        config: CoEmuConfig,
    ) -> Result<Self, BusConfigError> {
        let (sim, acc) = blueprint.build_pair()?;
        Ok(Self::new(sim, acc, config))
    }
}

impl<M: DomainModel> CoEmulator<M> {
    /// Builds a co-emulator from two domain models over the deterministic
    /// queue transport.
    ///
    /// # Panics
    ///
    /// Panics if the models' sides or widths disagree.
    pub fn new(sim_model: M, acc_model: M, config: CoEmuConfig) -> Self {
        Self::with_transport(sim_model, acc_model, config, QueueTransport::new())
    }
}

impl<M: DomainModel, T: Transport> CoEmulator<M, T> {
    /// Builds a co-emulator from two domain models over an arbitrary
    /// transport backend.
    ///
    /// # Panics
    ///
    /// Panics if the models' sides or widths disagree.
    pub fn with_transport(sim_model: M, acc_model: M, config: CoEmuConfig, transport: T) -> Self {
        let (sim, acc) = build_wrapper_pair(sim_model, acc_model, &config);
        CoEmulator {
            sim,
            acc,
            channel: CostedChannel::with_transport(transport, config.channel),
            ledger: TimeLedger::new(),
            config,
            observer: Box::new(NoopObserver),
        }
    }

    /// Installs an [`EmuObserver`] receiving every protocol event from both
    /// wrappers (builder style).
    pub fn with_observer(mut self, observer: Box<dyn EmuObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Dismantles the co-emulator, salvaging the domain models, the
    /// configuration, and the observer — everything a fresh session built on
    /// a *new* transport needs. Used by
    /// [`EmuSession::resume_from`](crate::EmuSession::resume_from): wrapper,
    /// channel, and ledger state are deliberately dropped, because a
    /// checkpoint restore rebuilds all of it.
    pub fn into_parts(self) -> (M, M, CoEmuConfig, Box<dyn EmuObserver>) {
        (
            self.sim.into_model(),
            self.acc.into_model(),
            self.config,
            self.observer,
        )
    }

    /// Replaces the observer.
    pub fn set_observer(&mut self, observer: Box<dyn EmuObserver>) {
        self.observer = observer;
    }

    /// Cycles both domains have committed (the lagger's progress during
    /// speculation).
    pub fn committed_cycles(&self) -> u64 {
        self.sim.cycle().min(self.acc.cycle())
    }

    /// Runs until at least `cycles` cycles are committed, stopping
    /// immediately (possibly mid-transition).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if both domains block with no message in
    /// flight, or any protocol/snapshot error.
    pub fn run_until_committed(&mut self, cycles: u64) -> Result<(), SimError> {
        let costs = self.config.costs();
        while self.committed_cycles() < cycles {
            self.round(&costs, [false, false])?;
        }
        Ok(())
    }

    /// Runs until both domains have committed at least `cycles` cycles *and*
    /// stand at a transition boundary (synchronized, about to elect roles).
    ///
    /// Unlike [`run_until_committed`](Self::run_until_committed), the stop
    /// point is a deterministic protocol event rather than a scheduling
    /// artifact, so every transport backend — including the real-thread
    /// runner — halts after exactly the same message sequence. This is the
    /// semantics [`EmuSession`](crate::EmuSession) runs with.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the run starves before both domains
    /// reach the target, or any protocol/snapshot error.
    pub fn run_until_synchronized(&mut self, cycles: u64) -> Result<(), SimError> {
        while self.run_slice(cycles, u32::MAX)? != SliceStatus::Done {}
        Ok(())
    }

    /// Runs at most `max_steps` scheduling rounds of the
    /// [`run_until_synchronized`](Self::run_until_synchronized) loop — the
    /// budgeted form a session server interleaves with thousands of other
    /// sessions on one worker thread. The stop condition, stepping order,
    /// and deadlock rule are byte-for-byte the same, so a run driven to
    /// [`SliceStatus::Done`] through any sequence of slices commits exactly
    /// what one uninterrupted call commits.
    ///
    /// Never returns [`SliceStatus::Idle`]: both ends of the queue transport
    /// live in this object, so "blocked with deliverable traffic" resolves
    /// within the same slice and "blocked without" is an immediate
    /// [`SimError::Deadlock`] — there is no external medium to wait on.
    ///
    /// # Errors
    ///
    /// Exactly those of [`run_until_synchronized`](Self::run_until_synchronized).
    pub fn run_slice(&mut self, cycles: u64, max_steps: u32) -> Result<SliceStatus, SimError> {
        let costs = self.config.costs();
        for _ in 0..max_steps {
            let halted = self.halted(cycles);
            if halted == [true, true] {
                return Ok(SliceStatus::Done);
            }
            self.round(&costs, halted)?;
        }
        // Re-check the halt condition before yielding: the budget may have
        // run out on exactly the round that finished the run.
        if self.halted(cycles) == [true, true] {
            return Ok(SliceStatus::Done);
        }
        Ok(SliceStatus::Working)
    }

    /// Which domains stand halted at a transition boundary with `cycles`
    /// committed (simulator first).
    fn halted(&self, cycles: u64) -> [bool; 2] {
        [&self.sim, &self.acc].map(|w| w.at_transition_boundary() && w.cycle() >= cycles)
    }

    /// One scheduling round: steps each domain not `halted`, then fails with
    /// [`SimError::Deadlock`] if both are blocked with nothing in flight
    /// toward a running domain (packets addressed to a halted domain can
    /// never be consumed, so only those count as potential progress).
    fn round(&mut self, costs: &[DomainCosts; 2], halted: [bool; 2]) -> Result<(), SimError> {
        let mut blocked = true;
        for (wrapper, costs, halted) in [
            (&mut self.sim, &costs[0], halted[0]),
            (&mut self.acc, &costs[1], halted[1]),
        ] {
            if !halted {
                let progress = wrapper.step(
                    &mut self.channel,
                    &mut self.ledger,
                    costs,
                    self.observer.as_mut(),
                )?;
                blocked &= progress == Progress::Blocked;
            }
        }
        let toward = |halted: bool, side: Side| {
            if halted {
                0
            } else {
                self.channel.pending(side)
            }
        };
        if blocked && toward(halted[0], Side::Simulator) + toward(halted[1], Side::Accelerator) == 0
        {
            return Err(SimError::Deadlock {
                cycle: self.committed_cycles(),
            });
        }
        Ok(())
    }

    /// Shared access to the transport backend (e.g. to read
    /// [`LossyTransport`](predpkt_channel::LossyTransport) fault counters).
    pub fn transport(&self) -> &T {
        self.channel.transport()
    }

    /// The virtual-time ledger.
    pub fn ledger(&self) -> &TimeLedger {
        &self.ledger
    }

    /// Channel statistics.
    pub fn channel_stats(&self) -> &ChannelStats {
        self.channel.stats()
    }

    /// Simulator-side wrapper statistics.
    pub fn sim_stats(&self) -> &CwStats {
        self.sim.stats()
    }

    /// Accelerator-side wrapper statistics.
    pub fn acc_stats(&self) -> &CwStats {
        self.acc.stats()
    }

    /// The simulator-side model.
    pub fn sim_model(&self) -> &M {
        self.sim.model()
    }

    /// The accelerator-side model.
    pub fn acc_model(&self) -> &M {
        self.acc.model()
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoEmuConfig {
        &self.config
    }

    /// Builds the performance report over the committed cycles.
    ///
    /// # Panics
    ///
    /// Panics if no cycle has committed yet.
    pub fn report(&self) -> PerfReport {
        PerfReport::new(
            self.ledger.clone(),
            self.committed_cycles(),
            self.channel.stats().clone(),
            self.sim.stats().clone(),
            self.acc.stats().clone(),
        )
    }

    /// Merges the two domains' committed local-output traces into full-bus
    /// records comparable with a golden [`AhbBus`](predpkt_ahb::bus::AhbBus)
    /// trace.
    ///
    /// `merge` receives (sim record, acc record) per cycle and must interleave
    /// them into the golden record layout.
    pub fn merged_trace(&self, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        crate::wrapper::merge_committed_traces(&self.sim, &self.acc, merge)
    }
}

/// The labels a co-operative (single-channel) checkpoint serializes under,
/// in restore order.
const COOP_SECTIONS: [&str; 4] = ["wrapper.sim", "wrapper.acc", "channel", "ledger"];

impl<M: DomainModel, T: Transport + Snapshot> CoEmulator<M, T> {
    /// Whether both domains stand at a committed transition boundary — the
    /// only cut at which a checkpoint is consistent.
    pub(crate) fn at_checkpoint_boundary(&self) -> bool {
        self.sim.at_transition_boundary() && self.acc.at_transition_boundary()
    }

    /// Fills `ckpt` with this engine's component sections (see
    /// [`checkpoint`](Self::checkpoint) for the public form).
    pub(crate) fn checkpoint_into(
        &self,
        ckpt: &mut SessionCheckpoint,
    ) -> Result<(), CheckpointError> {
        if let Some(err) = self.sim.poisoned().or_else(|| self.acc.poisoned()) {
            return Err(CheckpointError::Poisoned(err.clone()));
        }
        if !self.at_checkpoint_boundary() {
            return Err(CheckpointError::NotAtBoundary);
        }
        ckpt.push_section("wrapper.sim", save_section(|w| self.sim.checkpoint_save(w)));
        ckpt.push_section("wrapper.acc", save_section(|w| self.acc.checkpoint_save(w)));
        ckpt.push_section("channel", save_section(|w| self.channel.save(w)));
        ckpt.push_section("ledger", save_section(|w| self.ledger.save(w)));
        Ok(())
    }

    /// Restores this engine from a checkpoint's component sections (see
    /// [`restore`](Self::restore) for the public form).
    pub(crate) fn restore_from(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        // Pre-flight the section table before touching anything, so a
        // checkpoint with the wrong shape is rejected without mutation.
        for label in COOP_SECTIONS {
            ckpt.section(label)?;
        }
        let result = (|| {
            let CoEmulator {
                sim,
                acc,
                channel,
                ledger,
                ..
            } = self;
            restore_section(ckpt, "wrapper.sim", |r| sim.checkpoint_restore(r))?;
            restore_section(ckpt, "wrapper.acc", |r| acc.checkpoint_restore(r))?;
            restore_section(ckpt, "channel", |r| channel.restore(r))?;
            restore_section(ckpt, "ledger", |r| ledger.restore(r))
        })();
        if let Err(CheckpointError::Snapshot { source, .. }) = &result {
            // A failed section leaves the pair inconsistent: poison both
            // wrappers so the session refuses to step until a full restore
            // succeeds.
            self.sim.poison(source.clone());
            self.acc.poison(source.clone());
        }
        result
    }

    /// Takes a whole-session checkpoint at the current committed transition
    /// boundary: both wrappers (model, predictors, trace, statistics), the
    /// channel — including any frames a cooperative backend holds in flight
    /// and the reliability layer's windows — and the virtual-time ledger.
    ///
    /// Standalone engines stamp the backend name `"coemulator"`; sessions
    /// built through [`EmuSession`](crate::EmuSession) stamp their
    /// [`backend`](crate::EmuSession::backend) name instead and check it on
    /// restore.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotAtBoundary`] unless both domains stand halted
    /// at a committed transition boundary (run with
    /// [`run_until_synchronized`](Self::run_until_synchronized) first), and
    /// [`CheckpointError::Poisoned`] after a failed restore.
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        let mut ckpt = SessionCheckpoint::new("coemulator", self.committed_cycles());
        self.checkpoint_into(&mut ckpt)?;
        Ok(ckpt)
    }

    /// Restores this engine to a checkpoint's cut. The engine must have the
    /// same shape (models, transport type, configuration) as the one the
    /// checkpoint was taken on; resuming then commits bit-identical traces,
    /// statistics, and ledgers to the original run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSection`] if the checkpoint's shape does
    /// not match (rejected before any state is touched), and
    /// [`CheckpointError::Snapshot`] if a component rejects its words — the
    /// engine is then **poisoned** and refuses further steps.
    pub fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        self.restore_from(ckpt)
    }
}

impl<M: DomainModel> Engine<M> for CoEmulator<M, Box<dyn Link>> {
    fn wrappers(&self) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        (&self.sim, &self.acc)
    }

    fn channels(&self) -> Vec<(&CostedChannel<Box<dyn Link>>, &TimeLedger)> {
        vec![(&self.channel, &self.ledger)]
    }

    fn config(&self) -> &CoEmuConfig {
        &self.config
    }

    fn run_to(&mut self, cycles: u64) -> Result<(), SimError> {
        self.run_until_synchronized(cycles)
    }

    fn slice_to(&mut self, target: u64, max_steps: u32) -> Result<SliceStatus, SimError> {
        self.run_slice(target, max_steps)
    }

    fn save_sections(&self, ckpt: &mut SessionCheckpoint) -> Result<(), CheckpointError> {
        self.checkpoint_into(ckpt)
    }

    fn restore_sections(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        self.restore_from(ckpt)
    }
}

impl<M: DomainModel + fmt::Debug, T: Transport> fmt::Debug for CoEmulator<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoEmulator")
            .field("committed", &self.committed_cycles())
            .field("total_time", &self.ledger.total())
            .finish()
    }
}
