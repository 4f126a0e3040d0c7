//! The channel wrapper: per-domain protocol state machine.
//!
//! Each domain owns one [`ChannelWrapper`]. Its behaviour maps onto the paper's
//! Fig. 3 operation paths:
//!
//! | Paper path | Here |
//! |---|---|
//! | **C** (conservative) | initiator sends `CycleOutputs`, awaits the reply, ticks; responder mirrors |
//! | **P** (prediction) | leader predicts the lagger's outputs, ticks ahead, packetizes into the LOB |
//! | **S** (synchronization) | leader flushes the LOB as one burst and blocks in *Get response* |
//! | **L** (lagger) | lagger checks one prediction per consumed entry, ticking on verified data |
//! | **R** (report) | lagger reports success/failure plus its next-cycle outputs |
//! | **F** (roll-forth) | leader replays the verified prefix after a rollback |
//!
//! Transition steps (paper Tbl. 1) follow: run-ahead = leader in P while the
//! lagger sits in L/R/C; follow-up = S/L; rollback = S/L; roll-forth = F/L.
//!
//! The wrapper is co-operatively scheduled: a blocking read returns
//! [`Progress::Blocked`] and the orchestrator runs the peer domain.

use crate::model::{DomainModel, TickKind};
use crate::observer::{EmuEvent, EmuObserver};
use crate::protocol::Message;
use predpkt_channel::{CostedChannel, Side, Transport};
use predpkt_predict::{Lob, LobEntry};
use predpkt_sim::{
    restore_from_vec, save_to_vec, CostCategory, SimError, Snapshot, SnapshotError, StateReader,
    StateVec, StateWriter, TimeLedger, TraceMark, VirtualTime,
};
use std::fmt;

/// Converts LOB entries into fixed-width blocks for the delta packetizer
/// (`[has_prediction, local…, prediction-or-zeros…]`).
pub(crate) fn lob_entries_to_blocks(
    entries: &[LobEntry],
    prediction_width: usize,
) -> Vec<Vec<u32>> {
    entries
        .iter()
        .map(|e| {
            let mut b = Vec::with_capacity(1 + e.local.len() + prediction_width);
            b.push(e.predicted.is_some() as u32);
            b.extend_from_slice(&e.local);
            match &e.predicted {
                Some(p) => b.extend_from_slice(p),
                None => b.extend(std::iter::repeat(0).take(prediction_width)),
            }
            b
        })
        .collect()
}

/// Operating-mode policy: who may lead, and whether prediction is allowed
/// (paper §2: SLA, ALS, and the conventional conservative mode; §3 problem 4:
/// dynamic mode decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModePolicy {
    /// Cycle-by-cycle synchronization, no prediction (the baseline).
    Conservative,
    /// Simulator Leading Accelerator, forced.
    ForcedSla,
    /// Accelerator Leading Simulator, forced.
    ForcedAls,
    /// Leader elected per transition from the data-flow source
    /// ([`DomainModel::elect_leader`]).
    Auto,
}

impl ModePolicy {
    /// Resolves (initiator side, optimism allowed) given the model's election.
    pub fn resolve(self, elected: Side) -> (Side, bool) {
        match self {
            ModePolicy::Conservative => (Side::Accelerator, false),
            ModePolicy::ForcedSla => (Side::Simulator, true),
            ModePolicy::ForcedAls => (Side::Accelerator, true),
            ModePolicy::Auto => (elected, true),
        }
    }
}

/// The paper's Fig. 3 operation paths, used for occupancy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperPath {
    /// Roll-forth.
    F,
    /// Prediction (run-ahead).
    P,
    /// Synchronization (flush / get response).
    S,
    /// Lagger (follow-up checking).
    L,
    /// Report.
    R,
    /// Conservative.
    C,
}

impl PaperPath {
    fn index(self) -> usize {
        match self {
            PaperPath::F => 0,
            PaperPath::P => 1,
            PaperPath::S => 2,
            PaperPath::L => 3,
            PaperPath::R => 4,
            PaperPath::C => 5,
        }
    }
}

impl fmt::Display for PaperPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Per-wrapper statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CwStats {
    /// Transitions completed as leader (success + failure).
    pub transitions: u64,
    /// Transitions whose every prediction checked out.
    pub clean_transitions: u64,
    /// Rollbacks performed (as leader).
    pub rollbacks: u64,
    /// Cycles executed on predicted values (as leader).
    pub predicted_cycles: u64,
    /// Cycles replayed in roll-forth (as leader).
    pub replayed_cycles: u64,
    /// Head cycles executed on report-carried actuals (as leader).
    pub head_cycles: u64,
    /// Conservative cycles executed (either role).
    pub conservative_cycles: u64,
    /// Predictions this wrapper checked as lagger.
    pub checked_predictions: u64,
    /// Checked predictions that failed.
    pub failed_predictions: u64,
    /// LOB flushes sent.
    pub flushes: u64,
    /// Cycle-or-event occupancy per paper path (F, P, S, L, R, C).
    pub path_events: [u64; 6],
}

impl CwStats {
    fn bump(&mut self, path: PaperPath) {
        self.path_events[path.index()] += 1;
    }

    /// Events recorded for `path`.
    pub fn path(&self, path: PaperPath) -> u64 {
        self.path_events[path.index()]
    }

    /// Prediction accuracy observed by this wrapper as lagger, if any
    /// predictions were checked.
    pub fn observed_accuracy(&self) -> Option<f64> {
        (self.checked_predictions > 0)
            .then(|| 1.0 - self.failed_predictions as f64 / self.checked_predictions as f64)
    }

    /// Folds another wrapper's counters into this one — how an N-domain
    /// fabric aggregates the per-port engines a domain runs (one per peer)
    /// into that domain's side of a [`PerfReport`](crate::PerfReport).
    pub fn merge(&mut self, other: &CwStats) {
        self.transitions += other.transitions;
        self.clean_transitions += other.clean_transitions;
        self.rollbacks += other.rollbacks;
        self.predicted_cycles += other.predicted_cycles;
        self.replayed_cycles += other.replayed_cycles;
        self.head_cycles += other.head_cycles;
        self.conservative_cycles += other.conservative_cycles;
        self.checked_predictions += other.checked_predictions;
        self.failed_predictions += other.failed_predictions;
        self.flushes += other.flushes;
        for (mine, theirs) in self.path_events.iter_mut().zip(other.path_events) {
            *mine += theirs;
        }
    }
}

/// Sixteen words: the ten counters in declaration order, then the six
/// per-path occupancy buckets (F, P, S, L, R, C).
impl Snapshot for CwStats {
    fn save(&self, w: &mut StateWriter<'_>) {
        w.word(self.transitions)
            .word(self.clean_transitions)
            .word(self.rollbacks)
            .word(self.predicted_cycles)
            .word(self.replayed_cycles)
            .word(self.head_cycles)
            .word(self.conservative_cycles)
            .word(self.checked_predictions)
            .word(self.failed_predictions)
            .word(self.flushes);
        for count in self.path_events {
            w.word(count);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.transitions = r.word()?;
        self.clean_transitions = r.word()?;
        self.rollbacks = r.word()?;
        self.predicted_cycles = r.word()?;
        self.replayed_cycles = r.word()?;
        self.head_cycles = r.word()?;
        self.conservative_cycles = r.word()?;
        self.checked_predictions = r.word()?;
        self.failed_predictions = r.word()?;
        self.flushes = r.word()?;
        for count in &mut self.path_events {
            *count = r.word()?;
        }
        Ok(())
    }
}

/// Scheduling outcome of one `ChannelWrapper::step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The wrapper did work (ticked, sent, or processed a message).
    Worked,
    /// The wrapper is blocked on a read; run the peer.
    Blocked,
}

/// Virtual-time cost parameters for one domain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DomainCosts {
    /// One target clock cycle of execution in this domain.
    pub cycle: VirtualTime,
    /// Ledger bucket for cycle execution.
    pub category: CostCategory,
    /// Snapshot cost per rollback variable (word).
    pub store_per_var: VirtualTime,
    /// Restore cost per rollback variable (word).
    pub restore_per_var: VirtualTime,
    /// When set, store/restore bill as if the state had this many variables
    /// (the paper's parametric "1,000 rollback variables").
    pub rollback_vars_override: Option<usize>,
}

/// Smallest adaptive run-ahead: even a failing transition amortizes the two
/// channel accesses over at least this many attempted cycles.
const ADAPTIVE_MIN_DEPTH: usize = 2;

/// Merges the committed prefix of two wrappers' local-output traces into
/// full-bus records (shared by the co-operative and threaded runners).
pub(crate) fn merge_committed_traces<M: DomainModel>(
    sim: &ChannelWrapper<M>,
    acc: &ChannelWrapper<M>,
    merge: impl Fn(&[u64], &[u64]) -> Vec<u64>,
) -> predpkt_sim::Trace {
    let n = sim.cycle().min(acc.cycle()) as usize;
    let mut out = predpkt_sim::Trace::new();
    for i in 0..n {
        let s = sim
            .model()
            .trace()
            .get(i)
            .expect("sim trace holds committed cycles");
        let a = acc
            .model()
            .trace()
            .get(i)
            .expect("acc trace holds committed cycles");
        out.record(merge(s, a));
    }
    out
}

#[derive(Debug)]
enum Phase {
    /// Send our handshake.
    HandshakeSend,
    /// Await the peer's handshake.
    HandshakeAwait,
    /// Synchronized: decide the next transition's roles.
    Elect,
    /// Leader: optimistic run-ahead (P-path).
    LeadPredict,
    /// Leader: flushed, awaiting the report (S-3 *Get response*).
    LeadAwaitReport,
    /// Initiator: conservative outputs sent, awaiting the reply (C-path).
    ConsAwaitReply,
    /// Responder: blocked in *Read input data* (C-3 / R-3).
    FollowAwait,
}

/// The per-domain protocol engine. See the module docs.
pub struct ChannelWrapper<M: DomainModel> {
    model: M,
    side: Side,
    policy: ModePolicy,
    phase: Phase,
    lob: Lob,
    /// Snapshot of the leader state at the transition start + trace mark.
    snapshot: Option<(StateVec, TraceMark)>,
    /// Entries in flight after a flush (for roll-forth replay).
    inflight: Vec<LobEntry>,
    /// Actual remote values used by the head cycle of the current transition
    /// (retained for replay).
    head_actuals: Option<Vec<u32>>,
    /// Remote Moore outputs for the upcoming cycle, tagged with that cycle
    /// index (carried by reports and bursts).
    pending_actuals: Option<(u64, Vec<u32>)>,
    /// Whether to exploit report/burst-carried next-cycle outputs for head
    /// cycles (protocol refinement; off for paper-faithful accounting).
    carry_actuals: bool,
    /// Maximum run-ahead (the LOB depth).
    depth_cap: usize,
    /// Current run-ahead target (= cap when not adaptive).
    cur_depth: usize,
    /// Adapt the run-ahead to observed prediction-run lengths: double on a
    /// clean transition, shrink to the achieved run on a failure.
    adaptive_depth: bool,
    stats: CwStats,
    /// Set when a restore failed partway, leaving the model in an undefined
    /// mixture of old and new state. Every further [`step`](Self::step) then
    /// refuses with [`SimError::StatePoisoned`] — a half-restored run must
    /// never silently diverge.
    poisoned: Option<SnapshotError>,
}

impl<M: DomainModel> ChannelWrapper<M> {
    /// Creates a wrapper around a domain model.
    pub fn new(model: M, lob_depth: usize, policy: ModePolicy) -> Self {
        let side = model.side();
        ChannelWrapper {
            model,
            side,
            policy,
            phase: Phase::HandshakeSend,
            lob: Lob::new(lob_depth),
            snapshot: None,
            inflight: Vec::new(),
            head_actuals: None,
            pending_actuals: None,
            carry_actuals: true,
            depth_cap: lob_depth,
            cur_depth: lob_depth,
            adaptive_depth: false,
            stats: CwStats::default(),
            poisoned: None,
        }
    }

    /// Enables or disables the head-actuals carry refinement.
    pub fn with_carry_actuals(mut self, enabled: bool) -> Self {
        self.carry_actuals = enabled;
        self
    }

    /// Enables adaptive run-ahead depth (see [`ChannelWrapper`] field docs).
    pub fn with_adaptive_depth(mut self, enabled: bool) -> Self {
        self.adaptive_depth = enabled;
        if enabled {
            self.cur_depth = ADAPTIVE_MIN_DEPTH.min(self.depth_cap);
        }
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the wrapper, returning the model — for salvaging the domain
    /// models out of a dead session so a fresh one can be rebuilt around
    /// them (a checkpoint restore overwrites every bit of model state, so
    /// the models' current values are irrelevant).
    pub fn into_model(self) -> M {
        self.model
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CwStats {
        &self.stats
    }

    /// Committed cycles of this domain (leader counts speculative ticks until
    /// rolled back; use the minimum across domains for the global figure).
    pub fn cycle(&self) -> u64 {
        self.model.cycle()
    }

    /// `true` while the wrapper sits at a transition boundary (synchronized
    /// with its peer, about to elect the next transition's roles). The
    /// session runners halt domains only here, so the stop point is a
    /// deterministic protocol event independent of scheduling.
    pub(crate) fn at_transition_boundary(&self) -> bool {
        matches!(self.phase, Phase::Elect)
    }

    /// The restore failure that quarantined this wrapper, if any.
    pub(crate) fn poisoned(&self) -> Option<&SnapshotError> {
        self.poisoned.as_ref()
    }

    /// Quarantines the wrapper after an external restore failure (the
    /// session-level checkpoint restore poisons *both* wrappers when either
    /// side's section fails, so a half-restored pair can never step).
    pub(crate) fn poison(&mut self, err: SnapshotError) {
        self.poisoned = Some(err);
    }

    /// Serializes everything live at a transition boundary: the model (its
    /// own [`Snapshot`]), the committed trace (outside the model snapshot by
    /// contract), the carried next-cycle actuals, the adaptive run-ahead
    /// depth, and the statistics. Transient transition state (LOB, rollback
    /// snapshot, in-flight entries, head actuals) is empty at a boundary by
    /// construction and is reset on restore instead of serialized.
    pub(crate) fn checkpoint_save(&self, w: &mut StateWriter<'_>) {
        debug_assert!(
            self.at_transition_boundary(),
            "checkpoints are taken only at committed boundaries"
        );
        w.section("model");
        self.model.save(w);
        w.section("trace");
        self.model.trace().save(w);
        w.section("wrapper");
        match &self.pending_actuals {
            None => {
                w.bool(false);
            }
            Some((cycle, actuals)) => {
                w.bool(true).word(*cycle).slice_u32(actuals);
            }
        }
        w.usize(self.cur_depth);
        self.stats.save(w);
    }

    /// Restores a [`checkpoint_save`](Self::checkpoint_save) cut, resetting
    /// the wrapper to the boundary phase. On failure the wrapper poisons
    /// itself — the model may hold a mixture of old and new state.
    pub(crate) fn checkpoint_restore(
        &mut self,
        r: &mut StateReader<'_>,
    ) -> Result<(), SnapshotError> {
        if let Err(err) = self.checkpoint_restore_inner(r) {
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        self.poisoned = None;
        Ok(())
    }

    fn checkpoint_restore_inner(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.model.restore(r)?;
        self.model.trace_mut().restore(r)?;
        self.pending_actuals = if r.bool()? {
            Some((r.word()?, r.slice_u32()?))
        } else {
            None
        };
        self.cur_depth = r.usize()?;
        self.stats.restore(r)?;
        self.phase = Phase::Elect;
        let _ = self.lob.drain();
        self.snapshot = None;
        self.inflight.clear();
        self.head_actuals = None;
        Ok(())
    }

    fn send<T: Transport>(
        &self,
        channel: &mut CostedChannel<T>,
        ledger: &mut TimeLedger,
        msg: &Message,
        obs: &mut dyn EmuObserver,
    ) {
        let pkt = msg.encode(self.model.local_width(), self.model.remote_width());
        let words = pkt.wire_words();
        let cost = channel.send(self.side, pkt);
        ledger.charge(CostCategory::Channel, cost);
        obs.on_event(
            self.side,
            &EmuEvent::ChannelSend {
                direction: self.side.outbound(),
                words,
                cost,
            },
        );
    }

    fn bill_cycle(&self, ledger: &mut TimeLedger, costs: &DomainCosts) {
        ledger.charge(costs.category, costs.cycle);
    }

    fn rollback_vars(&self, costs: &DomainCosts, state: &StateVec) -> u64 {
        costs.rollback_vars_override.unwrap_or(state.len()) as u64
    }

    fn take_snapshot(&mut self, ledger: &mut TimeLedger, costs: &DomainCosts) {
        let state = save_to_vec(&self.model);
        let vars = self.rollback_vars(costs, &state);
        ledger.charge(CostCategory::StateStore, costs.store_per_var * vars);
        self.snapshot = Some((state, self.model.trace_mark()));
    }

    /// Runs one scheduling quantum. Returns [`Progress::Blocked`] when waiting
    /// for a message that has not arrived.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on protocol violations or snapshot corruption.
    pub(crate) fn step<T: Transport>(
        &mut self,
        channel: &mut CostedChannel<T>,
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) -> Result<Progress, SimError> {
        if let Some(err) = &self.poisoned {
            return Err(SimError::StatePoisoned(err.clone()));
        }
        match &self.phase {
            Phase::HandshakeSend => {
                let msg = Message::Handshake {
                    local_width: self.model.local_width(),
                    remote_width: self.model.remote_width(),
                };
                self.send(channel, ledger, &msg, obs);
                self.phase = Phase::HandshakeAwait;
                Ok(Progress::Worked)
            }
            Phase::HandshakeAwait => {
                let Some(pkt) = channel.recv(self.side) else {
                    return Ok(Progress::Blocked);
                };
                let msg = self.decode(&pkt)?;
                let Message::Handshake {
                    local_width,
                    remote_width,
                } = msg
                else {
                    return Err(SimError::Config("expected handshake".into()));
                };
                if local_width != self.model.remote_width()
                    || remote_width != self.model.local_width()
                {
                    return Err(SimError::Config(format!(
                        "width disagreement: peer {local_width}/{remote_width}, \
                         local {}/{}",
                        self.model.local_width(),
                        self.model.remote_width()
                    )));
                }
                obs.on_event(self.side, &EmuEvent::HandshakeComplete);
                self.phase = Phase::Elect;
                Ok(Progress::Worked)
            }
            Phase::Elect => {
                let (initiator, optimistic) = self.policy.resolve(self.model.elect_leader());
                if initiator != self.side {
                    self.phase = Phase::FollowAwait;
                    return Ok(Progress::Worked);
                }
                if !optimistic || self.model.needs_sync() {
                    // C-path: conservative cycle with initiative.
                    obs.on_event(
                        self.side,
                        &EmuEvent::TransitionStarted {
                            leader: self.side,
                            optimistic: false,
                        },
                    );
                    self.pending_actuals = None;
                    let outputs = self.model.local_outputs();
                    self.send(channel, ledger, &Message::CycleOutputs { outputs }, obs);
                    self.phase = Phase::ConsAwaitReply;
                    return Ok(Progress::Worked);
                }
                obs.on_event(
                    self.side,
                    &EmuEvent::TransitionStarted {
                        leader: self.side,
                        optimistic: true,
                    },
                );
                // Start a transition: optional head cycle on actuals (the
                // conventional first P-path cycle, P-5/P-6), then snapshot.
                self.inflight.clear();
                self.head_actuals = None;
                if let Some((cycle, actuals)) = self.pending_actuals.take() {
                    if self.carry_actuals && cycle == self.model.cycle() {
                        let local = self.model.local_outputs();
                        self.model.tick(&actuals, TickKind::Actual);
                        self.bill_cycle(ledger, costs);
                        self.stats.head_cycles += 1;
                        self.stats.bump(PaperPath::P);
                        self.lob
                            .push(LobEntry {
                                local,
                                predicted: None,
                            })
                            .expect("head entry always fits");
                        self.head_actuals = Some(actuals);
                    }
                }
                self.take_snapshot(ledger, costs);
                self.phase = Phase::LeadPredict;
                Ok(Progress::Worked)
            }
            Phase::LeadPredict => {
                if self.lob.predictions() >= self.cur_depth
                    || (self.model.needs_sync() && !self.lob.is_empty())
                {
                    // S-path: flush the LOB as one burst.
                    let entries = self.lob.drain();
                    obs.on_event(
                        self.side,
                        &EmuEvent::LobFlush {
                            entries: entries.len(),
                            predictions: entries.iter().filter(|e| e.predicted.is_some()).count(),
                        },
                    );
                    self.inflight = entries.clone();
                    let leader_next = self.model.local_outputs();
                    self.send(
                        channel,
                        ledger,
                        &Message::Burst {
                            entries,
                            leader_next,
                        },
                        obs,
                    );
                    self.stats.flushes += 1;
                    self.stats.bump(PaperPath::S);
                    // Strategy-coordination words (adaptive suites) piggyback
                    // on the burst just sent: bill them per-word, no access.
                    let control = self.model.take_control_words();
                    if control > 0 {
                        let cost = channel.bill_control(self.side, control);
                        ledger.charge(CostCategory::Channel, cost);
                    }
                    self.phase = Phase::LeadAwaitReport;
                    return Ok(Progress::Worked);
                }
                debug_assert!(
                    !self.model.needs_sync(),
                    "sync need with an empty LOB must be handled in Elect"
                );
                // P-path: one optimistic cycle.
                let local = self.model.local_outputs();
                let predicted = self.model.predict_remote();
                self.lob
                    .push(LobEntry {
                        local,
                        predicted: Some(predicted.clone()),
                    })
                    .expect("checked is_full above");
                self.model.tick(&predicted, TickKind::Predicted);
                self.bill_cycle(ledger, costs);
                self.stats.predicted_cycles += 1;
                self.stats.bump(PaperPath::P);
                Ok(Progress::Worked)
            }
            Phase::LeadAwaitReport => {
                let Some(pkt) = channel.recv(self.side) else {
                    return Ok(Progress::Blocked);
                };
                match self.decode(&pkt)? {
                    Message::ReportSuccess { next } => {
                        obs.on_event(
                            self.side,
                            &EmuEvent::ReportReceived {
                                success: true,
                                failed_index: None,
                            },
                        );
                        self.stats.transitions += 1;
                        self.stats.clean_transitions += 1;
                        if self.adaptive_depth {
                            self.cur_depth = (self.cur_depth * 2).min(self.depth_cap);
                        }
                        self.pending_actuals = Some((self.model.cycle(), next));
                        self.snapshot = None;
                        self.inflight.clear();
                        self.head_actuals = None;
                        self.phase = Phase::Elect;
                        Ok(Progress::Worked)
                    }
                    Message::ReportFailure {
                        failed_index,
                        actual,
                        next,
                    } => {
                        obs.on_event(
                            self.side,
                            &EmuEvent::ReportReceived {
                                success: false,
                                failed_index: Some(failed_index),
                            },
                        );
                        self.stats.transitions += 1;
                        self.stats.rollbacks += 1;
                        if self.adaptive_depth {
                            // Aim the next run-ahead at the run length that was
                            // actually achievable this time.
                            self.cur_depth =
                                failed_index.max(ADAPTIVE_MIN_DEPTH).min(self.depth_cap);
                        }
                        self.roll_back_and_forth(failed_index, &actual, ledger, costs, obs)?;
                        self.pending_actuals = Some((self.model.cycle(), next));
                        self.phase = Phase::Elect;
                        Ok(Progress::Worked)
                    }
                    other => Err(SimError::Config(format!(
                        "leader expected a report, got {other:?}"
                    ))),
                }
            }
            Phase::ConsAwaitReply => {
                let Some(pkt) = channel.recv(self.side) else {
                    return Ok(Progress::Blocked);
                };
                let Message::CycleOutputs { outputs } = self.decode(&pkt)? else {
                    return Err(SimError::Config("expected cycle outputs".into()));
                };
                self.model.tick(&outputs, TickKind::Actual);
                self.bill_cycle(ledger, costs);
                self.stats.conservative_cycles += 1;
                self.stats.bump(PaperPath::C);
                obs.on_event(self.side, &EmuEvent::ConservativeCycle);
                self.phase = Phase::Elect;
                Ok(Progress::Worked)
            }
            Phase::FollowAwait => {
                let Some(pkt) = channel.recv(self.side) else {
                    return Ok(Progress::Blocked);
                };
                match self.decode(&pkt)? {
                    Message::CycleOutputs { outputs } => {
                        // C-path responder: reply with our outputs, then tick.
                        let mine = self.model.local_outputs();
                        self.send(
                            channel,
                            ledger,
                            &Message::CycleOutputs { outputs: mine },
                            obs,
                        );
                        self.model.tick(&outputs, TickKind::Actual);
                        self.bill_cycle(ledger, costs);
                        self.stats.conservative_cycles += 1;
                        self.stats.bump(PaperPath::C);
                        obs.on_event(self.side, &EmuEvent::ConservativeCycle);
                        self.phase = Phase::Elect;
                        Ok(Progress::Worked)
                    }
                    Message::Burst {
                        entries,
                        leader_next,
                    } => {
                        self.follow_burst(entries, leader_next, channel, ledger, costs, obs);
                        self.phase = Phase::Elect;
                        Ok(Progress::Worked)
                    }
                    other => Err(SimError::Config(format!(
                        "responder expected outputs or burst, got {other:?}"
                    ))),
                }
            }
        }
    }

    /// L/R-paths: consume a burst, checking one prediction per entry.
    fn follow_burst<T: Transport>(
        &mut self,
        entries: Vec<LobEntry>,
        leader_next: Vec<u32>,
        channel: &mut CostedChannel<T>,
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) {
        for (idx, entry) in entries.iter().enumerate() {
            if let Some(predicted) = &entry.predicted {
                self.stats.checked_predictions += 1;
                let ok = self.model.verify_prediction(&entry.local, predicted);
                if !ok {
                    // L-5: the failing cycle itself still commits (the leader's
                    // outputs for it depend only on verified predictions), then
                    // report and invalidate the rest.
                    self.stats.failed_predictions += 1;
                    let actual = self.model.local_outputs();
                    self.model.tick(&entry.local, TickKind::Actual);
                    self.bill_cycle(ledger, costs);
                    self.stats.bump(PaperPath::L);
                    let next = self.model.local_outputs();
                    self.send(
                        channel,
                        ledger,
                        &Message::ReportFailure {
                            failed_index: idx,
                            actual,
                            next,
                        },
                        obs,
                    );
                    self.pending_actuals = None;
                    return;
                }
            }
            self.model.tick(&entry.local, TickKind::Actual);
            self.bill_cycle(ledger, costs);
            self.stats.bump(PaperPath::L);
        }
        // R-path: all predictions correct.
        let next = self.model.local_outputs();
        self.send(channel, ledger, &Message::ReportSuccess { next }, obs);
        self.stats.bump(PaperPath::R);
        // The burst carried the leader's next outputs: valid head actuals if we
        // lead the next transition.
        self.pending_actuals = Some((self.model.cycle(), leader_next));
    }

    /// RB + RF: restore the snapshot and replay the verified prefix (F-path).
    fn roll_back_and_forth(
        &mut self,
        failed_index: usize,
        actual: &[u32],
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) -> Result<(), SimError> {
        let (state, mark) = self
            .snapshot
            .take()
            .ok_or_else(|| SimError::Config("rollback without a snapshot".into()))?;
        let vars = self.rollback_vars(costs, &state);
        ledger.charge(CostCategory::StateRestore, costs.restore_per_var * vars);
        if let Err(err) = restore_from_vec(&mut self.model, &state) {
            // The model now holds an undefined mixture of pre- and
            // post-rollback state: quarantine it so no further step can run.
            self.poisoned = Some(err.clone());
            return Err(SimError::Snapshot(err));
        }
        self.model.trace_truncate(mark);

        // Roll-forth: replay the verified prefix with its recorded predictions
        // (projection-verified, so state evolution matches the lagger), then
        // the failing cycle with the reported actuals. Head entries executed on
        // actual values are *inside* the snapshot and must not be replayed.
        let inflight = std::mem::take(&mut self.inflight);
        self.head_actuals = None;
        let head_count = inflight
            .iter()
            .take_while(|e| e.predicted.is_none())
            .count();
        debug_assert!(
            failed_index >= head_count,
            "lagger reported failure of an unchecked head entry"
        );
        for entry in inflight
            .iter()
            .skip(head_count)
            .take(failed_index - head_count)
        {
            let values = entry
                .predicted
                .as_deref()
                .expect("prefix entries carry predictions");
            self.model.tick(values, TickKind::Actual);
            self.bill_cycle(ledger, costs);
            self.stats.replayed_cycles += 1;
            self.stats.bump(PaperPath::F);
        }
        self.model.tick(actual, TickKind::Actual);
        self.bill_cycle(ledger, costs);
        self.stats.replayed_cycles += 1;
        self.stats.bump(PaperPath::F);
        obs.on_event(
            self.side,
            &EmuEvent::Rollback {
                failed_index,
                replayed: (failed_index - head_count) as u64 + 1,
            },
        );
        Ok(())
    }

    fn decode(&self, pkt: &predpkt_channel::Packet) -> Result<Message, SimError> {
        Message::decode(pkt, self.model.local_width(), self.model.remote_width())
            .map_err(|e| SimError::Config(format!("protocol: {e}")))
    }
}

impl<M: DomainModel + fmt::Debug> fmt::Debug for ChannelWrapper<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelWrapper")
            .field("side", &self.side)
            .field("phase", &self.phase)
            .field("cycle", &self.model.cycle())
            .field("lob_len", &self.lob.len())
            .finish()
    }
}
