//! The endpoint engine: the runner under every two-domain
//! [`EmuSession`](crate::EmuSession) whose domains each hold their own end
//! of the channel — threaded, TCP, or shm endpoints, bare or under a
//! per-side reliability layer.
//!
//! The engine holds exactly two **ports**, one per side. A port is a
//! domain's protocol engine, its costed channel over that side's endpoint,
//! and its share of the virtual-time ledger. A run puts each side on its
//! own OS thread; a sliced run steps both on the calling thread.
//!
//! ## Boundary halt
//!
//! A side halts only when its port stands at a transition boundary with the
//! target cycle count committed — the same deterministic protocol event the
//! co-operative engine halts on. A halted side keeps pumping
//! acknowledgements on its link until its peer has halted too, so a
//! per-side reliability layer can finish its retransmissions and the peer is
//! never stranded mid-recovery. Every backend therefore commits traces,
//! channel statistics, and ledgers bit-identical to the queue baseline,
//! which the transport-conformance suite asserts.

use crate::checkpoint::{restore_section, save_section, CheckpointError, SessionCheckpoint};
use crate::coemu::{build_wrapper_pair, CoEmuConfig, SliceStatus};
use crate::model::DomainModel;
use crate::observer::{EmuObserver, NoopObserver, SharedObserver};
use crate::session::{Engine, ThreadedOpts};
use crate::wrapper::{ChannelWrapper, DomainCosts, Progress};
use predpkt_channel::{CostedChannel, Link, Readiness, Side};
use predpkt_sim::{SimError, Snapshot, TimeLedger};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Instant;

/// The checkpoint components every port serializes, in section order.
const PORT_SECTIONS: [&str; 3] = ["wrapper", "channel", "ledger"];

/// One side's terminus of the channel: its protocol engine, its costed
/// channel over its endpoint, and its share of the virtual-time ledger.
struct Port<M: DomainModel> {
    role: Side,
    wrapper: ChannelWrapper<M>,
    ch: CostedChannel<Box<dyn Link>>,
    ledger: TimeLedger,
}

impl<M: DomainModel> Port<M> {
    fn new(
        role: Side,
        wrapper: ChannelWrapper<M>,
        end: Box<dyn Link>,
        config: &CoEmuConfig,
    ) -> Self {
        let mut ch = CostedChannel::with_transport(end, config.channel);
        // Per-scheduling-slice batching: a port's sends are parked in the
        // channel outbox and flushed when it next reads the channel or
        // halts — consecutive messages (a report followed by the next
        // transition's opener) coalesce into one physical write. Billing is
        // identical to the unbatched path, so traces, statistics, and
        // ledgers stay bit-identical to the queue baseline (the conformance
        // harness asserts exactly that).
        ch.set_batching(true);
        Port {
            role,
            wrapper,
            ch,
            ledger: TimeLedger::new(),
        }
    }

    fn halted(&self, target: u64) -> bool {
        self.wrapper.at_transition_boundary() && self.wrapper.cycle() >= target
    }

    /// Runs once the port halts: pushes the batching outbox out and frees
    /// the wrapper's transition buffers (no transition is live at a halt).
    fn finish(&mut self) {
        self.ch.flush();
        self.wrapper.release_transition_buffers();
    }

    /// Steps this port's protocol engine once.
    fn step(
        &mut self,
        costs: &[DomainCosts; 2],
        obs: &mut dyn EmuObserver,
    ) -> Result<Progress, SimError> {
        let costs = match self.role {
            Side::Simulator => &costs[0],
            Side::Accelerator => &costs[1],
        };
        self.wrapper
            .step(&mut self.ch, &mut self.ledger, costs, obs)
    }

    /// The checkpoint label of this port's `kind` component:
    /// `"wrapper.sim"`, `"channel.acc"`, ….
    fn label(&self, kind: &str) -> String {
        let side = match self.role {
            Side::Simulator => "sim",
            Side::Accelerator => "acc",
        };
        format!("{kind}.{side}")
    }
}

/// What both side threads of one threaded run share.
struct RunShared<'a> {
    target: u64,
    costs: [DomainCosts; 2],
    opts: ThreadedOpts,
    observer: Option<&'a Mutex<Box<dyn EmuObserver>>>,
    /// Bumped on every productive step on either side: the starvation
    /// detector's progress witness.
    epoch: AtomicU64,
    stop: AtomicBool,
    /// Sides that have reached the halt condition.
    done: AtomicU64,
}

/// Runs `f` against the installed observer (serialized through its mutex)
/// or, when none is installed, a no-op one that skips the mutex entirely.
fn with_observer<R>(
    observer: Option<&Mutex<Box<dyn EmuObserver>>>,
    f: impl FnOnce(&mut dyn EmuObserver) -> R,
) -> R {
    match observer {
        Some(m) => f(&mut SharedObserver::new(m)),
        None => f(&mut NoopObserver),
    }
}

/// The endpoint engine: the simulator and accelerator ports plus the run
/// knobs.
pub(crate) struct EndpointCore<M: DomainModel> {
    /// `[simulator, accelerator]`.
    ports: [Port<M>; 2],
    config: CoEmuConfig,
    opts: ThreadedOpts,
    /// `None` when no observer is installed, so the side threads skip the
    /// serializing mutex entirely on their hot path.
    observer: Option<Mutex<Box<dyn EmuObserver>>>,
}

impl<M: DomainModel> EndpointCore<M> {
    /// Builds the protocol engine pair over the two endpoints (simulator
    /// side first).
    pub(crate) fn new(
        (sim_model, acc_model): (M, M),
        (sim_end, acc_end): (Box<dyn Link>, Box<dyn Link>),
        config: CoEmuConfig,
        opts: ThreadedOpts,
        observer: Option<Box<dyn EmuObserver>>,
    ) -> Self {
        let (sim, acc) = build_wrapper_pair(sim_model, acc_model, &config);
        EndpointCore {
            ports: [
                Port::new(Side::Simulator, sim, sim_end, &config),
                Port::new(Side::Accelerator, acc, acc_end, &config),
            ],
            config,
            opts,
            observer: observer.map(Mutex::new),
        }
    }

    /// Non-blocking readiness of both endpoints (the farm's parking probe):
    /// data anywhere wins, then death, then idleness.
    pub(crate) fn readiness(&mut self) -> Readiness {
        readiness(&mut self.ports)
    }

    /// Dismantles the engine, salvaging both models (simulator side first),
    /// the configuration, and the observer for a rebuild on fresh links;
    /// endpoints, channels, and ledgers are transport-scoped or restored
    /// from a checkpoint.
    pub(crate) fn into_parts(self) -> (M, M, CoEmuConfig, Box<dyn EmuObserver>) {
        let observer = match self.observer {
            Some(m) => m.into_inner().unwrap_or_else(PoisonError::into_inner),
            None => Box::new(NoopObserver),
        };
        let [sim, acc] = self.ports;
        (
            sim.wrapper.into_model(),
            acc.wrapper.into_model(),
            self.config,
            observer,
        )
    }
}

impl<M: DomainModel + Send> Engine<M> for EndpointCore<M> {
    fn wrappers(&self) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        let [sim, acc] = &self.ports;
        (&sim.wrapper, &acc.wrapper)
    }

    fn channels(&self) -> Vec<(&CostedChannel<Box<dyn Link>>, &TimeLedger)> {
        self.ports.iter().map(|p| (&p.ch, &p.ledger)).collect()
    }

    fn config(&self) -> &CoEmuConfig {
        &self.config
    }

    /// Spawns a thread for the simulator side, runs the accelerator side on
    /// the calling thread, and runs both to the boundary-halt condition;
    /// returns after joining the spawned thread, the simulator side's error
    /// first.
    fn run_to(&mut self, cycles: u64) -> Result<(), SimError> {
        let run = RunShared {
            target: cycles,
            costs: self.config.costs(),
            opts: self.opts,
            observer: self.observer.as_ref(),
            epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            done: AtomicU64::new(0),
        };
        let run = &run;
        let [sim, acc] = &mut self.ports;
        thread::scope(|s| {
            let handle = s.spawn(move || run_side(sim, run));
            let acc = run_side(acc, run);
            let sim = handle.join().expect("domain thread panicked");
            sim.and(acc)
        })
    }

    /// One bounded co-operative slice: both ports stepped round-robin *on
    /// the calling thread*, against the same channels, ledgers, and
    /// batching the threaded runner uses. The message sequence over the
    /// link is the threaded runner's — stepping order cannot reorder
    /// packets that cross a medium, the halt condition is the same
    /// deterministic protocol event, and the halt-linger drains happen at
    /// the same points — so traces, statistics, and ledgers stay
    /// bit-identical to threaded (and queue) runs.
    ///
    /// Where the threaded runner parks a blocked side in
    /// `wait_for_packet`, this returns [`SliceStatus::Idle`] so the caller
    /// can multiplex the wait (the session farm parks it on a
    /// [poll-set](predpkt_channel::PollSet)). Starvation detection therefore
    /// also moves to the caller — with one exception: a *dead* medium with
    /// nothing deliverable fails fast with [`SimError::Deadlock`].
    fn slice_to(&mut self, target: u64, max_steps: u32) -> Result<SliceStatus, SimError> {
        let costs = self.config.costs();
        let EndpointCore {
            ports, observer, ..
        } = self;
        with_observer(observer.as_ref(), |obs| {
            for _ in 0..max_steps {
                if all_halted(ports, target) {
                    // The flushes are no-ops where a linger drain already
                    // pushed the final outbox out.
                    finish_all(ports);
                    return Ok(SliceStatus::Done);
                }
                let mut worked = false;
                for p in ports.iter_mut() {
                    if p.halted(target) {
                        // Halt-linger: the final message of the run may
                        // still sit in the batching outbox (recv flushes
                        // it), and a reliability layer may owe the peer
                        // retransmissions and must keep consuming
                        // acknowledgements. Anything drained here is
                        // recovery-layer chatter — protocol traffic stops at
                        // the boundary.
                        let _ = p.ch.recv(p.role);
                        continue;
                    }
                    worked |= p.step(&costs, obs)? == Progress::Worked;
                }
                let deliverable: usize = ports
                    .iter()
                    .filter(|p| !p.halted(target))
                    .map(|p| p.ch.pending(p.role))
                    .sum();
                if !worked && deliverable == 0 {
                    // Nothing locally decoded — but frames may be in flight
                    // inside the media (kernel socket buffer, ring). Probe
                    // both endpoints without blocking.
                    match readiness(ports) {
                        // Data just landed: keep stepping, it is deliverable
                        // on the next round.
                        Readiness::Ready => {}
                        Readiness::Idle => return Ok(SliceStatus::Idle),
                        Readiness::Dead => {
                            return Err(SimError::Deadlock {
                                cycle: min_cycle(ports),
                            })
                        }
                    }
                }
            }
            // The budget may have run out on exactly the round that
            // finished.
            if all_halted(ports, target) {
                finish_all(ports);
                return Ok(SliceStatus::Done);
            }
            Ok(SliceStatus::Working)
        })
    }

    /// Fills `ckpt` with both ports' wrapper, channel, and ledger sections.
    /// Runs between runs (the side threads are joined), so `&self` access
    /// is race-free; endpoint transports serialize nothing — in-flight
    /// frames in an external medium are healed on resume by a reliability
    /// layer's re-armed window.
    fn save_sections(&self, ckpt: &mut SessionCheckpoint) -> Result<(), CheckpointError> {
        if let Some(err) = self.ports.iter().find_map(|p| p.wrapper.poisoned()) {
            return Err(CheckpointError::Poisoned(err.clone()));
        }
        if !self
            .ports
            .iter()
            .all(|p| p.wrapper.at_transition_boundary())
        {
            return Err(CheckpointError::NotAtBoundary);
        }
        for kind in PORT_SECTIONS {
            for p in &self.ports {
                let state = save_section(|w| match kind {
                    "wrapper" => p.wrapper.checkpoint_save(w),
                    "channel" => p.ch.save(w),
                    _ => p.ledger.save(w),
                });
                ckpt.push_section(&p.label(kind), state);
            }
        }
        Ok(())
    }

    /// Restores both ports from their sections. A checkpoint with the wrong
    /// shape is rejected before anything is touched; a section that fails
    /// mid-way poisons both wrappers, so the engine refuses to step until a
    /// full restore succeeds.
    fn restore_sections(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        for kind in PORT_SECTIONS {
            for p in &self.ports {
                ckpt.section(&p.label(kind))?;
            }
        }
        let result = PORT_SECTIONS.into_iter().try_for_each(|kind| {
            self.ports.iter_mut().try_for_each(|p| {
                let label = p.label(kind);
                restore_section(ckpt, &label, |r| match kind {
                    "wrapper" => p.wrapper.checkpoint_restore(r),
                    "channel" => p.ch.restore(r),
                    _ => p.ledger.restore(r),
                })
            })
        });
        if let Err(CheckpointError::Snapshot { source, .. }) = &result {
            for p in &mut self.ports {
                p.wrapper.poison(source.clone());
            }
        }
        result
    }
}

fn all_halted<M: DomainModel>(ports: &[Port<M>; 2], target: u64) -> bool {
    ports.iter().all(|p| p.halted(target))
}

fn finish_all<M: DomainModel>(ports: &mut [Port<M>; 2]) {
    for p in ports {
        p.finish();
    }
}

fn readiness<M: DomainModel>(ports: &mut [Port<M>; 2]) -> Readiness {
    ports.iter_mut().fold(Readiness::Idle, |r, p| {
        r.combine(p.ch.transport_mut().readiness())
    })
}

fn min_cycle<M: DomainModel>(ports: &[Port<M>; 2]) -> u64 {
    let [sim, acc] = ports;
    sim.wrapper.cycle().min(acc.wrapper.cycle())
}

/// The per-side thread body. A side steps its port until the halt
/// condition; then it flushes its final batched message, announces itself
/// done, and lingers pumping acknowledgements on its link until the other
/// side is done too.
fn run_side<M: DomainModel>(p: &mut Port<M>, run: &RunShared<'_>) -> Result<(), SimError> {
    with_observer(run.observer, |obs| {
        let mut blocked_at: Option<(u64, Instant)> = None;
        let mut halted = false;
        loop {
            if run.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            if p.halted(run.target) {
                if !halted {
                    halted = true;
                    // The final message may still sit in the batching
                    // outbox: push it out before lingering, or the peer
                    // would starve.
                    p.finish();
                    run.done.fetch_add(1, Ordering::AcqRel);
                }
                if run.done.load(Ordering::Acquire) >= 2 {
                    return Ok(());
                }
                // The halt-linger: this side is finished, but a per-side
                // reliability layer may still owe the peer retransmissions
                // and must keep consuming acknowledgements — returning now
                // would strand a peer whose link dropped an in-flight frame.
                // Protocol traffic stops at the boundary, so anything
                // drained here is recovery-layer chatter.
                if p.ch.transport_mut().wait_for_packet(run.opts.poll_interval) {
                    let _ = p.ch.recv(p.role);
                }
                continue;
            }
            match p.step(&run.costs, obs) {
                Ok(Progress::Worked) => {
                    run.epoch.fetch_add(1, Ordering::AcqRel);
                    blocked_at = None;
                    continue;
                }
                Ok(Progress::Blocked) => {}
                Err(e) => {
                    run.stop.store(true, Ordering::Release);
                    return Err(e);
                }
            }
            // The port is blocked: starvation detection via the shared
            // progress epoch. This is wall-clock time, so an extreme OS
            // scheduling stall is indistinguishable from protocol
            // starvation.
            let now_epoch = run.epoch.load(Ordering::Acquire);
            match blocked_at {
                Some((e, since)) if e == now_epoch => {
                    if since.elapsed() >= run.opts.deadlock_timeout {
                        run.stop.store(true, Ordering::Release);
                        return Err(SimError::Deadlock {
                            cycle: p.wrapper.cycle(),
                        });
                    }
                }
                _ => blocked_at = Some((now_epoch, Instant::now())),
            }
            // Wait one short slice for traffic on the link.
            if run.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            if !p.halted(run.target) {
                p.ch.transport_mut().wait_for_packet(run.opts.poll_interval);
            }
        }
    })
}
