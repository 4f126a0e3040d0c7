//! N-domain fabric sessions, and the endpoint runner every endpoint-backed
//! session runs on.
//!
//! A [`FabricSession`] joins `N ≥ 2` domains over a full-mesh
//! [`Fabric`] of links. Routing is structural and single-hop: every ordered
//! pair of domains owns a dedicated directed link, so a packet for domain
//! `d` goes out on the one link that ends at `d` and no domain ever
//! forwards another pair's traffic. On each edge the lower-numbered domain
//! plays [`Side::Simulator`] and the higher-numbered one
//! [`Side::Accelerator`] (fixed by [`FabricEdge::role_of`]), and the pair
//! runs the paper's prediction-packetizing protocol over their link — a
//! domain therefore hosts one **port** (protocol engine + costed channel +
//! ledger) per peer, acting as leader toward some peers and lagger toward
//! others.
//!
//! Each edge builds its own, independent model pair from the blueprint:
//! no state crosses ports. A fabric run is therefore `N(N−1)/2` pairwise
//! co-emulations multiplexed onto `N` domain threads, and each edge
//! commits exactly what a two-domain session of the same blueprint
//! commits.
//!
//! ## N-way boundary halt
//!
//! A domain halts only when *every one of its ports* stands at a transition
//! boundary with the target cycle count committed — the same deterministic
//! protocol event a two-domain session halts on, per edge. A fully halted
//! domain keeps pumping acknowledgements on **all** of its links until
//! every other domain has halted too, so per-link reliability layers can
//! finish retransmissions and no peer is ever stranded mid-recovery.
//!
//! The same runner carries every endpoint-backed
//! [`EmuSession`](crate::EmuSession): a two-domain session over threaded,
//! TCP or shm endpoints is its one-edge, two-domain case, which the fabric
//! conformance suite asserts bit-for-bit.
//!
//! ## Backends and determinism
//!
//! [`FabricSessionBuilder::link`] takes the two-domain
//! [`TransportSelect`]: co-operative in-process links (`Queue`, the
//! baseline), real threads over mpsc links (`Threaded`), TCP loopback
//! sockets (`Tcp`), shared-memory rings packed into one region (`Shm`), and
//! a per-link ack-and-retransmit layer over any of them (`Reliable`). The
//! lossy in-process queue has no fabric form. All backends halt at
//! transition boundaries, so per-domain ledgers, traces, and channel
//! statistics are bit-identical across them — the N-domain extension of
//! the two-domain conformance property.

use crate::blueprint::SocBlueprint;
use crate::checkpoint::{restore_section, save_section, CheckpointError, SessionCheckpoint};
use crate::coemu::{build_wrapper_pair, CoEmuConfig, ConfigError, SliceStatus};
use crate::link::{lower, map_reliable_outcome, merge_reports, LinkPlan, Medium};
use crate::model::DomainModel;
use crate::observer::{EmuObserver, NoopObserver, SharedObserver};
use crate::report::PerfReport;
use crate::session::{Engine, SessionError, ThreadedOpts, TransportSelect};
use crate::wrapper::{merge_committed_traces, ChannelWrapper, CwStats, DomainCosts, Progress};
use crate::AhbDomainModel;
use predpkt_channel::{
    BatchStats, ChannelStats, CostedChannel, Fabric, FabricEdge, FaultStats, Link, Readiness,
    RecoveryStats, RetryExhausted, Side, Transport,
};
use predpkt_predict::PaperSuite;
use predpkt_sim::{SimError, Snapshot, TimeLedger, Trace};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Instant;

/// Scheduling rounds per slice when a co-operative fabric runs to
/// completion.
const COOPERATIVE_SLICE: u32 = 1024;

/// The checkpoint components every port serializes, in section order.
const PORT_SECTIONS: [&str; 3] = ["wrapper", "channel", "ledger"];

/// One domain-side terminus of a fabric edge: the protocol engine for that
/// edge, its costed channel over the edge's endpoint, and its share of the
/// domain's virtual-time ledger.
struct FabricPort<M: DomainModel> {
    edge: usize,
    role: Side,
    wrapper: ChannelWrapper<M>,
    ch: CostedChannel<Box<dyn Link>>,
    ledger: TimeLedger,
}

impl<M: DomainModel> FabricPort<M> {
    fn halted(&self, target: u64) -> bool {
        self.wrapper.at_transition_boundary() && self.wrapper.cycle() >= target
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
    /// `"wrapper.sim"`, `"channel.acc"`, … on edge 0, suffixed with the
    /// edge index beyond it.
    fn label(&self, kind: &str) -> String {
        let side = match self.role {
            Side::Simulator => "sim",
            Side::Accelerator => "acc",
        };
        match self.edge {
            0 => format!("{kind}.{side}"),
            edge => format!("{kind}.{side}.{edge}"),
        }
    }
}

/// What every domain thread of one threaded run shares.
struct RunShared<'a> {
    target: u64,
    domains: u64,
    costs: [DomainCosts; 2],
    opts: ThreadedOpts,
    observer: Option<&'a Mutex<Box<dyn EmuObserver>>>,
    /// Bumped on every productive step anywhere: the starvation detector's
    /// progress witness.
    epoch: AtomicU64,
    stop: AtomicBool,
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

/// The endpoint engine: per-domain port lists over a full mesh of links,
/// plus the run knobs. It is the only endpoint runner — a two-domain
/// session over endpoints is its one-edge case.
pub(crate) struct FabricCore<M: DomainModel> {
    /// `ports[d]` are domain `d`'s ports in edge order.
    ports: Vec<Vec<FabricPort<M>>>,
    edges: Vec<FabricEdge>,
    config: CoEmuConfig,
    opts: ThreadedOpts,
    /// Step every domain on the calling thread instead of one thread per
    /// domain.
    cooperative: bool,
    /// `None` when no observer is installed, so the domain threads skip the
    /// serializing mutex entirely on their hot path.
    observer: Option<Mutex<Box<dyn EmuObserver>>>,
}

impl<M: DomainModel> FabricCore<M> {
    /// Builds one protocol engine pair per edge of `mesh`, each from a
    /// fresh model pair drawn from `pair`, and distributes the resulting
    /// ports to their domains.
    pub(crate) fn new(
        mesh: Fabric<Box<dyn Link>>,
        mut pair: impl FnMut() -> Result<(M, M), SessionError>,
        config: CoEmuConfig,
        plan: &LinkPlan,
        observer: Option<Box<dyn EmuObserver>>,
    ) -> Result<Self, SessionError> {
        let (domains, edges, links) = mesh.into_parts();
        let mut ports: Vec<Vec<FabricPort<M>>> = (0..domains).map(|_| Vec::new()).collect();
        for ((edge_index, edge), (sim_end, acc_end)) in edges.iter().enumerate().zip(links) {
            let (sim_model, acc_model) = pair()?;
            let (sim, acc) = build_wrapper_pair(sim_model, acc_model, &config);
            let port = |role: Side, wrapper, end| {
                let mut ch = CostedChannel::with_transport(end, config.channel);
                // Per-scheduling-slice batching: a port's sends are parked
                // in the channel outbox and flushed when it next reads the
                // channel or halts — consecutive messages (a report followed
                // by the next transition's opener) coalesce into one
                // physical write. Billing is identical to the unbatched
                // path, so traces, statistics, and ledgers stay
                // bit-identical to the queue baseline (the conformance
                // harness asserts exactly that).
                ch.set_batching(true);
                FabricPort {
                    edge: edge_index,
                    role,
                    wrapper,
                    ch,
                    ledger: TimeLedger::new(),
                }
            };
            ports[edge.a()].push(port(Side::Simulator, sim, sim_end));
            ports[edge.b()].push(port(Side::Accelerator, acc, acc_end));
        }
        Ok(FabricCore {
            ports,
            edges,
            config,
            opts: plan.opts,
            cooperative: plan.cooperative,
            observer: observer.map(Mutex::new),
        })
    }

    /// Every port, domain by domain.
    fn all_ports(&self) -> impl Iterator<Item = &FabricPort<M>> {
        self.ports.iter().flatten()
    }

    pub(crate) fn committed_cycles(&self) -> u64 {
        min_cycle(&self.ports)
    }

    /// The two engines of edge `edge` (simulator-role first), wherever their
    /// domains keep them.
    pub(crate) fn edge_wrappers(&self, edge: usize) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        let e = self.edges[edge];
        let find = |domain: usize| {
            self.ports[domain]
                .iter()
                .find(|p| p.edge == edge)
                .expect("every edge has a port at both ends")
        };
        (&find(e.a()).wrapper, &find(e.b()).wrapper)
    }

    /// The first recorded frame abandonment across every link's stacks, in
    /// deterministic (edge, side) order.
    pub(crate) fn failure(&self) -> Option<RetryExhausted> {
        self.all_ports()
            .filter_map(|p| {
                Some((
                    (p.edge, p.role == Side::Accelerator),
                    p.ch.transport().failure()?,
                ))
            })
            .min_by_key(|(at, _)| *at)
            .map(|(_, f)| f)
    }

    /// Runs every domain to the N-way boundary-halt condition: stepped
    /// co-operatively on the calling thread for the queue backends, one
    /// thread per domain otherwise.
    pub(crate) fn run(&mut self, cycles: u64) -> Result<(), SimError>
    where
        M: Send,
    {
        if self.cooperative {
            self.run_cooperative(cycles)
        } else {
            self.run_threaded(cycles)
        }
    }

    /// Spawns one thread per domain but the last, which runs on the calling
    /// thread, and runs all of them to the N-way boundary-halt condition;
    /// returns after joining every thread.
    fn run_threaded(&mut self, cycles: u64) -> Result<(), SimError>
    where
        M: Send,
    {
        let run = RunShared {
            target: cycles,
            domains: self.ports.len() as u64,
            costs: self.config.costs(),
            opts: self.opts,
            observer: self.observer.as_ref(),
            epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            done: AtomicU64::new(0),
        };
        let run = &run;
        let results = thread::scope(|s| {
            let (last, rest) = self
                .ports
                .split_last_mut()
                .expect("a fabric has at least two domains");
            let handles: Vec<_> = rest
                .iter_mut()
                .map(|ports| s.spawn(move || run_domain(ports, run)))
                .collect();
            let last = run_domain(last, run);
            handles
                .into_iter()
                .map(|h| h.join().expect("domain thread panicked"))
                .chain([last])
                .collect::<Vec<_>>()
        });
        results.into_iter().collect()
    }

    /// The co-operative runner: [`run_slice`](Self::run_slice) until done,
    /// pacing idle slices by the poll interval and bounding starvation by
    /// the deadlock timeout.
    fn run_cooperative(&mut self, cycles: u64) -> Result<(), SimError> {
        let mut idle_since: Option<Instant> = None;
        loop {
            match self.run_slice(cycles, COOPERATIVE_SLICE)? {
                SliceStatus::Done => return Ok(()),
                SliceStatus::Working => idle_since = None,
                SliceStatus::Idle => {
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= self.opts.deadlock_timeout {
                        return Err(SimError::Deadlock {
                            cycle: self.committed_cycles(),
                        });
                    }
                    thread::sleep(self.opts.poll_interval);
                }
            }
        }
    }

    /// One bounded co-operative slice: every domain's every port stepped
    /// round-robin *on the calling thread*, against the same channels,
    /// ledgers, and batching the threaded runner uses. The message sequence
    /// over each link is the threaded runner's — stepping order cannot
    /// reorder packets that cross a medium, the halt condition is the same
    /// deterministic protocol event, and the halt-linger drains happen at
    /// the same points — so traces, statistics, and ledgers stay
    /// bit-identical to threaded (and queue) runs.
    ///
    /// Where the threaded runner parks a blocked domain in
    /// `wait_for_packet`, this returns [`SliceStatus::Idle`] so the caller
    /// can multiplex the wait (the session farm parks it on a
    /// [poll-set](predpkt_channel::PollSet)). Starvation detection therefore
    /// also moves to the caller — with one exception: a *dead* medium with
    /// nothing deliverable fails fast with [`SimError::Deadlock`].
    pub(crate) fn run_slice(
        &mut self,
        target: u64,
        max_steps: u32,
    ) -> Result<SliceStatus, SimError> {
        let costs = self.config.costs();
        let FabricCore {
            ports, observer, ..
        } = self;
        with_observer(observer.as_ref(), |obs| {
            for _ in 0..max_steps {
                if all_halted(ports, target) {
                    // The flushes are no-ops where a linger drain already
                    // pushed the final outbox out.
                    flush_all(ports);
                    return Ok(SliceStatus::Done);
                }
                let mut worked = false;
                for p in ports.iter_mut().flatten() {
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
                    .flatten()
                    .filter(|p| !p.halted(target))
                    .map(|p| p.ch.pending(p.role))
                    .sum();
                if !worked && deliverable == 0 {
                    // Nothing locally decoded — but frames may be in flight
                    // inside the media (kernel socket buffer, ring). Probe
                    // every endpoint without blocking.
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
                flush_all(ports);
                return Ok(SliceStatus::Done);
            }
            Ok(SliceStatus::Working)
        })
    }

    /// Non-blocking readiness of every endpoint (the farm's parking probe):
    /// data anywhere wins, then death, then idleness.
    pub(crate) fn readiness(&mut self) -> Readiness {
        readiness(&mut self.ports)
    }

    /// Dismantles a one-edge engine, salvaging both models (simulator side
    /// first), the configuration, and the observer for a rebuild on fresh
    /// links; endpoints, channels, and ledgers are transport-scoped or
    /// restored from a checkpoint.
    pub(crate) fn into_parts(self) -> (M, M, CoEmuConfig, Box<dyn EmuObserver>) {
        let observer = match self.observer {
            Some(m) => m.into_inner().unwrap_or_else(PoisonError::into_inner),
            None => Box::new(NoopObserver),
        };
        let mut models = self
            .ports
            .into_iter()
            .flatten()
            .map(|p| p.wrapper.into_model());
        let sim = models.next().expect("the simulator-side port");
        let acc = models.next().expect("the accelerator-side port");
        (sim, acc, self.config, observer)
    }
}

impl<M: DomainModel + Send> Engine<M> for FabricCore<M> {
    fn wrappers(&self) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        self.edge_wrappers(0)
    }

    fn channels(&self) -> Vec<(&CostedChannel<Box<dyn Link>>, &TimeLedger)> {
        self.all_ports().map(|p| (&p.ch, &p.ledger)).collect()
    }

    fn config(&self) -> &CoEmuConfig {
        &self.config
    }

    fn run_to(&mut self, cycles: u64) -> Result<(), SimError> {
        self.run(cycles)
    }

    fn slice_to(&mut self, target: u64, max_steps: u32) -> Result<SliceStatus, SimError> {
        self.run_slice(target, max_steps)
    }

    /// Fills `ckpt` with every port's wrapper, channel, and ledger sections.
    /// Runs between runs (the domain threads are joined), so `&self` access
    /// is race-free; endpoint transports serialize nothing — in-flight
    /// frames in an external medium are healed on resume by a reliability
    /// layer's re-armed window.
    fn save_sections(&self, ckpt: &mut SessionCheckpoint) -> Result<(), CheckpointError> {
        if let Some(err) = self.all_ports().find_map(|p| p.wrapper.poisoned()) {
            return Err(CheckpointError::Poisoned(err.clone()));
        }
        if !self.all_ports().all(|p| p.wrapper.at_transition_boundary()) {
            return Err(CheckpointError::NotAtBoundary);
        }
        for kind in PORT_SECTIONS {
            for p in self.all_ports() {
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

    /// Restores every port from its sections. A checkpoint with the wrong
    /// shape is rejected before anything is touched; a section that fails
    /// mid-way poisons every wrapper, so the engine refuses to step until a
    /// full restore succeeds.
    fn restore_sections(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        for kind in PORT_SECTIONS {
            for p in self.all_ports() {
                ckpt.section(&p.label(kind))?;
            }
        }
        let result = PORT_SECTIONS.into_iter().try_for_each(|kind| {
            self.ports.iter_mut().flatten().try_for_each(|p| {
                let label = p.label(kind);
                restore_section(ckpt, &label, |r| match kind {
                    "wrapper" => p.wrapper.checkpoint_restore(r),
                    "channel" => p.ch.restore(r),
                    _ => p.ledger.restore(r),
                })
            })
        });
        if let Err(CheckpointError::Snapshot { source, .. }) = &result {
            for p in self.ports.iter_mut().flatten() {
                p.wrapper.poison(source.clone());
            }
        }
        result
    }
}

fn all_halted<M: DomainModel>(ports: &[Vec<FabricPort<M>>], target: u64) -> bool {
    ports.iter().flatten().all(|p| p.halted(target))
}

fn flush_all<M: DomainModel>(ports: &mut [Vec<FabricPort<M>>]) {
    for p in ports.iter_mut().flatten() {
        p.ch.flush();
    }
}

fn readiness<M: DomainModel>(ports: &mut [Vec<FabricPort<M>>]) -> Readiness {
    ports.iter_mut().flatten().fold(Readiness::Idle, |r, p| {
        r.combine(p.ch.transport_mut().readiness())
    })
}

fn min_cycle<M: DomainModel>(ports: &[Vec<FabricPort<M>>]) -> u64 {
    ports
        .iter()
        .flatten()
        .map(|p| p.wrapper.cycle())
        .min()
        .unwrap_or(0)
}

/// The per-domain thread body. A domain steps its non-halted ports
/// round-robin; a port that reaches the halt condition early keeps draining
/// its link non-blocking (the per-port halt-linger — its recv also flushes
/// any batched final message). Once *all* ports stand halted the domain
/// flushes everything, announces itself done, and lingers pumping
/// acknowledgements on every link until every domain is done.
fn run_domain<M: DomainModel>(
    ports: &mut [FabricPort<M>],
    run: &RunShared<'_>,
) -> Result<(), SimError> {
    with_observer(run.observer, |obs| {
        let mut blocked_at: Option<(u64, Instant)> = None;
        let mut halted = false;
        loop {
            if run.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            if ports.iter().all(|p| p.halted(run.target)) {
                if !halted {
                    halted = true;
                    // Final messages may still sit in the batching outboxes:
                    // push them out before lingering, or a peer would
                    // starve.
                    for p in ports.iter_mut() {
                        p.ch.flush();
                    }
                    run.done.fetch_add(1, Ordering::AcqRel);
                }
                if run.done.load(Ordering::Acquire) >= run.domains {
                    return Ok(());
                }
                // The halt-linger: this domain is finished, but per-link
                // reliability layers may still owe peers retransmissions and
                // must keep consuming acknowledgements on *every* link —
                // returning now would strand any peer whose link dropped an
                // in-flight frame. Protocol traffic stops at the boundary,
                // so anything drained here is recovery-layer chatter.
                for p in ports.iter_mut() {
                    if run.stop.load(Ordering::Acquire)
                        || run.done.load(Ordering::Acquire) >= run.domains
                    {
                        break;
                    }
                    if p.ch.transport_mut().wait_for_packet(run.opts.poll_interval) {
                        let _ = p.ch.recv(p.role);
                    }
                }
                continue;
            }
            let mut any_worked = false;
            let mut first_error = None;
            for p in ports.iter_mut() {
                if p.halted(run.target) {
                    // Per-port halt-linger while sibling ports still run:
                    // drain recovery chatter without blocking (recv also
                    // flushes the batching outbox, exactly like the sliced
                    // runner's halted branch).
                    let _ = p.ch.recv(p.role);
                    continue;
                }
                match p.step(&run.costs, obs) {
                    Ok(Progress::Worked) => {
                        run.epoch.fetch_add(1, Ordering::AcqRel);
                        any_worked = true;
                    }
                    Ok(Progress::Blocked) => {}
                    Err(e) => {
                        first_error = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = first_error {
                run.stop.store(true, Ordering::Release);
                return Err(e);
            }
            if any_worked {
                blocked_at = None;
                continue;
            }
            // Every non-halted port is blocked: starvation detection via the
            // shared progress epoch. This is wall-clock time, so an extreme
            // OS scheduling stall is indistinguishable from protocol
            // starvation.
            let now_epoch = run.epoch.load(Ordering::Acquire);
            match blocked_at {
                Some((e, since)) if e == now_epoch => {
                    if since.elapsed() >= run.opts.deadlock_timeout {
                        run.stop.store(true, Ordering::Release);
                        let cycle = ports.iter().map(|p| p.wrapper.cycle()).min().unwrap_or(0);
                        return Err(SimError::Deadlock { cycle });
                    }
                }
                _ => blocked_at = Some((now_epoch, Instant::now())),
            }
            // Wait for traffic on the blocked ports, one short slice each,
            // breaking out as soon as any link has something (the other
            // ports are re-polled on the next round).
            for p in ports.iter_mut() {
                if run.stop.load(Ordering::Acquire) {
                    return Ok(());
                }
                if p.halted(run.target) {
                    continue;
                }
                if p.ch.transport_mut().wait_for_packet(run.opts.poll_interval) {
                    break;
                }
            }
        }
    })
}

/// Builder for a [`FabricSession`]; obtained from
/// [`FabricSession::from_blueprint`].
pub struct FabricSessionBuilder<'bp> {
    blueprint: &'bp SocBlueprint,
    domains: usize,
    config: CoEmuConfig,
    link: TransportSelect,
}

impl FabricSessionBuilder<'_> {
    /// Overrides the configuration (defaults to
    /// [`CoEmuConfig::paper_defaults`]).
    pub fn config(mut self, config: CoEmuConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the operating-mode policy on the current configuration.
    pub fn policy(mut self, policy: crate::ModePolicy) -> Self {
        self.config = self.config.policy(policy);
        self
    }

    /// Selects the backend every link runs over (defaults to the
    /// co-operative queue baseline). One selection applies to all links;
    /// a configured TCP or shm fault plan fires on every link with per-edge
    /// decorrelated seeds.
    pub fn link(mut self, link: TransportSelect) -> Self {
        self.link = link;
        self
    }

    /// Builds the fabric session: the endpoint mesh, then one protocol
    /// engine pair per edge.
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`] for invalid configurations (including fewer
    /// than two domains and the lossy queue backend, which has no fabric
    /// form), [`SessionError::Bus`] for broken blueprints, and
    /// [`SessionError::Io`] for socket or region-file setup failures.
    pub fn build(self) -> Result<FabricSession, SessionError> {
        self.config.validate()?;
        if self.domains < 2 {
            return Err(SessionError::Config(ConfigError::TooFewDomains {
                domains: self.domains,
            }));
        }
        let (medium, plan) = lower(self.link, Some(self.domains), self.config.channel)?;
        let Medium::Mesh(mesh) = medium else {
            unreachable!("a fabric lowers to a mesh")
        };
        let blueprint = self.blueprint;
        let core = FabricCore::new(
            mesh,
            || Ok(blueprint.build_pair_with(&PaperSuite)?),
            self.config,
            &plan,
            None,
        )?;
        Ok(FabricSession { core, plan })
    }
}

/// An N-domain co-emulation over a routed link fabric. See the module docs
/// for topology, routing, and halt semantics.
///
/// ```
/// use predpkt_core::{FabricSession, Side, SocBlueprint, ThreadedOpts, TransportSelect};
/// use predpkt_ahb::engine::BusOp;
/// use predpkt_ahb::masters::TrafficGenMaster;
/// use predpkt_ahb::slaves::MemorySlave;
///
/// let blueprint = SocBlueprint::new()
///     .master(Side::Accelerator, || {
///         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
///     })
///     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
/// let mut session = FabricSession::from_blueprint(&blueprint, 3)
///     .link(TransportSelect::Threaded(ThreadedOpts::default()))
///     .build()?;
/// session.run_until_committed(120)?;
/// for d in 0..session.domains() {
///     let report = session.domain_report(d);
///     assert!(report.committed_cycles() >= 120);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FabricSession {
    core: FabricCore<AhbDomainModel>,
    plan: LinkPlan,
}

impl FabricSession {
    /// Starts a builder for a fabric of `domains` domains over `blueprint`
    /// (every edge builds its own model pair from the blueprint and runs
    /// its traffic between its two ends), with the paper's predictor wiring
    /// and paper-default configuration.
    pub fn from_blueprint(blueprint: &SocBlueprint, domains: usize) -> FabricSessionBuilder<'_> {
        FabricSessionBuilder {
            blueprint,
            domains,
            config: CoEmuConfig::paper_defaults(),
            link: TransportSelect::Queue,
        }
    }

    /// A stable name for the link backend in force (telemetry).
    pub fn backend(&self) -> &'static str {
        self.plan.backend
    }

    /// How many domains the fabric joins.
    pub fn domains(&self) -> usize {
        self.core.ports.len()
    }

    /// The fabric's edge list (lexicographic; see
    /// [`full_mesh`](predpkt_channel::full_mesh)).
    pub fn edges(&self) -> &[FabricEdge] {
        &self.core.edges
    }

    /// Runs until every domain stands halted at a transition boundary with
    /// at least `cycles` cycles committed on each of its ports.
    ///
    /// # Errors
    ///
    /// The same errors as
    /// [`EmuSession::run_until_committed`](crate::EmuSession::run_until_committed),
    /// surfaced from whichever domain hit them first.
    pub fn run_until_committed(&mut self, cycles: u64) -> Result<(), SimError> {
        let result = self.core.run(cycles);
        map_reliable_outcome(
            result,
            || self.core.failure(),
            self.plan.replay_seed,
            self.core.committed_cycles(),
        )
    }

    /// Domain `domain`'s ports in edge order (every domain's with `None`).
    fn ports(&self, domain: Option<usize>) -> impl Iterator<Item = &FabricPort<AhbDomainModel>> {
        let domains = domain.map_or(0..self.domains(), |d| d..d + 1);
        self.core.ports[domains].iter().flatten()
    }

    /// The link stacks of [`ports`](Self::ports).
    fn links(&self, domain: Option<usize>) -> impl Iterator<Item = &dyn Link> {
        self.ports(domain).map(|p| &**p.ch.transport())
    }

    fn merged_ledger(&self, domain: Option<usize>) -> TimeLedger {
        let mut out = TimeLedger::new();
        for p in self.ports(domain) {
            out.merge(&p.ledger);
        }
        out
    }

    fn merged_channel_stats(&self, domain: Option<usize>) -> ChannelStats {
        let mut out = ChannelStats::default();
        for p in self.ports(domain) {
            out.merge(p.ch.stats());
        }
        out
    }

    /// Cycles every domain has committed (the minimum over all ports).
    pub fn committed_cycles(&self) -> u64 {
        self.core.committed_cycles()
    }

    /// Cycles domain `domain` has committed on every one of its ports.
    pub fn domain_committed(&self, domain: usize) -> u64 {
        self.ports(Some(domain))
            .map(|p| p.wrapper.cycle())
            .min()
            .unwrap_or(0)
    }

    /// Domain `domain`'s virtual-time ledger (its ports merged in edge
    /// order).
    pub fn domain_ledger(&self, domain: usize) -> TimeLedger {
        self.merged_ledger(Some(domain))
    }

    /// Domain `domain`'s channel statistics, merged over its links.
    pub fn domain_channel_stats(&self, domain: usize) -> ChannelStats {
        self.merged_channel_stats(Some(domain))
    }

    /// The whole fabric's ledger (every domain merged).
    pub fn ledger(&self) -> TimeLedger {
        self.merged_ledger(None)
    }

    /// The whole fabric's channel statistics (every link counted once per
    /// side, matching the two-domain session's merged view).
    pub fn channel_stats(&self) -> ChannelStats {
        self.merged_channel_stats(None)
    }

    /// Domain `domain`'s performance report: its merged ledger and channel
    /// statistics, its wrapper counters split by the role its ports play
    /// (leader-side engines vs lagger-side engines), and — on reliable
    /// backends — its share of the recovery bill.
    pub fn domain_report(&self, domain: usize) -> PerfReport {
        let (mut sim, mut acc) = (CwStats::default(), CwStats::default());
        for p in self.ports(Some(domain)) {
            match p.role {
                Side::Simulator => sim.merge(p.wrapper.stats()),
                Side::Accelerator => acc.merge(p.wrapper.stats()),
            }
        }
        let report = PerfReport::new(
            self.domain_ledger(domain),
            self.domain_committed(domain),
            self.domain_channel_stats(domain),
            sim,
            acc,
        );
        let report = match self.domain_recovery_stats(domain) {
            Some(recovery) => report.with_recovery(recovery),
            None => report,
        };
        let batch = merge_reports(
            self.links(Some(domain)).map(|l| l.batch_stats()),
            BatchStats::merge,
        );
        match batch {
            Some(batch) => report.with_batch(batch),
            None => report,
        }
    }

    /// Domain `domain`'s merged recovery counters, when the fabric runs
    /// over a reliable backend.
    pub fn domain_recovery_stats(&self, domain: usize) -> Option<RecoveryStats> {
        merge_reports(
            self.links(Some(domain)).map(|l| l.recovery_stats()),
            RecoveryStats::merge,
        )
    }

    /// The whole fabric's merged recovery counters, when reliable.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        merge_reports(
            self.links(None).map(|l| l.recovery_stats()),
            RecoveryStats::merge,
        )
    }

    /// Merged fault counters over every link, when a fault plan that can
    /// fire is in force.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        if !self.plan.reports_faults {
            return None;
        }
        merge_reports(self.links(None).map(|l| l.fault_stats()), FaultStats::merge)
    }

    /// Merges edge `edge`'s two committed local-output traces into full-bus
    /// records, exactly like
    /// [`EmuSession::merged_trace`](crate::EmuSession::merged_trace) does
    /// for the two-domain session.
    pub fn edge_trace(&self, edge: usize, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        let (sim, acc) = self.core.edge_wrappers(edge);
        merge_committed_traces(sim, acc, merge)
    }
}

impl fmt::Debug for FabricSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricSession")
            .field("backend", &self.backend())
            .field("domains", &self.domains())
            .field("edges", &self.edges().len())
            .field("committed", &self.committed_cycles())
            .finish()
    }
}
