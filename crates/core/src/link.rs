//! Lowering a [`TransportSelect`] into boxed link stacks — the one place a
//! backend selection turns into transports, shared by the two-domain
//! session and the N-domain fabric builders — plus the folds both read
//! their per-link counters and failures through.

use crate::coemu::{ConfigError, SliceStatus};
use crate::session::{ReliableInner, SessionError, ShmOptions, ThreadedOpts, TransportSelect};
use predpkt_channel::{
    ChannelCostModel, Fabric, FaultSpec, Link, LossyTransport, QueueTransport, ReliableConfig,
    ReliableTransport, RetryExhausted, Side, TransportDead,
};
use predpkt_sim::SimError;

/// The media a selection lowers to.
pub(crate) enum Medium {
    /// One in-process medium both domains share (two-domain sessions only).
    Shared(Box<dyn Link>),
    /// One endpoint pair per edge of a full mesh.
    Mesh(Fabric<Box<dyn Link>>),
}

/// What lowering fixed at build time besides the media.
pub(crate) struct LinkPlan {
    /// The stable backend name (telemetry and checkpoint stamps).
    pub(crate) backend: &'static str,
    /// The seed a retry exhaustion reports for replay: the fault plan's,
    /// 0 without one.
    pub(crate) replay_seed: u64,
    /// Whether the session reports fault counters. A shared-medium fault
    /// layer always does; the per-side layers of socket and ring links only
    /// when their plan can fire (without one they are transparent shims,
    /// and all-zero counters would wrongly suggest injection was asked for).
    pub(crate) reports_faults: bool,
    /// Scheduling knobs for the endpoint runners.
    pub(crate) opts: ThreadedOpts,
    /// Whether a mesh is stepped co-operatively on the calling thread (the
    /// queue backends of a fabric) rather than on one thread per domain.
    pub(crate) cooperative: bool,
}

/// A medium's backend names: bare, reliable, fabric, reliable fabric.
macro_rules! backends {
    ($medium:literal) => {
        [
            $medium,
            concat!("reliable+", $medium),
            concat!("fabric+", $medium),
            concat!("fabric+reliable+", $medium),
        ]
    };
}

/// Lowers `select` into link stacks: for a two-domain session
/// (`fabric = None`) a shared medium (queue, lossy queue) or a one-edge
/// mesh, for a fabric of `n` domains an `n`-domain mesh (its queue
/// backends run co-operatively over in-process endpoints).
///
/// Each stack is built bottom-up: the medium; a fault layer where the
/// select carries a fault plan — the lossy queue, and every socket or ring
/// endpoint (a missing plan there is a transparent one, so the checkpoint
/// layout never depends on it); and an ack-and-retransmit layer for
/// [`TransportSelect::Reliable`], scoped to its side on endpoints. Every
/// knob is validated before any transport is built.
///
/// # Errors
///
/// [`SessionError::Config`] for an invalid fault plan or reliability knob
/// and for a lossy-queue fabric; [`SessionError::Io`] when sockets or
/// region files cannot be set up.
pub(crate) fn lower(
    select: TransportSelect,
    fabric: Option<usize>,
    model: ChannelCostModel,
) -> Result<(Medium, LinkPlan), SessionError> {
    let (base, reliable) = match select {
        TransportSelect::Queue => (ReliableInner::Queue, None),
        TransportSelect::Lossy(spec) => (ReliableInner::Lossy(spec), None),
        TransportSelect::Threaded(opts) => (ReliableInner::Threaded(opts), None),
        TransportSelect::Tcp(opts) => (ReliableInner::Tcp(opts), None),
        TransportSelect::Shm(opts) => (ReliableInner::Shm(opts), None),
        TransportSelect::Reliable {
            inner,
            window,
            retry_budget,
        } => (
            inner,
            Some(
                ReliableConfig::default()
                    .window(window)
                    .retry_budget(retry_budget),
            ),
        ),
    };
    let (names, fault, opts) = match base {
        ReliableInner::Queue => (backends!("queue"), None, ThreadedOpts::default()),
        ReliableInner::Lossy(spec) => (backends!("lossy"), Some(spec), ThreadedOpts::default()),
        ReliableInner::Threaded(opts) => (backends!("threaded"), None, opts),
        ReliableInner::Tcp(opts) => (backends!("tcp"), opts.fault, opts.threaded),
        ReliableInner::Shm(opts) => (backends!("shm"), opts.fault, opts.threaded),
    };
    if let Some(spec) = fault {
        spec.validate().map_err(ConfigError::invalid_fault_spec)?;
    }
    if let Some(config) = &reliable {
        config
            .validate()
            .map_err(ConfigError::invalid_reliable_config)?;
    }
    let plan = match base {
        ReliableInner::Lossy(spec) => Some(spec),
        _ => fault.filter(FaultSpec::is_active),
    };
    let reliable = reliable.map(|config| (config, model));
    let domains = fabric.unwrap_or(2);
    let medium = match (base, fabric) {
        (ReliableInner::Queue | ReliableInner::Lossy(_), None) => {
            Medium::Shared(stack(QueueTransport::new(), fault, reliable, None)?)
        }
        (ReliableInner::Lossy(_), Some(_)) => {
            return Err(SessionError::Config(ConfigError::LossyFabric))
        }
        (ReliableInner::Queue | ReliableInner::Threaded(_), _) => {
            mesh(Fabric::threaded_mesh(domains), None, reliable)?
        }
        (ReliableInner::Tcp(opts), _) => mesh(
            Fabric::tcp_mesh(domains).map_err(SessionError::Io)?,
            Some(opts.fault),
            reliable,
        )?,
        (ReliableInner::Shm(opts), _) => {
            mesh(shm_mesh(domains, &opts)?, Some(opts.fault), reliable)?
        }
    };
    let plan = LinkPlan {
        backend: names[2 * usize::from(fabric.is_some()) + usize::from(reliable.is_some())],
        replay_seed: plan.map_or(0, |spec| spec.seed),
        reports_faults: plan.is_some(),
        opts,
        cooperative: matches!(base, ReliableInner::Queue),
    };
    Ok((medium, plan))
}

/// Wraps every endpoint of `mesh` in its stack. `fault` is `Some` when the
/// medium carries a fault layer: each endpoint then gets its edge's and
/// side's plan derived from the base plan ([`edge_fault_spec`]).
fn mesh<E: Link + 'static>(
    mesh: Fabric<E>,
    fault: Option<Option<FaultSpec>>,
    reliable: Option<(ReliableConfig, ChannelCostModel)>,
) -> Result<Medium, SessionError> {
    let (domains, edges, links) = mesh.into_parts();
    let links = links
        .into_iter()
        .enumerate()
        .map(|(edge, (sim, acc))| {
            let end = |end: E, side: Side| {
                let spec = fault.map(|base| edge_fault_spec(base, edge, side));
                stack(end, spec, reliable, Some(side))
            };
            Ok((end(sim, Side::Simulator)?, end(acc, Side::Accelerator)?))
        })
        .collect::<Result<Vec<_>, SessionError>>()?;
    Ok(Medium::Mesh(Fabric::from_parts(domains, edges, links)))
}

/// Stacks the optional fault and reliability layers on `end`, through the
/// fallible constructors: every knob was validated up front, so this cannot
/// fail, but the session layer keeps no panicking path to the channel
/// constructors.
fn stack<E: Link + 'static>(
    end: E,
    fault: Option<FaultSpec>,
    reliable: Option<(ReliableConfig, ChannelCostModel)>,
    side: Option<Side>,
) -> Result<Box<dyn Link>, SessionError> {
    fn reliable_over<T: Link + 'static>(
        inner: T,
        reliable: Option<(ReliableConfig, ChannelCostModel)>,
        side: Option<Side>,
    ) -> Result<Box<dyn Link>, SessionError> {
        let Some((config, model)) = reliable else {
            return Ok(Box::new(inner));
        };
        let layer = ReliableTransport::try_new(inner, config, model)
            .map_err(ConfigError::invalid_reliable_config)?;
        Ok(match side {
            Some(side) => Box::new(layer.for_side(side)),
            None => Box::new(layer),
        })
    }
    match fault {
        None => reliable_over(end, reliable, side),
        Some(spec) => reliable_over(
            LossyTransport::try_new(end, spec).map_err(ConfigError::invalid_fault_spec)?,
            reliable,
            side,
        ),
    }
}

/// The fault plan of one endpoint: the base plan's seed decorrelated per
/// edge (edge 0 keeps it, so a two-domain session and a one-edge fabric
/// see the same fault stream), then per side — the accelerator end gets a
/// decorrelated seed so the two directions draw independent streams. A
/// missing base plan is a transparent one.
fn edge_fault_spec(fault: Option<FaultSpec>, edge: usize, side: Side) -> FaultSpec {
    let base = fault.unwrap_or(FaultSpec::none(0));
    let seed = base.seed ^ (edge as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    let seed = match side {
        Side::Simulator => seed,
        Side::Accelerator => seed ^ 0x9e37_79b9_7f4a_7c15,
    };
    FaultSpec { seed, ..base }
}

/// Builds the shm endpoint mesh an [`ShmOptions`] asks for (heap region, or
/// one `/dev/shm` file under `file_backed`).
fn shm_mesh(
    domains: usize,
    opts: &ShmOptions,
) -> Result<Fabric<predpkt_channel::ShmEndpoint>, SessionError> {
    if opts.file_backed {
        #[cfg(unix)]
        {
            Fabric::shm_file_mesh(domains, opts.ring_words).map_err(SessionError::Io)
        }
        #[cfg(not(unix))]
        {
            Err(SessionError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "file-backed shm regions require a unix host",
            )))
        }
    } else {
        Ok(Fabric::shm_mesh(domains, opts.ring_words))
    }
}

/// Merges per-link counter reports; `None` when no link reports any.
pub(crate) fn merge_reports<S>(
    reports: impl IntoIterator<Item = Option<S>>,
    merge: impl Fn(&mut S, &S),
) -> Option<S> {
    reports.into_iter().flatten().reduce(|mut acc, s| {
        merge(&mut acc, &s);
        acc
    })
}

/// Converts an *errored* run over links that may hold a reliability layer:
/// a recorded [`RetryExhausted`] failure takes precedence over the raw
/// engine error (typically the deadlock the abandonment surfaced as). A run
/// that reached its target is reported as success even if a failure was
/// recorded along the way — on the threaded backends an OS scheduling stall
/// can burn the retry budget spuriously, and a completed run proves every
/// abandoned frame had in fact been delivered.
pub(crate) fn map_reliable_outcome(
    result: Result<(), SimError>,
    failure: impl FnOnce() -> Option<RetryExhausted>,
    seed: u64,
    cycle: u64,
) -> Result<(), SimError> {
    map_reliable_slice(result.map(|()| SliceStatus::Done), failure, seed, cycle).map(drop)
}

/// [`map_reliable_outcome`] for sliced runs: additionally, an *idle* session
/// with an abandoned frame recorded is hopeless — the abandoned data can
/// never arrive, so the exhaustion surfaces immediately instead of letting a
/// scheduler park the session until its deadlock window expires. A slice
/// that reaches [`SliceStatus::Done`] still reports success even with a
/// failure recorded (same rule as the blocking runners). `failure` is only
/// consulted for errored and idle slices.
pub(crate) fn map_reliable_slice(
    result: Result<SliceStatus, SimError>,
    failure: impl FnOnce() -> Option<RetryExhausted>,
    seed: u64,
    cycle: u64,
) -> Result<SliceStatus, SimError> {
    if let Ok(SliceStatus::Done | SliceStatus::Working) = result {
        return result;
    }
    match failure() {
        Some(f) => Err(SimError::RetryBudgetExhausted {
            seed,
            seq: f.seq as u64,
            retries: f.retries,
            cycle,
            idle_picos: f.idle.as_picos(),
            peer_gone: f.cause == TransportDead::PeerGone,
        }),
        None => result,
    }
}
