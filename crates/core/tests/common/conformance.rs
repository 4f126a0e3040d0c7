//! Cross-transport conformance harness.
//!
//! One reusable fixture answering one question for *every* transport backend:
//! does a session over backend X commit **exactly** what the deterministic
//! `QueueTransport` baseline commits? "Exactly" means bit-identical merged
//! traces, identical committed-cycle counts, identical protocol-level
//! [`ChannelStats`], identical virtual-time ledgers, and identical wrapper
//! statistics — over a matrix of workloads (mode policies × run lengths)
//! irregular enough that every protocol packet kind crosses the channel.
//!
//! The harness replaces the ad-hoc per-variant assertions that used to live
//! in `transport_equivalence.rs`: adding a transport backend now means adding
//! one line to [`conformant_backends`], and the whole matrix — including the
//! reliable layer's clean-link invariants (zero retransmissions, nonzero
//! acks, strictly higher billed words) — applies to it unchanged.
//!
//! Socket-backed variants run over ephemeral localhost ports
//! (`TcpTransport::loopback_pair`), so parallel test processes cannot collide
//! on addresses; CI additionally runs the socket suites single-threaded.

// Each test binary that includes the harness uses a subset of it; the unused
// remainder must not trip `-D warnings`.
#![allow(dead_code)]

use predpkt_channel::{BatchStats, ChannelStats, FaultSpec, RecoveryStats};
use predpkt_core::{
    AhbDomainModel, CoEmuConfig, EmuSession, ModePolicy, ReliableInner, ShmOptions, SocBlueprint,
    TcpOptions, ThreadedOpts, TransportSelect,
};
use predpkt_sim::VirtualTime;
use std::time::Duration;

use super::{assert_commits_golden, figure2_soc};

/// One cell of the workload matrix: a mode policy and a target cycle count
/// over the Fig. 2-shaped SoC.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name for assertion messages.
    pub name: &'static str,
    /// The operating-mode policy driven through the run.
    pub policy: ModePolicy,
    /// Cycles to commit before halting at a transition boundary.
    pub cycles: u64,
}

/// The shared workload matrix: every mode policy the protocol distinguishes,
/// with run lengths long enough to cross many transition boundaries (bursts,
/// rollbacks, conservative fallbacks all fire).
pub fn workload_matrix() -> Vec<Workload> {
    vec![
        Workload {
            name: "auto",
            policy: ModePolicy::Auto,
            cycles: 500,
        },
        Workload {
            name: "forced-als",
            policy: ModePolicy::ForcedAls,
            cycles: 500,
        },
        Workload {
            name: "conservative",
            policy: ModePolicy::Conservative,
            cycles: 300,
        },
    ]
}

/// The matrix cell for `policy` — lookup by policy, not position, so
/// reordering or extending the matrix can never silently repoint a test at
/// the wrong workload.
pub fn workload_for(policy: ModePolicy) -> Workload {
    workload_matrix()
        .into_iter()
        .find(|w| w.policy == policy)
        .unwrap_or_else(|| panic!("workload matrix is missing {policy:?}"))
}

/// Socket/thread scheduling knobs for conformance runs: a finer poll interval
/// than the production default keeps blocked-domain wakeups (and the reliable
/// layer's wall-clock-paced retransmission clock) snappy on loaded CI hosts.
pub fn test_opts() -> ThreadedOpts {
    ThreadedOpts {
        poll_interval: Duration::from_micros(500),
        deadlock_timeout: Duration::from_secs(10),
    }
}

/// TCP options for conformance runs (clean link, fine-grained polling).
pub fn tcp_opts() -> TcpOptions {
    TcpOptions::default().threaded(test_opts())
}

/// Shared-memory ring options for conformance runs (clean channel,
/// fine-grained polling, default ring capacity).
pub fn shm_opts() -> ShmOptions {
    ShmOptions::default().threaded(test_opts())
}

/// Every transport backend the session layer offers, with its stable name.
/// The queue baseline itself is first; fault-injecting variants appear in
/// their *fault-free* configuration (the lossy wrapper must be bit-for-bit
/// transparent; seeded fault sweeps live in `fault_recovery.rs`).
pub fn conformant_backends() -> Vec<(&'static str, TransportSelect)> {
    vec![
        ("queue", TransportSelect::Queue),
        ("lossy", TransportSelect::Lossy(FaultSpec::none(1))),
        ("threaded", TransportSelect::Threaded(test_opts())),
        ("tcp", TransportSelect::Tcp(tcp_opts())),
        ("shm", TransportSelect::Shm(shm_opts())),
        // The multi-process codepath: the same rings serialized into a
        // `/dev/shm` region file, attached exactly as a second process
        // would.
        ("shm+file", TransportSelect::Shm(shm_opts().file_backed())),
        (
            "reliable+queue",
            TransportSelect::reliable(ReliableInner::Queue),
        ),
        (
            "reliable+lossy",
            TransportSelect::reliable(ReliableInner::Lossy(FaultSpec::none(2))),
        ),
        (
            "reliable+threaded",
            TransportSelect::reliable(ReliableInner::Threaded(test_opts())),
        ),
        (
            "reliable+tcp",
            TransportSelect::reliable(ReliableInner::Tcp(tcp_opts())),
        ),
        (
            "reliable+shm",
            TransportSelect::reliable(ReliableInner::Shm(shm_opts())),
        ),
    ]
}

/// Everything a conformance run observes about a session.
pub struct Observed {
    /// Hash of the merged committed trace.
    pub trace_hash: u64,
    /// Cycles committed at the halt boundary.
    pub committed: u64,
    /// Protocol-level channel statistics (recovery excluded by design).
    pub channel: ChannelStats,
    /// Total virtual time across the merged ledger.
    pub ledger_total: VirtualTime,
    /// Simulator-side rollbacks.
    pub sim_rollbacks: u64,
    /// Accelerator-side LOB flushes.
    pub acc_flushes: u64,
    /// Recovery counters, for reliable backends.
    pub recovery: Option<RecoveryStats>,
    /// Faults injected, for fault-injecting backends.
    pub faults_injected: u64,
    /// Protocol words plus recovery overhead (the honest bill).
    pub billed_words: u64,
    /// Frame-coalescing counters, for physically-batching backends.
    pub batch: Option<BatchStats>,
}

/// The conformance-run session configuration for `workload`.
pub fn workload_config(workload: &Workload) -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(workload.policy)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

/// Captures everything the conformance assertions compare from a finished
/// session (built from `blueprint`, whose placement merges the traces).
pub fn observe(session: &EmuSession<AhbDomainModel>, blueprint: &SocBlueprint) -> Observed {
    let placement = blueprint.placement();
    let trace = session.merged_trace(|s, a| placement.merge_records(s, a));
    let report = session.report();
    Observed {
        trace_hash: trace.hash(),
        committed: session.committed_cycles(),
        channel: session.channel_stats(),
        ledger_total: session.ledger().total(),
        sim_rollbacks: session.sim_stats().rollbacks,
        acc_flushes: session.acc_stats().flushes,
        recovery: session.recovery_stats(),
        faults_injected: session.fault_stats().map_or(0, |f| f.total()),
        billed_words: report.billed_words(),
        batch: session.batch_stats(),
    }
}

/// Runs `workload` over `backend` and captures everything the conformance
/// assertions compare.
pub fn run_workload(backend: TransportSelect, workload: &Workload) -> Observed {
    run_workload_with_suite(backend, workload, predpkt_predict::PaperSuite)
}

/// [`run_workload`], but with an explicit predictor suite — the hook the
/// suite-conformance tests use to prove that predictor choice (including
/// mid-run adaptive switching) never changes what a session commits.
pub fn run_workload_with_suite(
    backend: TransportSelect,
    workload: &Workload,
    suite: impl predpkt_predict::PredictorSuite + 'static,
) -> Observed {
    let blueprint = figure2_soc();
    observe(
        &run_session(&blueprint, backend, workload, suite),
        &blueprint,
    )
}

/// Builds a `blueprint` session over `backend` and runs `workload` on it.
fn run_session(
    blueprint: &SocBlueprint,
    backend: TransportSelect,
    workload: &Workload,
    suite: impl predpkt_predict::PredictorSuite + 'static,
) -> EmuSession<AhbDomainModel> {
    let mut session = EmuSession::from_blueprint(blueprint)
        .config(workload_config(workload))
        .transport(backend)
        .predictors(suite)
        .build()
        .expect("session builds");
    session
        .run_until_committed(workload.cycles)
        .expect("session completes");
    session
}

/// The queue-transport baseline for `workload`, itself held to the golden
/// oracle — so every backend compared against it is golden-checked
/// transitively.
pub fn baseline(workload: &Workload) -> Observed {
    let blueprint = figure2_soc();
    let session = run_session(
        &blueprint,
        TransportSelect::Queue,
        workload,
        predpkt_predict::PaperSuite,
    );
    let placement = blueprint.placement();
    assert_commits_golden(
        &blueprint,
        session.committed_cycles(),
        &session.merged_trace(|s, a| placement.merge_records(s, a)),
    );
    observe(&session, &blueprint)
}

/// Asserts that `observed` committed exactly what the queue `baseline` did on
/// `workload` — the core conformance property.
pub fn assert_matches_baseline(
    workload: &Workload,
    name: &str,
    baseline: &Observed,
    observed: &Observed,
) {
    let ctx = |what: &str| format!("{}/{name}: {what}", workload.name);
    assert_eq!(
        baseline.trace_hash,
        observed.trace_hash,
        "{}",
        ctx("trace diverged from queue baseline")
    );
    assert_eq!(
        baseline.committed,
        observed.committed,
        "{}",
        ctx("stopped at a different boundary")
    );
    assert_eq!(
        baseline.channel,
        observed.channel,
        "{}",
        ctx("protocol channel statistics diverged")
    );
    assert_eq!(
        baseline.ledger_total,
        observed.ledger_total,
        "{}",
        ctx("virtual-time ledger diverged")
    );
    assert_eq!(
        baseline.sim_rollbacks,
        observed.sim_rollbacks,
        "{}",
        ctx("simulator rollback count diverged")
    );
    assert_eq!(
        baseline.acc_flushes,
        observed.acc_flushes,
        "{}",
        ctx("accelerator flush count diverged")
    );
}

/// Asserts the reliable layer's clean-link invariants: no repairs were ever
/// needed, every frame was still acknowledged, and the honest bill (headers +
/// acks) is strictly higher than the baseline's.
pub fn assert_clean_reliable_invariants(
    workload: &Workload,
    name: &str,
    baseline: &Observed,
    observed: &Observed,
) {
    let recovery = observed.recovery.unwrap_or_else(|| {
        panic!(
            "{}/{name}: reliable backend reports recovery",
            workload.name
        )
    });
    assert_eq!(
        recovery.retransmits, 0,
        "{}/{name}: clean link needs no retransmission",
        workload.name
    );
    assert_eq!(
        recovery.crc_rejects, 0,
        "{}/{name}: clean link corrupts nothing",
        workload.name
    );
    assert!(
        recovery.acks_sent > 0,
        "{}/{name}: every frame is still acknowledged",
        workload.name
    );
    assert!(
        recovery.acks_piggybacked <= recovery.acks_sent,
        "{}/{name}: piggybacked acks are a subset of all acks",
        workload.name
    );
    assert!(
        observed.billed_words > baseline.billed_words,
        "{}/{name}: headers and acks are honest overhead even on a clean link \
         ({} vs clean {})",
        workload.name,
        observed.billed_words,
        baseline.billed_words
    );
}

/// Runs the full conformance matrix for `workload`: every backend from
/// [`conformant_backends`] against the queue baseline, with the clean-link
/// reliable invariants applied to the reliable variants and a
/// zero-faults-fired check on the (fault-free) fault-capable variants.
pub fn assert_workload_conformance(workload: &Workload) {
    let base = baseline(workload);
    for (name, backend) in conformant_backends() {
        let observed = run_workload(backend, workload);
        assert_matches_baseline(workload, name, &base, &observed);
        assert_eq!(
            observed.faults_injected, 0,
            "{}/{name}: a fault-free plan must fire nothing",
            workload.name
        );
        // Physically-batching backends (socket, ring — bare or wrapped)
        // report coalescing counters; every frame the protocol billed must
        // have hit the medium, and never in more writes than frames.
        if let Some(batch) = observed.batch {
            assert!(
                batch.frames > 0,
                "{}/{name}: a batching backend moved no frames?",
                workload.name
            );
            // (No `writes <= frames` bound: the ring publishes large frames
            // in chunk-sized slices, so one big burst can take several head
            // publications.)
            assert!(
                batch.physical_writes > 0,
                "{}/{name}: frames moved without physical writes? ({batch:?})",
                workload.name
            );
        } else {
            assert!(
                !name.contains("tcp") && !name.contains("shm"),
                "{}/{name}: socket/ring backends must report batch stats",
                workload.name
            );
        }
        if observed.recovery.is_some() {
            assert_clean_reliable_invariants(workload, name, &base, &observed);
        } else {
            assert!(
                !name.starts_with("reliable"),
                "{}/{name}: reliable backends must report recovery stats",
                workload.name
            );
        }
    }
}
