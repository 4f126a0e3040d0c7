//! Fault-injecting transport for protocol-robustness scenarios.
//!
//! [`LossyTransport`] wraps any inner [`Transport`] and, with seeded
//! deterministic pseudo-randomness, drops, truncates, or duplicates packets as
//! they are sent. The co-emulation protocol has no retransmission layer (the
//! paper assumes a reliable PCI channel), so faults surface as *detected*
//! failures:
//!
//! * a **dropped** packet starves the receiver, which the orchestrator reports
//!   as [`Deadlock`](predpkt_sim::SimError::Deadlock);
//! * a **truncated** packet violates the fixed message layout and is rejected
//!   by the protocol decoder;
//! * a **duplicated** packet usually arrives in a wrapper phase that cannot
//!   accept it (handshakes, bursts, reports) and is rejected as a protocol
//!   violation or starves the run into a detected deadlock. The exception is
//!   a duplicated conservative `CycleOutputs` exchange: the wire format
//!   carries no sequence numbers (the paper's channel model has none), so a
//!   stale copy is indistinguishable from a fresh exchange and *can* corrupt
//!   a conservative-mode run silently. Duplicate injection is therefore a
//!   robustness probe, not a guaranteed-detection mode.
//!
//! Beyond the per-packet rate faults, a plan can arm a deterministic
//! **terminal** fault: [`FaultSpec::disconnect_after`] kills the link
//! permanently at a seeded frame index (a socket reset / peer crash — the
//! wrapper reports [`Dead`](crate::Readiness::Dead)), while
//! [`FaultSpec::hang_after`] wedges it silently (delivery stops but the link
//! still looks idle — only a deadlock timeout catches it). Terminal faults
//! trigger on a frame *counter*, not a random draw, so arming one never
//! perturbs the seeded rate-fault stream.
//!
//! With [`FaultSpec::none`] the transport is bit-for-bit transparent, which
//! the transport-equivalence suite exploits.

use crate::cost::Side;
use crate::knob::KnobError;
use crate::message::Packet;
use crate::transport::{QueueTransport, Transport, WaitTransport};
use predpkt_sim::SplitMix64;
use std::time::Duration;

/// Deterministic fault plan for a [`LossyTransport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// PRNG seed; identical seeds reproduce identical fault sequences.
    pub seed: u64,
    /// Probability a sent packet is silently discarded.
    pub drop_rate: f64,
    /// Probability a sent packet loses its last payload word (layout
    /// corruption the decoder must detect).
    pub truncate_rate: f64,
    /// Probability a sent packet is delivered twice.
    pub duplicate_rate: f64,
    /// Terminal fault: the link dies permanently once this many frames have
    /// been pushed at the send path — the socket-reset / peer-crash failure.
    /// Further frames are swallowed (counted as `severed`), delivery stops,
    /// and readiness reports [`Dead`](crate::Readiness::Dead). Frame indices
    /// are deterministic, not drawn, so a terminal plan never perturbs the
    /// seeded rate-fault stream.
    pub disconnect_after: Option<u64>,
    /// Terminal fault: the link *wedges* once this many frames have been
    /// pushed at the send path — delivery stops without closing. Unlike a
    /// disconnect the link still looks merely idle
    /// ([`Readiness::Idle`](crate::Readiness::Idle)), the pathological hang a
    /// deadlock timeout exists to catch. When both terminal faults are armed,
    /// a tripped disconnect takes precedence in readiness reporting.
    pub hang_after: Option<u64>,
}

impl FaultSpec {
    /// A fault-free plan: the lossy transport becomes transparent.
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            duplicate_rate: 0.0,
            disconnect_after: None,
            hang_after: None,
        }
    }

    /// Drops packets at `rate`, injects nothing else.
    pub fn drops(seed: u64, rate: f64) -> Self {
        FaultSpec {
            drop_rate: rate,
            ..Self::none(seed)
        }
    }

    /// Truncates packets at `rate`, injects nothing else.
    pub fn truncations(seed: u64, rate: f64) -> Self {
        FaultSpec {
            truncate_rate: rate,
            ..Self::none(seed)
        }
    }

    /// Duplicates packets at `rate`, injects nothing else.
    pub fn duplicates(seed: u64, rate: f64) -> Self {
        FaultSpec {
            duplicate_rate: rate,
            ..Self::none(seed)
        }
    }

    /// Severs the link permanently after `frames` frames have been sent,
    /// injects nothing else. See [`FaultSpec::disconnect_after`] (the field)
    /// for the death semantics.
    pub fn disconnect_after(seed: u64, frames: u64) -> Self {
        FaultSpec {
            disconnect_after: Some(frames),
            ..Self::none(seed)
        }
    }

    /// Wedges the link after `frames` frames have been sent, injects nothing
    /// else. See [`FaultSpec::hang_after`] (the field) for the hang
    /// semantics.
    pub fn hang_after(seed: u64, frames: u64) -> Self {
        FaultSpec {
            hang_after: Some(frames),
            ..Self::none(seed)
        }
    }

    /// Checks that every rate is a probability.
    ///
    /// # Errors
    ///
    /// Returns a [`KnobError`] naming the first out-of-range rate.
    pub fn validate(&self) -> Result<(), KnobError> {
        for (name, r) in [
            ("drop_rate", self.drop_rate),
            ("truncate_rate", self.truncate_rate),
            ("duplicate_rate", self.duplicate_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(KnobError::new(
                    name,
                    format!("must be a probability, got {r}"),
                ));
            }
        }
        Ok(())
    }

    /// True when any fault can ever fire (some rate is positive, or a
    /// terminal fault is armed).
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.truncate_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.disconnect_after.is_some()
            || self.hang_after.is_some()
    }
}

/// Counters of the faults a [`LossyTransport`] has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets discarded in flight.
    pub dropped: u64,
    /// Packets delivered with a truncated payload.
    pub truncated: u64,
    /// Packets delivered twice.
    pub duplicated: u64,
    /// Packets swallowed after a terminal fault (disconnect or hang) killed
    /// the link.
    pub severed: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.truncated + self.duplicated + self.severed
    }

    /// Merges another block into this one (per-side instances over socket
    /// endpoints, where each domain wraps its own end).
    pub fn merge(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.truncated += other.truncated;
        self.duplicated += other.duplicated;
        self.severed += other.severed;
    }
}

/// A transport that injects seeded faults on the send path.
///
/// # Example
///
/// ```
/// use predpkt_channel::{FaultSpec, LossyTransport, Packet, PacketTag, Side, Transport};
/// let mut t = LossyTransport::over_queue(FaultSpec::drops(1, 1.0));
/// t.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
/// assert_eq!(t.pending(Side::Accelerator), 0, "every packet is dropped");
/// assert_eq!(t.fault_stats().dropped, 1);
/// ```
#[derive(Debug)]
pub struct LossyTransport<T: Transport = QueueTransport> {
    inner: T,
    spec: FaultSpec,
    rng: SplitMix64,
    stats: FaultStats,
    /// Frames pushed at the send path so far — the deterministic cursor
    /// terminal faults trigger on.
    sent_frames: u64,
}

impl LossyTransport<QueueTransport> {
    /// Wraps a fresh deterministic [`QueueTransport`].
    pub fn over_queue(spec: FaultSpec) -> Self {
        Self::new(QueueTransport::new(), spec)
    }
}

impl<T: Transport> LossyTransport<T> {
    /// Wraps `inner` with the fault plan `spec`, validating it first.
    ///
    /// # Errors
    ///
    /// Returns a [`KnobError`] naming the first out-of-range (or NaN) rate.
    pub fn try_new(inner: T, spec: FaultSpec) -> Result<Self, KnobError> {
        spec.validate()?;
        Ok(Self::new_prevalidated(inner, spec))
    }

    /// Wraps `inner` with the fault plan `spec`.
    ///
    /// Convenience for specs known valid by construction (literals in tests
    /// and examples); fallible callers — anything forwarding user input —
    /// should use [`try_new`](Self::try_new) instead.
    ///
    /// # Panics
    ///
    /// Panics if any rate in `spec` is outside `[0, 1]`.
    pub fn new(inner: T, spec: FaultSpec) -> Self {
        Self::try_new(inner, spec).expect("invalid fault spec")
    }

    /// The infallible interior constructor: `spec` has already passed
    /// [`FaultSpec::validate`] (the session builder validates every knob
    /// before any transport is built).
    pub(crate) fn new_prevalidated(inner: T, spec: FaultSpec) -> Self {
        LossyTransport {
            inner,
            spec,
            rng: SplitMix64::new(spec.seed),
            stats: FaultStats::default(),
            sent_frames: 0,
        }
    }

    /// Faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The fault plan in force.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Frames pushed at this wrapper's send path so far (the cursor the
    /// terminal faults trigger on) — for dead-link postmortems.
    pub fn sent_frames(&self) -> u64 {
        self.sent_frames
    }

    /// True once a [`FaultSpec::disconnect_after`] plan has severed the link.
    pub fn disconnected(&self) -> bool {
        self.spec
            .disconnect_after
            .is_some_and(|n| self.sent_frames >= n)
    }

    /// True once a [`FaultSpec::hang_after`] plan has wedged the link.
    pub fn hung(&self) -> bool {
        self.spec.hang_after.is_some_and(|n| self.sent_frames >= n)
    }

    /// True once any terminal fault has fired: the link no longer moves
    /// frames in either direction.
    pub fn link_down(&self) -> bool {
        self.disconnected() || self.hung()
    }

    /// Consumes the wrapper, returning the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

/// One send's fault decisions, drawn in a fixed order so the seeded stream
/// is identical whichever send entry point (owned, by-ref, batched) carried
/// the packet.
struct FaultDraw {
    dropped: bool,
    truncated: bool,
    duplicated: bool,
}

impl<T: Transport> LossyTransport<T> {
    /// Advances the frame cursor and reports whether a terminal fault fires
    /// for this send. Runs **before** the rate draws and consumes no
    /// randomness, so arming a terminal plan never shifts the seeded fault
    /// stream of the frames that do get through.
    fn terminal_fired(&mut self) -> bool {
        let fired = self.link_down();
        self.sent_frames += 1;
        fired
    }

    /// Draws this send's faults. The draw order — drop, truncate, duplicate,
    /// each consumed only when its rate is positive — is the wire format of
    /// the seed and must never change.
    fn draw_faults(&mut self, payload_empty: bool) -> FaultDraw {
        if self.spec.drop_rate > 0.0 && self.rng.unit_f64() < self.spec.drop_rate {
            return FaultDraw {
                dropped: true,
                truncated: false,
                duplicated: false,
            };
        }
        let truncated = self.spec.truncate_rate > 0.0
            && self.rng.unit_f64() < self.spec.truncate_rate
            && !payload_empty;
        let duplicated =
            self.spec.duplicate_rate > 0.0 && self.rng.unit_f64() < self.spec.duplicate_rate;
        FaultDraw {
            dropped: false,
            truncated,
            duplicated,
        }
    }
}

impl<T: Transport> Transport for LossyTransport<T> {
    fn send(&mut self, from: Side, mut packet: Packet) {
        if self.terminal_fired() {
            self.stats.severed += 1;
            return;
        }
        let draw = self.draw_faults(packet.payload().is_empty());
        if draw.dropped {
            self.stats.dropped += 1;
            return;
        }
        if draw.truncated {
            // Reuse the packet's own allocation: pop the last word in place
            // instead of copying the payload.
            let tag = packet.tag();
            let mut words = packet.into_payload();
            words.pop();
            packet = Packet::new(tag, words);
            self.stats.truncated += 1;
        }
        if draw.duplicated {
            self.stats.duplicated += 1;
            self.inner.send(from, packet.clone());
        }
        self.inner.send(from, packet);
    }

    /// By-reference send: the packet is cloned **only when a fault that
    /// needs an owned copy actually fires** — on the (common) clean draw the
    /// borrow is forwarded straight to the inner transport.
    fn send_ref(&mut self, from: Side, packet: &Packet) {
        if !self.spec.is_active() {
            return self.inner.send_ref(from, packet);
        }
        if self.terminal_fired() {
            self.stats.severed += 1;
            return;
        }
        let draw = self.draw_faults(packet.payload().is_empty());
        if draw.dropped {
            self.stats.dropped += 1;
            return;
        }
        if !draw.truncated && !draw.duplicated {
            return self.inner.send_ref(from, packet);
        }
        let mut owned = packet.clone();
        if draw.truncated {
            let tag = owned.tag();
            let mut words = owned.into_payload();
            words.pop();
            owned = Packet::new(tag, words);
            self.stats.truncated += 1;
        }
        if draw.duplicated {
            self.stats.duplicated += 1;
            self.inner.send_ref(from, &owned);
        }
        self.inner.send(from, owned);
    }

    fn send_batch(&mut self, from: Side, packets: &mut Vec<Packet>) {
        if !self.spec.is_active() {
            // Transparent wrapper: hand the whole batch down so the inner
            // backend's coalescing (one socket write / ring publish) is kept.
            return self.inner.send_batch(from, packets);
        }
        for packet in packets.drain(..) {
            self.send(from, packet);
        }
    }

    fn send_batch_ref(&mut self, from: Side, packets: &mut dyn Iterator<Item = &Packet>) {
        if !self.spec.is_active() {
            return self.inner.send_batch_ref(from, packets);
        }
        for packet in packets {
            self.send_ref(from, packet);
        }
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        if self.link_down() {
            return None;
        }
        self.inner.recv(to)
    }

    fn drain(&mut self, to: Side, out: &mut Vec<Packet>) {
        if self.link_down() {
            return;
        }
        self.inner.drain(to, out);
    }

    fn pending(&self, to: Side) -> usize {
        if self.link_down() {
            return 0;
        }
        self.inner.pending(to)
    }

    fn batch_stats(&self) -> Option<crate::transport::BatchStats> {
        self.inner.batch_stats()
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.stats)
    }

    fn recovery_stats(&self) -> Option<crate::RecoveryStats> {
        self.inner.recovery_stats()
    }

    fn failure(&self) -> Option<crate::RetryExhausted> {
        self.inner.failure()
    }
}

/// The RNG cursor, fault counters, and the inner transport. The [`FaultSpec`]
/// is configuration (validated at construction) and stays with the live
/// instance — restoring resumes the *same* seeded fault plan draw-for-draw.
impl<T: Transport + predpkt_sim::Snapshot> predpkt_sim::Snapshot for LossyTransport<T> {
    fn save(&self, w: &mut predpkt_sim::StateWriter<'_>) {
        self.rng.save(w);
        w.word(self.stats.dropped)
            .word(self.stats.truncated)
            .word(self.stats.duplicated)
            .word(self.stats.severed)
            .word(self.sent_frames);
        self.inner.save(w);
    }

    fn restore(
        &mut self,
        r: &mut predpkt_sim::StateReader<'_>,
    ) -> Result<(), predpkt_sim::SnapshotError> {
        self.rng.restore(r)?;
        self.stats.dropped = r.word()?;
        self.stats.truncated = r.word()?;
        self.stats.duplicated = r.word()?;
        self.stats.severed = r.word()?;
        self.sent_frames = r.word()?;
        self.inner.restore(r)
    }
}

/// Fault injection happens on the send path, so waiting is delegated
/// untouched — this is what lets a fault plan ride on a blocking-capable
/// endpoint (e.g. a [`TcpEndpoint`](crate::TcpEndpoint)) under a per-side
/// [`ReliableTransport`](crate::ReliableTransport).
impl<T: WaitTransport> WaitTransport for LossyTransport<T> {
    fn wait_for_packet(&mut self, timeout: Duration) -> bool {
        if self.link_down() {
            // A severed or hung link never delivers again; pace the caller's
            // retry loop like a dead socket instead of spinning it.
            std::thread::sleep(timeout);
            return false;
        }
        self.inner.wait_for_packet(timeout)
    }
}

impl<T: Transport + crate::poll::PollReady> crate::poll::PollReady for LossyTransport<T> {
    /// Rate faults fire on the send path only, so readiness is normally the
    /// inner transport's verbatim. A tripped terminal fault overrides it: a
    /// disconnect is an observable death ([`Dead`](crate::Readiness::Dead)),
    /// while a hang is deliberately indistinguishable from a quiet healthy
    /// peer ([`Idle`](crate::Readiness::Idle)) — only a deadlock timeout
    /// catches it.
    fn readiness(&mut self) -> crate::poll::Readiness {
        if self.disconnected() {
            return crate::poll::Readiness::Dead;
        }
        if self.hung() {
            return crate::poll::Readiness::Idle;
        }
        self.inner.readiness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::PacketTag;

    fn pkt(n: usize) -> Packet {
        Packet::new(PacketTag::CycleOutputs, vec![7; n])
    }

    #[test]
    fn faultless_spec_is_transparent() {
        let mut t = LossyTransport::over_queue(FaultSpec::none(42));
        for i in 0..100 {
            t.send(Side::Simulator, pkt(i % 5));
        }
        assert_eq!(t.pending(Side::Accelerator), 100);
        for i in 0..100 {
            assert_eq!(t.recv(Side::Accelerator).unwrap().payload().len(), i % 5);
        }
        assert_eq!(t.fault_stats(), FaultStats::default());
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut t = LossyTransport::over_queue(FaultSpec::drops(7, 0.3));
        for _ in 0..10_000 {
            t.send(Side::Simulator, pkt(1));
        }
        let dropped = t.fault_stats().dropped as f64 / 10_000.0;
        assert!((dropped - 0.3).abs() < 0.03, "observed drop rate {dropped}");
    }

    #[test]
    fn truncation_shortens_payload() {
        let mut t = LossyTransport::over_queue(FaultSpec::truncations(9, 1.0));
        t.send(Side::Accelerator, pkt(4));
        let got = t.recv(Side::Simulator).unwrap();
        assert_eq!(got.payload().len(), 3);
        assert_eq!(t.fault_stats().truncated, 1);
    }

    #[test]
    fn empty_payload_never_truncates() {
        let mut t = LossyTransport::over_queue(FaultSpec::truncations(9, 1.0));
        t.send(Side::Accelerator, pkt(0));
        assert_eq!(t.recv(Side::Simulator).unwrap().payload().len(), 0);
        assert_eq!(t.fault_stats().truncated, 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let mut t = LossyTransport::over_queue(FaultSpec::duplicates(3, 1.0));
        t.send(Side::Simulator, pkt(2));
        assert_eq!(t.pending(Side::Accelerator), 2);
        assert_eq!(t.fault_stats().duplicated, 1);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let mut t = LossyTransport::over_queue(FaultSpec::drops(11, 0.5));
            for _ in 0..64 {
                t.send(Side::Simulator, pkt(1));
            }
            t.fault_stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_rate_rejected() {
        let _ = LossyTransport::over_queue(FaultSpec::drops(0, 1.5));
    }

    #[test]
    fn try_new_rejects_bad_specs_without_panicking() {
        for spec in [
            FaultSpec::drops(0, 1.5),
            FaultSpec::drops(0, -0.1),
            FaultSpec::drops(0, f64::NAN),
            FaultSpec::truncations(0, f64::INFINITY),
            FaultSpec::duplicates(0, 2.0),
        ] {
            let err = LossyTransport::try_new(QueueTransport::new(), spec)
                .expect_err("spec must be rejected");
            assert!(err.to_string().contains("_rate"), "{err}");
        }
        assert!(LossyTransport::try_new(QueueTransport::new(), FaultSpec::none(1)).is_ok());
    }

    #[test]
    fn snapshot_resumes_the_fault_plan_exactly() {
        use predpkt_sim::{restore_from_vec, save_to_vec};
        let spec = FaultSpec {
            drop_rate: 0.3,
            truncate_rate: 0.2,
            duplicate_rate: 0.1,
            ..FaultSpec::none(99)
        };
        let mut t = LossyTransport::over_queue(spec);
        for _ in 0..50 {
            t.send(Side::Simulator, pkt(2));
        }
        while t.recv(Side::Accelerator).is_some() {}
        let state = save_to_vec(&t);
        // Continue the original...
        let mut expect_stats = {
            let mut probe = LossyTransport::over_queue(spec);
            restore_from_vec(&mut probe, &state).unwrap();
            probe
        };
        for _ in 0..50 {
            t.send(Side::Simulator, pkt(2));
            expect_stats.send(Side::Simulator, pkt(2));
        }
        assert_eq!(t.fault_stats(), expect_stats.fault_stats());
        assert!(t.fault_stats().total() > 0, "faults really fired");
    }

    #[test]
    fn disconnect_after_kills_the_link_at_the_exact_frame() {
        // A threaded endpoint rather than a queue: the readiness probe at the
        // end needs a `PollReady` inner medium.
        let (sim_end, _acc_end) = crate::threaded::ThreadedTransport::pair();
        let mut t = LossyTransport::new(sim_end, FaultSpec::disconnect_after(5, 3));
        for _ in 0..6 {
            t.send(Side::Simulator, pkt(1));
        }
        // Frames 0..3 got through; 3.. were severed, and delivery of the
        // survivors stops with the link.
        assert_eq!(t.fault_stats().severed, 3);
        assert!(t.disconnected());
        assert!(t.link_down());
        assert_eq!(t.pending(Side::Accelerator), 0);
        assert!(t.recv(Side::Accelerator).is_none());
        use crate::poll::{PollReady, Readiness};
        assert_eq!(t.readiness(), Readiness::Dead);
    }

    #[test]
    fn hang_after_wedges_without_closing() {
        let (sim_end, _acc_end) = crate::threaded::ThreadedTransport::pair();
        let mut t = LossyTransport::new(sim_end, FaultSpec::hang_after(5, 2));
        for _ in 0..4 {
            t.send(Side::Simulator, pkt(1));
        }
        assert_eq!(t.fault_stats().severed, 2);
        assert!(t.hung() && !t.disconnected());
        use crate::poll::{PollReady, Readiness};
        assert_eq!(t.readiness(), Readiness::Idle, "a hang looks merely idle");
    }

    #[test]
    fn terminal_faults_do_not_shift_the_seeded_rate_stream() {
        // Same seed + rates, with and without an (unreached) terminal plan:
        // the rate-fault pattern over the surviving frames must be identical.
        let run = |terminal: Option<u64>| {
            let spec = FaultSpec {
                disconnect_after: terminal,
                ..FaultSpec::drops(11, 0.5)
            };
            let mut t = LossyTransport::over_queue(spec);
            for _ in 0..64 {
                t.send(Side::Simulator, pkt(1));
            }
            t.fault_stats().dropped
        };
        assert_eq!(run(None), run(Some(1_000)));
    }

    #[test]
    fn terminal_cursor_survives_a_snapshot_round_trip() {
        use predpkt_sim::{restore_from_vec, save_to_vec};
        let spec = FaultSpec::disconnect_after(1, 4);
        let mut t = LossyTransport::over_queue(spec);
        for _ in 0..3 {
            t.send(Side::Simulator, pkt(1));
        }
        let state = save_to_vec(&t);
        let mut twin = LossyTransport::over_queue(spec);
        restore_from_vec(&mut twin, &state).unwrap();
        assert_eq!(twin.sent_frames(), 3);
        assert!(!twin.link_down());
        twin.send(Side::Simulator, pkt(1));
        twin.send(Side::Simulator, pkt(1));
        assert!(twin.disconnected(), "cursor resumed where it left off");
        assert_eq!(twin.fault_stats().severed, 1);
    }

    #[test]
    fn validate_accepts_boundary_probabilities() {
        // 0.0 and 1.0 are both legal rates — "never" and "always".
        for rate in [0.0, 1.0] {
            assert!(FaultSpec::drops(1, rate).validate().is_ok(), "rate {rate}");
            assert!(FaultSpec::truncations(1, rate).validate().is_ok());
            assert!(FaultSpec::duplicates(1, rate).validate().is_ok());
        }
        // -0.0 compares equal to 0.0 and is a probability.
        assert!(FaultSpec::drops(1, -0.0).validate().is_ok());
        // A transport at both extremes must construct without panicking.
        let _ = LossyTransport::over_queue(FaultSpec::drops(1, 1.0));
        let _ = LossyTransport::over_queue(FaultSpec::none(1));
    }

    #[test]
    fn validate_rejects_non_probabilities() {
        for (name, spec) in [
            ("drop_rate", FaultSpec::drops(1, -0.25)),
            ("drop_rate", FaultSpec::drops(1, f64::NAN)),
            ("drop_rate", FaultSpec::drops(1, f64::INFINITY)),
            ("truncate_rate", FaultSpec::truncations(1, 1.0001)),
            ("truncate_rate", FaultSpec::truncations(1, f64::NAN)),
            (
                "duplicate_rate",
                FaultSpec::duplicates(1, f64::NEG_INFINITY),
            ),
            ("duplicate_rate", FaultSpec::duplicates(1, -f64::NAN)),
        ] {
            let err = spec.validate().expect_err("must be rejected");
            assert_eq!(err.field, name, "error '{err}' should name {name}");
            assert!(err.to_string().contains(name), "display names the field");
        }
    }

    #[test]
    fn validate_reports_the_first_bad_rate() {
        let spec = FaultSpec {
            drop_rate: 0.5,
            truncate_rate: f64::NAN,
            duplicate_rate: 2.0,
            ..FaultSpec::none(0)
        };
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field, "truncate_rate", "{err}");
    }
}
