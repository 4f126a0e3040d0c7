//! Timing shims at the library's public layer boundaries.
//!
//! [`Timed`] wraps a [`DomainModel`] (and so its [`Snapshot`]) and
//! [`TimedTransport`] wraps a [`Transport`]. Each call is forwarded unchanged
//! and timed with `Instant`; counts and busy time accrue per layer, and
//! spans are kept in memory when the shim was built with a session id.
//! Only the traced run builds them: the untraced run drives the library's
//! own types.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

use predpkt::channel::{BatchStats, Packet, Side, Transport};
use predpkt::core::{DomainModel, TickKind};
use predpkt::sim::{Snapshot, SnapshotError, StateReader, StateWriter, Trace, TraceMark};

/// A timed layer boundary; the name is `<crate>.<operation>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Tick,
    Outputs,
    Predict,
    Verify,
    Save,
    Restore,
    Truncate,
    Send,
    Recv,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Tick,
        Layer::Outputs,
        Layer::Predict,
        Layer::Verify,
        Layer::Save,
        Layer::Restore,
        Layer::Truncate,
        Layer::Send,
        Layer::Recv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Tick => "ahb.tick",
            Layer::Outputs => "ahb.outputs",
            Layer::Predict => "predict.predict_remote",
            Layer::Verify => "ahb.verify",
            Layer::Save => "sim.save",
            Layer::Restore => "sim.restore",
            Layer::Truncate => "sim.truncate",
            Layer::Send => "channel.send",
            Layer::Recv => "channel.recv",
        }
    }
}

/// Work done (`count`) and busy time (`ns`) at one boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub count: u64,
    pub ns: u64,
}

/// Per-layer totals, summed over shims.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Profile {
    pub stats: [Stat; Layer::ALL.len()],
    /// Snapshot words consumed by restores.
    pub restore_words: u64,
    /// Receive calls that found nothing queued.
    pub recv_empty: u64,
}

impl Profile {
    pub fn get(&self, layer: Layer) -> Stat {
        self.stats[layer as usize]
    }

    pub fn add(&mut self, other: &Profile) {
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.count += b.count;
            a.ns += b.ns;
        }
        self.restore_words += other.restore_words;
        self.recv_empty += other.recv_empty;
    }

    /// Busy time summed over every layer.
    pub fn total_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.ns).sum()
    }
}

/// One recorded interval. Spans of one session share `session`; `parent`
/// names the span that caused them.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub parent: &'static str,
    pub session: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Nanoseconds since the first call, the common clock of every span.
pub fn clock_ns(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// The counters one shim owns. `Cell`s, because `save` and
/// `verify_prediction` take `&self`; a shim lives on one thread at a time.
#[derive(Debug, Default)]
struct Recorder {
    stats: [Cell<Stat>; Layer::ALL.len()],
    restore_words: Cell<u64>,
    recv_empty: Cell<u64>,
    session: Option<u32>,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    fn new(session: Option<u32>) -> Self {
        Recorder {
            session,
            ..Recorder::default()
        }
    }

    /// Runs `f`, charging its time and `units` units of work to `layer`.
    fn time<R>(&self, layer: Layer, units: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.add(layer, units, dur_ns);
        if let Some(session) = self.session {
            self.spans.borrow_mut().push(Span {
                layer: layer.name(),
                parent: "core.run",
                session,
                start_ns: clock_ns(start),
                dur_ns,
            });
        }
        out
    }

    fn add(&self, layer: Layer, units: u64, ns: u64) {
        let cell = &self.stats[layer as usize];
        let mut s = cell.get();
        s.count += units;
        s.ns += ns;
        cell.set(s);
    }

    fn profile(&self) -> Profile {
        let mut p = Profile {
            restore_words: self.restore_words.get(),
            recv_empty: self.recv_empty.get(),
            ..Profile::default()
        };
        for (out, cell) in p.stats.iter_mut().zip(&self.stats) {
            *out = cell.get();
        }
        p
    }
}

/// A [`DomainModel`] whose calls are timed per layer.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    rec: Recorder,
}

impl<M> Timed<M> {
    /// Wraps `inner`; spans are kept only when `session` is given.
    pub fn new(inner: M, session: Option<u32>) -> Self {
        Timed {
            inner,
            rec: Recorder::new(session),
        }
    }

    pub fn profile(&self) -> Profile {
        self.rec.profile()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        self.rec.spans.take()
    }
}

impl<M: Snapshot> Snapshot for Timed<M> {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.rec.time(Layer::Save, 1, || self.inner.save(w))
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let before = r.position();
        let out = self.rec.time(Layer::Restore, 1, || self.inner.restore(r));
        let words = self.rec.restore_words.get() + (r.position() - before) as u64;
        self.rec.restore_words.set(words);
        out
    }
}

impl<M: DomainModel> DomainModel for Timed<M> {
    fn side(&self) -> Side {
        self.inner.side()
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn local_width(&self) -> usize {
        self.inner.local_width()
    }

    fn remote_width(&self) -> usize {
        self.inner.remote_width()
    }

    fn local_outputs(&self) -> Vec<u32> {
        self.rec
            .time(Layer::Outputs, 1, || self.inner.local_outputs())
    }

    fn needs_sync(&self) -> bool {
        self.inner.needs_sync()
    }

    fn elect_leader(&self) -> Side {
        self.inner.elect_leader()
    }

    fn predict_remote(&mut self) -> Vec<u32> {
        self.rec
            .time(Layer::Predict, 1, || self.inner.predict_remote())
    }

    fn tick(&mut self, remote: &[u32], kind: TickKind) {
        self.rec
            .time(Layer::Tick, 1, || self.inner.tick(remote, kind))
    }

    fn take_control_words(&mut self) -> u64 {
        self.inner.take_control_words()
    }

    fn verify_prediction(&self, leader_outputs: &[u32], predicted_me: &[u32]) -> bool {
        self.rec.time(Layer::Verify, 1, || {
            self.inner.verify_prediction(leader_outputs, predicted_me)
        })
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }

    fn trace_mut(&mut self) -> &mut Trace {
        self.inner.trace_mut()
    }

    fn trace_mark(&self) -> TraceMark {
        self.inner.trace_mark()
    }

    fn trace_truncate(&mut self, mark: TraceMark) {
        self.rec
            .time(Layer::Truncate, 1, || self.inner.trace_truncate(mark))
    }
}

/// A [`Transport`] whose sends and receives are timed. Send counts are
/// packets; receive counts are calls, of which `recv_empty` found nothing.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    rec: Recorder,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T, session: Option<u32>) -> Self {
        TimedTransport {
            inner,
            rec: Recorder::new(session),
        }
    }

    pub fn profile(&self) -> Profile {
        self.rec.profile()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        self.rec.spans.take()
    }

    fn count_empty(&self, empty: bool) {
        if empty {
            self.rec.recv_empty.set(self.rec.recv_empty.get() + 1);
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        self.rec
            .time(Layer::Send, 1, || self.inner.send(from, packet))
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        let out = self.rec.time(Layer::Recv, 1, || self.inner.recv(to));
        self.count_empty(out.is_none());
        out
    }

    fn pending(&self, to: Side) -> usize {
        self.inner.pending(to)
    }

    fn send_ref(&mut self, from: Side, packet: &Packet) {
        self.rec
            .time(Layer::Send, 1, || self.inner.send_ref(from, packet))
    }

    fn send_batch(&mut self, from: Side, packets: &mut Vec<Packet>) {
        let n = packets.len() as u64;
        self.rec
            .time(Layer::Send, n, || self.inner.send_batch(from, packets))
    }

    fn send_batch_ref(&mut self, from: Side, packets: &mut dyn Iterator<Item = &Packet>) {
        let mut n = 0u64;
        let mut counted = packets.inspect(|_| n += 1);
        self.rec.time(Layer::Send, 0, || {
            self.inner.send_batch_ref(from, &mut counted)
        });
        self.rec.add(Layer::Send, n, 0);
    }

    fn drain(&mut self, to: Side, out: &mut Vec<Packet>) {
        let before = out.len();
        self.rec.time(Layer::Recv, 1, || self.inner.drain(to, out));
        self.count_empty(out.len() == before);
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        self.inner.batch_stats()
    }
}
