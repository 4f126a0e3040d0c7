//! One co-emulation session, untraced or through the shims, and the golden
//! check every session must pass.

use std::time::{Duration, Instant};

use predpkt::channel::QueueTransport;
use predpkt::core::{
    AhbDomainModel, CoEmuConfig, CoEmulator, EmuSession, ModePolicy, PerfReport, SocBlueprint,
    TcpOptions, ThreadedOpts, TransportSelect,
};
use predpkt::sim::{CostCategory, TimeLedger, Trace};
use predpkt::workloads::figure2_soc;

use crate::shims::{clock_ns, Profile, Span, Timed, TimedTransport};

/// The transport a single-session workload runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// The in-process queue, one thread.
    Queue,
    /// TCP loopback, one domain thread per side.
    Tcp,
}

/// The paper's defaults with dynamic leader election, per-variable
/// rollback billing, carried actuals and an adaptive LOB depth.
pub fn auto_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

/// Lockstep co-emulation: one channel round trip per cycle.
pub fn conservative_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults().policy(ModePolicy::Conservative)
}

fn tcp_select() -> TransportSelect {
    TransportSelect::Tcp(TcpOptions::default().threaded(ThreadedOpts {
        poll_interval: Duration::from_micros(200),
        deadlock_timeout: Duration::from_secs(10),
    }))
}

/// What one finished session hands to the metrics.
pub struct SessionRun {
    pub blueprint: SocBlueprint,
    pub blueprint_ns: u64,
    /// Session (and transport) build time, blueprint excluded.
    pub build_ns: u64,
    pub run_ns: u64,
    pub report: PerfReport,
    pub ledger: TimeLedger,
    pub merged: Trace,
    /// Shim totals per side and for the transport; empty when untraced.
    pub sim: Profile,
    pub acc: Profile,
    pub link: Profile,
    pub spans: Vec<Span>,
}

impl SessionRun {
    pub fn setup_ns(&self) -> u64 {
        self.blueprint_ns + self.build_ns
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The engine of a built session: the library's own types, or the same
/// engine with every model and (on the queue) the transport behind shims.
// Boxing the larger variants would add an allocation to the timed build.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Plain(EmuSession<AhbDomainModel>),
    TimedQueue(CoEmulator<Timed<AhbDomainModel>, TimedTransport<QueueTransport>>),
    TimedTcp(EmuSession<Timed<AhbDomainModel>>),
}

/// A `figure2_soc` session that is built and has not run yet.
pub struct Built {
    blueprint: SocBlueprint,
    blueprint_ns: u64,
    build_ns: u64,
    /// When the blueprint and the session build started, for spans.
    started: [Instant; 2],
    span_id: Option<u32>,
    engine: Engine,
}

/// Builds the session for `figure2_soc(soc_seed)`; `traced` puts it behind
/// the shims, which keep spans when `span_id` is given.
pub fn build(
    link: Link,
    config: CoEmuConfig,
    soc_seed: u64,
    traced: bool,
    span_id: Option<u32>,
) -> Result<Built, String> {
    let t0 = Instant::now();
    let blueprint = figure2_soc(soc_seed);
    let blueprint_ns = elapsed_ns(t0);
    let t1 = Instant::now();
    let transport = match link {
        Link::Queue => TransportSelect::Queue,
        Link::Tcp => tcp_select(),
    };
    let engine = if traced {
        let (sim, acc) = blueprint
            .build_pair()
            .map_err(|e| format!("domain build: {e}"))?;
        let (sim, acc) = (Timed::new(sim, span_id), Timed::new(acc, span_id));
        match link {
            Link::Queue => {
                let transport = TimedTransport::new(QueueTransport::new(), span_id);
                Engine::TimedQueue(CoEmulator::with_transport(sim, acc, config, transport))
            }
            Link::Tcp => Engine::TimedTcp(
                EmuSession::builder(sim, acc)
                    .config(config)
                    .transport(transport)
                    .build()
                    .map_err(|e| format!("session build: {e}"))?,
            ),
        }
    } else {
        Engine::Plain(
            EmuSession::from_blueprint(&blueprint)
                .config(config)
                .transport(transport)
                .build()
                .map_err(|e| format!("session build: {e}"))?,
        )
    };
    Ok(Built {
        blueprint,
        blueprint_ns,
        build_ns: elapsed_ns(t1),
        started: [t0, t1],
        span_id,
        engine,
    })
}

impl Built {
    /// Runs the session to `cycles` committed cycles.
    pub fn run(self, cycles: u64) -> Result<SessionRun, String> {
        let placement = self.blueprint.placement();
        let merge = |s: &[u64], a: &[u64]| placement.merge_records(s, a);
        let failed = |e| format!("session run: {e}");
        let t2 = Instant::now();
        let (report, ledger, merged, sim, acc, link, mut spans) = match self.engine {
            Engine::Plain(mut session) => {
                session.run_until_committed(cycles).map_err(failed)?;
                let none = Profile::default;
                let merged = session.merged_trace(merge);
                (
                    session.report(),
                    session.ledger(),
                    merged,
                    none(),
                    none(),
                    none(),
                    Vec::new(),
                )
            }
            Engine::TimedQueue(mut emu) => {
                emu.run_until_synchronized(cycles).map_err(failed)?;
                let mut spans = emu.transport().take_spans();
                spans.append(&mut emu.sim_model().take_spans());
                spans.append(&mut emu.acc_model().take_spans());
                (
                    emu.report(),
                    emu.ledger().clone(),
                    emu.merged_trace(merge),
                    emu.sim_model().profile(),
                    emu.acc_model().profile(),
                    emu.transport().profile(),
                    spans,
                )
            }
            Engine::TimedTcp(mut session) => {
                session.run_until_committed(cycles).map_err(failed)?;
                let mut spans = session.sim_model().take_spans();
                spans.append(&mut session.acc_model().take_spans());
                (
                    session.report(),
                    session.ledger(),
                    session.merged_trace(merge),
                    session.sim_model().profile(),
                    session.acc_model().profile(),
                    Profile::default(),
                    spans,
                )
            }
        };
        let run_ns = elapsed_ns(t2);
        if let Some(id) = self.span_id {
            let [t0, t1] = self.started;
            for (layer, start, ns) in [
                ("workloads.blueprint", t0, self.blueprint_ns),
                ("core.build", t1, self.build_ns),
                ("core.run", t2, run_ns),
            ] {
                spans.push(Span {
                    layer,
                    parent: "bench.session",
                    session: id,
                    start_ns: clock_ns(start),
                    dur_ns: ns,
                });
            }
        }
        Ok(SessionRun {
            blueprint: self.blueprint,
            blueprint_ns: self.blueprint_ns,
            build_ns: self.build_ns,
            run_ns,
            report,
            ledger,
            merged,
            sim,
            acc,
            link,
            spans,
        })
    }
}

/// Checks a merged committed trace against the monolithic golden bus run
/// for the same number of cycles; returns the golden run's wall time.
pub fn golden_check(blueprint: &SocBlueprint, merged: &Trace) -> Result<Duration, String> {
    let mut bus = blueprint
        .build_golden()
        .map_err(|e| format!("golden build: {e}"))?;
    let t = Instant::now();
    bus.run(merged.len() as u64);
    let wall = t.elapsed();
    if bus.trace().len() != merged.len() || bus.trace().hash() != merged.hash() {
        let at = merged
            .first_divergence(bus.trace())
            .map_or("length".to_string(), |c| format!("cycle {c}"));
        return Err(format!("committed trace differs from golden at {at}"));
    }
    Ok(wall)
}

/// Sums the deterministic outcomes of sessions: everything here repeats
/// exactly for the same sessions. All integers, so every ratio below is
/// one correctly rounded division and reads the same for one round of
/// sessions as for any number of identical rounds.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Totals {
    pub sessions: u64,
    pub cycles: u64,
    /// Virtual picoseconds per paper category (`CostCategory::ALL` order).
    pub virtual_ps: [u64; 5],
    pub words: u64,
    pub accesses: u64,
    pub transitions: u64,
    pub clean_transitions: u64,
    pub rollbacks: u64,
    pub replayed: u64,
    pub checked_predictions: u64,
    pub failed_predictions: u64,
}

impl Totals {
    pub fn add(&mut self, report: &PerfReport, ledger: &TimeLedger) {
        self.sessions += 1;
        self.cycles += report.committed_cycles();
        for (slot, cat) in self.virtual_ps.iter_mut().zip(CostCategory::ALL) {
            *slot += ledger.get(cat).as_picos();
        }
        self.words += report.channel().total_words();
        self.accesses += report.channel().total_accesses();
        for s in [report.sim_stats(), report.acc_stats()] {
            self.transitions += s.transitions;
            self.clean_transitions += s.clean_transitions;
            self.rollbacks += s.rollbacks;
            self.replayed += s.replayed_cycles;
            self.checked_predictions += s.checked_predictions;
            self.failed_predictions += s.failed_predictions;
        }
    }

    fn per_cycle(&self, v: f64) -> f64 {
        v / self.cycles.max(1) as f64
    }

    /// Committed cycles per virtual second (the paper's `Perform.` row).
    pub fn virtual_cps(&self) -> f64 {
        1e12 / self.per_cycle(self.virtual_ps.iter().sum::<u64>() as f64)
    }

    pub fn words_per_cycle(&self) -> f64 {
        self.per_cycle(self.words as f64)
    }

    pub fn accesses_per_cycle(&self) -> f64 {
        self.per_cycle(self.accesses as f64)
    }

    /// Virtual nanoseconds per committed cycle in `cat`.
    pub fn virtual_ns_per_cycle(&self, cat: CostCategory) -> f64 {
        let i = CostCategory::ALL
            .iter()
            .position(|&c| c == cat)
            .expect("category is listed");
        self.per_cycle(self.virtual_ps[i] as f64) / 1e3
    }

    pub fn per_kcycle(&self, count: u64) -> f64 {
        self.per_cycle(count as f64 * 1e3)
    }

    /// Share of leader transitions whose predictions all held.
    pub fn useful_speculation_ratio(&self) -> f64 {
        self.clean_transitions as f64 / self.transitions.max(1) as f64
    }

    pub fn observed_accuracy(&self) -> f64 {
        1.0 - self.failed_predictions as f64 / self.checked_predictions.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_plain(
        link: Link,
        config: CoEmuConfig,
        soc: u64,
        cycles: u64,
    ) -> Result<SessionRun, String> {
        build(link, config, soc, false, None)?.run(cycles)
    }

    fn run_traced(
        link: Link,
        config: CoEmuConfig,
        soc: u64,
        cycles: u64,
        span_id: Option<u32>,
    ) -> Result<SessionRun, String> {
        build(link, config, soc, true, span_id)?.run(cycles)
    }

    fn assert_same_outcome(plain: &SessionRun, traced: &SessionRun) {
        assert_eq!(plain.merged.hash(), traced.merged.hash());
        assert_eq!(
            plain.report.performance_cps(),
            traced.report.performance_cps()
        );
        assert_eq!(
            plain.report.channel().total_words(),
            traced.report.channel().total_words()
        );
        let totals = |run: &SessionRun| {
            let mut t = Totals::default();
            t.add(&run.report, &run.ledger);
            t
        };
        assert_eq!(totals(plain), totals(traced));
    }

    /// The timing shims only observe: a traced session commits what an
    /// untraced one commits, in virtual time and channel traffic too.
    #[test]
    fn shims_are_transparent_on_the_queue() {
        let plain = run_plain(Link::Queue, auto_config(), 7, 600).expect("plain run");
        let traced = run_traced(Link::Queue, auto_config(), 7, 600, Some(0)).expect("traced run");
        assert_same_outcome(&plain, &traced);
        let mut model = traced.sim.clone();
        model.add(&traced.acc);
        assert!(model.get(crate::shims::Layer::Tick).count >= 2 * 600);
        assert!(
            model.get(crate::shims::Layer::Save).count > 0,
            "Auto speculates"
        );
        assert!(traced.link.get(crate::shims::Layer::Send).count > 0);
        assert!(!traced.spans.is_empty());
        golden_check(&traced.blueprint, &traced.merged).expect("traced run is golden");
    }

    #[test]
    fn shims_are_transparent_over_tcp() {
        let config = conservative_config();
        let plain = run_plain(Link::Tcp, config, 9, 200).expect("plain run");
        let traced = run_traced(Link::Tcp, config, 9, 200, None).expect("traced run");
        assert_same_outcome(&plain, &traced);
        assert!(traced.spans.is_empty(), "no span id, no spans");
        assert_eq!(traced.sim.get(crate::shims::Layer::Save).count, 0);
    }

    /// The golden check catches a single flipped bit anywhere in the trace.
    #[test]
    fn golden_check_catches_a_corrupted_trace() {
        let run = run_plain(Link::Queue, auto_config(), 3, 300).expect("plain run");
        golden_check(&run.blueprint, &run.merged).expect("clean trace is golden");
        for cycle in [0, 150, run.merged.len() - 1] {
            let mut corrupted = Trace::new();
            for (i, record) in run.merged.iter().enumerate() {
                let mut record = record.to_vec();
                if i == cycle {
                    record[0] ^= 1;
                }
                corrupted.record(record);
            }
            let err = golden_check(&run.blueprint, &corrupted).expect_err("corruption caught");
            assert!(err.contains(&format!("cycle {cycle}")), "{err}");
        }
    }
}
