//! `farm_open`: an open loop of short sessions into a `SessionFarm`.
//!
//! Arrivals follow a seeded Poisson schedule well below saturation; each
//! session's latency is timed from the moment it was due, so a late
//! generator counts against the farm and is also reported on its own. A
//! burst phase then submits batches at once to measure capacity.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use predpkt::core::{AhbDomainModel, DomainModel, EmuSession, SessionError, SlicedSession};
use predpkt::farm::{FarmConfig, FarmStats, SessionFarm};
use predpkt::workloads::figure2_soc;

use crate::metrics::{fill_layers, latency_note, set_tail, LayerInputs, LinkTiming, RunReport};
use crate::session::{auto_config, golden_check, Totals};
use crate::shims::{Profile, Span, Timed};
use crate::stats::{derive, median, percentile, poisson_schedule, sorted};
use crate::Args;

/// Committed cycles per session.
const CYCLES: u64 = 40;
/// Open-loop arrival rate per worker, well below one worker's capacity.
const RATE_PER_WORKER: f64 = 300.0;
/// Sessions per capacity burst; bursts repeat until the phase ends.
const BURST: usize = 400;
/// Untimed sessions before a phase's open loop.
const WARMUP: usize = 64;
/// Farm builds timed for `setup_s`.
const SETUP_REPS: usize = 101;
const SCHEDULE_STREAM: u64 = 0x0be7;
/// Every farm session gets a SoC of its own.
const SOC_STREAM: u64 = 0xfa50c;
/// Traced open-loop sessions that keep every span.
const SPAN_SESSIONS: usize = 2;

fn keeps_spans(index: usize) -> bool {
    (WARMUP..WARMUP + SPAN_SESSIONS).contains(&index)
}

/// Pool size: one thread is left for the arrival generator. Cached, so
/// timed farm builds do not include the cgroup reads behind it.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        thread::available_parallelism()
            .map_or(1, |n| n.get())
            .saturating_sub(1)
            .max(1)
    })
}

/// How a session entered the farm.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    Warmup,
    /// Open loop, due at this instant.
    Open(Instant),
    /// Part of a capacity burst.
    Burst,
}

struct Submitted {
    index: usize,
    arrival: Arrival,
    soc: u64,
    submit_at: Instant,
}

/// When the build closure of a traced session ran.
#[derive(Debug, Clone, Copy)]
struct BuildSpan {
    start: Instant,
    end: Instant,
}

/// Everything one farm phase measured.
#[derive(Default)]
struct Phase {
    totals: Totals,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Capacity bursts: sessions, committed cycles and wall time.
    burst_sessions: u64,
    burst_cycles: u64,
    burst_ns: u64,
    sim: Profile,
    acc: Profile,
    golden_cycles: u64,
    golden_ns: u64,
    queue_wait_us: Vec<f64>,
    build_us: Vec<f64>,
    slice_us: Vec<f64>,
    /// The open-loop farm's statistics.
    stats: Option<FarmStats>,
    spans: Vec<Span>,
}

/// The build closure's session for SoC `soc`; `span_id` keeps spans.
type Build<M> = fn(u64, Option<u32>) -> Result<SlicedSession<M>, SessionError>;

fn build_plain(soc: u64, _: Option<u32>) -> Result<SlicedSession<AhbDomainModel>, SessionError> {
    Ok(EmuSession::from_blueprint(&figure2_soc(soc))
        .config(auto_config())
        .build()?
        .into_sliced(CYCLES))
}

fn build_timed(
    soc: u64,
    span_id: Option<u32>,
) -> Result<SlicedSession<Timed<AhbDomainModel>>, SessionError> {
    let (sim, acc) = figure2_soc(soc).build_pair()?;
    Ok(
        EmuSession::builder(Timed::new(sim, span_id), Timed::new(acc, span_id))
            .config(auto_config())
            .build()?
            .into_sliced(CYCLES),
    )
}

/// Shim profiles of a finished session's two models.
type Probe<M> = fn(&EmuSession<M>) -> (Profile, Profile, Vec<Span>);

fn probe_plain(_: &EmuSession<AhbDomainModel>) -> (Profile, Profile, Vec<Span>) {
    (Profile::default(), Profile::default(), Vec::new())
}

fn probe_timed(s: &EmuSession<Timed<AhbDomainModel>>) -> (Profile, Profile, Vec<Span>) {
    let mut spans = s.sim_model().take_spans();
    spans.append(&mut s.acc_model().take_spans());
    (s.sim_model().profile(), s.acc_model().profile(), spans)
}

/// One farm and the sessions submitted to it.
struct Feeder<M: DomainModel + Send + 'static> {
    farm: SessionFarm<M>,
    build: Build<M>,
    seed: u64,
    traced: bool,
    /// Index of the next session within the run (selects its SoC).
    next: usize,
    submitted: HashMap<u64, Submitted>,
    build_spans: Arc<Mutex<HashMap<usize, BuildSpan>>>,
}

impl<M: DomainModel + Send + 'static> Feeder<M> {
    fn new(seed: u64, capacity: usize, build: Build<M>, traced: bool, next: usize) -> Self {
        let farm = SessionFarm::new(
            FarmConfig::new()
                .workers(workers())
                .capacity(capacity)
                .keep_sessions(true),
        )
        .expect("farm configuration is valid");
        Feeder {
            farm,
            build,
            seed,
            traced,
            next,
            submitted: HashMap::new(),
            build_spans: Arc::default(),
        }
    }

    fn submit(&mut self, arrival: Arrival) {
        let index = self.next;
        self.next += 1;
        let soc = derive(self.seed, SOC_STREAM, index as u64);
        let span_id = (self.traced && keeps_spans(index)).then_some(index as u32);
        let spans = self.traced.then(|| Arc::clone(&self.build_spans));
        let build = self.build;
        let submit_at = Instant::now();
        let id = self
            .farm
            .submit(move || {
                let start = Instant::now();
                let session = build(soc, span_id);
                if let Some(spans) = spans {
                    let end = Instant::now();
                    spans
                        .lock()
                        .expect("no build closure panics while holding the lock")
                        .insert(index, BuildSpan { start, end });
                }
                session
            })
            .expect("capacity covers every submission");
        self.submitted.insert(
            id,
            Submitted {
                index,
                arrival,
                soc,
                submit_at,
            },
        );
    }

    fn wait_idle(&self) {
        while self.farm.outstanding() > 0 {
            thread::sleep(Duration::from_micros(100));
        }
    }

    /// Joins the farm, golden-checks every session and folds it into `out`;
    /// returns the index of the next session and when the last one finished.
    fn finish(self, probe: Probe<M>, report: &mut RunReport, out: &mut Phase) -> (usize, Instant) {
        let farm_report = self.farm.join();
        let build_spans = std::mem::take(
            &mut *self
                .build_spans
                .lock()
                .expect("no build closure panics while holding the lock"),
        );
        let mut last_done = Instant::now();
        let mut first = true;
        for result in &farm_report.results {
            let Some(sub) = self.submitted.get(&result.id) else {
                report.fail(format!("farm returned unknown session {}", result.id));
                continue;
            };
            report.attempted += 1;
            let session = match (&result.outcome, &result.session) {
                (outcome, Some(session)) if outcome.is_completed() => session,
                (outcome, _) => {
                    report.fail(format!("farm session {}: {outcome}", sub.index));
                    continue;
                }
            };
            let perf = session.report();
            if perf.committed_cycles() < CYCLES {
                report.fail(format!(
                    "farm session {}: committed {} of {CYCLES} cycles",
                    sub.index,
                    perf.committed_cycles()
                ));
                continue;
            }
            let blueprint = figure2_soc(sub.soc);
            let placement = blueprint.placement();
            let merged = session.merged_trace(|s, a| placement.merge_records(s, a));
            let golden = match golden_check(&blueprint, &merged) {
                Ok(g) => g,
                Err(e) => {
                    report.fail(format!(
                        "farm session {} (soc seed {:#x}): {e}",
                        sub.index, sub.soc
                    ));
                    continue;
                }
            };
            let done_at = sub.submit_at + result.latency;
            if first || done_at > last_done {
                last_done = done_at;
                first = false;
            }
            match sub.arrival {
                Arrival::Warmup => continue,
                Arrival::Open(due) => {
                    out.latency_ms.push((done_at - due).as_secs_f64() * 1e3);
                    out.late_ms.push((sub.submit_at - due).as_secs_f64() * 1e3);
                }
                Arrival::Burst => {
                    out.burst_sessions += 1;
                    out.burst_cycles += perf.committed_cycles();
                    continue;
                }
            }
            out.totals.add(&perf, &session.ledger());
            out.golden_cycles += merged.len() as u64;
            out.golden_ns += golden.as_nanos() as u64;
            let (sim, acc, mut spans) = probe(session);
            out.sim.add(&sim);
            out.acc.add(&acc);
            out.spans.append(&mut spans);
            if let Some(b) = build_spans.get(&sub.index) {
                let wait = b.start.saturating_duration_since(sub.submit_at);
                let built = b.end - b.start;
                out.queue_wait_us.push(wait.as_secs_f64() * 1e6);
                out.build_us.push(built.as_secs_f64() * 1e6);
                out.slice_us
                    .push(result.latency.saturating_sub(wait + built).as_secs_f64() * 1e6);
                if keeps_spans(sub.index) {
                    out.spans.push(Span {
                        layer: "farm.build",
                        parent: "farm.session",
                        session: sub.index as u32,
                        start_ns: crate::shims::clock_ns(b.start),
                        dur_ns: built.as_nanos() as u64,
                    });
                }
            }
        }
        if out.stats.is_none() {
            out.stats = Some(farm_report.stats);
        }
        (self.next, last_done)
    }
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread wakes
/// late by a tenth of a millisecond or more on a virtual host, and the
/// generator has a CPU of its own.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One phase: a farm for the warm-up and the open loop over `span`, then a
/// fresh farm per capacity burst until `until`. Every farm keeps its
/// sessions until it is joined and checked, so memory stays bounded by one
/// farm's sessions. Counts and layer times cover the open-loop sessions,
/// whose number the seed fixes.
fn phase<M: DomainModel + Send + 'static>(
    seed: u64,
    span: Duration,
    until: Instant,
    build: Build<M>,
    probe: Probe<M>,
    traced: bool,
    report: &mut RunReport,
) -> Phase {
    let schedule = poisson_schedule(
        derive(seed, SCHEDULE_STREAM, 0),
        RATE_PER_WORKER * workers() as f64,
        span,
    );
    let mut out = Phase::default();
    let mut feeder = Feeder::new(seed, WARMUP + schedule.len(), build, traced, 0);
    for _ in 0..WARMUP {
        feeder.submit(Arrival::Warmup);
    }
    feeder.wait_idle();
    let t0 = Instant::now();
    for offset in &schedule {
        let due = t0 + *offset;
        wait_until(due);
        feeder.submit(Arrival::Open(due));
    }
    let (mut next, _) = feeder.finish(probe, report, &mut out);
    while out.burst_ns == 0 || Instant::now() < until {
        let mut feeder = Feeder::new(seed, BURST, build, traced, next);
        let start = Instant::now();
        for _ in 0..BURST {
            feeder.submit(Arrival::Burst);
        }
        let (after, end) = feeder.finish(probe, report, &mut out);
        next = after;
        out.burst_ns += (end - start).as_nanos() as u64;
    }
    out
}

impl Phase {
    /// Committed cycles per second over the capacity bursts.
    fn burst_cps(&self) -> f64 {
        self.burst_cycles as f64 / (self.burst_ns as f64 * 1e-9)
    }
}

/// Runs `farm_open` and fills its metrics.
pub fn run(args: &Args) -> RunReport {
    let mut report = RunReport::default();
    let seconds = Duration::from_secs(args.seconds);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let workers = workers();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let farm = SessionFarm::<AhbDomainModel>::new(FarmConfig::new().workers(workers))
            .expect("farm configuration is valid");
        setup_s.push(t.elapsed().as_secs_f64());
        farm.join();
    }
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));

    // Each phase spends about half its time in the open loop and the rest
    // in capacity bursts.
    let start = Instant::now();
    let phase_span = if args.trace { seconds / 2 } else { seconds };
    let open = phase_span / 2;
    let plain = phase(
        args.seed,
        open,
        start + phase_span,
        build_plain,
        probe_plain,
        false,
        &mut report,
    );
    set_end_to_end(&mut report, &plain);
    if args.trace {
        let traced = phase(
            args.seed,
            open,
            start + seconds,
            build_timed,
            probe_timed,
            true,
            &mut report,
        );
        if traced.totals != plain.totals {
            report.fail("traced farm sessions committed different outcomes than untraced".into());
        }
        fill_layers(
            &mut report,
            &LayerInputs {
                totals: &traced.totals,
                sim: &traced.sim,
                acc: &traced.acc,
                link: &Profile::default(),
                link_timing: LinkTiming::Unattributed,
                run_ns: 0,
                build_us: &traced.build_us,
                blueprint_us: &[],
                golden_cycles: traced.golden_cycles,
                golden_ns: traced.golden_ns,
            },
        );
        let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 0.5).unwrap_or(0.0);
        report.set("farm.queue_wait_us", p50(&traced.queue_wait_us));
        report.set("farm.build_us", p50(&traced.build_us));
        report.set("farm.slice_us", p50(&traced.slice_us));
        if let Some(stats) = &traced.stats {
            report.set("farm.pool_occupancy", stats.pool_occupancy);
            report.set(
                "farm.parked_per_session",
                stats.parked_events as f64 / stats.completed.max(1) as f64,
            );
        }
        let late = sorted(plain.late_ms.clone());
        report.set(
            "bench.generator_late_ms_p50",
            percentile(&late, 0.5).unwrap_or(0.0),
        );
        report.set(
            "bench.generator_late_ms_max",
            late.last().copied().unwrap_or(0.0),
        );
        let (plain_cps, traced_cps) = (plain.burst_cps(), traced.burst_cps());
        report.set("bench.traced_host_cps", traced_cps);
        report.set(
            "bench.trace_overhead_pct",
            (plain_cps - traced_cps) / plain_cps * 100.0,
        );
        report.notes.push(
            "farm sessions run on the queue without a Transport shim: channel counts are \
             protocol accesses; engine self time is not attributed (0); \
             core.session_build_us = farm.build_us includes the blueprint"
                .into(),
        );
        report.spans = traced.spans;
    }
    report
}

fn set_end_to_end(report: &mut RunReport, p: &Phase) {
    let t = &p.totals;
    report.set("host_cps", p.burst_cps());
    report.set(
        "farm_capacity_sps",
        p.burst_sessions as f64 / (p.burst_ns as f64 * 1e-9),
    );
    report.set("virtual_cps", t.virtual_cps());
    report.set("channel_words_per_cycle", t.words_per_cycle());
    report.set("channel_accesses_per_cycle", t.accesses_per_cycle());
    let latency = sorted(p.latency_ms.clone());
    report.set(
        "bench.session_p50_ms",
        percentile(&latency, 0.5).unwrap_or(0.0),
    );
    set_tail(report, &latency);
    report.notes.push(latency_note(&latency));
    let late = sorted(p.late_ms.clone());
    report.notes.push(format!(
        "{} open-loop sessions at {:.0}/s over {} worker(s), latency from due time; \
         generator late p50 {:.3} ms, max {:.3} ms; host_cps and farm_capacity_sps are \
         totals over {} burst sessions in batches of {BURST}",
        latency.len(),
        RATE_PER_WORKER * workers() as f64,
        workers(),
        percentile(&late, 0.5).unwrap_or(0.0),
        late.last().copied().unwrap_or(0.0),
        p.burst_sessions,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt::core::SliceStatus;

    fn finish<M: DomainModel + Send + 'static>(mut s: SlicedSession<M>) -> EmuSession<M> {
        while s.run_slice(1024).expect("slice runs") != SliceStatus::Done {}
        s.into_session()
    }

    /// A farm session built through the shims commits what the plain build
    /// commits.
    #[test]
    fn timed_farm_sessions_are_transparent() {
        let plain = finish(build_plain(11, None).expect("plain build"));
        let timed = finish(build_timed(11, Some(0)).expect("timed build"));
        let placement = figure2_soc(11).placement();
        let merge = |s: &[u64], a: &[u64]| placement.merge_records(s, a);
        assert_eq!(
            plain.merged_trace(merge).hash(),
            timed.merged_trace(merge).hash()
        );
        let (mut a, mut b) = (Totals::default(), Totals::default());
        a.add(&plain.report(), &plain.ledger());
        b.add(&timed.report(), &timed.ledger());
        assert_eq!(a, b);
        let (sim, _, spans) = probe_timed(&timed);
        assert!(sim.get(crate::shims::Layer::Tick).count >= CYCLES);
        assert!(!spans.is_empty());
    }
}
