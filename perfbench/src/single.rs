//! The single-session workloads: `spec_queue` and `conservative_tcp`.
//!
//! A run builds fresh sessions of `figure2_soc`, cycling through
//! [`SOC_SEEDS`] SoCs derived from the run seed. Phases run whole rounds
//! (one session per SoC), so every count and ratio over a phase repeats
//! exactly for a seed however many rounds fit in the time.

use std::time::{Duration, Instant};

use predpkt::core::CoEmuConfig;

use crate::metrics::{fill_layers, latency_note, set_tail, LayerInputs, LinkTiming, RunReport};
use crate::session::{build, golden_check, Link, SessionRun, Totals};
use crate::shims::{Profile, Span};
use crate::stats::{derive, median, percentile, sorted};
use crate::Args;

/// SoCs per round.
const SOC_SEEDS: u64 = 32;
/// Untimed sessions before the first timed phase.
const WARMUP: u64 = 8;
/// Traced sessions that keep every span (the rest keep counters only).
const SPAN_SESSIONS: usize = 2;
const SOC_STREAM: u64 = 0x50c;

/// A single-session workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub link: Link,
    pub config: CoEmuConfig,
    /// Committed cycles per session.
    pub cycles: u64,
}

/// The SoC seed of session `i` of a run.
fn soc_seed(seed: u64, i: u64) -> u64 {
    derive(seed, SOC_STREAM, i)
}

/// Everything one phase measured.
#[derive(Default)]
struct Phase {
    totals: Totals,
    /// The first whole round; every later round must repeat it exactly.
    first_round: Option<Totals>,
    setup_s: Vec<f64>,
    latency_ms: Vec<f64>,
    build_us: Vec<f64>,
    blueprint_us: Vec<f64>,
    run_ns: u64,
    sim: Profile,
    acc: Profile,
    link: Profile,
    golden_cycles: u64,
    golden_ns: u64,
    spans: Vec<Span>,
}

impl Phase {
    /// Committed cycles per second of session run time: a total over the
    /// phase, so a stalled session counts for its whole length.
    fn host_cps(&self) -> f64 {
        self.totals.cycles as f64 / (self.run_ns as f64 * 1e-9)
    }

    fn absorb(&mut self, run: SessionRun, golden: Duration) {
        self.totals.add(&run.report, &run.ledger);
        self.setup_s.push(run.setup_ns() as f64 * 1e-9);
        self.latency_ms
            .push((run.setup_ns() + run.run_ns) as f64 * 1e-6);
        self.build_us.push(run.build_ns as f64 * 1e-3);
        self.blueprint_us.push(run.blueprint_ns as f64 * 1e-3);
        self.run_ns += run.run_ns;
        self.sim.add(&run.sim);
        self.acc.add(&run.acc);
        self.link.add(&run.link);
        self.golden_cycles += run.merged.len() as u64;
        self.golden_ns += golden.as_nanos() as u64;
        self.spans.extend(run.spans);
    }
}

/// Golden-checks a session that ran; a failure is counted in `report`.
fn checked(
    plan: &Plan,
    soc: u64,
    run: Result<SessionRun, String>,
    report: &mut RunReport,
) -> Option<(SessionRun, Duration)> {
    report.attempted += 1;
    let checked = run.and_then(|run| {
        if run.report.committed_cycles() < plan.cycles {
            return Err(format!(
                "committed {} of {} cycles",
                run.report.committed_cycles(),
                plan.cycles
            ));
        }
        golden_check(&run.blueprint, &run.merged).map(|golden| (run, golden))
    });
    checked
        .map_err(|e| report.fail(format!("session on soc seed {soc:#x}: {e}")))
        .ok()
}

/// Runs whole rounds, at least one, until `until` has passed. Each round
/// first builds all its sessions, then runs them: builds measured back to
/// back are alike, while a build right after a run pays for whatever that
/// run left in the caches and the allocator, a cost that changes from run
/// to run by half.
fn phase(plan: &Plan, seed: u64, traced: bool, until: Instant, report: &mut RunReport) -> Phase {
    let mut out = Phase::default();
    let mut round_no = 0u64;
    while round_no == 0 || Instant::now() < until {
        let socs: Vec<u64> = (0..SOC_SEEDS).map(|i| soc_seed(seed, i)).collect();
        let built: Vec<_> = socs
            .iter()
            .enumerate()
            .map(|(i, &soc)| {
                let span_id = (traced && round_no == 0 && i < SPAN_SESSIONS).then_some(i as u32);
                build(plan.link, plan.config, soc, traced, span_id)
            })
            .collect();
        let mut round = Totals::default();
        for (soc, session) in socs.into_iter().zip(built) {
            let run = session.and_then(|s| s.run(plan.cycles));
            if let Some((run, golden)) = checked(plan, soc, run, report) {
                round.add(&run.report, &run.ledger);
                out.absorb(run, golden);
            }
        }
        match &out.first_round {
            None => out.first_round = Some(round),
            Some(first) if *first != round => {
                report.fail(format!("round {round_no} differs from round 0"))
            }
            Some(_) => {}
        }
        round_no += 1;
    }
    out
}

/// Runs a single-session workload and fills its metrics.
pub fn run(plan: &Plan, args: &Args) -> RunReport {
    let mut report = RunReport::default();
    let start = Instant::now();
    let seconds = Duration::from_secs(args.seconds);
    // Untimed sessions fill caches and lazily set-up state.
    for i in 0..WARMUP {
        let soc = soc_seed(args.seed, i);
        let run = build(plan.link, plan.config, soc, false, None).and_then(|s| s.run(plan.cycles));
        checked(plan, soc, run, &mut report);
    }
    let measure_end = if args.trace {
        start + seconds / 2
    } else {
        start + seconds
    };
    let plain = phase(plan, args.seed, false, measure_end, &mut report);
    set_end_to_end(&mut report, &plain);
    if args.trace {
        let traced = phase(plan, args.seed, true, start + seconds, &mut report);
        if traced.first_round != plain.first_round {
            report.fail("traced sessions committed different outcomes than untraced".into());
        }
        fill_layers(
            &mut report,
            &LayerInputs {
                totals: &traced.totals,
                sim: &traced.sim,
                acc: &traced.acc,
                link: &traced.link,
                link_timing: match plan.link {
                    Link::Queue => LinkTiming::Shimmed,
                    Link::Tcp => LinkTiming::Waited,
                },
                run_ns: traced.run_ns,
                build_us: &traced.build_us,
                blueprint_us: &traced.blueprint_us,
                golden_cycles: traced.golden_cycles,
                golden_ns: traced.golden_ns,
            },
        );
        let (plain_cps, traced_cps) = (plain.host_cps(), traced.host_cps());
        report.set("bench.traced_host_cps", traced_cps);
        report.set(
            "bench.trace_overhead_pct",
            (plain_cps - traced_cps) / plain_cps * 100.0,
        );
        for name in [
            "farm.queue_wait_us",
            "farm.build_us",
            "farm.slice_us",
            "farm.pool_occupancy",
            "farm.parked_per_session",
            "bench.generator_late_ms_p50",
            "bench.generator_late_ms_max",
        ] {
            report.set(name, 0.0);
        }
        report.notes.push(match plan.link {
            Link::Queue => "channel.* timed at a Transport shim; farm.* and bench.generator_* \
                            do not apply (0)"
                .into(),
            Link::Tcp => "channel.wait_ns_per_cycle = per-side run wall minus model time \
                          (includes the engine's own work, so core.self_ns_per_cycle is 0); \
                          channel counts are protocol accesses"
                .into(),
        });
        report.spans = traced.spans;
    }
    report
}

fn set_end_to_end(report: &mut RunReport, p: &Phase) {
    let t = &p.totals;
    report.set("host_cps", p.host_cps());
    report.set("setup_s", median(&p.setup_s).unwrap_or(0.0));
    report.set("virtual_cps", t.virtual_cps());
    report.set("channel_words_per_cycle", t.words_per_cycle());
    report.set("channel_accesses_per_cycle", t.accesses_per_cycle());
    let latency = sorted(p.latency_ms.clone());
    report.notes.push(latency_note(&latency));
    set_tail(report, &latency);
    let p50_ms = percentile(&latency, 0.5).unwrap_or(0.0);
    report.set("bench.session_p50_ms", p50_ms);
    report.set("farm_capacity_sps", 1e3 / p50_ms);
    report.notes.push(format!(
        "{} sessions of {} SoCs; farm_capacity_sps = sessions per second at the median latency, \
         one at a time",
        t.sessions, SOC_SEEDS
    ));
}
