//! The metric catalogue and the result a run prints.

use std::collections::BTreeMap;

use predpkt::sim::CostCategory;

use crate::session::Totals;
use crate::shims::{Layer, Profile, Span, Stat};
use crate::stats::{percentile, tail};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_cps", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed_ratio", "ratio"),
    ("virtual_cps", "cycles/s"),
    ("channel_words_per_cycle", "words/cycle"),
    ("channel_accesses_per_cycle", "1/cycle"),
    ("farm_capacity_sps", "sessions/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Layers
/// are named after the crates; `twin.*` pairs each virtual-time category of
/// the paper with the host time spent on the same work; `bench.*` describes
/// the benchmark itself.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.save_count", "1/kcycle"),
    ("sim.save_ns", "ns"),
    ("sim.restore_count", "1/kcycle"),
    ("sim.restore_ns", "ns"),
    ("sim.snapshot_words", "words"),
    ("sim.truncate_count", "1/kcycle"),
    ("ahb.tick_count_per_cycle", "1/cycle"),
    ("ahb.tick_ns", "ns"),
    ("ahb.verify_ns", "ns"),
    ("ahb.outputs_ns", "ns"),
    ("ahb.golden_cps", "cycles/s"),
    ("predict.calls", "1/kcycle"),
    ("predict.ns", "ns"),
    ("predict.observed_accuracy", "ratio"),
    ("channel.send_count", "1/kcycle"),
    ("channel.send_ns", "ns"),
    ("channel.recv_count", "1/kcycle"),
    ("channel.recv_empty_ratio", "ratio"),
    ("channel.wait_ns_per_cycle", "ns/cycle"),
    ("core.self_ns_per_cycle", "ns/cycle"),
    ("core.session_build_us", "us"),
    ("core.rollbacks_per_kcycle", "1/kcycle"),
    ("core.replayed_per_kcycle", "1/kcycle"),
    ("core.useful_speculation_ratio", "ratio"),
    ("workloads.blueprint_us", "us"),
    ("farm.queue_wait_us", "us"),
    ("farm.build_us", "us"),
    ("farm.slice_us", "us"),
    ("farm.pool_occupancy", "ratio"),
    ("farm.parked_per_session", "1/session"),
    ("twin.simulator.virtual_ns_per_cycle", "ns/cycle"),
    ("twin.simulator.host_ns_per_cycle", "ns/cycle"),
    ("twin.accelerator.virtual_ns_per_cycle", "ns/cycle"),
    ("twin.accelerator.host_ns_per_cycle", "ns/cycle"),
    ("twin.state_store.virtual_ns_per_cycle", "ns/cycle"),
    ("twin.state_store.host_ns_per_cycle", "ns/cycle"),
    ("twin.state_restore.virtual_ns_per_cycle", "ns/cycle"),
    ("twin.state_restore.host_ns_per_cycle", "ns/cycle"),
    ("twin.channel.virtual_ns_per_cycle", "ns/cycle"),
    ("twin.channel.host_ns_per_cycle", "ns/cycle"),
    ("bench.session_p50_ms", "ms"),
    ("bench.session_p99_ms", "ms"),
    ("bench.traced_host_cps", "cycles/s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.generator_late_ms_p50", "ms"),
    ("bench.generator_late_ms_max", "ms"),
];

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable remarks printed before the result.
    pub notes: Vec<String>,
    /// Spans kept by the traced run, written out at the end.
    pub spans: Vec<Span>,
}

impl RunReport {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Builds the final JSON line for `catalogue`; `correct` is false when
    /// any operation failed or a metric is missing or not finite.
    pub fn result_json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How a traced phase timed the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTiming {
    /// One thread, transport behind a shim: sends and receives are timed
    /// and nothing waits.
    Shimmed,
    /// One thread per side over a socket: each side's run wall minus its
    /// model time is channel wait (and the engine's own work, which cannot
    /// be told apart from outside).
    Waited,
    /// Farm slices: the engine's wall time is interleaved with other
    /// sessions, so neither channel nor engine self time is attributed.
    Unattributed,
}

/// The inputs of the per-layer metrics of one traced phase.
pub struct LayerInputs<'a> {
    pub totals: &'a Totals,
    pub sim: &'a Profile,
    pub acc: &'a Profile,
    pub link: &'a Profile,
    pub link_timing: LinkTiming,
    /// Session run wall summed over sessions (per side on `Waited`).
    pub run_ns: u64,
    pub build_us: &'a [f64],
    pub blueprint_us: &'a [f64],
    pub golden_cycles: u64,
    pub golden_ns: u64,
}

fn mean_ns(s: Stat) -> f64 {
    if s.count == 0 {
        0.0
    } else {
        s.ns as f64 / s.count as f64
    }
}

/// Host nanoseconds a side's model spent on simulation work (everything
/// but snapshots).
fn model_work_ns(p: &Profile) -> u64 {
    [
        Layer::Tick,
        Layer::Outputs,
        Layer::Predict,
        Layer::Verify,
        Layer::Truncate,
    ]
    .iter()
    .map(|&l| p.get(l).ns)
    .sum()
}

/// Sets every per-layer metric that single sessions produce.
pub fn fill_layers(r: &mut RunReport, inp: &LayerInputs<'_>) {
    let t = inp.totals;
    let cycles = t.cycles.max(1) as f64;
    let per_kcycle = |count: u64| count as f64 * 1e3 / cycles;
    let per_cycle = |ns: f64| ns / cycles;
    let mut model = inp.sim.clone();
    model.add(inp.acc);
    let save = model.get(Layer::Save);
    let restore = model.get(Layer::Restore);
    r.set("sim.save_count", per_kcycle(save.count));
    r.set("sim.save_ns", mean_ns(save));
    r.set("sim.restore_count", per_kcycle(restore.count));
    r.set("sim.restore_ns", mean_ns(restore));
    r.set(
        "sim.snapshot_words",
        model.restore_words as f64 / restore.count.max(1) as f64,
    );
    r.set(
        "sim.truncate_count",
        per_kcycle(model.get(Layer::Truncate).count),
    );
    r.set(
        "ahb.tick_count_per_cycle",
        model.get(Layer::Tick).count as f64 / cycles,
    );
    r.set("ahb.tick_ns", mean_ns(model.get(Layer::Tick)));
    r.set("ahb.verify_ns", mean_ns(model.get(Layer::Verify)));
    r.set("ahb.outputs_ns", mean_ns(model.get(Layer::Outputs)));
    r.set(
        "ahb.golden_cps",
        inp.golden_cycles as f64 / (inp.golden_ns.max(1) as f64 * 1e-9),
    );
    r.set("predict.calls", per_kcycle(model.get(Layer::Predict).count));
    r.set("predict.ns", mean_ns(model.get(Layer::Predict)));
    r.set("predict.observed_accuracy", t.observed_accuracy());

    let model_ns = model.total_ns() as f64;
    let (send_count, send_ns, recv_count, empty, wait, core_self, channel_host) =
        match inp.link_timing {
            LinkTiming::Shimmed => {
                let (send, recv) = (inp.link.get(Layer::Send), inp.link.get(Layer::Recv));
                let link_ns = inp.link.total_ns() as f64;
                (
                    per_kcycle(send.count),
                    mean_ns(send),
                    per_kcycle(recv.count),
                    inp.link.recv_empty as f64 / recv.count.max(1) as f64,
                    0.0,
                    per_cycle(inp.run_ns as f64 - model_ns - link_ns),
                    per_cycle(link_ns),
                )
            }
            LinkTiming::Waited => {
                let wait = per_cycle(2.0 * inp.run_ns as f64 - model_ns);
                let accesses = per_kcycle(t.accesses);
                (accesses, 0.0, accesses, 0.0, wait, 0.0, wait)
            }
            LinkTiming::Unattributed => {
                let accesses = per_kcycle(t.accesses);
                (accesses, 0.0, accesses, 0.0, 0.0, 0.0, 0.0)
            }
        };
    r.set("channel.send_count", send_count);
    r.set("channel.send_ns", send_ns);
    r.set("channel.recv_count", recv_count);
    r.set("channel.recv_empty_ratio", empty);
    r.set("channel.wait_ns_per_cycle", wait);
    r.set("core.self_ns_per_cycle", core_self);
    r.set(
        "core.session_build_us",
        crate::stats::median(inp.build_us).unwrap_or(0.0),
    );
    r.set(
        "workloads.blueprint_us",
        crate::stats::median(inp.blueprint_us).unwrap_or(0.0),
    );
    r.set("core.rollbacks_per_kcycle", t.per_kcycle(t.rollbacks));
    r.set("core.replayed_per_kcycle", t.per_kcycle(t.replayed));
    r.set(
        "core.useful_speculation_ratio",
        t.useful_speculation_ratio(),
    );

    let twins = [
        (
            CostCategory::Simulator,
            "twin.simulator.virtual_ns_per_cycle",
            "twin.simulator.host_ns_per_cycle",
            model_work_ns(inp.sim) as f64,
        ),
        (
            CostCategory::Accelerator,
            "twin.accelerator.virtual_ns_per_cycle",
            "twin.accelerator.host_ns_per_cycle",
            model_work_ns(inp.acc) as f64,
        ),
        (
            CostCategory::StateStore,
            "twin.state_store.virtual_ns_per_cycle",
            "twin.state_store.host_ns_per_cycle",
            save.ns as f64,
        ),
        (
            CostCategory::StateRestore,
            "twin.state_restore.virtual_ns_per_cycle",
            "twin.state_restore.host_ns_per_cycle",
            restore.ns as f64,
        ),
        (
            CostCategory::Channel,
            "twin.channel.virtual_ns_per_cycle",
            "twin.channel.host_ns_per_cycle",
            channel_host * cycles,
        ),
    ];
    for (cat, virtual_name, host_name, host_ns) in twins {
        r.set(virtual_name, t.virtual_ns_per_cycle(cat));
        r.set(host_name, per_cycle(host_ns));
    }
}

/// Sets `bench.session_p99_ms`: the p99, or the highest percentile below
/// it that has ten samples beyond it, saying which.
///
/// Session latencies are per-layer metrics, not end-to-end ones: on a
/// shared virtual host, thread wake-ups set the open loop's median and
/// stalls of several milliseconds its tail, and both spread between runs by
/// more than any bound a regression gate could use.
pub fn set_tail(report: &mut RunReport, sorted_ms: &[f64]) {
    match tail(sorted_ms, 0.99) {
        Some((q, v)) => {
            report.set("bench.session_p99_ms", v);
            if q < 0.99 {
                report.notes.push(format!(
                    "bench.session_p99_ms reports p{:.0}: {} sessions leave fewer than ten beyond p99",
                    q * 100.0,
                    sorted_ms.len()
                ));
            }
        }
        None => report.notes.push(format!(
            "{} sessions are too few for a tail percentile",
            sorted_ms.len()
        )),
    }
}

/// The latency percentiles that have enough samples, for the human-readable
/// output.
pub fn latency_note(sorted_ms: &[f64]) -> String {
    let shown: Vec<String> = [0.5, 0.9, 0.95, 0.99]
        .into_iter()
        .filter_map(|q| percentile(sorted_ms, q).map(|v| format!("p{:.0} {v:.3}", q * 100.0)))
        .collect();
    format!(
        "session latency over {} sessions (ms): {}",
        sorted_ms.len(),
        shown.join(", ")
    )
}

/// A finite float as JSON, with every digit of Rust's shortest round-trip
/// formatting (`1.5`, `3.0`, `1e-7`).
pub fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(catalogue: &[(&str, &str)]) -> Vec<String> {
        catalogue.iter().map(|(n, _)| n.to_string()).collect()
    }

    /// The catalogue here and the one the benchmark is judged by agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for section in ["end_to_end", "per_layer"] {
            let catalogue = if section == "end_to_end" {
                END_TO_END
            } else {
                PER_LAYER
            };
            let body = json
                .split(&format!("\"{section}\""))
                .nth(1)
                .and_then(|rest| rest.split(']').next())
                .expect("section present");
            let listed: Vec<String> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect();
            assert_eq!(listed, names(catalogue), "{section}");
            for &(name, unit) in catalogue {
                assert!(
                    body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{name} unit {unit}"
                );
            }
        }
    }

    #[test]
    fn result_json_flags_missing_metrics() {
        let mut r = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        r.set("host_cps", 1.5);
        let line = r.result_json(&[("host_cps", "cycles/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"host_cps\": {\"value\": 1.5, \"unit\": \"cycles/s\"}}}"
        );
        assert!(r
            .result_json(&[("setup_s", "s")])
            .starts_with("{\"correct\": false"));
    }
}
