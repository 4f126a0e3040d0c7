//! E11 — fabric scaling: one co-emulation spread over N domains on a routed
//! full-mesh link fabric.
//!
//! Sweeps the domain count over threaded mesh links (one OS thread per
//! domain, N·(N−1)/2 links) and reports wall time, per-domain committed
//! cycles, and aggregate channel traffic — the cost curve of going from the
//! paper's two domains to a wider fabric. Before the timed sweep, a
//! bit-identity probe checks that a threaded 3-domain fabric commits exactly
//! what the co-operative queue-fabric baseline commits, per domain and per
//! edge.
//!
//! Run: `cargo run -p predpkt-bench --release --bin fabric_sweep [cycles]`
//! Pass `--json` to also write `BENCH_fabric_sweep.json` for tracking, and
//! `--quick` for the reduced-cycle CI configuration.

use std::time::Instant;

use predpkt_bench::args::{write_bench_json, BenchArgs, JsonValue};
use predpkt_bench::loopback::bench_opts;
use predpkt_core::{CoEmuConfig, FabricSession, ModePolicy, SocBlueprint, TransportSelect};
use predpkt_workloads::figure2_soc;

/// Domain counts swept (the full mesh grows quadratically in links: 1, 6,
/// 28, 120).
const FULL_SWEEP: &[usize] = &[2, 4, 8, 16];
const QUICK_SWEEP: &[usize] = &[2, 4, 8];
const PROBE_CYCLES: u64 = 120;
const PROBE_DOMAINS: usize = 3;

fn config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
}

/// One fabric run: build, run to `cycles`, return (wall, session).
fn run_fabric(
    blueprint: &SocBlueprint,
    domains: usize,
    link: TransportSelect,
    cycles: u64,
) -> (std::time::Duration, FabricSession) {
    let mut session = FabricSession::from_blueprint(blueprint, domains)
        .config(config())
        .link(link)
        .build()
        .expect("fabric session builds");
    let t0 = Instant::now();
    session
        .run_until_committed(cycles)
        .expect("fabric run completes");
    (t0.elapsed(), session)
}

/// Per-domain and per-edge results of a probe run, for bit-identity
/// comparison across runners.
fn probe_fingerprint(session: &FabricSession, blueprint: &SocBlueprint) -> Vec<u64> {
    let placement = blueprint.placement();
    let mut out = Vec::new();
    for d in 0..session.domains() {
        out.push(session.domain_committed(d));
        out.push(session.domain_ledger(d).total().as_picos());
        out.push(session.domain_channel_stats(d).total_words());
    }
    for e in 0..session.edges().len() {
        out.push(
            session
                .edge_trace(e, |s, a| placement.merge_records(s, a))
                .hash(),
        );
    }
    out
}

/// The bit-identity probe: a threaded 3-domain fabric against the
/// co-operative queue-fabric baseline.
fn probe_bit_identity() -> bool {
    let blueprint = figure2_soc(0);
    let (_, baseline) = run_fabric(
        &blueprint,
        PROBE_DOMAINS,
        TransportSelect::Queue,
        PROBE_CYCLES,
    );
    let (_, threaded) = run_fabric(
        &blueprint,
        PROBE_DOMAINS,
        TransportSelect::Threaded(bench_opts()),
        PROBE_CYCLES,
    );
    let identical =
        probe_fingerprint(&baseline, &blueprint) == probe_fingerprint(&threaded, &blueprint);
    println!(
        "  bit-identity fabric n={PROBE_DOMAINS} {}",
        if identical {
            "ok"
        } else {
            "DIVERGED (conformance bug!)"
        }
    );
    identical
}

fn main() {
    let args = BenchArgs::parse();
    let cycles = args.cycles(400, 120);
    let sweep = if args.quick { QUICK_SWEEP } else { FULL_SWEEP };

    println!("== Fabric sweep: N-domain co-emulation over threaded mesh links ==");
    println!("({cycles} committed cycles per run, full mesh, one thread per domain)\n");
    let identical = probe_bit_identity();

    println!(
        "\n{:>4} {:>6} {:>12} {:>14} {:>14}",
        "n", "links", "wall", "words/domain", "wall/link"
    );
    let mut rows = Vec::new();
    for &n in sweep {
        let blueprint = figure2_soc(0);
        // One untimed warmup run per shape absorbs first-touch costs
        // (thread spawn paths, allocator growth) before the timed run.
        let _ = run_fabric(
            &blueprint,
            n,
            TransportSelect::Threaded(bench_opts()),
            cycles.min(60),
        );
        let (wall, session) = run_fabric(
            &blueprint,
            n,
            TransportSelect::Threaded(bench_opts()),
            cycles,
        );
        let links = n * (n - 1) / 2;
        let total_words = session.channel_stats().total_words();
        let words_per_domain = total_words / n as u64;
        println!(
            "{:>4} {:>6} {:>12.2?} {:>14} {:>14.2?}",
            n,
            links,
            wall,
            words_per_domain,
            wall / links as u32,
        );
        rows.push(vec![
            ("backend", JsonValue::from(format!("n{n}"))),
            ("domains", JsonValue::from(n)),
            ("links", JsonValue::from(links)),
            ("wall_us", JsonValue::from(wall.as_micros() as u64)),
            ("channel_words", JsonValue::from(total_words)),
            ("words_per_domain", JsonValue::from(words_per_domain)),
            (
                "committed_cycles",
                JsonValue::from(session.committed_cycles()),
            ),
        ]);
    }
    println!(
        "\nEvery domain halts at the same transition boundary regardless of N;\n\
         the sweep measures fabric overhead, not protocol divergence."
    );

    if args.json {
        write_bench_json(
            "fabric_sweep",
            &[
                ("cycles", JsonValue::from(cycles)),
                ("trace_identical", JsonValue::from(u64::from(identical))),
            ],
            &rows,
        );
    }
    assert!(identical, "threaded fabric diverged from queue baseline");
}
