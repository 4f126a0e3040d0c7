//! Protocol robustness under channel faults, exercised through the
//! [`LossyTransport`] session backend: the co-emulation protocol has no
//! retransmission layer, so injected faults surface as *detected* failures —
//! starvation as a deadlock, layout corruption as a protocol error (see the
//! lossy module docs for the one undetectable case: duplicated conservative
//! exchanges). Also covers the builder's validation path (the
//! `Result`-returning replacement for the old panicking `lob_depth`).

use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::TrafficGenMaster;
use predpkt_ahb::slaves::MemorySlave;
use predpkt_channel::FaultSpec;
use predpkt_core::{
    CoEmuConfig, ConfigError, EmuSession, EventLog, ModePolicy, SessionError, Side, SocBlueprint,
};
use predpkt_sim::SimError;

fn small_soc() -> SocBlueprint {
    SocBlueprint::new()
        .master(Side::Accelerator, || {
            Box::new(
                TrafficGenMaster::from_ops(vec![
                    BusOp::write_single(0x40, 0x1111),
                    BusOp::read_single(0x40),
                ])
                .looping()
                .with_idle_gap(2),
            )
        })
        .slave(Side::Simulator, 0x0, 0x1000, || {
            Box::new(MemorySlave::new(0x1000, 0))
        })
}

fn lossy_run(spec: FaultSpec, cycles: u64) -> Result<(), SimError> {
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    let mut session = EmuSession::from_blueprint(&small_soc())
        .config(config)
        .transport(predpkt_core::TransportSelect::Lossy(spec))
        .build()
        .expect("session builds");
    session.run_until_committed(cycles)
}

#[test]
fn dropped_packets_surface_as_deadlock() {
    // With every packet dropped the handshake never completes: starvation,
    // detected as a deadlock (pending count reaches zero while both block).
    match lossy_run(FaultSpec::drops(0xd00d, 1.0), 2_000) {
        Err(SimError::Deadlock { .. }) => {}
        other => panic!("expected deadlock, got {other:?}"),
    }
    // With a moderate rate the run desynchronizes mid-stream: either side may
    // starve (deadlock) or receive a message its phase cannot accept
    // (protocol error). Both are detected failures — never silent corruption.
    match lossy_run(FaultSpec::drops(0xd00d, 0.2), 2_000) {
        Err(SimError::Deadlock { .. }) | Err(SimError::Config(_)) => {}
        other => panic!("expected a detected failure, got {other:?}"),
    }
}

#[test]
fn truncated_packets_are_rejected_by_the_decoder() {
    // Payload truncation violates the fixed message layout; the wrapper's
    // decode path must fail loudly rather than tick on garbage.
    match lossy_run(FaultSpec::truncations(0xbad, 1.0), 2_000) {
        Err(SimError::Config(msg)) => {
            assert!(msg.contains("protocol"), "unexpected message: {msg}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
}

#[test]
fn duplicated_packets_are_rejected_as_unexpected() {
    // A duplicated message arrives in a wrapper phase that does not expect
    // it (e.g. a second handshake where outputs are awaited). Note this
    // guarantee does not extend to duplicated conservative `CycleOutputs`
    // exchanges — the wire format has no sequence numbers, so those are
    // indistinguishable from fresh exchanges (see the lossy module docs).
    match lossy_run(FaultSpec::duplicates(0xd0b1e, 1.0), 2_000) {
        Err(SimError::Config(_)) | Err(SimError::Deadlock { .. }) => {}
        other => panic!("expected detected failure, got {other:?}"),
    }
}

#[test]
fn faultless_lossy_session_completes_and_reports() {
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    let log = EventLog::new();
    let mut session = EmuSession::from_blueprint(&small_soc())
        .config(config)
        .transport(predpkt_core::TransportSelect::Lossy(FaultSpec::none(3)))
        .observer(Box::new(log.clone()))
        .build()
        .expect("session builds");
    session
        .run_until_committed(500)
        .expect("fault-free run completes");
    assert!(session.committed_cycles() >= 500);
    let faults = session
        .fault_stats()
        .expect("lossy backend reports fault stats");
    assert_eq!(faults.total(), 0);
    assert!(!log.is_empty(), "observer saw the event stream");
}

#[test]
fn builder_rejects_zero_lob_depth() {
    let result = EmuSession::from_blueprint(&small_soc())
        .lob_depth(0)
        .build();
    match result {
        Err(SessionError::Config(ConfigError::ZeroLobDepth)) => {}
        other => panic!("expected ZeroLobDepth, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn builder_rejects_out_of_range_fault_rates() {
    let result = EmuSession::from_blueprint(&small_soc())
        .transport(predpkt_core::TransportSelect::Lossy(FaultSpec::drops(
            0, 1.5,
        )))
        .build();
    match result {
        Err(SessionError::Config(ConfigError::InvalidFaultSpec { field, detail })) => {
            assert_eq!(field, "drop_rate", "unexpected field: {field}: {detail}");
        }
        other => panic!("expected InvalidFaultSpec, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn builder_names_the_offending_field_uniformly_across_backends() {
    // The same malformed FaultSpec must produce the same ConfigError whether
    // it arrives via the plain lossy backend, under the reliability layer, or
    // on the TCP socket path — and reliable-knob rejections use the same
    // field-naming shape.
    let bad_spec = FaultSpec::truncations(7, f64::NAN);
    let field_of = |transport| match EmuSession::from_blueprint(&small_soc())
        .transport(transport)
        .build()
    {
        Err(SessionError::Config(e)) => {
            assert_eq!(e.field(), Some("truncate_rate"), "{e}");
            assert!(e.to_string().contains("truncate_rate"), "{e}");
        }
        other => panic!("expected ConfigError, got {:?}", other.map(|_| ())),
    };
    field_of(predpkt_core::TransportSelect::Lossy(bad_spec));
    field_of(predpkt_core::TransportSelect::Reliable {
        inner: predpkt_core::ReliableInner::Lossy(bad_spec),
        window: 8,
        retry_budget: 16,
    });
    field_of(predpkt_core::TransportSelect::Tcp(
        predpkt_core::TcpOptions::default().fault(bad_spec),
    ));
    field_of(predpkt_core::TransportSelect::Reliable {
        inner: predpkt_core::ReliableInner::Tcp(
            predpkt_core::TcpOptions::default().fault(bad_spec),
        ),
        window: 8,
        retry_budget: 16,
    });

    match EmuSession::from_blueprint(&small_soc())
        .transport(predpkt_core::TransportSelect::Reliable {
            inner: predpkt_core::ReliableInner::Queue,
            window: 0,
            retry_budget: 16,
        })
        .build()
    {
        Err(SessionError::Config(e @ ConfigError::InvalidReliableConfig { .. })) => {
            assert_eq!(e.field(), Some("window"), "{e}");
            assert!(e.to_string().contains("window"), "{e}");
        }
        other => panic!(
            "expected InvalidReliableConfig, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn try_lob_depth_validates_and_sets() {
    assert_eq!(
        CoEmuConfig::paper_defaults().try_lob_depth(0).unwrap_err(),
        ConfigError::ZeroLobDepth
    );
    let config = CoEmuConfig::paper_defaults().try_lob_depth(16).unwrap();
    assert_eq!(config.lob_depth, 16);
    assert!(config.validate().is_ok());
}
