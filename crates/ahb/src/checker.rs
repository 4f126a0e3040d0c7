//! AHB protocol checker.
//!
//! Validates per-cycle bus behaviour against the specification rules the rest
//! of the workspace relies on. Enabled on the golden bus in every integration
//! test, so any protocol regression in a master, slave, or the fabric fails
//! loudly with the cycle number and rule.

use crate::burst::{next_addr, BURST_BOUNDARY};
use crate::fabric::CycleView;
use crate::signals::{Hresp, Htrans, MasterSignals, SlaveSignals};
use std::fmt;

/// The rule a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Active address phases must be aligned to the transfer size.
    Alignment,
    /// SEQ must continue a burst: previous phase NONSEQ/SEQ/BUSY, same control,
    /// sequenced address.
    SeqContinuity,
    /// BUSY is only legal inside a multi-beat burst.
    BusyOutsideBurst,
    /// Address/control must be held while the bus is stalled.
    AddressHeldOnWait,
    /// Write data must be held while the data phase is extended.
    WdataHeldOnWait,
    /// ERROR/RETRY/SPLIT are two-cycle responses: first cycle not ready, second
    /// ready, same response.
    TwoCycleResponse,
    /// The cycle after the first error-class cycle must drive IDLE.
    IdleAfterError,
    /// Defined-length incrementing bursts must not cross the 1 kB boundary.
    BurstBoundary,
    /// Grant may only move on a ready cycle.
    GrantStability,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// The broken rule.
    pub rule: Rule,
    /// Human-readable details.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {} — {}", self.cycle, self.rule, self.detail)
    }
}

/// Per-cycle state retained between checks.
#[derive(Debug, Clone)]
struct PrevCycle {
    view: CycleView,
    masters: Vec<MasterSignals>,
}

/// The checker. Feed it every cycle via [`check`](ProtocolChecker::check).
#[derive(Debug, Default)]
pub struct ProtocolChecker {
    prev: Option<PrevCycle>,
    violations: Vec<Violation>,
}

impl ProtocolChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn report(&mut self, cycle: u64, rule: Rule, detail: String) {
        self.violations.push(Violation {
            cycle,
            rule,
            detail,
        });
    }

    /// Checks one cycle.
    pub fn check(
        &mut self,
        cycle: u64,
        view: &CycleView,
        masters: &[MasterSignals],
        _slaves: &[SlaveSignals],
    ) {
        let ap = &view.addr_phase;

        // Alignment of active phases.
        if ap.trans.is_active() && ap.addr % ap.size.bytes() != 0 {
            self.report(
                cycle,
                Rule::Alignment,
                format!(
                    "addr {:#x} not aligned to {} bytes",
                    ap.addr,
                    ap.size.bytes()
                ),
            );
        }

        // Defined-length incrementing bursts inside the 1 kB boundary.
        if ap.trans == Htrans::Nonseq && !ap.burst.is_wrapping() {
            if let Some(beats) = ap.burst.beats() {
                let span = ap.size.bytes() * beats;
                if span > 0 && ap.addr / BURST_BOUNDARY != (ap.addr + span - 1) / BURST_BOUNDARY {
                    self.report(
                        cycle,
                        Rule::BurstBoundary,
                        format!("burst from {:#x} spans {span} bytes across 1kB", ap.addr),
                    );
                }
            }
        }

        let prev_taken = self.prev.take();
        if let Some(prev) = &prev_taken {
            let pap = &prev.view.addr_phase;
            let prev_error_first = !prev.view.hready && prev.view.resp.is_error_class();

            // SEQ continuity and BUSY placement.
            match ap.trans {
                Htrans::Seq | Htrans::Busy => {
                    let burst_live = pap.master == ap.master
                        && matches!(pap.trans, Htrans::Nonseq | Htrans::Seq | Htrans::Busy)
                        && pap.burst != crate::signals::Hburst::Single;
                    if !burst_live {
                        let rule = if ap.trans == Htrans::Busy {
                            Rule::BusyOutsideBurst
                        } else {
                            Rule::SeqContinuity
                        };
                        self.report(
                            cycle,
                            rule,
                            format!("{:?} without a live burst (prev {:?})", ap.trans, pap.trans),
                        );
                    } else if ap.trans == Htrans::Seq {
                        // Control must match; address must follow the sequence
                        // (held during wait states, advanced after acceptance).
                        if ap.size != pap.size || ap.burst != pap.burst || ap.write != pap.write {
                            self.report(
                                cycle,
                                Rule::SeqContinuity,
                                "control changed mid-burst".to_string(),
                            );
                        }
                        let advanced = next_addr(pap.addr, pap.size, pap.burst);
                        let (either, n) = match pap.trans {
                            // After an accepted beat the address advances; after
                            // BUSY or a stalled beat it may advance or hold.
                            Htrans::Nonseq | Htrans::Seq if prev.view.hready => ([advanced; 2], 1),
                            Htrans::Busy => ([pap.addr; 2], 1),
                            _ => ([pap.addr, advanced], 2),
                        };
                        let expected = &either[..n];
                        if !expected.contains(&ap.addr) {
                            self.report(
                                cycle,
                                Rule::SeqContinuity,
                                format!("SEQ addr {:#x}, expected one of {:x?}", ap.addr, expected),
                            );
                        }
                    }
                }
                _ => {}
            }

            // Address/control held while stalled (unless recovering from an
            // error-class response, where the master must IDLE instead).
            if !prev.view.hready && pap.trans.is_active() {
                if prev_error_first {
                    if ap.trans != Htrans::Idle && ap.master == pap.master {
                        self.report(
                            cycle,
                            Rule::IdleAfterError,
                            format!("{:?} driven during error recovery", ap.trans),
                        );
                    }
                } else if ap.master == pap.master
                    && (ap.trans, ap.addr, ap.write, ap.size, ap.burst)
                        != (pap.trans, pap.addr, pap.write, pap.size, pap.burst)
                {
                    self.report(
                        cycle,
                        Rule::AddressHeldOnWait,
                        format!(
                            "address phase changed during wait: {:#x}/{:?} -> {:#x}/{:?}",
                            pap.addr, pap.trans, ap.addr, ap.trans
                        ),
                    );
                }
            }

            // Write data held during extended data phases (not during error
            // responses, where the transfer is already aborted).
            if let (Some(dp), Some(pdp)) = (&view.dp, &prev.view.dp) {
                if dp == pdp
                    && dp.write
                    && !prev.view.hready
                    && prev.view.resp == Hresp::Okay
                    && view.resp == Hresp::Okay
                {
                    let now = masters[dp.master.0].wdata;
                    let before = prev.masters[dp.master.0].wdata;
                    if now != before {
                        self.report(
                            cycle,
                            Rule::WdataHeldOnWait,
                            format!("wdata changed during wait: {before:#x} -> {now:#x}"),
                        );
                    }
                }
            }

            // Two-cycle response shape: a ready error-class response must follow
            // an unready first cycle with the same response.
            if view.hready && view.resp.is_error_class() {
                let ok = !prev.view.hready && prev.view.resp == view.resp;
                if !ok {
                    self.report(
                        cycle,
                        Rule::TwoCycleResponse,
                        format!("{:?} completed without its first cycle", view.resp),
                    );
                }
            }
            // And an unready error-class first cycle must not repeat (the second
            // cycle must be ready).
            if !view.hready && view.resp.is_error_class() && prev_error_first {
                self.report(
                    cycle,
                    Rule::TwoCycleResponse,
                    format!("{:?} first cycle repeated", view.resp),
                );
            }

            // Grant stability: grant may only move after a ready cycle.
            if view.grant != prev.view.grant && !prev.view.hready {
                self.report(
                    cycle,
                    Rule::GrantStability,
                    format!(
                        "grant moved {} -> {} on a wait state",
                        prev.view.grant, view.grant
                    ),
                );
            }
        } else if matches!(ap.trans, Htrans::Seq | Htrans::Busy) {
            self.report(
                cycle,
                Rule::SeqContinuity,
                format!("{:?} on the first observed cycle", ap.trans),
            );
        }

        // Keep this cycle for the next check in the last one's buffer.
        let mut prev_masters = prev_taken.map(|p| p.masters).unwrap_or_default();
        prev_masters.clear();
        prev_masters.extend_from_slice(masters);
        self.prev = Some(PrevCycle {
            view: *view,
            masters: prev_masters,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Arbiter, Decoder, Fabric, Region};
    use crate::signals::{Hburst, Hsize, MasterId, SlaveId};

    fn fabric() -> Fabric {
        Fabric::new(
            Arbiter::new(1, MasterId(0)),
            Decoder::new(vec![Region {
                base: 0,
                size: 0x1000,
                slave: SlaveId(0),
            }])
            .unwrap(),
        )
    }

    fn run_cycle(
        checker: &mut ProtocolChecker,
        fabric: &mut Fabric,
        cycle: u64,
        m: MasterSignals,
        s: SlaveSignals,
    ) {
        let masters = vec![m];
        let slaves = vec![s];
        let view = fabric.view(&masters, &slaves);
        checker.check(cycle, &view, &masters, &slaves);
        fabric.tick(&view, &masters, &slaves);
    }

    #[test]
    fn clean_single_passes() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        m.addr = 0x10;
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        run_cycle(
            &mut checker,
            &mut f,
            1,
            MasterSignals::idle(),
            SlaveSignals::idle(),
        );
        assert!(checker.violations().is_empty());
    }

    #[test]
    fn misaligned_address_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        m.addr = 0x2; // word transfer at halfword address
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::Alignment));
    }

    #[test]
    fn seq_without_burst_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Seq;
        m.addr = 0x4;
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::SeqContinuity));
    }

    #[test]
    fn seq_wrong_address_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        m.burst = Hburst::Incr4;
        m.addr = 0x0;
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        m.trans = Htrans::Seq;
        m.addr = 0x20; // should be 0x4
        run_cycle(&mut checker, &mut f, 1, m, SlaveSignals::idle());
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::SeqContinuity && v.detail.contains("SEQ addr")));
    }

    #[test]
    fn busy_outside_burst_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        m.burst = Hburst::Single;
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        m.trans = Htrans::Busy;
        run_cycle(&mut checker, &mut f, 1, m, SlaveSignals::idle());
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::BusyOutsideBurst));
    }

    #[test]
    fn address_change_during_wait_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        // Cycle 0: NONSEQ accepted.
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        m.addr = 0x10;
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        // Cycle 1: slave stalls; master keeps driving another NONSEQ.
        let mut stall = SlaveSignals::idle();
        stall.ready = false;
        let mut m2 = m;
        m2.addr = 0x20;
        run_cycle(&mut checker, &mut f, 1, m2, stall);
        // Cycle 2: still stalled, master changed the phase => violation.
        let mut m3 = m;
        m3.addr = 0x30;
        run_cycle(&mut checker, &mut f, 2, m3, stall);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::AddressHeldOnWait));
    }

    #[test]
    fn wdata_change_during_wait_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        m.write = true;
        m.addr = 0x10;
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        // Write data phase with wait states.
        let mut stall = SlaveSignals::idle();
        stall.ready = false;
        let mut m1 = MasterSignals::idle();
        m1.wdata = 0x1111;
        run_cycle(&mut checker, &mut f, 1, m1, stall);
        let mut m2 = MasterSignals::idle();
        m2.wdata = 0x2222; // changed during the extended data phase
        run_cycle(&mut checker, &mut f, 2, m2, stall);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::WdataHeldOnWait));
    }

    #[test]
    fn single_cycle_error_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        // Slave answers ERROR with ready high immediately: illegal.
        let mut bad = SlaveSignals::idle();
        bad.resp = Hresp::Error;
        bad.ready = true;
        run_cycle(&mut checker, &mut f, 1, MasterSignals::idle(), bad);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::TwoCycleResponse));
    }

    #[test]
    fn boundary_crossing_burst_flagged() {
        let mut checker = ProtocolChecker::new();
        let mut f = fabric();
        let mut m = MasterSignals::idle();
        m.trans = Htrans::Nonseq;
        m.burst = Hburst::Incr16;
        m.size = Hsize::Word;
        m.addr = 0x3f0; // 16 words from 0x3f0 crosses 0x400
        run_cycle(&mut checker, &mut f, 0, m, SlaveSignals::idle());
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.rule == Rule::BurstBoundary));
    }

    #[test]
    fn violation_display_readable() {
        let v = Violation {
            cycle: 12,
            rule: Rule::Alignment,
            detail: "addr 0x2".to_string(),
        };
        assert_eq!(v.to_string(), "cycle 12: Alignment — addr 0x2");
    }
}
