//! The AHB half-bus domain model (HBMS / HBMA with channel-wrapper mimicry).
//!
//! An [`AhbDomainModel`] holds the components placed in its domain, a full
//! replica of the bus fabric (arbiter + decoder — the paper removes their
//! outputs from the exchanged signal set because both replicas deduce them from
//! the same inputs), and *proxy slots* for the remote components carrying the
//! most recent exchanged or predicted signal values.
//!
//! ## The MSABS active projection
//!
//! Prediction checking compares signal vectors only in positions that can
//! influence the leader domain's state (the paper's *minimal set of active bus
//! signals*, §3): arbitration requests always; address/control only for the
//! granted master; write data only when it crosses into the leader domain; read
//! data only when a leader-side master consumes it; the data-phase slave's
//! ready/response; HSPLIT and IRQ always. Inactive positions are free — a
//! mispredicted idle address bus costs nothing.

use crate::blueprint::Placement;
use crate::model::{DomainModel, TickKind};
use predpkt_ahb::fabric::{CycleView, Fabric};
use predpkt_ahb::signals::{MasterId, MasterSignals, SlaveId, SlaveSignals};
use predpkt_ahb::{AhbMaster, AhbSlave, MAX_COMPONENTS};
use predpkt_channel::Side;
use predpkt_predict::{MasterPredictor, PredictorSuite, SlavePredictor};
use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter, Trace, TraceMark};

/// One verification domain of a split AHB SoC. See the module docs.
pub struct AhbDomainModel {
    side: Side,
    placement: Placement,
    masters: Vec<Option<Box<dyn AhbMaster>>>,
    slaves: Vec<Option<Box<dyn AhbSlave>>>,
    fabric: Fabric,
    /// Proxy values for remote masters (last exchanged or predicted).
    remote_m: Vec<MasterSignals>,
    /// Proxy values for remote slaves.
    remote_s: Vec<SlaveSignals>,
    m_pred: Vec<Option<Box<dyn MasterPredictor>>>,
    s_pred: Vec<Option<Box<dyn SlavePredictor>>>,
    trace: Trace,
    cycle: u64,
}

impl AhbDomainModel {
    /// Assembles a domain. Component slots must be `Some` exactly where
    /// `placement` assigns this `side`; predictors for the remote slots are
    /// requested from `suite`.
    ///
    /// # Panics
    ///
    /// Panics if a slot contradicts the placement, or on more than
    /// [`MAX_COMPONENTS`] masters or slaves.
    pub(crate) fn new(
        side: Side,
        placement: Placement,
        masters: Vec<Option<Box<dyn AhbMaster>>>,
        slaves: Vec<Option<Box<dyn AhbSlave>>>,
        fabric: Fabric,
        suite: &dyn PredictorSuite,
    ) -> Self {
        assert_eq!(masters.len(), placement.masters.len());
        assert_eq!(slaves.len(), placement.slaves.len());
        assert!(
            masters.len() <= MAX_COMPONENTS && slaves.len() <= MAX_COMPONENTS,
            "at most {MAX_COMPONENTS} masters and slaves"
        );
        for (i, m) in masters.iter().enumerate() {
            assert_eq!(
                m.is_some(),
                placement.masters[i] == side,
                "master {i} placement mismatch"
            );
        }
        for (j, s) in slaves.iter().enumerate() {
            assert_eq!(
                s.is_some(),
                placement.slaves[j] == side,
                "slave {j} placement mismatch"
            );
        }
        let m_pred = placement
            .masters
            .iter()
            .enumerate()
            .map(|(i, &d)| (d != side).then(|| suite.master_predictor(i)))
            .collect();
        let s_pred = placement
            .slaves
            .iter()
            .enumerate()
            .map(|(j, &d)| (d != side).then(|| suite.slave_predictor(j)))
            .collect();
        AhbDomainModel {
            side,
            remote_m: vec![MasterSignals::idle(); masters.len()],
            remote_s: vec![SlaveSignals::idle(); slaves.len()],
            masters,
            slaves,
            placement,
            fabric,
            m_pred,
            s_pred,
            trace: Trace::new(),
            cycle: 0,
        }
    }

    fn is_local_master(&self, i: usize) -> bool {
        self.placement.masters[i] == self.side
    }

    fn is_local_slave(&self, j: usize) -> bool {
        self.placement.slaves[j] == self.side
    }

    /// The full per-cycle signal vectors, local Moore outputs + remote
    /// proxies, in stack arrays whose first `masters.len()`/`slaves.len()`
    /// entries are live.
    fn full_vectors(&self) -> FullVectors {
        let mut full = FullVectors::idle();
        for (i, slot) in self.masters.iter().enumerate() {
            full.m[i] = match slot {
                Some(c) => c.outputs(),
                None => self.remote_m[i],
            };
        }
        for (j, slot) in self.slaves.iter().enumerate() {
            full.s[j] = match slot {
                Some(c) => c.outputs(),
                None => self.remote_s[j],
            };
        }
        full
    }

    /// Unpacks the peer's packed outputs into the remote proxy slots.
    fn load_remote(&mut self, words: &[u32]) {
        let mut at = 0;
        for i in 0..self.masters.len() {
            if !self.is_local_master(i) {
                let chunk = [words[at], words[at + 1], words[at + 2]];
                self.remote_m[i] =
                    MasterSignals::unpack(&chunk).expect("peer sent malformed master signals");
                at += 3;
            }
        }
        for j in 0..self.slaves.len() {
            if !self.is_local_slave(j) {
                let chunk = [words[at], words[at + 1]];
                self.remote_s[j] =
                    SlaveSignals::unpack(&chunk).expect("peer sent malformed slave signals");
                at += 2;
            }
        }
        debug_assert_eq!(at, words.len(), "remote width mismatch");
    }

    /// Packs this domain's local component outputs (canonical order: masters
    /// ascending, then slaves ascending).
    fn pack_local(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.local_width());
        for m in self.masters.iter().flatten() {
            out.extend_from_slice(&m.outputs().pack());
        }
        for s in self.slaves.iter().flatten() {
            out.extend_from_slice(&s.outputs().pack());
        }
        out
    }

    /// The MSABS active projection of local master `i`'s signals `sig` under
    /// `view` (see the module docs). Positions a cycle leaves inactive stay
    /// zero; which positions are active depends only on `view` and the
    /// placement, so two projections of one master compare word for word.
    fn master_projection(
        &self,
        i: usize,
        sig: &MasterSignals,
        view: &CycleView,
        leader: Side,
    ) -> [u32; 8] {
        let mut out = [0; 8];
        // Arbitration requests: always active.
        out[0] = sig.busreq as u32 | (sig.lock as u32) << 1;
        // Address/control: only for the granted master.
        if view.grant == MasterId(i) {
            out[1] = sig.trans.encode();
            out[2] = sig.addr;
            out[3] = sig.write as u32;
            out[4] = sig.size.encode();
            out[5] = sig.burst.encode();
            out[6] = sig.prot as u32;
        }
        // Write data: only when this master's write data phase must be
        // visible to the leader domain (slave local to the leader).
        if let Some(dp) = &view.dp {
            if dp.write
                && dp.master == MasterId(i)
                && matches!(dp.slave, Some(s) if self.placement.slaves[s.0] == leader)
            {
                out[7] = sig.wdata;
            }
        }
        out
    }

    /// The MSABS active projection of local slave `j`'s signals `sig` (see
    /// [`master_projection`](Self::master_projection)).
    fn slave_projection(
        &self,
        j: usize,
        sig: &SlaveSignals,
        view: &CycleView,
        leader: Side,
    ) -> [u32; 5] {
        let mut out = [0; 5];
        // HSPLIT and IRQ: always active.
        out[0] = sig.split_unmask as u32;
        out[1] = sig.irq as u32;
        // Ready/response: only for the data-phase slave.
        if let Some(dp) = &view.dp {
            if dp.slave == Some(SlaveId(j)) {
                out[2] = sig.ready as u32;
                out[3] = sig.resp.encode();
                // Read data: only when a leader-side master consumes it.
                if !dp.write && self.placement.masters[dp.master.0] == leader {
                    out[4] = sig.rdata;
                }
            }
        }
        out
    }

    /// Tick the fabric and local components one cycle given assembled vectors.
    fn advance(&mut self, full_m: &[MasterSignals], full_s: &[SlaveSignals], view: &CycleView) {
        // Record the committed local outputs before state changes.
        let local_m = full_m.iter().zip(&self.masters);
        let local_s = full_s.iter().zip(&self.slaves);
        self.trace.record(
            local_m
                .filter(|(_, slot)| slot.is_some())
                .flat_map(|(sig, _)| sig.pack())
                .chain(
                    local_s
                        .filter(|(_, slot)| slot.is_some())
                        .flat_map(|(sig, _)| sig.pack()),
                )
                .map(u64::from),
        );

        for (i, slot) in self.masters.iter_mut().enumerate() {
            if let Some(c) = slot {
                c.tick(&self.fabric.master_view(view, MasterId(i)));
            }
        }
        for (j, slot) in self.slaves.iter_mut().enumerate() {
            if let Some(c) = slot {
                c.tick(&self.fabric.slave_view(view, SlaveId(j)));
            }
        }
        self.fabric.tick(view, full_m, full_s);

        // Prime wait predictors: an accepted address phase at a remote slave
        // opens a data phase there next cycle.
        if view.hready && view.addr_phase.trans.is_active() {
            if let Some(s) = view.addr_phase.slave {
                if let Some(p) = &mut self.s_pred[s.0] {
                    p.begin_phase(view.addr_phase.trans == predpkt_ahb::signals::Htrans::Nonseq);
                }
            }
        }
        self.cycle += 1;
    }

    /// Downcast access to a local master.
    pub fn master_as<T: AhbMaster>(&self, id: MasterId) -> Option<&T> {
        self.masters
            .get(id.0)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Downcast access to a local slave.
    pub fn slave_as<T: AhbSlave>(&self, id: SlaveId) -> Option<&T> {
        self.slaves
            .get(id.0)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// The fabric replica (tests assert replica agreement).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

impl DomainModel for AhbDomainModel {
    fn side(&self) -> Side {
        self.side
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn local_width(&self) -> usize {
        self.placement.local_width(self.side)
    }

    fn remote_width(&self) -> usize {
        self.placement.local_width(self.side.peer())
    }

    fn local_outputs(&self) -> Vec<u32> {
        self.pack_local()
    }

    fn needs_sync(&self) -> bool {
        // §3 data rule: the upcoming cycle needs inbound lagger→leader data.
        match self.fabric.data_phase() {
            Some(dp) if dp.write => {
                let master_remote = self.placement.masters[dp.master.0] != self.side;
                let slave_local =
                    matches!(dp.slave, Some(s) if self.placement.slaves[s.0] == self.side);
                master_remote && slave_local
            }
            Some(dp) => {
                let slave_remote =
                    matches!(dp.slave, Some(s) if self.placement.slaves[s.0] != self.side);
                let master_local = self.placement.masters[dp.master.0] == self.side;
                slave_remote && master_local
            }
            None => false,
        }
    }

    fn elect_leader(&self) -> Side {
        // The data-flow source leads (§3): the writing master's domain, or the
        // read slave's domain; quiet buses default to the accelerator (ALS).
        match self.fabric.data_phase() {
            Some(dp) if dp.write => self.placement.masters[dp.master.0],
            Some(dp) => match dp.slave {
                Some(s) => self.placement.slaves[s.0],
                None => Side::Accelerator,
            },
            None => Side::Accelerator,
        }
    }

    fn predict_remote(&mut self) -> Vec<u32> {
        // Predict each remote component's signals, updating proxy slots so the
        // subsequent tick sees them.
        let dp = self.fabric.data_phase().copied();
        for i in 0..self.masters.len() {
            if let Some(p) = &mut self.m_pred[i] {
                self.remote_m[i] = p.predict();
            }
        }
        for j in 0..self.slaves.len() {
            if let Some(p) = &mut self.s_pred[j] {
                let dp_here = matches!(&dp, Some(d) if d.slave == Some(SlaveId(j)));
                self.remote_s[j] = p.predict(dp_here);
            }
        }
        let mut out = Vec::with_capacity(self.remote_width());
        for i in 0..self.masters.len() {
            if !self.is_local_master(i) {
                out.extend_from_slice(&self.remote_m[i].pack());
            }
        }
        for j in 0..self.slaves.len() {
            if !self.is_local_slave(j) {
                out.extend_from_slice(&self.remote_s[j].pack());
            }
        }
        out
    }

    fn take_control_words(&mut self) -> u64 {
        let mut words = 0u64;
        for p in self.m_pred.iter_mut().flatten() {
            words += p.take_control_words() as u64;
        }
        for p in self.s_pred.iter_mut().flatten() {
            words += p.take_control_words() as u64;
        }
        words
    }

    fn tick(&mut self, remote: &[u32], kind: TickKind) {
        self.load_remote(remote);
        let full = self.full_vectors();
        let (full_m, full_s) = (&full.m[..self.masters.len()], &full.s[..self.slaves.len()]);
        let view = self.fabric.view(full_m, full_s);

        if kind == TickKind::Actual {
            // Train predictors on the observed remote values.
            for (i, pred) in self.m_pred.iter_mut().enumerate() {
                if let Some(p) = pred {
                    let accepted = view.grant == MasterId(i) && view.hready;
                    p.observe(&full_m[i], accepted);
                }
            }
            for (j, pred) in self.s_pred.iter_mut().enumerate() {
                if let Some(p) = pred {
                    let dp_first = view.dp.as_ref().and_then(|dp| {
                        (dp.slave == Some(SlaveId(j)))
                            .then(|| dp.trans == predpkt_ahb::signals::Htrans::Nonseq)
                    });
                    p.observe(&full_s[j], dp_first);
                }
            }
        }
        self.advance(full_m, full_s, &view);
    }

    fn verify_prediction(&self, leader_outputs: &[u32], predicted_me: &[u32]) -> bool {
        // Build the cycle view from actual values: our own outputs, and the
        // leader's wherever they unpack (the proxies elsewhere).
        let (nm, ns) = (self.masters.len(), self.slaves.len());
        let FullVectors {
            m: mut full_m,
            s: mut full_s,
        } = self.full_vectors();
        let mut at = 0;
        for i in (0..nm).filter(|&i| !self.is_local_master(i)) {
            let chunk = [
                leader_outputs[at],
                leader_outputs[at + 1],
                leader_outputs[at + 2],
            ];
            at += 3;
            if let Some(sig) = MasterSignals::unpack(&chunk) {
                full_m[i] = sig;
            }
        }
        for j in (0..ns).filter(|&j| !self.is_local_slave(j)) {
            let chunk = [leader_outputs[at], leader_outputs[at + 1]];
            at += 2;
            if let Some(sig) = SlaveSignals::unpack(&chunk) {
                full_s[j] = sig;
            }
        }
        let view = self.fabric.view(&full_m[..nm], &full_s[..ns]);

        // Compare the actual and predicted projections component by
        // component. A malformed prediction never verifies.
        let leader = self.side.peer();
        let mut at = 0;
        for i in (0..nm).filter(|&i| self.is_local_master(i)) {
            let chunk = [predicted_me[at], predicted_me[at + 1], predicted_me[at + 2]];
            at += 3;
            let Some(predicted) = MasterSignals::unpack(&chunk) else {
                return false;
            };
            if self.master_projection(i, &full_m[i], &view, leader)
                != self.master_projection(i, &predicted, &view, leader)
            {
                return false;
            }
        }
        for j in (0..ns).filter(|&j| self.is_local_slave(j)) {
            let chunk = [predicted_me[at], predicted_me[at + 1]];
            at += 2;
            let Some(predicted) = SlaveSignals::unpack(&chunk) else {
                return false;
            };
            if self.slave_projection(j, &full_s[j], &view, leader)
                != self.slave_projection(j, &predicted, &view, leader)
            {
                return false;
            }
        }
        true
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    fn trace_mark(&self) -> TraceMark {
        self.trace.mark()
    }

    fn trace_truncate(&mut self, mark: TraceMark) {
        self.trace.truncate(mark);
    }
}

/// One cycle's full master and slave signal vectors on the stack: a bus
/// carries at most [`MAX_COMPONENTS`] of each.
struct FullVectors {
    m: [MasterSignals; MAX_COMPONENTS],
    s: [SlaveSignals; MAX_COMPONENTS],
}

impl FullVectors {
    fn idle() -> Self {
        FullVectors {
            m: [MasterSignals::idle(); MAX_COMPONENTS],
            s: [SlaveSignals::idle(); MAX_COMPONENTS],
        }
    }
}

impl Snapshot for AhbDomainModel {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.fabric.save(w);
        w.word(self.cycle);
        for m in self.masters.iter().flatten() {
            m.save(w);
        }
        for s in self.slaves.iter().flatten() {
            s.save(w);
        }
        for sig in &self.remote_m {
            sig.save(w);
        }
        for sig in &self.remote_s {
            sig.save(w);
        }
        for p in self.m_pred.iter().flatten() {
            p.save(w);
        }
        for p in self.s_pred.iter().flatten() {
            p.save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.fabric.restore(r)?;
        self.cycle = r.word()?;
        for m in self.masters.iter_mut().flatten() {
            m.restore(r)?;
        }
        for s in self.slaves.iter_mut().flatten() {
            s.restore(r)?;
        }
        for sig in &mut self.remote_m {
            sig.restore(r)?;
        }
        for sig in &mut self.remote_s {
            sig.restore(r)?;
        }
        for p in self.m_pred.iter_mut().flatten() {
            p.restore(r)?;
        }
        for p in self.s_pred.iter_mut().flatten() {
            p.restore(r)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for AhbDomainModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AhbDomainModel")
            .field("side", &self.side)
            .field("cycle", &self.cycle)
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .finish()
    }
}
