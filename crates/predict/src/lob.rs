//! The Leader Output Buffer.

use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter};
use std::error::Error;
use std::fmt;

/// One run-ahead cycle buffered in the LOB: the leader's own outputs plus the
/// prediction of the lagger's outputs it consumed (head cycles executed with
/// actual values carry no prediction — the paper's footnote 7: "the last
/// leader-to-lagger data does not contain prediction" marks the conventional
/// read; here the headless entry marks the conventional head).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LobEntry {
    /// The leader's local outputs for the cycle (packed words).
    pub local: Vec<u32>,
    /// The predicted lagger outputs consumed this cycle; `None` when the cycle
    /// ran on actual values and needs no check.
    pub predicted: Option<Vec<u32>>,
}

/// Error returned when pushing into a full LOB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LobFullError {
    /// The configured depth.
    pub depth: usize,
}

impl fmt::Display for LobFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leader output buffer full (depth {})", self.depth)
    }
}

impl Error for LobFullError {}

/// The Leader Output Buffer: bounded, flushed as one burst.
///
/// Depth counts *predicted* entries only; the optional head entry (executed on
/// actual values) rides along for free, mirroring the paper where the first
/// P-path cycle is conventional.
///
/// # Example
///
/// ```
/// use predpkt_predict::{Lob, LobEntry};
/// let mut lob = Lob::new(2);
/// lob.push(LobEntry { local: vec![1], predicted: None }).unwrap(); // head
/// lob.push(LobEntry { local: vec![2], predicted: Some(vec![9]) }).unwrap();
/// lob.push(LobEntry { local: vec![3], predicted: Some(vec![9]) }).unwrap();
/// assert!(lob.is_full());
/// assert_eq!(lob.drain().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lob {
    depth: usize,
    entries: Vec<LobEntry>,
    predictions: usize,
}

impl Lob {
    /// Creates a LOB holding up to `depth` predicted entries.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "LOB depth must be non-zero");
        Lob {
            depth,
            entries: Vec::with_capacity(depth + 1),
            predictions: 0,
        }
    }

    /// The configured depth (maximum predictions per transition).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Buffered entries (head + predicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buffered *predicted* entries.
    pub fn predictions(&self) -> usize {
        self.predictions
    }

    /// `true` once the prediction budget is exhausted (flush required).
    pub fn is_full(&self) -> bool {
        self.predictions >= self.depth
    }

    /// Buffers one entry.
    ///
    /// # Errors
    ///
    /// Returns [`LobFullError`] if the entry carries a prediction and the
    /// prediction budget is exhausted.
    pub fn push(&mut self, entry: LobEntry) -> Result<(), LobFullError> {
        if entry.predicted.is_some() {
            if self.is_full() {
                return Err(LobFullError { depth: self.depth });
            }
            self.predictions += 1;
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Empties the buffer, returning all entries in push order (the flush).
    pub fn drain(&mut self) -> Vec<LobEntry> {
        self.drain_reusing(Vec::new())
    }

    /// [`drain`](Self::drain), buffering on in `spare`'s allocation (cleared
    /// first), so a caller that hands back its last flush keeps two buffers
    /// alternating instead of growing a fresh one per transition.
    pub fn drain_reusing(&mut self, mut spare: Vec<LobEntry>) -> Vec<LobEntry> {
        self.predictions = 0;
        spare.clear();
        std::mem::replace(&mut self.entries, spare)
    }

    /// Borrows the buffered entries (replay after rollback).
    pub fn entries(&self) -> &[LobEntry] {
        &self.entries
    }

    /// Discards everything (rollback of an unflushed run-ahead).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.predictions = 0;
    }
}

impl Snapshot for Lob {
    fn save(&self, w: &mut StateWriter<'_>) {
        w.usize(self.entries.len());
        for e in &self.entries {
            w.slice_u32(&e.local);
            match &e.predicted {
                Some(p) => {
                    w.bool(true).slice_u32(p);
                }
                None => {
                    w.bool(false);
                }
            }
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n = r.usize()?;
        self.entries.clear();
        self.predictions = 0;
        for _ in 0..n {
            let local = r.slice_u32()?;
            let predicted = if r.bool()? {
                Some(r.slice_u32()?)
            } else {
                None
            };
            if predicted.is_some() {
                self.predictions += 1;
            }
            self.entries.push(LobEntry { local, predicted });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn head(v: u32) -> LobEntry {
        LobEntry {
            local: vec![v],
            predicted: None,
        }
    }

    fn pred(v: u32, p: u32) -> LobEntry {
        LobEntry {
            local: vec![v],
            predicted: Some(vec![p]),
        }
    }

    #[test]
    fn depth_counts_predictions_only() {
        let mut lob = Lob::new(2);
        lob.push(head(1)).unwrap();
        assert!(!lob.is_full());
        lob.push(pred(2, 0)).unwrap();
        lob.push(pred(3, 0)).unwrap();
        assert!(lob.is_full());
        assert_eq!(lob.len(), 3);
        assert_eq!(lob.predictions(), 2);
        assert_eq!(lob.push(pred(4, 0)), Err(LobFullError { depth: 2 }));
        // Heads still fit.
        lob.push(head(5)).unwrap();
        assert_eq!(lob.len(), 4);
    }

    #[test]
    fn drain_resets_and_preserves_order() {
        let mut lob = Lob::new(8);
        lob.push(head(1)).unwrap();
        lob.push(pred(2, 9)).unwrap();
        let flushed = lob.drain();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].local, vec![1]);
        assert_eq!(flushed[1].predicted, Some(vec![9]));
        assert!(lob.is_empty());
        assert_eq!(lob.predictions(), 0);
        // Budget fully restored.
        for i in 0..8 {
            lob.push(pred(i, i)).unwrap();
        }
        assert!(lob.is_full());
    }

    #[test]
    fn clear_discards() {
        let mut lob = Lob::new(4);
        lob.push(pred(1, 1)).unwrap();
        lob.clear();
        assert!(lob.is_empty());
        assert_eq!(lob.predictions(), 0);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut lob = Lob::new(4);
        lob.push(head(7)).unwrap();
        lob.push(pred(8, 1)).unwrap();
        let state = save_to_vec(&lob);
        let mut copy = Lob::new(4);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, lob);
    }

    #[test]
    #[should_panic(expected = "depth must be non-zero")]
    fn zero_depth_rejected() {
        let _ = Lob::new(0);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            LobFullError { depth: 64 }.to_string(),
            "leader output buffer full (depth 64)"
        );
    }
}
