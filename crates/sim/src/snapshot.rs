//! State snapshot / restore — the rollback substrate.
//!
//! Before each optimistic run-ahead the leader domain stores its complete state
//! ("rollback variables" in the paper); on a prediction failure it restores that
//! state and replays. Every component that lives in a leader-capable domain
//! implements [`Snapshot`]: it serializes its state into a flat [`StateVec`] of
//! `u64` words through a [`StateWriter`] and restores bit-exactly through a
//! [`StateReader`].
//!
//! The word count of a snapshot is the *number of rollback variables*, which
//! drives the store/restore cost model (the paper assumes 1,000 of them).
//!
//! # Buffer reuse
//!
//! The leader stores and restores its state on every speculative
//! transition, so both directions can run without touching the heap once
//! the buffers are warm:
//!
//! - [`save_into`] clears its destination (words and section labels) and
//!   saves into the capacity already there; the result is word-for-word
//!   what [`save_to_vec`] returns.
//! - [`StateReader::slice_u32_into`] and [`StateReader::slice_into`]
//!   overwrite an owned vector in place. They validate the whole slice
//!   before copying, so on error the destination is left untouched and the
//!   error is the one the word-by-word reader would raise (same index, same
//!   section label).

use std::error::Error;
use std::fmt;

/// A serialized component state: a flat vector of 64-bit words.
///
/// Produced by [`Snapshot::save`] via [`StateWriter`]; consumed by
/// [`Snapshot::restore`] via [`StateReader`].
///
/// Alongside the words it carries an optional table of *labeled sections*
/// (component name → starting word offset), written by
/// [`StateWriter::section`]. Sections are pure bookkeeping: they do not add
/// words, so [`len`](Self::len) — the rollback-variable count that drives the
/// store/restore cost model — is unaffected, and two state vectors compare
/// equal iff their **words** are equal.
#[derive(Debug, Clone, Default)]
pub struct StateVec {
    words: Vec<u64>,
    sections: Vec<(&'static str, usize)>,
}

impl StateVec {
    /// Creates an empty state vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of stored words (= rollback variables).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if no words are stored.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Removes every word and section label, keeping the allocated capacity
    /// for the next save.
    pub fn clear(&mut self) {
        self.words.clear();
        self.sections.clear();
    }

    /// Borrows the raw words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The labeled sections, as `(name, starting word offset)` pairs in
    /// ascending offset order.
    pub fn sections(&self) -> &[(&'static str, usize)] {
        &self.sections
    }

    /// The name of the section covering word `at`, if any (the last section
    /// starting at or before `at`).
    pub fn section_at(&self, at: usize) -> Option<&'static str> {
        self.sections
            .iter()
            .rev()
            .find(|(_, start)| *start <= at)
            .map(|(name, _)| *name)
    }
}

impl PartialEq for StateVec {
    /// Word-for-word equality; section labels are diagnostics, not state.
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for StateVec {}

impl From<Vec<u64>> for StateVec {
    fn from(words: Vec<u64>) -> Self {
        StateVec {
            words,
            sections: Vec::new(),
        }
    }
}

/// Push-side cursor for building a [`StateVec`].
#[derive(Debug)]
pub struct StateWriter<'a> {
    out: &'a mut StateVec,
}

impl<'a> StateWriter<'a> {
    /// Creates a writer appending to `out`.
    pub fn new(out: &'a mut StateVec) -> Self {
        StateWriter { out }
    }

    /// Appends one raw word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.out.words.push(w);
        self
    }

    /// Appends a `u32` (zero-extended).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.word(v as u64)
    }

    /// Appends a `usize` (zero-extended).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.word(v as u64)
    }

    /// Appends a `bool` as 0/1.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.word(v as u64)
    }

    /// Appends a length-prefixed slice of words.
    pub fn slice(&mut self, v: &[u64]) -> &mut Self {
        self.usize(v.len());
        self.out.words.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed slice of `u32` words (each zero-extended).
    pub fn slice_u32(&mut self, v: &[u32]) -> &mut Self {
        self.usize(v.len());
        self.out.words.extend(v.iter().map(|&w| u64::from(w)));
        self
    }

    /// Opens a labeled section starting at the current word offset. Costs no
    /// words — it only records `(name, offset)` in the [`StateVec`]'s section
    /// table, so a restore failure anywhere past this point (until the next
    /// section) is reported against `name` instead of a bare word index.
    pub fn section(&mut self, name: &'static str) -> &mut Self {
        self.out.sections.push((name, self.out.words.len()));
        self
    }
}

/// Pop-side cursor for consuming a [`StateVec`].
///
/// When the state vector carries [labeled sections](StateWriter::section),
/// every error this reader produces is wrapped in
/// [`SnapshotError::InSection`], naming the component whose words failed —
/// the difference between "corrupt at word 3127" and "corrupt in
/// `acc.model` at offset 12".
#[derive(Debug)]
pub struct StateReader<'a> {
    words: &'a [u64],
    sections: &'a [(&'static str, usize)],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Creates a reader over `state`.
    pub fn new(state: &'a StateVec) -> Self {
        StateReader {
            words: &state.words,
            sections: &state.sections,
            pos: 0,
        }
    }

    /// Wraps `err` (anchored at absolute word `at`) with the covering
    /// section's label, if any.
    fn label(&self, at: usize, err: SnapshotError) -> SnapshotError {
        match self.sections.iter().rev().find(|(_, start)| *start <= at) {
            Some((name, start)) => SnapshotError::InSection {
                section: name,
                offset: at - start,
                source: Box::new(err),
            },
            None => err,
        }
    }

    /// Reads one raw word.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Exhausted`] if the vector is consumed.
    pub fn word(&mut self) -> Result<u64, SnapshotError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.label(self.pos, SnapshotError::Exhausted { at: self.pos }))?;
        self.pos += 1;
        Ok(w)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Exhausted`] on underrun or
    /// [`SnapshotError::Corrupt`] if the word does not fit.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let w = self.word()?;
        u32::try_from(w)
            .map_err(|_| self.label(self.pos - 1, SnapshotError::Corrupt { at: self.pos - 1 }))
    }

    /// Reads a `usize`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateReader::u32`].
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let w = self.word()?;
        usize::try_from(w)
            .map_err(|_| self.label(self.pos - 1, SnapshotError::Corrupt { at: self.pos - 1 }))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] unless the word is 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.word()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.label(self.pos - 1, SnapshotError::Corrupt { at: self.pos - 1 })),
        }
    }

    /// Reads a `u32` and decodes it with `decode` — for enum codes and
    /// other domain encodings. A word `decode` rejects is reported as
    /// [`SnapshotError::Corrupt`] at its own index, section-labeled.
    ///
    /// # Errors
    ///
    /// Those of [`StateReader::u32`], or [`SnapshotError::Corrupt`] if
    /// `decode` returns `None`.
    pub fn decode_u32<T>(
        &mut self,
        decode: impl FnOnce(u32) -> Option<T>,
    ) -> Result<T, SnapshotError> {
        let at = self.pos;
        let v = self.u32()?;
        decode(v).ok_or_else(|| self.corrupt_at(at))
    }

    /// Reads a length prefix and borrows the words it covers, every one
    /// checked to have no bit of `forbidden` set. Fails exactly where a
    /// word-by-word read would: at the first offending word (the cursor then
    /// stands just past it), else at the end of a vector too short for the
    /// prefix (the cursor then stands at the end).
    fn prefixed(&mut self, forbidden: u64) -> Result<&'a [u64], SnapshotError> {
        let n = self.usize()?;
        let start = self.pos;
        let rest = &self.words[start..];
        let body = &rest[..n.min(rest.len())];
        // One branch-free pass for the common, valid case; the offending
        // word is searched for only on failure.
        if body.iter().fold(0, |acc, &w| acc | w) & forbidden != 0 {
            let i = start
                + body
                    .iter()
                    .position(|&w| w & forbidden != 0)
                    .expect("the fold saw a forbidden bit");
            self.pos = i + 1;
            return Err(self.corrupt_at(i));
        }
        if body.len() < n {
            self.pos = self.words.len();
            return Err(self.label(self.pos, SnapshotError::Exhausted { at: self.pos }));
        }
        self.pos = start + n;
        Ok(body)
    }

    /// Reads a length-prefixed slice of words into `dst`, reusing its
    /// capacity. On error `dst` is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Exhausted`] on underrun.
    pub fn slice_into(&mut self, dst: &mut Vec<u64>) -> Result<(), SnapshotError> {
        let body = self.borrow_slice()?;
        dst.clear();
        dst.extend_from_slice(body);
        Ok(())
    }

    /// Reads a length-prefixed slice of words, borrowing them from the
    /// vector instead of copying.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateReader::slice_into`].
    pub fn borrow_slice(&mut self) -> Result<&'a [u64], SnapshotError> {
        self.prefixed(0)
    }

    /// Reads a length-prefixed slice of words.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateReader::slice_into`].
    pub fn slice(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let mut v = Vec::new();
        self.slice_into(&mut v)?;
        Ok(v)
    }

    /// Reads a length-prefixed slice of `u32` words into `dst`, reusing its
    /// capacity. Every word is validated before `dst` is touched, so on
    /// error `dst` is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] at the first word that does not
    /// fit a `u32`, or [`SnapshotError::Exhausted`] on underrun.
    pub fn slice_u32_into(&mut self, dst: &mut Vec<u32>) -> Result<(), SnapshotError> {
        let body = self.prefixed(!u64::from(u32::MAX))?;
        dst.clear();
        // Lossless: `prefixed` rejected every word with a high bit set.
        dst.extend(body.iter().map(|&w| w as u32));
        Ok(())
    }

    /// Reads a length-prefixed slice of `u32` words.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateReader::slice_u32_into`].
    pub fn slice_u32(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let mut v = Vec::new();
        self.slice_u32_into(&mut v)?;
        Ok(v)
    }

    /// The absolute index of the next word to be read.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Builds a section-labeled [`SnapshotError::Corrupt`] anchored at
    /// absolute word `at` — for components whose domain validation (tag
    /// decode, enum range) goes beyond what the typed readers check.
    pub fn corrupt_at(&self, at: usize) -> SnapshotError {
        self.label(at, SnapshotError::Corrupt { at })
    }

    /// Asserts the snapshot was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::TrailingWords`] if words remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(self.label(
                self.pos,
                SnapshotError::TrailingWords {
                    remaining: self.words.len() - self.pos,
                },
            ))
        }
    }
}

/// Failure while restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The reader ran past the end of the state vector.
    Exhausted {
        /// Word index at which the read was attempted.
        at: usize,
    },
    /// A word failed validation (wrong range for the target type).
    Corrupt {
        /// Word index of the offending word.
        at: usize,
    },
    /// `finish` found unconsumed words.
    TrailingWords {
        /// Number of words left unread.
        remaining: usize,
    },
    /// A failure inside a [labeled section](StateWriter::section): the
    /// component whose words failed, the offset *within* that component, and
    /// the underlying error (whose indices stay absolute).
    InSection {
        /// Name of the labeled section (component) covering the failure.
        section: &'static str,
        /// Word offset of the failure relative to the section start.
        offset: usize,
        /// The underlying failure.
        source: Box<SnapshotError>,
    },
}

impl SnapshotError {
    /// The labeled section (component name) the failure occurred in, if the
    /// state vector carried section labels.
    pub fn section(&self) -> Option<&'static str> {
        match self {
            SnapshotError::InSection { section, .. } => Some(section),
            _ => None,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Exhausted { at } => write!(f, "snapshot exhausted at word {at}"),
            SnapshotError::Corrupt { at } => write!(f, "snapshot corrupt at word {at}"),
            SnapshotError::TrailingWords { remaining } => {
                write!(f, "snapshot has {remaining} trailing words")
            }
            SnapshotError::InSection {
                section,
                offset,
                source,
            } => write!(f, "in component `{section}` (offset {offset}): {source}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::InSection { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A component whose state can be checkpointed and restored bit-exactly.
///
/// The round-trip law `restore(save(x)); save(x) == save(x)` is enforced by
/// the shared seeded harness in `crates/core/tests/snapshot_roundtrip.rs`,
/// which sweeps every `Snapshot` implementation in the workspace.
pub trait Snapshot {
    /// Serializes the complete dynamic state into `w`.
    fn save(&self, w: &mut StateWriter<'_>);

    /// Restores the state previously produced by [`save`](Snapshot::save).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the reader underruns or a word fails
    /// validation. On error the component may be left partially restored:
    /// callers that keep the component alive **must** quarantine it (the
    /// protocol engine poisons its wrapper, so every later step fails with
    /// [`SimError::StatePoisoned`](crate::SimError) instead of silently
    /// diverging).
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;
}

/// Convenience: saves any [`Snapshot`] component into a fresh [`StateVec`].
pub fn save_to_vec<S: Snapshot + ?Sized>(component: &S) -> StateVec {
    let mut state = StateVec::new();
    save_into(component, &mut state);
    state
}

/// Saves any [`Snapshot`] component into `state`, replacing its contents
/// but keeping its capacity: once `state` has held a snapshot of the same
/// size, saving again allocates nothing. The words equal
/// [`save_to_vec`]'s.
pub fn save_into<S: Snapshot + ?Sized>(component: &S, state: &mut StateVec) {
    state.clear();
    component.save(&mut StateWriter::new(state));
}

/// Convenience: restores any [`Snapshot`] component from a [`StateVec`],
/// asserting full consumption.
///
/// # Errors
///
/// Propagates any [`SnapshotError`] from the component or from trailing words.
pub fn restore_from_vec<S: Snapshot + ?Sized>(
    component: &mut S,
    state: &StateVec,
) -> Result<(), SnapshotError> {
    let mut reader = StateReader::new(state);
    component.restore(&mut reader)?;
    reader.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Widget {
        counter: u32,
        armed: bool,
        fifo: Vec<u32>,
    }

    impl Snapshot for Widget {
        fn save(&self, w: &mut StateWriter<'_>) {
            w.u32(self.counter).bool(self.armed).slice_u32(&self.fifo);
        }
        fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
            self.counter = r.u32()?;
            self.armed = r.bool()?;
            self.fifo = r.slice_u32()?;
            Ok(())
        }
    }

    #[test]
    fn roundtrip_restores_exactly() {
        let original = Widget {
            counter: 42,
            armed: true,
            fifo: vec![1, 2, 3],
        };
        let state = save_to_vec(&original);
        let mut copy = Widget {
            counter: 0,
            armed: false,
            fifo: vec![],
        };
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, original);
    }

    #[test]
    fn word_count_tracks_rollback_variables() {
        let w = Widget {
            counter: 1,
            armed: false,
            fifo: vec![9; 5],
        };
        // counter + armed + length prefix + 5 entries = 8 words.
        assert_eq!(save_to_vec(&w).len(), 8);
    }

    #[test]
    fn exhausted_read_errors() {
        let state = StateVec::from(vec![7]);
        let mut r = StateReader::new(&state);
        assert_eq!(r.word().unwrap(), 7);
        assert_eq!(r.word(), Err(SnapshotError::Exhausted { at: 1 }));
    }

    #[test]
    fn bool_validation() {
        let state = StateVec::from(vec![2]);
        let mut r = StateReader::new(&state);
        assert_eq!(r.bool(), Err(SnapshotError::Corrupt { at: 0 }));
    }

    #[test]
    fn u32_range_validation() {
        let state = StateVec::from(vec![u64::MAX]);
        let mut r = StateReader::new(&state);
        assert_eq!(r.u32(), Err(SnapshotError::Corrupt { at: 0 }));
    }

    #[test]
    fn trailing_words_detected() {
        let w = Widget {
            counter: 1,
            armed: false,
            fifo: vec![],
        };
        let mut state = save_to_vec(&w);
        state.words.push(99);
        let mut copy = w.clone();
        assert_eq!(
            restore_from_vec(&mut copy, &state),
            Err(SnapshotError::TrailingWords { remaining: 1 })
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            SnapshotError::Exhausted { at: 3 }.to_string(),
            "snapshot exhausted at word 3"
        );
        assert_eq!(
            SnapshotError::Corrupt { at: 0 }.to_string(),
            "snapshot corrupt at word 0"
        );
        assert_eq!(
            SnapshotError::TrailingWords { remaining: 2 }.to_string(),
            "snapshot has 2 trailing words"
        );
    }

    #[test]
    fn sections_cost_no_words_and_label_errors() {
        let mut state = StateVec::new();
        let mut w = StateWriter::new(&mut state);
        w.section("alpha").u32(1).u32(2).section("beta").bool(true);
        assert_eq!(state.len(), 3, "section labels must not add words");
        assert_eq!(state.sections(), &[("alpha", 0), ("beta", 2)]);
        assert_eq!(state.section_at(0), Some("alpha"));
        assert_eq!(state.section_at(2), Some("beta"));

        // Corrupt beta's word: the error names the component.
        state.words[2] = 7; // not a valid bool
        let mut r = StateReader::new(&state);
        r.u32().unwrap();
        r.u32().unwrap();
        let err = r.bool().unwrap_err();
        assert_eq!(err.section(), Some("beta"));
        match &err {
            SnapshotError::InSection {
                section,
                offset,
                source,
            } => {
                assert_eq!(*section, "beta");
                assert_eq!(*offset, 0);
                assert_eq!(**source, SnapshotError::Corrupt { at: 2 });
            }
            other => panic!("expected InSection, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("beta"), "{text}");
        assert!(text.contains("corrupt at word 2"), "{text}");
    }

    #[test]
    fn section_labels_do_not_affect_equality() {
        let mut labeled = StateVec::new();
        StateWriter::new(&mut labeled).section("x").u32(5);
        let plain = StateVec::from(vec![5]);
        assert_eq!(labeled, plain);
    }

    #[test]
    fn exhaustion_past_last_section_is_labeled() {
        let mut state = StateVec::new();
        StateWriter::new(&mut state).section("tail").u32(1);
        let mut r = StateReader::new(&state);
        r.u32().unwrap();
        let err = r.word().unwrap_err();
        assert_eq!(err.section(), Some("tail"));
    }

    /// The word-by-word reader `slice_u32_into` must agree with.
    fn per_word_slice_u32(r: &mut StateReader<'_>) -> Result<Vec<u32>, SnapshotError> {
        let n = r.usize()?;
        (0..n).map(|_| r.u32()).collect()
    }

    /// A labeled vector: a `head` word, then `body` under section "body".
    fn labeled(body: &[u64]) -> StateVec {
        let mut state = StateVec::new();
        let mut w = StateWriter::new(&mut state);
        w.section("head").word(0).section("body");
        for &x in body {
            w.word(x);
        }
        state
    }

    /// Runs the per-word reader and `slice_u32_into` (into a dirty
    /// destination) over the same vector from word 1; they must return the
    /// same result and leave the cursor at the same word.
    fn assert_slice_u32_agrees(state: &StateVec) {
        let mut old = StateReader::new(state);
        old.word().unwrap();
        let expected = per_word_slice_u32(&mut old);

        let mut new = StateReader::new(state);
        new.word().unwrap();
        let dirty = vec![0xdead_beef; 9];
        let mut dst = dirty.clone();
        let got = new.slice_u32_into(&mut dst);
        assert_eq!(new.position(), old.position(), "{state:?}");
        match expected {
            Ok(words) => {
                assert_eq!(got, Ok(()));
                assert_eq!(dst, words);
            }
            Err(err) => {
                assert_eq!(got, Err(err));
                assert_eq!(dst, dirty, "a failed read must leave dst untouched");
            }
        }
    }

    #[test]
    fn slice_u32_into_matches_the_per_word_reader() {
        // Good input, shorter and longer than the dirty destination.
        assert_slice_u32_agrees(&labeled(&[3, 7, 8, 9]));
        let long: Vec<u64> = std::iter::once(12)
            .chain(0..11)
            .chain([u32::MAX.into()])
            .collect();
        assert_slice_u32_agrees(&labeled(&long));
        assert_slice_u32_agrees(&labeled(&[0]));
        // A corrupt word: Corrupt at its absolute index, labeled "body".
        let corrupt = labeled(&[4, 1, 2, 1 << 32, 3]);
        assert_slice_u32_agrees(&corrupt);
        let mut r = StateReader::new(&corrupt);
        r.word().unwrap();
        let err = r.slice_u32_into(&mut Vec::new()).unwrap_err();
        assert_eq!(err.section(), Some("body"));
        assert!(err.to_string().contains("corrupt at word 4"), "{err}");
        // A corrupt word in a short vector is found before the underrun.
        assert_slice_u32_agrees(&labeled(&[9, 1, u64::MAX]));
        // A short vector: Exhausted at the vector's length.
        let short = labeled(&[5, 1, 2]);
        assert_slice_u32_agrees(&short);
        let mut r = StateReader::new(&short);
        r.word().unwrap();
        let err = r.slice_u32_into(&mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("exhausted at word 4"), "{err}");
        // A corrupt length prefix.
        assert_slice_u32_agrees(&labeled(&[u64::MAX]));
        assert_slice_u32_agrees(&labeled(&[]));
    }

    #[test]
    fn slice_into_reuses_and_validates_like_slice_u32() {
        let state = labeled(&[3, u64::MAX, 0, 1 << 40]);
        let mut r = StateReader::new(&state);
        r.word().unwrap();
        let mut dst = vec![7; 16];
        let cap = dst.capacity();
        r.slice_into(&mut dst).unwrap();
        assert_eq!(dst, [u64::MAX, 0, 1 << 40]);
        assert_eq!(dst.capacity(), cap, "the existing allocation is reused");
        assert_eq!(r.position(), 5);

        let short = labeled(&[3, 1]);
        let mut r = StateReader::new(&short);
        r.word().unwrap();
        let err = r.slice_into(&mut dst).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::InSection {
                section: "body",
                offset: 2,
                source: Box::new(SnapshotError::Exhausted { at: 3 }),
            }
        );
        assert_eq!(dst, [u64::MAX, 0, 1 << 40], "dst untouched on error");
    }

    #[test]
    fn decode_u32_labels_the_rejected_word() {
        let state = labeled(&[1, 9]);
        let mut r = StateReader::new(&state);
        r.word().unwrap();
        let odd = |v: u32| (v % 2 == 1).then_some(v);
        assert_eq!(r.decode_u32(odd), Ok(1));
        let err = r.decode_u32(|v| (v < 4).then_some(v)).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::InSection {
                section: "body",
                offset: 1,
                source: Box::new(SnapshotError::Corrupt { at: 2 }),
            }
        );
    }

    #[test]
    fn save_into_a_dirty_larger_buffer_equals_save_to_vec() {
        let w = Widget {
            counter: 3,
            armed: true,
            fifo: vec![4, 5],
        };
        let mut buf = StateVec::new();
        StateWriter::new(&mut buf).section("stale").slice(&[1; 64]);
        let cap = buf.words.capacity();
        save_into(&w, &mut buf);
        assert_eq!(buf.words(), save_to_vec(&w).words());
        assert!(buf.sections().is_empty(), "stale labels are cleared");
        assert_eq!(buf.words.capacity(), cap, "the buffer is reused");

        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.words.capacity(), cap, "clear keeps capacity");
    }

    #[test]
    fn empty_component_roundtrip() {
        struct Empty;
        impl Snapshot for Empty {
            fn save(&self, _w: &mut StateWriter<'_>) {}
            fn restore(&mut self, _r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                Ok(())
            }
        }
        let state = save_to_vec(&Empty);
        assert!(state.is_empty());
        restore_from_vec(&mut Empty, &state).unwrap();
    }
}
