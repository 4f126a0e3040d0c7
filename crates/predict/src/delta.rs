//! Delta packetizer: change-mask encoding of fixed-width word rows.
//!
//! A LOB flush carries one row of words per buffered cycle. Consecutive cycles
//! differ in few positions (an address increments, a data word changes), so the
//! packetizer transmits the first row raw and each subsequent row as a
//! change bitmask followed by only the changed words. Word counts on the wire
//! are what the channel cost model charges, so the encoding directly reduces
//! `Tch.` payload.
//!
//! Wire format (all `u32` words):
//!
//! ```text
//! [count, width, first row (width words),
//!  then per row: max(1, ceil(width/32)) mask words, changed words…]
//! ```
//!
//! Every row after the first occupies at least one word, so a block's word
//! count bounds its row count and a decoder can reject an impossible count
//! before doing any work.
//!
//! [`encode_rows`] and [`decode_rows`] are the codec. They take rows in any
//! shape, so the protocol encodes LOB entries and decodes a burst in one pass
//! each, without building intermediate rows; [`encode_block`] and
//! [`decode_block`] wrap them for rows held as vectors.

use std::error::Error;
use std::fmt;

/// Mask words per row after the first.
fn mask_words(width: usize) -> usize {
    width.div_ceil(32).max(1)
}

/// The most words [`encode_rows`] appends for `rows` rows of `width` words:
/// the header, the first row raw, and every later row with all its words
/// changed.
pub fn max_block_words(rows: usize, width: usize) -> usize {
    2 + rows * width + rows.saturating_sub(1) * mask_words(width)
}

/// Runs `f` on `len` zeroed scratch words: on the stack for up to 256 words
/// (two rows of any LOB flush), on the heap beyond.
fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [u32]) -> T) -> T {
    let mut stack = [0u32; 256];
    match stack.get_mut(..len) {
        Some(words) => f(words),
        None => f(&mut vec![0; len]),
    }
}

/// Appends one delta block holding `rows` to `out`. `fill` writes a row's
/// words into a slice of exactly `width` words (all of them: the slice holds
/// the previous row's).
///
/// # Example
///
/// ```
/// use predpkt_predict::{decode_rows, encode_rows};
/// // Rows assembled on the fly: a flag word, then the payload.
/// let payloads = [[1, 2], [1, 3], [1, 3]];
/// let mut wire = Vec::new();
/// encode_rows(&payloads, 3, |p, row| {
///     row[0] = 7;
///     row[1..].copy_from_slice(p);
/// }, &mut wire);
/// wire.push(99); // whatever follows the block
/// let mut rows = Vec::new();
/// let used = decode_rows(&wire, |row| rows.push(row.to_vec())).unwrap();
/// assert_eq!(rows, [[7, 1, 2], [7, 1, 3], [7, 1, 3]]);
/// assert_eq!(&wire[used..], [99]);
/// ```
pub fn encode_rows<R>(rows: &[R], width: usize, fill: impl Fn(&R, &mut [u32]), out: &mut Vec<u32>) {
    out.push(rows.len() as u32);
    out.push(width as u32);
    let Some((first, rest)) = rows.split_first() else {
        return;
    };
    let at = out.len();
    out.resize(at + width, 0);
    fill(first, &mut out[at..]);
    let masks = mask_words(width);
    with_scratch(2 * width, |scratch| {
        let (prev, now) = scratch.split_at_mut(width);
        prev.copy_from_slice(&out[at..]);
        for row in rest {
            fill(row, now);
            let mask_at = out.len();
            out.resize(mask_at + masks, 0);
            for (i, (&w, &before)) in now.iter().zip(prev.iter()).enumerate() {
                if w != before {
                    out[mask_at + i / 32] |= 1 << (i % 32);
                    out.push(w);
                }
            }
            prev.copy_from_slice(now);
        }
    });
}

/// Decodes the delta block at the start of `wire`, handing each row to `row`
/// in order. Returns the number of words the block occupies; the words after
/// it are the caller's.
///
/// # Errors
///
/// Returns [`DeltaDecodeError::Truncated`] if `wire` ends inside the block,
/// or holds fewer words than the row count needs.
pub fn decode_rows(wire: &[u32], mut row: impl FnMut(&[u32])) -> Result<usize, DeltaDecodeError> {
    let (count, width) = block_header(wire)?;
    let body = &wire[2..];
    if count == 0 {
        return Ok(2);
    }
    let masks = mask_words(width);
    let least = (count - 1)
        .checked_mul(masks)
        .and_then(|n| n.checked_add(width));
    if least.map_or(true, |n| n > body.len()) {
        return Err(DeltaDecodeError::Truncated);
    }
    with_scratch(width, |current| {
        current.copy_from_slice(&body[..width]);
        let mut at = width;
        row(current);
        for _ in 1..count {
            let mask = body
                .get(at..at + masks)
                .ok_or(DeltaDecodeError::Truncated)?;
            at += masks;
            for (k, &bits) in mask.iter().enumerate() {
                // Set bits in ascending order; bits past the width are
                // padding and carry no word.
                let mut bits = bits;
                while bits != 0 {
                    let i = k * 32 + bits.trailing_zeros() as usize;
                    if i >= width {
                        break;
                    }
                    bits &= bits - 1;
                    current[i] = *body.get(at).ok_or(DeltaDecodeError::Truncated)?;
                    at += 1;
                }
            }
            row(current);
        }
        Ok(2 + at)
    })
}

/// The `(count, width)` header of the delta block at the start of `wire`.
///
/// # Errors
///
/// Returns [`DeltaDecodeError::Truncated`] if `wire` is shorter than the
/// header.
pub fn block_header(wire: &[u32]) -> Result<(usize, usize), DeltaDecodeError> {
    match wire {
        [count, width, ..] => Ok((*count as usize, *width as usize)),
        _ => Err(DeltaDecodeError::Truncated),
    }
}

/// Encodes a block of equal-width entries. Returns the wire words.
///
/// # Panics
///
/// Panics if entries have differing widths.
///
/// # Example
///
/// ```
/// use predpkt_predict::{decode_block, encode_block};
/// let entries = vec![vec![1, 2, 3], vec![1, 2, 4], vec![1, 2, 4]];
/// let wire = encode_block(&entries);
/// assert!(wire.len() < 2 + 3 * 3, "smaller than raw");
/// assert_eq!(decode_block(&wire).unwrap(), entries);
/// ```
pub fn encode_block(entries: &[Vec<u32>]) -> Vec<u32> {
    let width = entries.first().map_or(0, Vec::len);
    let mut out = Vec::new();
    encode_rows(
        entries,
        width,
        |e, row| {
            assert_eq!(e.len(), width, "entries must share a width");
            row.copy_from_slice(e);
        },
        &mut out,
    );
    out
}

/// Failure while decoding a delta block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecodeError {
    /// The wire data ended prematurely.
    Truncated,
    /// Trailing words after the last entry.
    TrailingWords,
}

impl fmt::Display for DeltaDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaDecodeError::Truncated => write!(f, "delta block truncated"),
            DeltaDecodeError::TrailingWords => write!(f, "delta block has trailing words"),
        }
    }
}

impl Error for DeltaDecodeError {}

/// Decodes a block produced by [`encode_block`].
///
/// # Errors
///
/// Returns [`DeltaDecodeError`] on truncated or oversized input.
pub fn decode_block(wire: &[u32]) -> Result<Vec<Vec<u32>>, DeltaDecodeError> {
    let (count, _) = block_header(wire)?;
    // Bounded by the words present: every row occupies at least one.
    let mut entries = Vec::with_capacity(count.min(wire.len()));
    let used = decode_rows(wire, |row| entries.push(row.to_vec()))?;
    if used != wire.len() {
        return Err(DeltaDecodeError::TrailingWords);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_identical_entries() {
        let entries = vec![vec![5, 6]; 10];
        let wire = encode_block(&entries);
        // 2 header + 2 first + 9 masks, nothing else.
        assert_eq!(wire.len(), 2 + 2 + 9);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn roundtrip_all_changing() {
        let entries: Vec<Vec<u32>> = (0..5).map(|i| vec![i, i + 1, i + 2]).collect();
        let wire = encode_block(&entries);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn empty_block() {
        let wire = encode_block(&[]);
        assert_eq!(wire, vec![0, 0]);
        assert_eq!(decode_block(&wire).unwrap(), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn single_entry() {
        let entries = vec![vec![42; 7]];
        let wire = encode_block(&entries);
        assert_eq!(wire.len(), 2 + 7);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn wide_entries_multi_mask_words() {
        // 40 words -> 2 mask words per entry.
        let a: Vec<u32> = (0..40).collect();
        let mut b = a.clone();
        b[0] = 99;
        b[35] = 77;
        let entries = vec![a, b];
        let wire = encode_block(&entries);
        assert_eq!(wire.len(), 2 + 40 + 2 + 2);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn zero_width_entries() {
        let entries = vec![vec![], vec![], vec![]];
        let wire = encode_block(&entries);
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn truncated_rejected() {
        let entries = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let wire = encode_block(&entries);
        for cut in 1..wire.len() {
            assert_eq!(
                decode_block(&wire[..cut]),
                Err(DeltaDecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_rejected() {
        let mut wire = encode_block(&[vec![1u32]]);
        wire.push(9);
        assert_eq!(decode_block(&wire), Err(DeltaDecodeError::TrailingWords));
    }

    #[test]
    #[should_panic(expected = "share a width")]
    fn mixed_width_rejected() {
        let _ = encode_block(&[vec![1], vec![1, 2]]);
    }

    #[test]
    fn compression_on_bursty_traffic() {
        // Model: 64 cycles of a DMA burst: address +4 each cycle, data changes,
        // 5 other control words stable.
        let entries: Vec<Vec<u32>> = (0..64u32)
            .map(|i| vec![0x100 + 4 * i, 0xdead_0000 + i, 1, 2, 3, 4, 5])
            .collect();
        let raw_words = 64 * 7;
        let wire = encode_block(&entries);
        assert!(
            wire.len() < raw_words / 2,
            "delta encoding halves the payload ({} vs {raw_words})",
            wire.len()
        );
        assert_eq!(decode_block(&wire).unwrap(), entries);
    }

    #[test]
    fn hostile_row_count_is_rejected_before_any_work() {
        // A count of 2^32 - 1 rows over three words used to reserve ~100 GB.
        assert_eq!(
            decode_block(&[u32::MAX, 3, 1, 2, 3]),
            Err(DeltaDecodeError::Truncated)
        );
        // Zero-width rows still take a mask word each, so a huge count of
        // them cannot hide in a two-word block.
        assert_eq!(
            decode_block(&[u32::MAX, 0]),
            Err(DeltaDecodeError::Truncated)
        );
        let mut rows = 0;
        assert_eq!(
            decode_rows(&[u32::MAX, 0], |_| rows += 1),
            Err(DeltaDecodeError::Truncated)
        );
        assert_eq!(rows, 0, "no row is handed out");
    }

    #[test]
    fn decode_rows_reports_the_block_length() {
        let entries = vec![vec![1, 2, 3], vec![1, 2, 4]];
        let mut wire = encode_block(&entries);
        let len = wire.len();
        wire.extend([7, 7, 7]);
        let mut rows = Vec::new();
        assert_eq!(decode_rows(&wire, |r| rows.push(r.to_vec())), Ok(len));
        assert_eq!(rows, entries);
        assert_eq!(decode_block(&wire), Err(DeltaDecodeError::TrailingWords));
    }

    #[test]
    fn max_block_words_bounds_every_block() {
        let churny: Vec<Vec<u32>> = (0..9)
            .map(|i| (0..40).map(|j| i * 100 + j).collect())
            .collect();
        for rows in 0..=churny.len() {
            let wire = encode_block(&churny[..rows]);
            assert_eq!(wire.len(), max_block_words(rows, 40), "{rows} rows");
        }
        assert_eq!(
            max_block_words(3, 0),
            encode_block(&[vec![], vec![], vec![]]).len()
        );
    }
}
