//! Suffix array construction and pattern matching for relative Lempel-Ziv
//! factorization.
//!
//! This crate provides the string-indexing substrate used by the RLZ
//! compressor of Hoobin, Puglisi & Zobel (PVLDB 2011):
//!
//! * [`SuffixArray`] — a suffix array built with the linear-time SA-IS
//!   algorithm (Nong, Zhang & Chan, 2009). The paper (§3.2) computes the RLZ
//!   factorization in `O(n log m)` time using the suffix array of the
//!   dictionary; SA-IS keeps construction itself at `O(m)`.
//! * [`Matcher`] — longest-match queries, two ways with one answer.
//!   [`Matcher::longest_match`] is the paper's `Refine` loop (Figure 1):
//!   two binary searches per pattern character, `O(len · log m)` per
//!   factor; it is the oracle. [`Matcher::longest_match_indexed`] is what
//!   the factorizer runs: one binary search for the whole pattern, skipping
//!   the bytes both ends of the range already share and comparing eight at
//!   a time — about `log2(interval)` probes per factor — then a short walk
//!   to the leftmost suffix sharing the match, so position and length are
//!   exactly `Refine`'s.
//! * [`PrefixIndex`] — a q-gram prefix-interval table (default `q = 2`)
//!   that maps the first `q` bytes of a pattern straight to its suffix-array
//!   interval, so the search starts `q` bytes deep in a range a few hundred
//!   ranks wide instead of at `[0, m-1]`. The table holds `O(σ^q)` interval
//!   entries (8 bytes each): 2 KiB at `q = 1`, 512 KiB at `q = 2`, 128 MiB
//!   at `q = 3`, independent of the text size. A 256-entry first-byte table
//!   covers patterns shorter than `q` and leading q-grams absent from the
//!   text. It is the only index beside the suffix array itself.
//! * [`lcp`] — longest-common-prefix arrays (Kasai's algorithm), used by the
//!   dictionary-usage statistics and by tests.
//! * [`naive`] — an obviously-correct `O(n² log n)` reference construction,
//!   used to validate SA-IS in tests and property tests.
//!
//! # Example
//!
//! ```
//! use rlz_suffix::{SuffixArray, Matcher};
//!
//! // The dictionary from Table 1 of the paper.
//! let d = b"cabbaabba";
//! let sa = SuffixArray::build(d);
//! let m = Matcher::new(d, &sa);
//!
//! // Longest prefix of "bbaancabb" that occurs in d: "bbaa" at offset 2.
//! let (pos, len) = m.longest_match(b"bbaancabb");
//! assert_eq!((pos, len), (2, 4));
//! assert_eq!(&d[pos as usize..pos as usize + len as usize], b"bbaa");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lcp;
mod matcher;
pub mod naive;
mod prefix;
mod sais;

pub use matcher::Matcher;
pub use prefix::{PrefixIndex, MAX_Q};

/// A suffix array over a byte string.
///
/// Stores the array of suffix start positions in lexicographic order of the
/// corresponding suffixes. Construction uses SA-IS and runs in `O(n)` time and
/// `O(n)` extra space (indices are `u32`, so texts are limited to `u32::MAX`
/// bytes — far beyond any dictionary the RLZ scheme would hold in memory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixArray {
    sa: Vec<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of `text` with SA-IS.
    ///
    /// # Panics
    ///
    /// Panics if `text.len() >= u32::MAX as usize` (the index type would
    /// overflow).
    pub fn build(text: &[u8]) -> Self {
        assert!(
            (text.len() as u64) < u32::MAX as u64,
            "text too large for u32 suffix array indices"
        );
        SuffixArray {
            sa: sais::suffix_array(text),
        }
    }

    /// Number of suffixes (equals the text length).
    #[inline]
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// True when built over the empty text.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }

    /// The raw suffix array: `sa[i]` is the start of the `i`-th smallest
    /// suffix.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.sa
    }

    /// Constructs a `SuffixArray` from a precomputed permutation.
    ///
    /// Intended for deserialization paths; `debug_assert`s that the input is
    /// a permutation of `0..len`.
    pub fn from_parts(sa: Vec<u32>) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; sa.len()];
            for &s in &sa {
                assert!(!std::mem::replace(&mut seen[s as usize], true));
            }
        }
        SuffixArray { sa }
    }

    /// Consumes the structure, returning the underlying index vector.
    pub fn into_inner(self) -> Vec<u32> {
        self.sa
    }

    /// Heap bytes held by the array — the memory-accounting input for
    /// build-time RSS budgets (the suffix array dominates a resident
    /// dictionary at 4 bytes per text byte).
    pub fn heap_bytes(&self) -> usize {
        self.sa.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &[u8]) {
        let fast = SuffixArray::build(text);
        let slow = naive::suffix_array(text);
        assert_eq!(fast.as_slice(), slow.as_slice(), "text={:?}", text);
    }

    #[test]
    fn empty_text() {
        let sa = SuffixArray::build(b"");
        assert!(sa.is_empty());
        assert_eq!(sa.len(), 0);
    }

    #[test]
    fn single_byte() {
        let sa = SuffixArray::build(b"x");
        assert_eq!(sa.as_slice(), &[0]);
    }

    #[test]
    fn paper_table1_dictionary() {
        // Table 1 of the paper prints the row "SA_d: 9 4 8 6 2 3 7 5 1",
        // which is in fact the *inverse* suffix array (the rank of each text
        // position): the table's own sorted-suffix listing (a, aabba, abba,
        // abbaabba, ba, baabba, bba, bbaabba, cabbaabba) corresponds to the
        // 1-based SA [9,5,6,2,8,4,7,3,1], i.e. 0-based [8,4,5,1,7,3,6,2,0].
        let d = b"cabbaabba";
        let sa = SuffixArray::build(d);
        assert_eq!(sa.as_slice(), &[8, 4, 5, 1, 7, 3, 6, 2, 0]);
        // And the printed row is the inverse permutation of it.
        let mut rank = vec![0u32; d.len()];
        for (i, &s) in sa.as_slice().iter().enumerate() {
            rank[s as usize] = i as u32 + 1; // 1-based as printed
        }
        assert_eq!(rank, vec![9, 4, 8, 6, 2, 3, 7, 5, 1]);
    }

    #[test]
    fn classic_strings() {
        check(b"banana");
        check(b"mississippi");
        check(b"abracadabra");
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"ab");
        check(b"ba");
        check(b"aaaaaaaaaa");
        check(b"abababab");
        check(b"zyxwvutsrq");
    }

    #[test]
    fn all_bytes() {
        let text: Vec<u8> = (0..=255u8).collect();
        check(&text);
        let rev: Vec<u8> = (0..=255u8).rev().collect();
        check(&rev);
    }

    #[test]
    fn binary_alphabet_exhaustive_short() {
        // Every binary string up to length 10.
        for len in 0..=10usize {
            for bits in 0..(1u32 << len) {
                let text: Vec<u8> = (0..len)
                    .map(|i| if bits >> i & 1 == 1 { b'b' } else { b'a' })
                    .collect();
                check(&text);
            }
        }
    }

    #[test]
    fn from_parts_roundtrip() {
        let sa = SuffixArray::build(b"mississippi");
        let v = sa.clone().into_inner();
        let sa2 = SuffixArray::from_parts(v);
        assert_eq!(sa, sa2);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_non_permutation() {
        // Only enforced in debug builds, which tests are.
        let _ = SuffixArray::from_parts(vec![0, 0, 1]);
    }
}
