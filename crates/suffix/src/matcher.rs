//! Longest-match queries against a suffix array.
//!
//! The RLZ factorizer repeatedly asks "what is the longest prefix of the
//! remaining document that occurs anywhere in the dictionary, and where?".
//! [`Matcher`] answers it two ways, and the answers are the same pair:
//!
//! * [`Matcher::longest_match`] is the paper's algorithm, kept as the
//!   oracle: [`Matcher::refine`] (Figure 1) narrows the interval of suffixes
//!   matching the pattern read so far with two binary searches per added
//!   character, `O(len · log m)` dependent probes per query. It stops at
//!   the interval of every suffix sharing the longest match `L` and reports
//!   that interval's leftmost rank.
//! * [`Matcher::longest_match_indexed`] is what the factorizer runs: one
//!   binary search for the *whole* pattern inside the interval the
//!   [`PrefixIndex`] hands back, about `log2(interval)` probes per query.
//!   Each probe compares the pattern against a suffix eight bytes at a
//!   time and starts at `min(llcp, rlcp)`, the bytes both ends of the
//!   remaining range are already known to share with the pattern (Manber &
//!   Myers). A suffix that ends inside the pattern sorts before it, the
//!   same rule as `Refine`'s end-of-suffix character. The longest match is
//!   a lexicographic neighbour of the pattern, so `L` is the better of the
//!   two ranks around the insertion point. If only the right neighbour
//!   reaches `L` it is the leftmost suffix sharing `pattern[..L]`;
//!   otherwise a doubling search walks left from the left neighbour to the
//!   start of that interval, `2 · log2(width)` probes at most. On web text
//!   sampled at 1/128 the interval is narrow but not trivial: 29 % of
//!   factors have one rank, half at most four, a fifth more than sixteen.
//!   Either way the result is `Refine`'s: `(sa[leftmost rank sharing
//!   pattern[..L]], L)`.
//!
//! Worst case for the whole-pattern search is `O(L · log m)` bytes compared
//! (a periodic text where one end of the range never moves), which is what
//! the refine loop pays on every query; the unit tests pin that bound with
//! a byte counter on `(ab)^n` and `a^n` dictionaries.

use crate::{PrefixIndex, SuffixArray};

/// A borrowing view that answers longest-match queries over `text` using its
/// suffix array.
#[derive(Debug, Clone, Copy)]
pub struct Matcher<'a> {
    text: &'a [u8],
    sa: &'a [u32],
}

impl<'a> Matcher<'a> {
    /// Creates a matcher. `sa` must be the suffix array of `text`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree.
    pub fn new(text: &'a [u8], sa: &'a SuffixArray) -> Self {
        assert_eq!(
            text.len(),
            sa.len(),
            "suffix array does not match text length"
        );
        Matcher {
            text,
            sa: sa.as_slice(),
        }
    }

    /// The indexed text.
    #[inline]
    pub fn text(&self) -> &'a [u8] {
        self.text
    }

    /// Character of the suffix starting at `suffix`, `depth` positions in;
    /// `-1` when the suffix is shorter than `depth` (end-of-suffix sorts
    /// before every real byte).
    #[inline]
    fn char_at(&self, suffix: u32, depth: usize) -> i32 {
        match self.text.get(suffix as usize + depth) {
            Some(&b) => b as i32,
            None => -1,
        }
    }

    /// `Refine` from Figure 1: narrows the inclusive interval `[lb, rb]` of
    /// suffixes whose first `depth` characters already match the pattern so
    /// that they also match character `c` at offset `depth`.
    ///
    /// Returns the narrowed interval, or `None` when no suffix in the
    /// interval continues with `c` (the paper's "-1 / -1" outcome in
    /// Table 1).
    pub fn refine(&self, lb: usize, rb: usize, depth: usize, c: u8) -> Option<(usize, usize)> {
        debug_assert!(lb <= rb && rb < self.sa.len());
        let target = c as i32;
        // Lower bound: first index whose character at `depth` is >= c.
        let mut lo = lb;
        let mut hi = rb + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.char_at(self.sa[mid], depth) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let new_lb = lo;
        if new_lb > rb || self.char_at(self.sa[new_lb], depth) != target {
            return None;
        }
        // Upper bound: first index whose character at `depth` is > c.
        let mut hi = rb + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.char_at(self.sa[mid], depth) <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some((new_lb, lo - 1))
    }

    /// Longest prefix of `pattern` occurring anywhere in the indexed text,
    /// by the paper's refine loop from the full interval.
    ///
    /// Returns `(position, length)`; `length == 0` means not even
    /// `pattern[0]` occurs in the text (the factorizer then emits a literal).
    pub fn longest_match(&self, pattern: &[u8]) -> (u32, u32) {
        if self.sa.is_empty() {
            return (0, 0);
        }
        let (mut lb, mut rb, mut depth) = (0, self.sa.len() - 1, 0);
        while depth < pattern.len() {
            if lb == rb {
                // Single candidate left: extend by direct comparison, the
                // short-circuit in the paper's Factor().
                let rest = &self.text[self.sa[lb] as usize + depth..];
                depth += rest
                    .iter()
                    .zip(&pattern[depth..])
                    .take_while(|(a, b)| a == b)
                    .count();
                break;
            }
            match self.refine(lb, rb, depth, pattern[depth]) {
                Some((l, r)) => {
                    lb = l;
                    rb = r;
                    depth += 1;
                }
                None => break,
            }
        }
        if depth == 0 {
            (0, 0)
        } else {
            (self.sa[lb], depth as u32)
        }
    }

    /// [`Matcher::longest_match`] as one whole-pattern binary search inside
    /// the interval `index` returns for the pattern's first bytes (see the
    /// module docs). Same position, same length: indexed and plain builds
    /// emit identical factorizations.
    ///
    /// `index` must have been built over this matcher's text.
    pub fn longest_match_indexed(&self, index: &PrefixIndex, pattern: &[u8]) -> (u32, u32) {
        debug_assert_eq!(
            index.text_len(),
            self.text.len(),
            "prefix index built over a different text"
        );
        let Some((lb, rb, depth)) = index.lookup(pattern) else {
            return (0, 0);
        };
        // Lower bound of `pattern` in [lb, rb]: ranks below `lo` sort
        // before the pattern, ranks from `hi` up do not. `llcp` / `rlcp`
        // are what ranks `lo - 1` / `hi` share with the pattern, exact once
        // that end has moved and the index's `depth` until then.
        let (mut lo, mut hi) = (lb, rb + 1);
        let (mut llcp, mut rlcp) = (depth, depth);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (lcp, less) = self.compare(self.sa[mid], pattern, llcp.min(rlcp));
            if less {
                lo = mid + 1;
                llcp = lcp;
            } else {
                hi = mid;
                rlcp = lcp;
            }
        }
        if hi <= rb && (lo == lb || rlcp > llcp) {
            // The left neighbour shares less, so `hi` starts the interval.
            return (self.sa[hi], rlcp as u32);
        }
        let rank = self.leftmost_sharing(&pattern[..llcp], lb, lo - 1, depth);
        (self.sa[rank], llcp as u32)
    }

    /// The smallest rank in `[lb, best]` whose suffix starts with `prefix`,
    /// given that rank `best`'s does. Every suffix in the range must share
    /// `prefix[..known]` and sort before the pattern `prefix` was cut from,
    /// so what a suffix shares with `prefix` never falls as the rank rises.
    fn leftmost_sharing(&self, prefix: &[u8], lb: usize, best: usize, mut known: usize) -> usize {
        let shared = |rank: usize, known: usize| self.compare(self.sa[rank], prefix, known).0;
        let (mut lo, mut hi) = (lb, best);
        // Doubling steps left from `best` until a rank falls outside...
        let mut step = 1;
        while lo < hi {
            let probe = hi.saturating_sub(step).max(lo);
            let lcp = shared(probe, known);
            if lcp < prefix.len() {
                lo = probe + 1;
                known = lcp;
                break;
            }
            hi = probe;
            step *= 2;
        }
        // ...then bisect between it and the last rank inside.
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let lcp = shared(mid, known);
            if lcp < prefix.len() {
                lo = mid + 1;
                known = lcp;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Compares the suffix starting at `suffix` with `pattern`, both known
    /// to agree on their first `from` bytes: the length of their common
    /// prefix, and whether the suffix sorts strictly before the pattern (a
    /// suffix that ends inside the pattern does; one the pattern is a
    /// prefix of does not).
    #[inline]
    fn compare(&self, suffix: u32, pattern: &[u8], from: usize) -> (usize, bool) {
        let suffix = &self.text[suffix as usize..];
        let lcp = from + common_prefix(&suffix[from..], &pattern[from..]);
        #[cfg(test)]
        BYTES_COMPARED.with(|n| n.set(n.get() + (lcp - from) as u64 + 1));
        let less = match (suffix.get(lcp), pattern.get(lcp)) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(s), Some(p)) => s < p,
        };
        (lcp, less)
    }
}

/// Length of the longest common prefix of `a` and `b`, eight bytes a step.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("chunks_exact(8)"));
        let y = u64::from_le_bytes(y.try_into().expect("chunks_exact(8)"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

#[cfg(test)]
thread_local! {
    /// Bytes `Matcher::compare` has looked at on this thread (one per call
    /// for the deciding byte, plus the common prefix it walked).
    static BYTES_COMPARED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher_for(text: &[u8]) -> (SuffixArray, Vec<u8>) {
        (SuffixArray::build(text), text.to_vec())
    }

    #[test]
    fn paper_table1_refine_sequence() {
        // Table 1: searching x = bbaancabb in d = cabbaabba. The paper's
        // printed bounds are (5,8) -> (7,8) -> (8,8) -> (8,8) (1-based); the
        // third step there already drops the suffix "bba", which still
        // matches the 3-char prefix "bba" — our Refine keeps it until the
        // 4th character rules it out. Both derivations produce the same
        // factor, (3,4) 1-based = position 2, length 4 0-based: the string
        // "bbaa".
        let d = b"cabbaabba";
        let sa = SuffixArray::build(d);
        let m = Matcher::new(d, &sa);

        let (lb, rb) = m.refine(0, 8, 0, b'b').unwrap();
        assert_eq!((lb, rb), (4, 7)); // ba, baabba, bba, bbaabba
        let (lb, rb) = m.refine(lb, rb, 1, b'b').unwrap();
        assert_eq!((lb, rb), (6, 7)); // bba, bbaabba
        let (lb, rb) = m.refine(lb, rb, 2, b'a').unwrap();
        assert_eq!((lb, rb), (6, 7)); // both still match "bba"
        let (lb, rb) = m.refine(lb, rb, 3, b'a').unwrap();
        assert_eq!((lb, rb), (7, 7)); // only "bbaabba" continues with 'a'
        assert_eq!(m.refine(lb, rb, 4, b'n'), None);
        assert_eq!(m.longest_match(b"bbaancabb"), (2, 4));
        assert_eq!(&d[2..6], b"bbaa");
    }

    #[test]
    fn longest_match_whole_pattern() {
        let d = b"the quick brown fox";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        let (pos, len) = m.longest_match(b"quick");
        assert_eq!(len, 5);
        assert_eq!(&d[pos as usize..pos as usize + 5], b"quick");
    }

    #[test]
    fn longest_match_absent_char() {
        let d = b"aaabbb";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        assert_eq!(m.longest_match(b"zzz"), (0, 0));
    }

    #[test]
    fn longest_match_empty_pattern() {
        let d = b"abc";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        assert_eq!(m.longest_match(b""), (0, 0));
    }

    #[test]
    fn longest_match_on_empty_text() {
        let sa = SuffixArray::build(b"");
        let m = Matcher::new(b"", &sa);
        assert_eq!(m.longest_match(b"abc"), (0, 0));
    }

    #[test]
    fn match_can_run_to_end_of_text() {
        let d = b"abcde";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        // "cde" is a suffix of the text; the match must not read past it.
        assert_eq!(m.longest_match(b"cdefgh"), (2, 3));
    }

    /// Reference longest-match by brute force.
    fn brute_longest(text: &[u8], pattern: &[u8]) -> u32 {
        let mut best = 0u32;
        for start in 0..text.len() {
            let len = text[start..]
                .iter()
                .zip(pattern)
                .take_while(|(a, b)| a == b)
                .count() as u32;
            best = best.max(len);
        }
        best
    }

    #[test]
    fn agrees_with_brute_force() {
        let text = b"abracadabra arbor cadaver abracadabra";
        let (sa, owned) = matcher_for(text);
        let m = Matcher::new(&owned, &sa);
        let patterns: &[&[u8]] = &[
            b"abra",
            b"cadaver!",
            b"xyz",
            b"a",
            b"abracadabra abracadabra",
            b" arbor",
            b"r",
            b"ra arb",
        ];
        for p in patterns {
            let (pos, len) = m.longest_match(p);
            assert_eq!(len, brute_longest(text, p), "pattern {:?}", p);
            if len > 0 {
                assert_eq!(
                    &text[pos as usize..pos as usize + len as usize],
                    &p[..len as usize]
                );
            }
        }
    }

    #[test]
    fn indexed_matches_plain_on_all_paths() {
        // Covers: jump to depth q, fallback to depth 1 (absent q-gram),
        // singleton short-circuit, absent first byte, pattern shorter
        // than q, and match running to end of text.
        let texts: &[&[u8]] = &[
            b"cabbaabba",
            b"abracadabra arbor cadaver abracadabra",
            b"aaaaaaa",
            b"x",
            b"",
        ];
        let patterns: &[&[u8]] = &[
            b"bbaancabb",
            b"abra",
            b"a",
            b"b",
            b"zz",
            b"az",
            b"aaaaaaaaaa",
            b"cadaver!",
            b"",
            b"ra arb",
        ];
        for text in texts {
            let sa = SuffixArray::build(text);
            let m = Matcher::new(text, &sa);
            for q in 1..=3usize {
                let idx = PrefixIndex::build(text, &sa, q);
                for p in patterns {
                    assert_eq!(
                        m.longest_match_indexed(&idx, p),
                        m.longest_match(p),
                        "text {:?} pattern {:?} q {}",
                        text,
                        p,
                        q
                    );
                }
            }
        }
    }

    #[test]
    fn periodic_dictionaries_compare_a_bounded_number_of_bytes() {
        // Runs are where a whole-pattern search could go quadratic: every
        // suffix of (ab)^n or a^n shares a long prefix with a periodic
        // pattern, and the interval sharing the longest match is tens of
        // thousands of ranks wide. The bound is three searches (the
        // pattern's lower bound, the doubling walk left, its bisect) of at
        // most log2(m) probes, each over at most the match and one deciding
        // byte — the order of the refine loop's two searches per matched
        // byte. Bytes are counted, not timed.
        let ab = b"ab".repeat(1 << 16);
        let aa = vec![b'a'; 1 << 17];
        for text in [&ab, &aa] {
            let sa = SuffixArray::build(text);
            let m = Matcher::new(text, &sa);
            let idx = PrefixIndex::build(text, &sa, 2);
            let log_m = text.len().ilog2() as u64;
            let unit = &text[..2];
            let mut patterns = Vec::new();
            for reps in [1usize, 7, 1000, (1 << 15) + 1, 1 << 16, (1 << 16) + 9] {
                let run = unit.repeat(reps);
                patterns.push(run.clone());
                patterns.push([&run[..], b"x"].concat());
                patterns.push([&run[..], b"\0"].concat());
                patterns.push(run[1..].to_vec());
            }
            for p in &patterns {
                BYTES_COMPARED.with(|n| n.set(0));
                let (pos, len) = m.longest_match_indexed(&idx, p);
                let compared = BYTES_COMPARED.with(|n| n.get());
                assert_eq!(
                    (pos, len),
                    m.longest_match(p),
                    "pattern of {} bytes",
                    p.len()
                );
                let bound = 3 * log_m * (u64::from(len) + 1);
                assert!(
                    compared <= bound,
                    "{compared} bytes compared for a {len}-byte match, bound {bound}"
                );
            }
        }
    }
}
