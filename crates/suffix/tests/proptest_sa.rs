//! Property tests: SA-IS agrees with the naive construction, and the matcher
//! finds true longest matches.

use proptest::prelude::*;
use rlz_suffix::{naive, Matcher, PrefixIndex, SuffixArray};

fn brute_longest(text: &[u8], pattern: &[u8]) -> u32 {
    (0..text.len())
        .map(|s| {
            text[s..]
                .iter()
                .zip(pattern)
                .take_while(|(a, b)| a == b)
                .count() as u32
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #[test]
    fn sais_matches_naive_small_alphabet(text in proptest::collection::vec(0u8..4, 0..300)) {
        let fast = SuffixArray::build(&text);
        let slow = naive::suffix_array(&text);
        prop_assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn sais_matches_naive_full_alphabet(text in proptest::collection::vec(any::<u8>(), 0..300)) {
        let fast = SuffixArray::build(&text);
        let slow = naive::suffix_array(&text);
        prop_assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn suffix_array_is_sorted(text in proptest::collection::vec(0u8..8, 1..200)) {
        let sa = SuffixArray::build(&text);
        let s = sa.as_slice();
        for w in s.windows(2) {
            prop_assert!(text[w[0] as usize..] < text[w[1] as usize..]);
        }
    }

    #[test]
    fn longest_match_is_maximal(
        text in proptest::collection::vec(0u8..6, 1..200),
        pattern in proptest::collection::vec(0u8..6, 0..64),
    ) {
        let sa = SuffixArray::build(&text);
        let m = Matcher::new(&text, &sa);
        let (pos, len) = m.longest_match(&pattern);
        prop_assert_eq!(len, brute_longest(&text, &pattern));
        if len > 0 {
            prop_assert_eq!(
                &text[pos as usize..pos as usize + len as usize],
                &pattern[..len as usize]
            );
        }
    }

    #[test]
    fn indexed_longest_match_agrees_with_plain_and_brute(
        text in proptest::collection::vec(0u8..6, 0..200),
        // Full byte range so patterns regularly contain bytes absent from
        // the text, and lengths 0..4 so patterns shorter than q occur for
        // every q.
        pattern in proptest::collection::vec(any::<u8>(), 0..64),
        short in proptest::collection::vec(0u8..6, 0..4),
        q in 1usize..=3,
    ) {
        let sa = SuffixArray::build(&text);
        let m = Matcher::new(&text, &sa);
        let idx = PrefixIndex::build(&text, &sa, q);
        for p in [&pattern, &short] {
            let (pos, len) = m.longest_match_indexed(&idx, p);
            // Byte-identical to the un-indexed matcher: same position,
            // same length (the factorization-equality guarantee).
            prop_assert_eq!((pos, len), m.longest_match(p), "q={} pattern={:?}", q, p);
            // And truly maximal per the brute-force oracle.
            prop_assert_eq!(len, brute_longest(&text, p));
            if len > 0 {
                prop_assert_eq!(
                    &text[pos as usize..pos as usize + len as usize],
                    &p[..len as usize]
                );
            }
        }
    }

    #[test]
    fn indexed_search_equals_refine_on_run_heavy_texts(
        // 2-4 symbols in long runs: wide intervals sharing the longest
        // match, so the walk to the leftmost rank does real work.
        sigma in 2u8..=4,
        text_runs in proptest::collection::vec((0u8..4, 1usize..40), 0..24),
        pattern_runs in proptest::collection::vec((0u8..4, 1usize..40), 1..8),
        start in any::<prop::sample::Index>(),
        q in 1usize..=3,
    ) {
        let expand = |runs: &[(u8, usize)]| -> Vec<u8> {
            runs.iter()
                .flat_map(|&(symbol, len)| std::iter::repeat_n(symbol % sigma, len))
                .collect()
        };
        let text = expand(&text_runs);
        let sa = SuffixArray::build(&text);
        let m = Matcher::new(&text, &sa);
        let idx = PrefixIndex::build(&text, &sa, q);
        let suffix = &text[start.index(text.len() + 1)..];
        let tail = expand(&pattern_runs);
        let absent = 0xEEu8;
        let patterns = [
            // A whole suffix of the text, and one that runs past its end.
            suffix.to_vec(),
            [suffix, &tail[..]].concat(),
            // Runs of the text's own symbols.
            tail.clone(),
            // A byte the text lacks: first, inside the leading q-gram,
            // and after a long match.
            [&[absent][..], &tail[..]].concat(),
            [&tail[..1], &[absent][..], &tail[..]].concat(),
            [suffix, &[absent][..]].concat(),
        ];
        for p in &patterns {
            let got = m.longest_match_indexed(&idx, p);
            prop_assert_eq!(got, m.longest_match(p), "q={} text={:?} pattern={:?}", q, &text, p);
            prop_assert_eq!(got.1, brute_longest(&text, p));
        }
    }

    #[test]
    fn lcp_matches_definition(text in proptest::collection::vec(0u8..4, 2..150)) {
        let sa = SuffixArray::build(&text);
        let lcp = rlz_suffix::lcp::lcp_array(&text, &sa);
        let s = sa.as_slice();
        for i in 1..s.len() {
            let a = &text[s[i - 1] as usize..];
            let b = &text[s[i] as usize..];
            let expect = a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32;
            prop_assert_eq!(lcp[i], expect);
        }
    }
}
