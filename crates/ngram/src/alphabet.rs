//! The alphabet conversion module.
//!
//! The paper (§3.3): *"An alphabet conversion module translates 8-bit
//! extended ASCII characters (ISO-8859) into a 5-bit code similar to HAIL.
//! Lower case characters are converted to upper case, and accented characters
//! are mapped to their non-accented versions. All other characters are mapped
//! to a default white space code."*
//!
//! The 5-bit code space used here:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | white space (default for every non-letter) |
//! | 1–26 | `A`–`Z` |
//!
//! Codes 27–31 are unused, exactly as a 27-symbol alphabet in a 5-bit field.
//! The mapping is total over all 256 byte values, so the classifier is
//! oblivious to word boundaries and treats input as a continuous character
//! stream (§3.3).

/// Number of distinct folded symbols (space + 26 letters).
pub const ALPHABET_SIZE: u8 = 27;

/// The folded code for white space / any non-letter byte.
pub const SPACE_CODE: u8 = 0;

/// Bits per folded character in a packed n-gram.
pub const BITS_PER_CHAR: u32 = 5;

/// A folded 5-bit character code in `[0, ALPHABET_SIZE)`.
pub type FoldedChar = u8;

/// The 256-entry folding table, the software image of the hardware
/// conversion table stored in an embedded RAM.
static FOLD_TABLE: [u8; 256] = build_fold_table();

const fn letter(c: u8) -> u8 {
    c - b'A' + 1
}

pub(crate) const fn build_fold_table() -> [u8; 256] {
    let mut t = [SPACE_CODE; 256];
    // ASCII letters.
    let mut c = b'A';
    while c <= b'Z' {
        t[c as usize] = letter(c);
        t[(c + 32) as usize] = letter(c); // lower case folds to upper
        c += 1;
    }
    // ISO-8859-1 accented letters fold to their base letter. The upper-case
    // block is 0xC0..=0xDE and the lower-case block 0xE0..=0xFE with the same
    // base-letter layout, so fill both in one pass (offset 0x20).
    let mut i = 0;
    // (start, end inclusive, base letter) runs in the 0xC0 block.
    let runs: [(u8, u8, u8); 11] = [
        (0xC0, 0xC5, b'A'), // À Á Â Ã Ä Å
        (0xC6, 0xC6, b'A'), // Æ -> A (ligature folded to first letter)
        (0xC7, 0xC7, b'C'), // Ç
        (0xC8, 0xCB, b'E'), // È É Ê Ë
        (0xCC, 0xCF, b'I'), // Ì Í Î Ï
        (0xD1, 0xD1, b'N'), // Ñ
        (0xD2, 0xD6, b'O'), // Ò Ó Ô Õ Ö
        (0xD8, 0xD8, b'O'), // Ø
        (0xD9, 0xDC, b'U'), // Ù Ú Û Ü
        (0xDD, 0xDD, b'Y'), // Ý
        (0xDE, 0xDE, b'T'), // Þ (thorn) -> T, nearest Latin base
    ];
    while i < runs.len() {
        let (start, end, base) = runs[i];
        let mut c = start;
        while c <= end {
            t[c as usize] = letter(base);
            t[(c + 0x20) as usize] = letter(base); // lower-case block
            c += 1;
        }
        i += 1;
    }
    // 0xD0 Ð (eth) and 0xF0 ð: fold to D.
    t[0xD0] = letter(b'D');
    t[0xF0] = letter(b'D');
    // 0xDF ß (sharp s): folds to S. (0xFF is ÿ -> Y, handled below, not ß+0x20.)
    t[0xDF] = letter(b'S');
    // 0xFF ÿ -> Y.
    t[0xFF] = letter(b'Y');
    // 0xD7 × and 0xF7 ÷ are operators: stay at SPACE_CODE.
    t
}

/// Fold one ISO-8859-1 byte to its 5-bit code.
#[inline]
pub fn fold_byte(b: u8) -> FoldedChar {
    FOLD_TABLE[b as usize]
}

/// Fold a Unicode scalar: characters in the Latin-1 range fold via the table,
/// everything else becomes [`SPACE_CODE`] (the hardware only ever sees 8-bit
/// characters; this is the host-side preprocessing equivalent).
#[inline]
pub fn fold_char(c: char) -> FoldedChar {
    let cp = c as u32;
    if cp < 256 {
        fold_byte(cp as u8)
    } else {
        SPACE_CODE
    }
}

/// Whether a folded code is a letter (not white space).
#[inline]
pub fn is_letter_code(code: FoldedChar) -> bool {
    code != SPACE_CODE && code < ALPHABET_SIZE
}

/// Fold a byte slice in place into folded codes, reusing the output buffer
/// (the "workhorse buffer" pattern; no per-call allocation).
pub fn fold_into(input: &[u8], out: &mut Vec<FoldedChar>) {
    out.clear();
    out.reserve(input.len());
    out.extend(input.iter().map(|&b| fold_byte(b)));
}

/// Render a folded code back to a printable ASCII character (space or
/// upper-case letter) — for debugging and tests only; folding is lossy.
pub fn code_to_char(code: FoldedChar) -> char {
    match code {
        SPACE_CODE => ' ',
        1..=26 => (b'A' + code - 1) as char,
        _ => '?',
    }
}

/// Encode a UTF-8 string to ISO-8859-1 bytes, replacing characters outside
/// the Latin-1 range with a space. The corpus generator produces UTF-8; the
/// simulated hardware consumes ISO-8859-1, as in the paper.
pub fn utf8_to_latin1(s: &str) -> Vec<u8> {
    s.chars()
        .map(|c| {
            let cp = c as u32;
            if cp < 256 {
                cp as u8
            } else {
                b' '
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ascii_letters_fold_case_insensitively() {
        for c in b'a'..=b'z' {
            assert_eq!(fold_byte(c), fold_byte(c - 32), "case mismatch at {c}");
        }
        assert_eq!(fold_byte(b'A'), 1);
        assert_eq!(fold_byte(b'Z'), 26);
        assert_eq!(fold_byte(b'a'), 1);
        assert_eq!(fold_byte(b'z'), 26);
    }

    #[test]
    fn non_letters_fold_to_space() {
        for b in [
            b' ', b'\n', b'\t', b'0', b'9', b'.', b',', b'!', 0x00, 0x7F, 0xD7, 0xF7,
        ] {
            assert_eq!(fold_byte(b), SPACE_CODE, "byte {b:#x} should be space");
        }
    }

    #[test]
    fn accented_characters_fold_to_base_letters() {
        let cases: &[(u8, u8)] = &[
            (0xC9, b'E'), // É
            (0xE9, b'E'), // é
            (0xE8, b'E'), // è
            (0xE4, b'A'), // ä
            (0xC5, b'A'), // Å
            (0xE5, b'A'), // å
            (0xF6, b'O'), // ö
            (0xD8, b'O'), // Ø
            (0xF8, b'O'), // ø
            (0xFC, b'U'), // ü
            (0xE7, b'C'), // ç
            (0xF1, b'N'), // ñ
            (0xE3, b'A'), // ã
            (0xF5, b'O'), // õ
            (0xDF, b'S'), // ß
            (0xFF, b'Y'), // ÿ
            (0xF0, b'D'), // ð
        ];
        for &(byte, base) in cases {
            assert_eq!(
                fold_byte(byte),
                fold_byte(base),
                "byte {byte:#x} should fold like {}",
                base as char
            );
        }
    }

    #[test]
    fn upper_and_lower_accent_blocks_agree() {
        // Every accented upper-case letter in 0xC0..=0xDE folds the same as
        // its lower-case counterpart at +0x20, with the documented exceptions
        // (0xDF ß has no upper-case partner at -0x20 in Latin-1).
        for c in 0xC0u8..=0xDE {
            if c == 0xD7 {
                continue; // × operator
            }
            assert_eq!(
                fold_byte(c),
                fold_byte(c + 0x20),
                "block mismatch at {c:#x}"
            );
        }
    }

    #[test]
    fn fold_char_outside_latin1_is_space() {
        assert_eq!(fold_char('€'), SPACE_CODE);
        assert_eq!(fold_char('字'), SPACE_CODE);
        assert_eq!(fold_char('é'), fold_char('e'));
    }

    #[test]
    fn code_to_char_round_trips_letters() {
        for c in b'A'..=b'Z' {
            assert_eq!(code_to_char(fold_byte(c)), c as char);
        }
        assert_eq!(code_to_char(SPACE_CODE), ' ');
    }

    #[test]
    fn utf8_to_latin1_preserves_latin1_and_replaces_rest() {
        let s = "Café 字 øl";
        let bytes = utf8_to_latin1(s);
        assert_eq!(
            bytes,
            vec![b'C', b'a', b'f', 0xE9, b' ', b' ', b' ', 0xF8, b'l']
        );
    }

    #[test]
    fn fold_into_reuses_buffer() {
        let mut buf = Vec::with_capacity(64);
        fold_into(b"Hello, World!", &mut buf);
        assert_eq!(buf.len(), 13);
        let cap = buf.capacity();
        fold_into(b"abc", &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), cap, "buffer should be reused");
    }

    proptest! {
        /// Every byte folds to a valid code.
        #[test]
        fn all_codes_in_range(b in any::<u8>()) {
            prop_assert!(fold_byte(b) < ALPHABET_SIZE);
        }

        /// Folding is idempotent when viewed through code_to_char: folding the
        /// printable representation of a folded code gives the same code.
        #[test]
        fn folding_idempotent(b in any::<u8>()) {
            let code = fold_byte(b);
            let rendered = code_to_char(code);
            prop_assert_eq!(fold_char(rendered), code);
        }
    }
}
