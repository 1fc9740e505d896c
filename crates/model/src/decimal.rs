//! The decimal number grammar shared by every text codec of the workspace
//! (the hyperDAG format, the wire protocol): ASCII digits with an optional
//! leading `+`, checked against `u64` overflow — exactly what
//! `str::parse::<u64>` accepts — read from and written to byte buffers
//! without going through `fmt` or `str` tokenizers.
//!
//! Nothing here allocates beyond the growth of the caller's buffer.

/// `true` for the bytes the text formats treat as blanks *within* a line:
/// the ASCII members of Unicode `White_Space` other than `\n` (tab, vertical
/// tab, form feed, carriage return, space).
#[inline]
pub fn is_blank(byte: u8) -> bool {
    matches!(byte, b'\t' | 0x0b | 0x0c | b'\r' | b' ')
}

/// Parses one whole token as a `u64`; `None` if it is empty, has a byte that
/// is not a digit (after one optional `+`), or overflows.
pub fn parse_u64(token: &[u8]) -> Option<u64> {
    let (value, len) = scan_u64(token)?;
    (len == token.len()).then_some(value)
}

/// Scans the longest decimal prefix of `bytes` (one optional `+`, then at
/// least one digit); returns its value and length, or `None` if there is no
/// such prefix or it overflows.  The caller decides what may follow.
#[inline]
pub fn scan_u64(bytes: &[u8]) -> Option<(u64, usize)> {
    let start = usize::from(bytes.first() == Some(&b'+'));
    let mut value = 0u64;
    let mut len = start;
    for &byte in &bytes[start..] {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        // 19 digits always fit; only longer numbers need the checks.
        value = if len - start < 19 {
            value * 10 + u64::from(digit)
        } else {
            value.checked_mul(10)?.checked_add(u64::from(digit))?
        };
        len += 1;
    }
    (len > start).then_some((value, len))
}

/// Appends the `D` low decimal digits of `value`, leading zeros included, as
/// one fixed-size array: each digit divides `value` by its own constant
/// power of ten, so no division waits for another and the array compiles
/// to plain stores.
#[inline]
fn push_fixed<const D: usize>(out: &mut Vec<u8>, value: u64) {
    let mut digits = [0u8; D];
    let mut power = 1;
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + (value / power % 10) as u8;
        power *= 10;
    }
    out.extend_from_slice(&digits);
}

/// Appends `value` in decimal.
#[inline]
pub fn push_u64(out: &mut Vec<u8>, value: u64) {
    // Node ids and weights are mostly one to five digits, each length one
    // fixed-size push.  A longer number is its leading part, then five
    // digits with their zeros.
    match value {
        0..=9 => push_fixed::<1>(out, value),
        10..=99 => push_fixed::<2>(out, value),
        100..=999 => push_fixed::<3>(out, value),
        1000..=9999 => push_fixed::<4>(out, value),
        10_000..=99_999 => push_fixed::<5>(out, value),
        _ => {
            push_u64(out, value / 100_000);
            push_fixed::<5>(out, value % 100_000);
        }
    }
}

/// Appends `fields` in decimal as one line: space-separated, `\n`-terminated.
#[inline]
pub fn push_line<const K: usize>(out: &mut Vec<u8>, fields: [u64; K]) {
    for (i, &field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        push_u64(out, field);
    }
    out.push(b'\n');
}

/// Lends the bytes of `out` to `write`, which may only append ASCII: how the
/// encoders push decimals straight into a caller's `String`.  The buffer is
/// re-validated once on the way back (there is no `unsafe` in the codecs).
pub fn with_bytes<T>(out: &mut String, write: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    let mut bytes = std::mem::take(out).into_bytes();
    let result = write(&mut bytes);
    *out = String::from_utf8(bytes).expect("encoders append ASCII only");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_matches_the_standard_library_on_edge_cases() {
        for token in [
            "0",
            "7",
            "+5",
            "007",
            "18446744073709551615",
            "18446744073709551616",
            "+18446744073709551615",
            "123456789012345678901",
            "",
            "+",
            "-0",
            "++1",
            "1+",
            "12a",
            " 1",
            "1 ",
            "٣",
        ] {
            assert_eq!(
                parse_u64(token.as_bytes()),
                token.parse::<u64>().ok(),
                "token {token:?}"
            );
        }
    }

    #[test]
    fn push_matches_fmt() {
        for value in [
            0u64,
            1,
            9,
            10,
            99,
            100,
            12345,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut dec = Vec::new();
            push_u64(&mut dec, value);
            assert_eq!(dec, value.to_string().into_bytes());
        }
    }

    #[test]
    fn with_bytes_appends_in_place() {
        let mut out = String::from("héllo ");
        let n = with_bytes(&mut out, |b| {
            push_u64(b, 42);
            b.len()
        });
        assert_eq!(out, "héllo 42");
        assert_eq!(n, out.len());
    }
}
