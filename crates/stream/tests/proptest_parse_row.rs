//! Pins `parse_row`, which parses straight off the comma split into a
//! caller-kept vector, to the field-list parser it replaced: on
//! arbitrary CSV-like lines both must accept the same rows with
//! bit-equal values and reject the rest with byte-equal messages.

use bagcpd::MAX_ABS_COORD;
use proptest::prelude::*;
use stream::ingest::{parse_row, SourceError};

/// The parser as it was before the caller-kept buffer: every field
/// collected first, then checked in order.
fn reference(
    line: &str,
    lineno: usize,
    origin: &str,
    allow_header: bool,
) -> Result<Option<(i64, Vec<f64>)>, SourceError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() < 2 {
        return Err(SourceError::Data(format!(
            "{origin}:{}: need time plus >= 1 coordinate",
            lineno + 1
        )));
    }
    let t: i64 = match fields[0].parse() {
        Ok(t) => t,
        Err(_) if allow_header => return Ok(None),
        Err(e) => {
            return Err(SourceError::Data(format!(
                "{origin}:{}: bad time '{}': {e}",
                lineno + 1,
                fields[0]
            )))
        }
    };
    let mut coords = Vec::with_capacity(fields.len() - 1);
    for f in &fields[1..] {
        let x: f64 = f.parse().map_err(|e| {
            SourceError::Data(format!("{origin}:{}: bad coordinate: {e}", lineno + 1))
        })?;
        if !x.is_finite() {
            return Err(SourceError::Data(format!(
                "{origin}:{}: non-finite coordinate '{f}'",
                lineno + 1
            )));
        }
        if x.abs() > MAX_ABS_COORD {
            return Err(SourceError::Data(format!(
                "{origin}:{}: coordinate '{f}' exceeds the supported magnitude {MAX_ABS_COORD:e}",
                lineno + 1
            )));
        }
        coords.push(x);
    }
    Ok(Some((t, coords)))
}

/// Field tokens: numbers in several spellings, the magnitude bound and
/// just past it, non-finite spellings, non-numeric text, empty fields,
/// and header words.
const TOKENS: &[&str] = &[
    "",
    " ",
    "0",
    "-0",
    "7",
    "-12",
    "3.25",
    "-0.5",
    "1e-3",
    "2.5E+2",
    "0x10",
    "1e150",
    "-1e150",
    "1e151",
    "-1e151",
    "1e308",
    "1e309",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "Infinity",
    "abc",
    "t",
    "x1",
    "1,",
    "+4",
    ".5",
    "5.",
    "9223372036854775807",
    "9223372036854775808",
    "1_000",
    "--1",
];

/// Strategy: a line of 0..=10 fields joined by commas, each with
/// optional surrounding whitespace. One line in three is a well-formed
/// row of random values (plain and exponent spellings); the others draw
/// each field from [`TOKENS`] or a random value.
fn line() -> impl Strategy<Value = String> {
    (
        0u8..3,
        prop::collection::vec((0..TOKENS.len() + 8, -1e6..1e6f64, 0u8..4, 0u8..4), 0..=10),
    )
        .prop_map(|(mode, fields)| {
            let pad = |n: u8| [" ", "\t", "  ", ""][n as usize];
            fields
                .iter()
                .enumerate()
                .map(|(i, &(which, x, before, after))| {
                    let token = match (mode, TOKENS.get(which)) {
                        (0, _) | (_, None) if i == 0 || which % 3 == 0 => {
                            format!("{}", x.round() as i64)
                        }
                        (0, _) | (_, None) if which % 3 == 1 => format!("{x}"),
                        (0, _) | (_, None) => format!("{x:e}"),
                        (_, Some(t)) => t.to_string(),
                    };
                    format!("{}{token}{}", pad(before), pad(after))
                })
                .collect::<Vec<_>>()
                .join(",")
        })
}

/// `parse_row` through one reused buffer, as the reference's shape.
fn parsed(
    line: &str,
    lineno: usize,
    allow_header: bool,
    coords: &mut Vec<f64>,
) -> Result<Option<(i64, Vec<u64>)>, String> {
    match parse_row(line, lineno, "in.csv", allow_header, coords) {
        Ok(t) => Ok(t.map(|t| (t, coords.iter().map(|x| x.to_bits()).collect()))),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_row_matches_the_field_list_parser(
        lines in prop::collection::vec(line(), 1..=8),
        lineno in 0usize..100_000,
        allow_header in 0u8..2,
    ) {
        // One buffer across the lines, as an assembler or the batch
        // reader would carry it.
        let mut coords = vec![f64::NAN; 3];
        for l in &lines {
            let want = reference(l, lineno, "in.csv", allow_header == 1)
                .map(|row| row.map(|(t, c)| (t, c.iter().map(|x| x.to_bits()).collect())))
                .map_err(|e| e.to_string());
            prop_assert_eq!(parsed(l, lineno, allow_header == 1, &mut coords), want, "line {:?}", l);
        }
    }
}

#[test]
fn header_and_error_lines_match_the_field_list_parser() {
    let mut coords = Vec::new();
    for l in [
        "t,x,y",
        "t",
        "",
        "5",
        "5,",
        "5, 1.5 ,-2",
        "x,1",
        "1,NaN",
        "1,inf",
        "1,1e151",
        "1,abc",
        "1,,2",
        " 3 , 4 ",
        "1.5,2",
    ] {
        for allow_header in [false, true] {
            let want = reference(l, 6, "in.csv", allow_header)
                .map(|row| row.map(|(t, c)| (t, c.iter().map(|x| x.to_bits()).collect())))
                .map_err(|e| e.to_string());
            assert_eq!(parsed(l, 6, allow_header, &mut coords), want, "line {l:?}");
        }
    }
}
