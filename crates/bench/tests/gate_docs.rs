//! The docs quote `bench_matrix`'s hard ratio gates; this test fails when a
//! quote drifts from the constant the binary asserts.
//!
//! A quote is any `≥N×` in a paragraph of EXPERIMENTS.md or
//! ARCHITECTURE.md that names the gate's bench entry. Measured margins
//! (`~N×`) are not quotes.

use std::path::Path;

use prem_bench::{FAMILY_WCETS_MIN_SPEEDUP, REPLAY_COLUMN_MIN_SPEEDUP};

const DOCS: [&str; 2] = ["EXPERIMENTS.md", "ARCHITECTURE.md"];

/// Every gate with the bench entry that identifies its paragraphs, and
/// the docs that must quote it.
fn gates() -> [(&'static str, f64, &'static [&'static str]); 2] {
    [
        ("plan:replay|cold", REPLAY_COLUMN_MIN_SPEEDUP, &DOCS),
        (
            "exec:family-wcets|profiled",
            FAMILY_WCETS_MIN_SPEEDUP,
            &["ARCHITECTURE.md"],
        ),
    ]
}

fn read_doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The values of every `≥N×` in `text`.
fn quoted_floors(text: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices('≥') {
        let rest = text[at + '≥'.len_utf8()..].trim_start();
        let number: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if !number.is_empty() && rest[number.len()..].starts_with('×') {
            out.push(number.parse().expect("numeric gate quote"));
        }
    }
    out
}

#[test]
fn docs_quote_the_gates_bench_matrix_asserts() {
    for (entry, gate, required) in gates() {
        for doc in DOCS {
            let text = read_doc(doc);
            let quotes: Vec<f64> = text
                .split("\n\n")
                .filter(|paragraph| paragraph.contains(entry))
                .flat_map(quoted_floors)
                .collect();
            for quote in &quotes {
                assert_eq!(
                    *quote, gate,
                    "{doc} quotes the {entry} gate as ≥{quote}×; bench_matrix asserts ≥{gate}×"
                );
            }
            if required.contains(&doc) {
                assert!(
                    !quotes.is_empty(),
                    "{doc} no longer quotes the {entry} gate (≥{gate}×)"
                );
            }
        }
    }
}

#[test]
fn quote_scanner_reads_floors_not_margins() {
    assert_eq!(
        quoted_floors("fails unless ≥1.3× faster; ~4× typical; ≥ 5×"),
        vec![1.3, 5.0]
    );
    assert!(quoted_floors("≥3 seeds, ≥ cold").is_empty());
}
