//! Round-trip property tests for the workspace's JSON codec,
//! `ps2::simnet::json` — the writer behind every sidecar and the parser
//! behind `ps2-trace` (reached here through `ps2::tracefile`'s re-export,
//! the path `benchmark/` compiles against).
//!
//! The invariant: for any value the writer can produce,
//! `parse_json(v.render()) == v`, and `render` is a fixpoint (re-rendering
//! the parse gives the same bytes). Covers escapes, nested arrays/objects,
//! numeric edge cases, and the writer's three container styles.

use proptest::prelude::*;
use ps2::simnet::json::{JsonWriter, Style};
use ps2::tracefile::{parse_json, JsonValue};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Characters chosen to stress the escaper: quotes, backslashes, every
/// short escape, raw control characters, and multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', 'é',
    'ß', '日', '🦀', '{', '}', '[', ']', ':', ',',
];

fn gen_string(state: &mut u64) -> String {
    let len = (splitmix(state) % 12) as usize;
    (0..len)
        .map(|_| PALETTE[splitmix(state) as usize % PALETTE.len()])
        .collect()
}

/// A random JSON tree. Numbers are drawn from the writer's actual domain:
/// integers (virtual-time counters) plus a few finite fractions.
fn gen_value(state: &mut u64, depth: usize) -> JsonValue {
    let pick = splitmix(state) % if depth == 0 { 5 } else { 7 };
    match pick {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(splitmix(state) & 1 == 1),
        2 => {
            let raw = splitmix(state) as i64 % 9_000_000_000_000_000;
            JsonValue::Num(raw as f64)
        }
        3 => {
            // A finite fraction with a short decimal form.
            let num = (splitmix(state) as i64 % 1_000_000) as f64;
            JsonValue::Num(num / 1024.0)
        }
        4 => JsonValue::Str(gen_string(state)),
        5 => {
            let n = (splitmix(state) % 4) as usize;
            JsonValue::Arr((0..n).map(|_| gen_value(state, depth - 1)).collect())
        }
        _ => {
            let n = (splitmix(state) % 4) as usize;
            JsonValue::Obj(
                (0..n)
                    .map(|_| (gen_string(state), gen_value(state, depth - 1)))
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse ∘ render is the identity on arbitrary trees, and render is a
    /// fixpoint of the round trip.
    #[test]
    fn parse_render_round_trips(seed in any::<u64>()) {
        let mut state = seed;
        let v = gen_value(&mut state, 3);
        let text = v.render();
        let back = parse_json(&text).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.render(), text);
    }

    /// Layout never changes content: the same tree written through
    /// `JsonWriter::value` in each container style parses back equal.
    #[test]
    fn every_writer_style_parses_back_equal(seed in any::<u64>()) {
        let mut state = seed;
        let v = gen_value(&mut state, 3);
        for style in [Style::Block, Style::Inline, Style::Compact] {
            let mut w = JsonWriter::new();
            w.value(&v, style);
            prop_assert_eq!(parse_json(&w.finish()).unwrap(), v.clone());
        }
    }

    /// Strings over the full escape palette survive the round trip.
    #[test]
    fn escaped_strings_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..48)) {
        let s: String = bytes
            .iter()
            .map(|b| PALETTE[*b as usize % PALETTE.len()])
            .collect();
        let v = JsonValue::Str(s);
        prop_assert_eq!(parse_json(&v.render()).unwrap(), v);
    }

    /// Integers in the writer's domain render without a fraction and parse
    /// back exactly (the determinism contract of the bench/metrics files).
    #[test]
    fn integers_round_trip_exactly(n in any::<i64>()) {
        let n = n % 9_000_000_000_000_000;
        let v = JsonValue::Num(n as f64);
        let text = v.render();
        prop_assert!(
            !text.contains('.') && !text.contains('e'),
            "integer must render as an integer: {}",
            text
        );
        prop_assert_eq!(parse_json(&text).unwrap(), v);
    }

    /// The log-linear latency histogram round-trips through its JSON wire
    /// form: `VtHistogram::to_json` → `parse_json` → `from_parts` rebuilds a
    /// histogram that agrees on count, sum, extremes, buckets, and every
    /// quantile — the contract the SLO sidecar and `ps2-trace slo` rely on.
    #[test]
    fn histogram_round_trips_through_json(
        values in prop::collection::vec(0u64..(1u64 << 44), 0..150)
    ) {
        let mut h = ps2::simnet::VtHistogram::default();
        for &v in &values {
            h.observe(ps2::simnet::SimTime(v));
        }

        let doc = parse_json(&h.to_json()).unwrap();
        let field = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap();
        let sparse: Vec<(u32, u64)> = doc
            .get("buckets")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|pair| {
                let kv = pair.as_arr().unwrap();
                (kv[0].as_u64().unwrap() as u32, kv[1].as_u64().unwrap())
            })
            .collect();

        let back = ps2::simnet::VtHistogram::from_parts(
            field("sum_ns"),
            field("min_ns"),
            field("max_ns"),
            &sparse,
        )
        .unwrap();

        prop_assert_eq!(back.count(), h.count());
        prop_assert_eq!(back.sum_ns(), h.sum_ns());
        prop_assert_eq!(back.min_ns(), h.min_ns());
        prop_assert_eq!(back.max_ns(), h.max_ns());
        prop_assert_eq!(back.sparse_buckets(), h.sparse_buckets());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(back.quantile_ns(q), h.quantile_ns(q));
        }
        // And the re-serialized form is byte-identical (fixpoint).
        prop_assert_eq!(back.to_json(), h.to_json());
    }
}

#[test]
fn numeric_edges_round_trip() {
    for n in [
        0.0,
        -0.0,
        0.1,
        -2.5,
        1e-9,
        1e300,
        -1e300,
        9.0e15,
        -9.0e15,
        1.5e-300,
        f64::MIN_POSITIVE,
        f64::EPSILON,
    ] {
        let v = JsonValue::Num(n);
        let text = v.render();
        assert_eq!(parse_json(&text).unwrap(), v, "n={n} text={text}");
    }
}

#[test]
fn deeply_nested_arrays_round_trip() {
    let mut v = JsonValue::Num(1.0);
    for _ in 0..64 {
        v = JsonValue::Arr(vec![v]);
    }
    assert_eq!(parse_json(&v.render()).unwrap(), v);
}

#[test]
fn duplicate_object_keys_are_preserved_in_order() {
    // The writer never emits duplicates, but the reader must not lose or
    // reorder them (first-match lookup is part of the `get` contract).
    let v = JsonValue::Obj(vec![
        ("k".to_string(), JsonValue::Num(1.0)),
        ("k".to_string(), JsonValue::Num(2.0)),
    ]);
    let back = parse_json(&v.render()).unwrap();
    assert_eq!(back, v);
    assert_eq!(back.get("k"), Some(&JsonValue::Num(1.0)));
}

#[test]
fn multibyte_runs_meet_escapes_and_run_boundaries() {
    // The string reader copies raw runs between escapes; multi-byte
    // characters sit directly against every kind of run boundary here.
    for (text, want) in [
        (r#""é\"ü\\n€""#, "é\"ü\\n€"),
        (r#""é\nü\t€""#, "é\nü\t€"),
        (r#""日\u00e9🦀""#, "日é🦀"),
        (r#""\u00e9日\u00e9""#, "é日é"),
        (r#""€""#, "€"),
    ] {
        let v = parse_json(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(v, JsonValue::Str(want.to_string()), "{text}");
        assert_eq!(parse_json(&v.render()).unwrap(), v, "{text}");
    }
}

#[test]
fn unterminated_string_after_multibyte_char_is_an_error() {
    for text in ["\"abc€", "\"€", "[\"日\\u00e9🦀"] {
        let err = parse_json(text).unwrap_err();
        assert_eq!(err.at, text.len(), "{text}: {err}");
        assert!(err.msg.contains("unterminated string"), "{text}: {err}");
    }
}

#[test]
fn eight_megabyte_string_heavy_document_parses_in_linear_time() {
    // Trace files are mostly strings, so string reading must be linear: a
    // reader that re-validates the remaining input per character needs
    // minutes for a document this size. The limit is generous so a slow host
    // cannot trip it.
    let mut state = 7u64;
    let mut items = Vec::new();
    let mut bytes = 0usize;
    while bytes < 8 << 20 {
        let s: String = (0..200)
            .map(|_| PALETTE[splitmix(&mut state) as usize % PALETTE.len()])
            .collect();
        bytes += s.len();
        items.push(JsonValue::Obj(vec![(
            "name".to_string(),
            JsonValue::Str(s),
        )]));
    }
    let v = JsonValue::Arr(items);
    let text = v.render();
    assert!(text.len() >= 8 << 20);

    let start = std::time::Instant::now();
    let back = parse_json(&text).unwrap();
    let took = start.elapsed();
    assert!(
        took.as_secs() < 10,
        "parsing {} bytes took {took:?}",
        text.len()
    );
    assert_eq!(back, v);
    assert_eq!(back.render(), text);
}
