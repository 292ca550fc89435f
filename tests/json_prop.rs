//! `server::json::parse` against untrusted bytes. Every request body and
//! every shard reply goes through it, so whatever arrives — arbitrary
//! bytes, a valid document cut short or with one byte changed, number
//! literals past `f64` — it must return a value or an error, never panic,
//! and never accept what `to_text` cannot write back: one parse is a fixed
//! point. Generated trees round-trip exactly, and nesting stops at exactly
//! 128 containers.

use proptest::collection::vec;
use proptest::prelude::*;
use shapesearch::server::json::{self, Json};

/// What strings are drawn from: the characters `to_text` escapes, raw
/// control characters, and multi-byte and non-BMP code points.
const CHARS: &str = "aZ0 \"\\/\n\r\t\u{0}\u{8}\u{1f}\u{7f}é\u{2028}\u{fffd}\u{1f4c8}\u{10ffff}";

/// Scalars as a sender could spell them: exponents, `-0`, digits past
/// `f64`'s precision, the last finite double and the first past it,
/// escapes `to_text` never writes.
const LITERALS: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "-0",
    "-0.0",
    "0.1",
    "-12.75",
    "1E+2",
    "2.5e-3",
    "1e-999",
    "4.9e-324",
    "9007199254740993",
    "123456789012345678901234567890",
    "1.7976931348623157e308",
    "1.7976931348623159e308",
    "1e999",
    "-1e999",
    r#""📈""#,
    r#""é\/\b\f""#,
];

fn string() -> impl Strategy<Value = String> {
    let chars: Vec<char> = CHARS.chars().collect();
    vec(0..chars.len(), 0..8).prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
}

fn number() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
        -1.0f64..1.0,
        (-320i32..309).prop_map(|e| 10f64.powi(e)),
        (0u64..u64::MAX).prop_map(|bits| Some(f64::from_bits(bits))
            .filter(|n| n.is_finite())
            .unwrap_or(0.0)),
    ]
}

/// A tree at most three containers deep.
fn tree() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        Just(Json::Bool(false)),
        number().prop_map(Json::Num),
        string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Json::Arr),
            vec((string(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

/// A tree inside up to 125 more containers: at most 128 deep.
fn deep_tree() -> impl Strategy<Value = Json> {
    (tree(), vec(0u8..2, 0..=125)).prop_map(|(mut value, shells)| {
        for shell in shells {
            value = match shell {
                0 => Json::Arr(vec![value]),
                _ => Json::Obj(vec![("a".into(), value)]),
            };
        }
        value
    })
}

/// A well-formed document written token by token from [`LITERALS`].
fn document() -> BoxedStrategy<String> {
    let scalar = prop_oneof![
        (0..LITERALS.len()).prop_map(|i| LITERALS[i].to_owned()),
        string().prop_map(|s| Json::Str(s).to_text()),
    ];
    scalar.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(|items| format!("[{}]", items.join(","))),
            vec((string(), inner), 0..4).prop_map(|fields| {
                let fields: Vec<String> = fields
                    .into_iter()
                    .map(|(key, value)| format!("{}: {value}", Json::Str(key).to_text()))
                    .collect();
                format!("{{ {} }}", fields.join(" ,"))
            }),
        ]
    })
}

/// Documents, documents cut short, documents with one byte changed, and
/// arbitrary bytes.
fn hostile_text() -> impl Strategy<Value = String> {
    prop_oneof![
        document(),
        (document(), 0usize..10_000).prop_map(|(doc, cut)| {
            let mut cut = cut % (doc.len() + 1);
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            doc[..cut].to_owned()
        }),
        (document(), 0usize..10_000, 0u8..=255).prop_map(|(doc, at, byte)| {
            let mut bytes = doc.into_bytes();
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }),
        vec(0u8..=255, 0..64).prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_trees_round_trip_through_text(value in deep_tree()) {
        prop_assert_eq!(json::parse(&value.to_text()), Ok(value));
    }

    #[test]
    fn hostile_text_is_refused_or_parses_to_a_fixed_point(text in hostile_text()) {
        if let Ok(value) = json::parse(&text) {
            let again = json::parse(&value.to_text());
            prop_assert_eq!(again, Ok(value), "accepted {:?}", text);
        }
    }
}

#[test]
fn nesting_is_capped_at_exactly_128_containers() {
    for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
        let nested = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
        assert!(json::parse(&nested(128)).is_ok(), "{open} × 128");
        let err = json::parse(&nested(129)).unwrap_err();
        assert!(
            err.contains("nesting deeper than 128"),
            "{open} × 129: {err}"
        );
    }
}
