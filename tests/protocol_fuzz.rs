//! The protocol decoders against hostile, mutated and reordered lines.
//!
//! - No byte sequence from the network may panic them: a deterministic
//!   loop feeds `Request::decode_with_meta` and
//!   `Response::decode_with_req` random bytes and byte-level mutations
//!   of the golden wire lines (bit flips, inserted, deleted and replaced
//!   bytes, truncation, extra nesting).
//! - Their verdicts are pinned: which golden and fuzz lines each decoder
//!   accepts, and a digest of what it decoded, must match
//!   `crates/serve/testdata/decode_verdicts.txt`.
//! - Key order, unknown keys and repeated keys (last one wins) do not
//!   change what a line decodes to.

use std::collections::BTreeSet;

use chain_nn_repro::serve::json::{write_escaped, Json};
use chain_nn_repro::serve::{Request, Response};
use proptest::prelude::TestRng;

/// The golden wire lines the protocol tests pin: `key<TAB>line`.
const GOLDEN: &str = include_str!("../crates/serve/testdata/wire_golden.txt");

/// Every accepted `(case, decoder)` pair with the FNV-1a-64 digest of
/// the decoded value's `Debug` form, written from the decoders that
/// predate the one-pass reader. Never regenerate it from the current
/// decoders: it is the reference they are held to.
const VERDICTS: &str = include_str!("../crates/serve/testdata/decode_verdicts.txt");

const CASES: usize = 12_000;

/// Bytes that steer mutations toward the parser's interesting paths.
const JSONISH: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn \\u\t\n";

fn golden() -> Vec<(&'static str, &'static str)> {
    GOLDEN
        .lines()
        .map(|l| l.split_once('\t').expect("key<TAB>line"))
        .collect()
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

fn pick_byte(rng: &mut TestRng) -> u8 {
    if rng.next_u64().is_multiple_of(2) {
        JSONISH[below(rng, JSONISH.len())]
    } else {
        rng.next_u64() as u8
    }
}

fn mutate(rng: &mut TestRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + below(rng, 4) {
        let at = below(rng, bytes.len());
        match below(rng, 6) {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << below(rng, 8),
            1 => bytes.insert(at, pick_byte(rng)),
            2 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            4 => {
                // Extra nesting, shallow or far past the parser's bound.
                let depth = if rng.next_u64().is_multiple_of(4) {
                    10_000
                } else {
                    1 + below(rng, 80)
                };
                let open = if rng.next_u64().is_multiple_of(2) {
                    "["
                } else {
                    "{\"a\":"
                };
                let nest = open.repeat(depth);
                bytes.splice(at..at, nest.into_bytes());
            }
            _ if !bytes.is_empty() => bytes[at] = pick_byte(rng),
            _ => bytes.push(pick_byte(rng)),
        }
    }
    bytes
}

/// The fuzz lines: every eighth random bytes, the rest mutated golden
/// lines. Deterministic, so the pinned verdicts name them by index.
fn fuzz_cases() -> Vec<String> {
    let seeds: Vec<&str> = golden().into_iter().map(|(_, line)| line).collect();
    let mut rng = TestRng::deterministic("protocol_fuzz");
    (0..CASES)
        .map(|case| {
            let bytes = if case.is_multiple_of(8) {
                (0..below(&mut rng, 96))
                    .map(|_| pick_byte(&mut rng))
                    .collect()
            } else {
                let seed = seeds[below(&mut rng, seeds.len())];
                mutate(&mut rng, seed.as_bytes().to_vec())
            };
            String::from_utf8_lossy(&bytes).into_owned()
        })
        .collect()
}

#[test]
fn decoders_never_panic_on_mutated_or_random_lines() {
    let seeds = golden();
    assert!(seeds.len() > 100, "golden lines missing");
    for (_, line) in &seeds {
        assert!(
            Request::decode_with_meta(line).is_ok() || Response::decode_with_req(line).is_ok(),
            "golden line no longer decodes: {line}"
        );
    }
    let mut rejected = 0;
    for text in fuzz_cases() {
        let request = Request::decode_with_meta(&text);
        let response = Response::decode_with_req(&text);
        if request.is_err() && response.is_err() {
            rejected += 1;
        }
    }
    // The mutations must actually exercise the error paths.
    assert!(
        rejected > CASES / 4,
        "only {rejected} of {CASES} cases rejected"
    );
}

/// FNV-1a, 64-bit.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The verdict lines of one case: `case<TAB>decoder<TAB>digest` for
/// each decoder that accepts `text`.
fn verdicts(case: &str, text: &str, out: &mut BTreeSet<String>) {
    if let Ok(value) = Request::decode_with_meta(text) {
        out.insert(format!(
            "{case}\trequest\t{:016x}",
            fnv1a64(&format!("{value:?}"))
        ));
    }
    if let Ok(value) = Response::decode_with_req(text) {
        out.insert(format!(
            "{case}\treply\t{:016x}",
            fnv1a64(&format!("{value:?}"))
        ));
    }
}

#[test]
fn decode_verdicts_match_the_pinned_file() {
    let mut got = BTreeSet::new();
    for (key, line) in golden() {
        verdicts(&format!("golden.{key}"), line, &mut got);
    }
    for (i, text) in fuzz_cases().iter().enumerate() {
        verdicts(&format!("fuzz.{i}"), text, &mut got);
    }
    let want: BTreeSet<String> = VERDICTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    let accepted = |decoder: &str| {
        want.iter()
            .filter(|l| l.starts_with("fuzz.") && l.contains(decoder))
            .count()
    };
    // The pinned file's own shape: enough accepted fuzz cases that the
    // comparison means something.
    assert!(accepted("\trequest\t") > 500 && accepted("\treply\t") > 200);
    let flipped: Vec<String> = want
        .symmetric_difference(&got)
        .take(20)
        .map(|l| {
            let side = if got.contains(l) {
                "now accepted"
            } else {
                "pinned"
            };
            format!("{side}: {l}")
        })
        .collect();
    assert!(
        flipped.is_empty(),
        "{} verdicts differ from the pinned file, first ones:\n{}",
        want.symmetric_difference(&got).count(),
        flipped.join("\n")
    );
}

/// Writes `v` back out as one JSON line.
fn emit(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&format!("{n}")),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                emit(item, out);
            }
            out.push('}');
        }
    }
}

/// One rewrite of an object's key list.
type Form = dyn Fn(Vec<(String, Json)>) -> Vec<(String, Json)>;

/// Rewrites every object's key list with `f`, except the objects under
/// `mix`, `labels` and `scalarized`: those are maps, whose order and
/// repeats are data.
fn rewrite(v: &Json, f: &Form) -> Json {
    match v {
        Json::Arr(items) => Json::Arr(items.iter().map(|item| rewrite(item, f)).collect()),
        Json::Obj(pairs) => Json::Obj(f(pairs
            .iter()
            .map(|(k, item)| {
                let map = matches!(k.as_str(), "mix" | "labels" | "scalarized");
                (k.clone(), if map { item.clone() } else { rewrite(item, f) })
            })
            .collect())),
        other => other.clone(),
    }
}

/// Asserts `variant` decodes, with the decoder that accepts `original`,
/// to the same value as `original`.
fn assert_same_decode(original: &str, variant: &str) {
    if let Ok(want) = Request::decode_with_meta(original) {
        assert_eq!(
            Request::decode_with_meta(variant),
            Ok(want),
            "{original}\n{variant}"
        );
    } else {
        let want = Response::decode_with_req(original).expect("golden line decodes");
        assert_eq!(
            Response::decode_with_req(variant),
            Ok(want),
            "{original}\n{variant}"
        );
    }
}

#[test]
fn key_order_unknown_keys_and_repeats_do_not_change_the_value() {
    let unknown = Json::parse(r#"[{"x":[1.5,"sé",null,true]}]"#).unwrap();
    let forms: [Box<Form>; 3] = [
        // (a) every object's keys reversed;
        Box::new(|pairs| pairs.into_iter().rev().collect()),
        // (b) an unknown key added to every object;
        Box::new(move |pairs| {
            let mut with = vec![("unknown_key".to_owned(), unknown.clone())];
            with.extend(pairs);
            with
        }),
        // (c) every key repeated, an earlier copy of its value first.
        Box::new(|pairs| {
            pairs
                .into_iter()
                .flat_map(|pair| [pair.clone(), pair])
                .collect()
        }),
    ];
    for (_, line) in golden() {
        let tree = Json::parse(line).expect("golden line is JSON");
        for f in &forms {
            let mut variant = String::new();
            emit(&rewrite(&tree, f.as_ref()), &mut variant);
            assert_same_decode(line, &variant);
        }
    }
}

#[test]
fn the_last_of_conflicting_repeats_wins() {
    let eval = |pes| {
        Request::Eval(chain_nn_repro::dse::DesignPoint {
            pes,
            ..chain_nn_repro::dse::DesignPoint::paper_alexnet()
        })
    };
    for (line, want) in [
        (
            r#"{"type":"stats","type":"eval","point":{"pes":288}}"#,
            eval(288),
        ),
        (
            r#"{"type":"stats","point":{"pes":288},"type":"eval"}"#,
            eval(288),
        ),
        (r#"{"type":"eval","point":{"pes":1,"pes":576}}"#, eval(576)),
        // An earlier repeat whose value is mistyped is replaced too.
        (
            r#"{"type":"eval","point":{"pes":"many","pes":576}}"#,
            eval(576),
        ),
        (r#"{"type":7,"point":{"pes":288},"type":"eval"}"#, eval(288)),
        (
            r#"{"type":"eval","point":{"pes":1},"point":{"pes":288}}"#,
            eval(288),
        ),
    ] {
        assert_eq!(Request::decode(line), Ok(want), "{line}");
    }
    let (key, reply) = golden()
        .into_iter()
        .find(|(key, line)| {
            key.ends_with(".req") && line.starts_with(r#"{"ok":true,"type":"eval","#)
        })
        .expect("a golden eval reply");
    assert!(reply.contains(r#""status":"ok""#), "{key}");
    for conflicting in [
        r#""status":"infeasible","status":"ok""#,
        r#""status":"infeasible","reason":"late","status":"ok""#,
    ] {
        let line = reply.replace(r#""status":"ok""#, conflicting);
        assert_same_decode(reply, &line);
    }
    // A late status still overrides an early one past the rows.
    let line = reply.replace(r#""status":"ok""#, r#""status":"infeasible""#);
    let line = format!("{},\"status\":\"ok\"}}", line.strip_suffix('}').unwrap());
    assert_same_decode(reply, &line);
    // Skipped values are still validated.
    for bad in [
        r#"{"type":"stats","junk":[1,]}"#,
        r#"{"ok":true,"type":"stats","junk":[1,]}"#,
    ] {
        assert!(Request::decode_with_meta(bad).is_err(), "{bad}");
        assert!(Response::decode_with_req(bad).is_err(), "{bad}");
    }
}
