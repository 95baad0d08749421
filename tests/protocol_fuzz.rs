//! No byte sequence from the network may panic the protocol decoders.
//!
//! A deterministic loop feeds `Request::decode_with_meta` and
//! `Response::decode_with_req` random bytes and byte-level mutations of
//! the golden wire lines (bit flips, inserted, deleted and replaced
//! bytes, truncation, extra nesting). Every call must return — `Ok` or
//! `Err` — without panicking.

use chain_nn_repro::serve::{Request, Response};
use proptest::prelude::TestRng;

/// The golden wire lines the protocol tests pin: `key<TAB>line`.
const GOLDEN: &str = include_str!("../crates/serve/testdata/wire_golden.txt");

const CASES: usize = 12_000;

/// Bytes that steer mutations toward the parser's interesting paths.
const JSONISH: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn \\u\t\n";

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

#[test]
fn decoders_never_panic_on_mutated_or_random_lines() {
    let seeds: Vec<&str> = GOLDEN
        .lines()
        .map(|l| l.split_once('\t').expect("key<TAB>line").1)
        .collect();
    assert!(seeds.len() > 100, "golden lines missing");
    for line in &seeds {
        assert!(
            Request::decode_with_meta(line).is_ok() || Response::decode_with_req(line).is_ok(),
            "golden line no longer decodes: {line}"
        );
    }
    let mut rng = TestRng::deterministic("protocol_fuzz");
    let mut rejected = 0;
    for case in 0..CASES {
        let bytes = if case.is_multiple_of(8) {
            (0..below(&mut rng, 96))
                .map(|_| pick_byte(&mut rng))
                .collect()
        } else {
            let seed = seeds[below(&mut rng, seeds.len())];
            mutate(&mut rng, seed.as_bytes().to_vec())
        };
        let text = String::from_utf8_lossy(&bytes);
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
