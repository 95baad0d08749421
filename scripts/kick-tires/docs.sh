#!/usr/bin/env bash
# Warning-free rustdoc, the two examples, the markdown links, and the
# paper tables: `chain-nn tables` must print EXPERIMENTS.md's first
# text block byte for byte, so a model change that forgets to
# regenerate the document fails here.
source "$(dirname "$0")/lib.sh"

RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
./scripts/check-md-links.sh
cargo build --release -q --examples
EXAMPLES=$ROOT/target/release/examples

cd "$WORK"
"$EXAMPLES/quantization" | tee quantization.out
grep -q "DSE accuracy model" quantization.out
grep -q "SQNR" quantization.out
"$EXAMPLES/design_space" | tee design_space.out
grep -q "Pareto frontier" design_space.out
grep -q -- "<- paper" design_space.out

# The first ```text block of EXPERIMENTS.md, without its fences.
awk '/^```text$/ && !done { inside = 1; next }
     /^```$/ && inside { inside = 0; done = 1 }
     inside' "$ROOT/EXPERIMENTS.md" > experiments.txt
$BIN tables > tables.txt
diff -u experiments.txt tables.txt
