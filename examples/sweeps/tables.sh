#!/usr/bin/env sh
# Rebuild the paper tables: run each spec through `campaign run` and
# render its scaling tables with `campaign summarize`, into out/<spec>.md
# (raw records in out/<spec>.jsonl). README's "Paper tables" maps each
# experiment E1-E10 to its spec, test or command.
#
#   theorem1        E1 (Theorem 1: rounds until gathering on every
#                   family), E4 (its `table` row is the Fig. 4 plateau),
#                   E5 and E9 (its `line` row)
#   theorem1_hollow E1's hollow-square row, which stops at n = 512: larger
#                   hollow squares stall (ROADMAP.md, Theorem 1 item)
#   baselines       E8 (the paper's algorithm against GoToCenter and the
#                   greedy baseline)
#
# Usage: examples/sweeps/tables.sh [campaign run flags...]
# Extra flags go to every `campaign run` and override the spec's axes:
# `examples/sweeps/tables.sh --sizes 64,128` is the quick pass.
set -eu
cd "$(dirname "$0")/../.."
cargo build --release --quiet --bin campaign
campaign="${CARGO_TARGET_DIR:-target}/release/campaign"
mkdir -p out
for spec in theorem1 theorem1_hollow baselines; do
    # `campaign run` resumes into an existing file; start each table fresh.
    rm -f "out/$spec.jsonl" "out/$spec.jsonl.manifest.json"
    "$campaign" run --spec "examples/sweeps/$spec.json" --out "out/$spec.jsonl" "$@"
    "$campaign" summarize --in "out/$spec.jsonl" > "out/$spec.md"
done
