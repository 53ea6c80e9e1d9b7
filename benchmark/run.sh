#!/usr/bin/env bash
# medbench, the one command. From the repo root:
#
#   bash benchmark/run.sh                      every workload, untraced then
#                                              traced; prints the metric table
#                                              and writes benchmark/out/results.json
#   bash benchmark/run.sh --smoke              the same code at ~1/20 of the
#                                              operations, one set-up per run
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                              one run (what BENCHMARK.json's
#                                              command gets); the last line of
#                                              standard output is its result
#
# medbench is built in release into $CARGO_TARGET_DIR (default: the root
# target/); scratch stores go under the same directory, results and traces
# under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
medbench="$CARGO_TARGET_DIR/release/medbench"
tmp="$CARGO_TARGET_DIR/medbench-tmp"
out="$here/out"

if [[ "${1:-}" == "--workload" ]]; then
    exec "$medbench" run "$@" --tmp "$tmp" --out "$out"
fi

seed=1
seconds=5
extra=()
while (($#)); do
    case "$1" in
        --smoke) seconds=0.25; extra=(--setups 1) ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

rm -f "$out"/*.run.json
for trace in 0 1; do
    for workload in ward_paced ward_durable wide_batch clinic_mixed; do
        # The per-run result line is for the driver; the table is for people.
        "$medbench" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --tmp "$tmp" --out "$out" ${extra[@]+"${extra[@]}"} | sed '$d'
    done
done
"$medbench" merge "$out"
