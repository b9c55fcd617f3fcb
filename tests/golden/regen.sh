#!/usr/bin/env sh
# Regenerates tests/golden/campaign_summary.csv, contention_ladder.csv,
# serve_responses.txt and every pinned output under tests/golden/outputs/
# after an *intentional* behaviour change (channel calibration, MAC timing,
# medium/contention rules, same-time event order, metric definitions,
# report formats, serve protocol/response schema).
#
# The files are byte-compared by Golden.CampaignSummaryCsvMatchesCheckedInFile,
# Golden.ContentionLadderCsvMatchesCheckedInFile,
# ServeGolden.TraceResponsesMatchCheckedInFile and one Golden/<name> ctest
# per outputs/<name>/ directory, so never refresh them to silence a failing
# test without understanding why the numbers moved — review the diff like
# any other calibration change. A serve-response change that affects
# answers also needs a kServeVersionTag bump (src/serve/protocol.h) so
# stale persisted caches invalidate.
#
# The workload mirrors GoldenCampaignOptions() in tests/golden_test.cpp:
# an 8-configuration stride through the 48,384-point Table I space
# (48384 / 8 + 1 = 6049), 60 packets each, base seed 20150629. The thread
# count does not affect the output (the determinism suite pins that), so
# any worker count regenerates the same bytes.
#
# checkpoint_v1.ckpt and servecache_v1.cache are not regenerated here:
# they are frozen files in the version 1 formats, which current writers no
# longer produce. The checkpoint proves version 1 checkpoints still
# resume; the cache proves a version 1 cache is discarded unread. They
# were written before the journal format with
#   run_campaign --stride 4000 --packets 20 --seed 77 --threads 1 \
#     --checkpoint checkpoint_v1.ckpt --checkpoint-every 2 --max-configs 5
#   wsnlink_client --inprocess --cache servecache_v1.cache \
#     --trace <the first four requests of serve_trace.txt>
#
# Each outputs/<name>/ directory holds a `cmd` line and the files that run
# must reproduce (see check_output.sh). To pin a new run, add a directory
# with its `cmd` and an empty file for each output to pin (`stdout` for
# the standard output), rerun cmake so its ctest is registered, then run
# this script.
#
# Usage:  tests/golden/regen.sh   [BUILD_DIR=/path/to/build]
set -eu

ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/../.." && pwd)
BUILD=${BUILD_DIR:-"$ROOT/build"}
GOLDEN="$ROOT/tests/golden/campaign_summary.csv"

if [ ! -d "$BUILD" ]; then
  echo "regen.sh: build directory $BUILD not found (set BUILD_DIR)" >&2
  exit 2
fi

cmake --build "$BUILD" --target run_campaign
"$BUILD/examples/run_campaign" \
  --stride 6049 --packets 60 --seed 20150629 --threads 2 \
  --out "$GOLDEN"

# Contention golden: a CSMA node ladder on one shared medium. Its larger
# rungs pin multi-node behaviour, including the kernel's lane-ordered
# tie-break between same-time events of different nodes.
LADDER_GOLDEN="$ROOT/tests/golden/contention_ladder.csv"
cmake --build "$BUILD" --target contention_sweep
"$BUILD/examples/contention_sweep" \
  --nodes 1,2,4,8,16,32 --packets 200 --seed 9 --csv "$LADDER_GOLDEN"

# Serve golden: replay the fixed request trace through an in-process
# QueryService (no socket, no cache file) and freeze the response bytes.
SERVE_GOLDEN="$ROOT/tests/golden/serve_responses.txt"
cmake --build "$BUILD" --target wsnlink_client
"$BUILD/examples/wsnlink_client" --inprocess \
  --trace "$ROOT/tests/golden/serve_trace.txt" \
  --out "$SERVE_GOLDEN"

# Output goldens: rerun each pinned bench and example and copy back the
# files its directory pins.
OUTPUTS="$ROOT/tests/golden/outputs"
cmake --build "$BUILD"
for dir in "$OUTPUTS"/*/; do
  sh "$ROOT/tests/golden/check_output.sh" regen "$BUILD" "${dir%/}"
done

echo
git -C "$ROOT" --no-pager diff --stat -- \
  "$GOLDEN" "$LADDER_GOLDEN" "$SERVE_GOLDEN" "$OUTPUTS" || true
echo "regen.sh: wrote $GOLDEN, $LADDER_GOLDEN, $SERVE_GOLDEN and $OUTPUTS — review the diff, then commit deliberately."
