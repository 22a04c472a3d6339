# Kill-and-resume gate (make resume-smoke).
#
# One deterministic workload (the B6/B9 2x3 d22 fai/board run) is the
# reference; every scenario below must reach the byte-identical
# verdict and counts after stripping the volatile fields (wall clock
# and the spill/store block), or fail loudly:
#
#   1. spill+checkpoint, uninterrupted  -> counts == all-RAM reference
#   2. SIGKILL mid-level (exit 137), torn MANIFEST.*.tmp dropped in,
#      then --resume                    -> counts == reference
#   3. corrupt newest manifest          -> resume exits 2
#   4. corrupt a visited segment header -> resume exits 2
#   5. truncated frontier segment       -> resume exits 2
#   6. manifest relabelled as written by the retired "barrier"
#      engine (checksum recomputed, so only the engine field is
#      wrong)                           -> resume exits 2
#
# 3-6 each start from a FRESH crashed directory: a resume that
# silently restarted from scratch would still produce the right
# counts, so the corruption gates are what prove resume actually
# reads the checkpoint.

set -u

ELIN="${ELIN:-./_build/default/bin/elin.exe}"
SCRATCH="${SCRATCH:-_build/resume-smoke}"

WL="mc -i fai/board --procs 2 --per-proc 3 --depth 22 --domains 2 --json"
SPILL="--spill-hot 4096 --checkpoint-every 2"
CRASH_AT=6

fail() {
  echo "resume-smoke: $*" >&2
  exit 1
}

strip_volatile() {
  sed -e 's/"wall":[0-9.eE+-]*,\{0,1\}//g' \
      -e 's/"spill":"[^"]*",\{0,1\}//g' \
      -e 's/"resumed":[a-z]*,\{0,1\}//g' \
      -e 's/"resumed_from":[^,}]*,\{0,1\}//g' \
      -e 's/"store":{[^}]*},\{0,1\}//g' \
      -e 's/,}/}/g'
}

same_as_reference() {
  strip_volatile < "$1" > "$1.stripped"
  cmp -s "$SCRATCH/ref.stripped" "$1.stripped" || {
    diff "$SCRATCH/ref.stripped" "$1.stripped" >&2
    fail "$2: output differs from the all-RAM reference"
  }
}

crash_run() {
  $ELIN $WL $SPILL --spill "$1" --crash-after-checkpoint $CRASH_AT \
    > /dev/null 2>&1
  status=$?
  [ $status -eq 137 ] || fail "crash run ($1): expected exit 137 (SIGKILL), got $status"
  ls "$1"/MANIFEST.[0-9]* > /dev/null 2>&1 \
    || fail "crash run ($1): no committed manifest survived the kill"
  ls "$1"/visited-s*.seg > /dev/null 2>&1 \
    || fail "crash run ($1): no visited segments spilled before the kill"
}

newest_manifest() {
  ls "$1" | grep '^MANIFEST\.[0-9]*$' | sort -t. -k2 -n | tail -1
}

expect_resume_corrupt() {
  $ELIN mc --resume "$1" --json > /dev/null 2> "$1.err"
  status=$?
  [ $status -eq 2 ] || {
    cat "$1.err" >&2
    fail "$2: expected exit 2, got $status"
  }
}

rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

# Reference: the all-RAM run.
$ELIN $WL > "$SCRATCH/ref.json" || fail "reference run failed"
strip_volatile < "$SCRATCH/ref.json" > "$SCRATCH/ref.stripped"

# 1. Spill + checkpoints, uninterrupted.
$ELIN $WL $SPILL --spill "$SCRATCH/full" > "$SCRATCH/full.json" \
  || fail "uninterrupted spill run failed"
same_as_reference "$SCRATCH/full.json" "uninterrupted spill"

# 2. Kill mid-level, drop a torn manifest in, resume.
crash_run "$SCRATCH/crashed"
printf 'torn manifest garbage' > "$SCRATCH/crashed/MANIFEST.999.tmp"
$ELIN mc --resume "$SCRATCH/crashed" --json > "$SCRATCH/resumed.json" \
  || fail "resume after SIGKILL failed"
same_as_reference "$SCRATCH/resumed.json" "resume after SIGKILL"
grep -q '"resumed":true' "$SCRATCH/resumed.json" \
  || fail "resume did not report resumed:true"

# 3. Corrupt newest manifest: old state never silently wins over a
#    damaged committed manifest.
crash_run "$SCRATCH/bad-manifest"
m="$SCRATCH/bad-manifest/$(newest_manifest "$SCRATCH/bad-manifest")"
printf 'XXXXXXXX' | dd of="$m" bs=1 seek=4 conv=notrunc 2> /dev/null
expect_resume_corrupt "$SCRATCH/bad-manifest" "corrupt manifest"

# 4. Corrupt a visited segment header.
crash_run "$SCRATCH/bad-segment"
s=$(ls "$SCRATCH"/bad-segment/visited-s*.seg | head -1)
printf 'XXXX' | dd of="$s" bs=1 seek=12 conv=notrunc 2> /dev/null
expect_resume_corrupt "$SCRATCH/bad-segment" "corrupt visited segment"

# 5. Truncated frontier segment.
crash_run "$SCRATCH/bad-frontier"
f=$(ls "$SCRATCH"/bad-frontier/ckpt*-f*.seg | sort | tail -1)
sz=$(wc -c < "$f")
head -c $((sz - 100)) "$f" > "$f.cut" && mv "$f.cut" "$f"
expect_resume_corrupt "$SCRATCH/bad-frontier" "truncated frontier segment"

# 6. A manifest from the retired barrier engine.  A manifest frame is
#    magic (8) | payload length (4) | payload | CRC-32 (4, LE); the
#    engine name is a plain string inside the marshalled payload, and
#    gzip's trailer is the same IEEE CRC-32, little-endian.
crash_run "$SCRATCH/barrier-manifest"
m="$SCRATCH/barrier-manifest/$(newest_manifest "$SCRATCH/barrier-manifest")"
[ "$(grep -o -a sharded "$m" | wc -l)" -eq 1 ] \
  || fail "barrier manifest: expected one engine field in $m"
off=$(grep -o -b -a sharded "$m" | cut -d: -f1)
printf 'barrier' | dd of="$m" bs=1 seek="$off" conv=notrunc 2> /dev/null
sz=$(wc -c < "$m")
tail -c +13 "$m" | head -c $((sz - 16)) | gzip -c | tail -c 8 | head -c 4 \
  > "$m.crc"
dd if="$m.crc" of="$m" bs=1 seek=$((sz - 4)) conv=notrunc 2> /dev/null
rm -f "$m.crc"
expect_resume_corrupt "$SCRATCH/barrier-manifest" "barrier-engine manifest"
grep -q 'engine is barrier' "$SCRATCH/barrier-manifest.err" || {
  cat "$SCRATCH/barrier-manifest.err" >&2
  fail "barrier-engine manifest: refused for the wrong reason"
}

echo "resume-smoke OK"
