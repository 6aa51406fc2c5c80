#!/usr/bin/env bash
# End-to-end exercise of the CLI tools: simulate → inspect → train →
# fine-tune → predict. Run by ctest (tools_smoke_test); $1 is the directory
# holding the tool binaries.
set -euo pipefail

TOOLS="${1:?usage: tool_smoke_test.sh <tools-bin-dir>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== simulate =="
"$TOOLS/deepsd_simulate" --out=city.bin --areas=4 --days=9 --seed=11 \
    --mean_scale=0.7

echo "== inspect dataset =="
"$TOOLS/deepsd_inspect" --data=city.bin | grep -q "areas: 4"

echo "== train basic (no traffic, serial) =="
"$TOOLS/deepsd_train" --data=city.bin --model=base.bin --mode=basic \
    --train_days=7 --epochs=2 --stride=30 --best_k=0 --no_traffic \
    --threads=1 --verbose=false

echo "== threads=2 retrains bit-identically =="
"$TOOLS/deepsd_train" --data=city.bin --model=base2.bin --mode=basic \
    --train_days=7 --epochs=2 --stride=30 --best_k=0 --no_traffic \
    --threads=2 --verbose=false
cmp base.bin base2.bin

echo "== fine-tune with traffic (telemetry on) =="
"$TOOLS/deepsd_train" --data=city.bin --model=full.bin --mode=basic \
    --train_days=7 --epochs=1 --stride=30 --best_k=0 \
    --finetune_from=base.bin --verbose=false --checkpoint=ck.bin \
    --metrics-out=metrics.jsonl --trace-out=trace.json
test -s metrics.jsonl
test -s trace.json
grep -q "traceEvents" trace.json
grep -q "trainer/batch_us" metrics.jsonl

echo "== metrics report =="
"$TOOLS/deepsd_metrics_report" --in=metrics.jsonl --filter=trainer/ \
    | grep -q "trainer/batch_us"

echo "== inspect the trained artifacts =="
"$TOOLS/deepsd_store" verify base.bin | grep -q "OK"
"$TOOLS/deepsd_store" inspect full.bin > full_inspect.txt
grep -q "traffic.fc1.w" full_inspect.txt
grep -q "block" full_inspect.txt  # --model_format defaults to compressed
grep -q "calibrated" full_inspect.txt
"$TOOLS/deepsd_store" pack --checkpoint=ck.bin --data=city.bin --mode=basic \
    --out=ck.dsar --encoding=quant
"$TOOLS/deepsd_store" inspect ck.dsar | grep -q "int8"

echo "== quantized model format serves under DEEPSD_KERNEL=quant =="
"$TOOLS/deepsd_train" --data=city.bin --model=quant.bin --mode=basic \
    --train_days=7 --epochs=1 --stride=30 --best_k=0 \
    --finetune_from=full.bin --verbose=false --model_format=quant
"$TOOLS/deepsd_store" inspect quant.bin | grep -q "int8"
DEEPSD_KERNEL=quant "$TOOLS/deepsd_predict" --data=city.bin --model=quant.bin \
    --ref_days=7 --day=8 --csv=predq.csv --threads=2
test -s predq.csv
head -1 predq.csv | grep -q "predicted_gap"

echo "== model store: pack / verify / inspect / diff =="
"$TOOLS/deepsd_store" pack --params=full.bin --data=city.bin \
    --out=full.dsar --version_id=smoke-v1 --ea --ref_days=7
"$TOOLS/deepsd_store" verify full.dsar | grep -q "OK"
"$TOOLS/deepsd_store" inspect full.dsar | grep -q "params.bin"
"$TOOLS/deepsd_store" inspect full.dsar | grep -q "smoke-v1"
"$TOOLS/deepsd_store" pack --params=full.bin --out=full_c.dsar \
    --version_id=smoke-v1 --encoding=compressed
"$TOOLS/deepsd_store" diff full.dsar full_c.dsar | grep -q "value-identical"
"$TOOLS/deepsd_store" pack --params=base.bin --out=base.dsar \
    --version_id=smoke-v0
if "$TOOLS/deepsd_store" diff full.dsar base.dsar >/dev/null; then
  echo "expected diff to report differing artifacts" >&2
  exit 1
fi
echo "== corrupt artifact rejected with a typed error =="
cp full.dsar corrupt.dsar
# Corrupt the first payload byte (section 0 sits at the first page
# boundary); verify must catch it via the section CRC.
printf '\xff' | dd of=corrupt.dsar bs=1 seek=4096 count=1 conv=notrunc \
    status=none
if "$TOOLS/deepsd_store" verify corrupt.dsar 2>/dev/null; then
  echo "expected verify to fail on a flipped bit" >&2
  exit 1
fi

echo "== swap-under-load: 100 hot swaps, zero drops, zero torn reads =="
"$TOOLS/deepsd_simulate" --out=swap_city.bin --areas=12 --days=4 --seed=13 \
    --mean_scale=0.5 --shards=2 --swap --swap_publishes=100 \
    | grep -q "swap scenario OK"

echo "== predict =="
"$TOOLS/deepsd_predict" --data=city.bin --model=full.bin \
    --ref_days=7 --day=8 --csv=pred.csv --threads=2
test -s pred.csv
head -1 pred.csv | grep -q "predicted_gap"
"$TOOLS/deepsd_predict" --data=city.bin --model=full.bin \
    --ref_days=7 --day=8 --csv=pred1.csv --threads=1
cmp pred.csv pred1.csv
# The mapped artifact serves what the tool trained: predicting from the
# raw repack matches the compressed original bit for bit.
"$TOOLS/deepsd_predict" --data=city.bin --model=full.dsar \
    --ref_days=7 --day=8 --csv=pred_raw.csv --threads=1
cmp pred.csv pred_raw.csv

echo "== unknown flag rejected =="
if "$TOOLS/deepsd_simulate" --bogus_flag=1 --out=x.bin 2>/dev/null; then
  echo "expected failure on unknown flag" >&2
  exit 1
fi

echo "tool smoke test OK"
