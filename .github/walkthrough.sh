#!/usr/bin/env bash
# The README walkthrough (seed 42) through the installed `opticomp` entry
# point, a digest check of the baseline report, then five error cases;
# tests/test_cli.py pins every input defect.
# Runs in a fresh temporary directory and stops at the first step that fails:
#   bash .github/walkthrough.sh
set -e
cd "$(mktemp -d)"
opticomp gen-toy --out toy --seed 42
opticomp compress \
    --set paths.model=toy/model.lten \
    --set paths.calibration=toy/calib.lten \
    --set targets.alpha=0.3 \
    --out run --seed 42
opticomp simulate --plan run/plan.json --compare \
    --set paths.model=toy/model.lten --out run
opticomp verify \
    --set paths.model=toy/model.lten \
    --set paths.calibration=toy/calib.lten \
    --out run --quant-noise 0.03
opticomp report run/report.json
opticomp report run/comparison.json
# The dense baseline's report.json has the bytes that
# tests/test_photonic.py::test_report_json_bytes_are_pinned pins.
opticomp simulate --baseline --set paths.model=toy/model.lten --out base
echo "5c5149fa5709f5bcd71928f2cafd0e8ca3bc51ba43b1568db54b5ea3d0002236  base/report.json" | sha256sum -c
# A sparse ratio that keeps no column of the narrowest layer (exit 2).
code=0
opticomp compress \
    --set paths.model=toy/model.lten \
    --set paths.calibration=toy/calib.lten \
    --set targets.sparse_ratio=0.01 \
    --out sparse 2> sparse.err || code=$?
test "$code" -eq 2
grep -q "targets.sparse_ratio" sparse.err
if grep -q Traceback sparse.err; then exit 1; fi
# A negative --quant-noise that argparse would take for an option is attached to it
# in sys.argv, so it still gets the range message (exit 2).
code=0
opticomp verify \
    --set paths.model=toy/model.lten \
    --out run --quant-noise -inf 2> noise.err || code=$?
test "$code" -eq 2
grep -q "argument --quant-noise: must be a finite number >= 0" noise.err
if grep -q Traceback noise.err; then exit 1; fi
# A plan is neither a simulate report nor a comparison (exit 1).
code=0
opticomp report run/plan.json 2> report.err || code=$?
test "$code" -eq 1
if grep -q Traceback report.err; then exit 1; fi
# A batch whose invocation counts pass int64 (exit 1); the overflow
# comes from the installed numpy's int64 conversion.
code=0
opticomp simulate --baseline --set paths.model=toy/model.lten \
    --set hardware.batch_tokens=10000000000000000000 --out huge 2> batch.err || code=$?
test "$code" -eq 1
grep -q "batch_tokens=10000000000000000000" batch.err
if grep -q Traceback batch.err; then exit 1; fi
# A plan that lists layer 0 twice (exit 1, the layer named).
python3 -c '
import json, sys
plan = json.load(open(sys.argv[1]))
plan["layers"].append(plan["layers"][0])
print(plan["layers"][0]["id"])
json.dump(plan, open(sys.argv[2], "w"))
' run/plan.json twice.json > twice.id
code=0
opticomp simulate --plan twice.json --set paths.model=toy/model.lten --out twice 2> twice.err || code=$?
test "$code" -eq 1
grep -q "plan lists layer '$(cat twice.id)' twice" twice.err
if grep -q Traceback twice.err; then exit 1; fi
