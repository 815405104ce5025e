#!/usr/bin/env bash
# Local CI gate: tier-1 tests, reprolint, and (when installed) mypy.
# Mirrors .github/workflows/ci.yml; run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== golden-vector conformance =="
python -m pytest -x -q tests/phy/test_golden_vectors.py

echo "== batched/scalar differential =="
python -m pytest -x -q tests/sim/test_batch_differential.py

echo "== IQ corpus: replay + fuzz smoke =="
python -m pytest -x -q tests/iq
python -m repro corpus replay --mode both
python -m repro corpus fuzz --iterations 50 --seed 7

echo "== paper figure tables (Figs 10-13, exact) =="
python -m pytest -q benchmarks -m slow -k "fig10 or fig11 or fig12 or fig13"
git diff --exit-code benchmarks/results

echo "== perf smoke =="
python -m repro bench --smoke --no-history
python -m pytest -q perfbench

echo "== sweep service smoke =="
python -m pytest -x -q tests/service

echo "== reprolint =="
# The content-hash cache (.reprolint-cache.json, git-ignored) makes a
# re-run over an unchanged tree near-instant; --stats shows the hit rate.
python -m repro.tools.lint --stats src tests benchmarks examples

echo "== mypy =="
if python -c "import mypy" 2>/dev/null; then
    python -m mypy
else
    echo "mypy not installed (pip install -e '.[lint]'); skipping"
fi

echo "== all checks passed =="
