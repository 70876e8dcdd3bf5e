"""Regenerate tests/golden/hashes.json after an intended change of outputs.

    PYTHONPATH=src python tests/golden/regen_hashes.py

Writes every key: the simulator's step-outcome hash and the hashes of the
golden trainings and evaluation.
"""
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from test_golden import HASHES, STEP_KEY, golden_hashes, platform_tag, step_outcome_hash

with tempfile.TemporaryDirectory() as tmp:
    hashes = {**golden_hashes(pathlib.Path(tmp)), STEP_KEY: step_outcome_hash()}
doc = {"platform": platform_tag(), "hashes": dict(sorted(hashes.items()))}
HASHES.write_text(json.dumps(doc, indent=2) + "\n")
print(f"wrote {HASHES}")
