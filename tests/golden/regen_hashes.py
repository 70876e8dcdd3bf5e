"""Regenerate tests/golden/hashes.json after an intended change of outputs.

    PYTHONPATH=src python tests/golden/regen_hashes.py

Writes every key: the simulator's step-outcome hash, the scripted
evaluation's hash and the hashes of the golden trainings and evaluation.
"""
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from test_golden import HASHES, SEPARATE_KEYS, golden_hashes, platform_tag

with tempfile.TemporaryDirectory() as tmp:
    hashes = {**golden_hashes(pathlib.Path(tmp)), **{key: run() for key, run in SEPARATE_KEYS.items()}}
doc = {"platform": platform_tag(), "hashes": dict(sorted(hashes.items()))}
HASHES.write_text(json.dumps(doc, indent=2) + "\n")
print(f"wrote {HASHES}")
