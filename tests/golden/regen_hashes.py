"""Regenerate tests/golden/hashes.json after an intended change of outputs."""
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from test_golden import HASHES, golden_hashes, platform_tag

with tempfile.TemporaryDirectory() as tmp:
    doc = {"platform": platform_tag(), "hashes": golden_hashes(pathlib.Path(tmp))}
HASHES.write_text(json.dumps(doc, indent=2) + "\n")
print(f"wrote {HASHES}")
