"""Regenerate tests/golden/hashes.json after an intended change of outputs.

    PYTHONPATH=src python tests/golden/regen_hashes.py [PREFIX ...]

Computes every key: the simulator's step-outcome hash, the scripted
evaluation's hash and the hashes of the golden trainings and evaluation.
Without a PREFIX it writes them all, with the platform they were computed
on. With prefixes (such as `pbt/` or `sim/step-outcomes`) it writes only
the keys that start with one of them and keeps every other recorded hash,
so that a commit moves only the keys it means to move; the platform must
then be the recorded one. It prints each key that changed, was added or was
removed, as old -> new, and marks those it left as recorded.
"""
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from test_golden import HASHES, computed_hashes, platform_tag

prefixes = tuple(sys.argv[1:])
recorded = json.loads(HASHES.read_text()) if HASHES.exists() else {"platform": None, "hashes": {}}
if prefixes and recorded["platform"] != platform_tag():
    sys.exit(f"recorded on {recorded['platform']}, not {platform_tag()}: regenerate every key or none")

with tempfile.TemporaryDirectory() as tmp:
    computed = computed_hashes(pathlib.Path(tmp))
old = recorded["hashes"]
new = {key: value for key, value in old.items() if prefixes and not key.startswith(prefixes)}
new.update({key: value for key, value in computed.items() if not prefixes or key.startswith(prefixes)})
for key in sorted(old.keys() | computed.keys()):
    before, after = old.get(key, "-"), computed.get(key, "-")
    if before != after:
        kind = "changed" if key in old and key in computed else ("added" if key in computed else "removed")
        kept = "" if new.get(key, "-") == after else "  (kept as recorded)"
        print(f"{kind:8} {key}: {before} -> {after}{kept}")
doc = {"platform": platform_tag(), "hashes": dict(sorted(new.items()))}
HASHES.write_text(json.dumps(doc, indent=2) + "\n")
print(f"wrote {HASHES}")
