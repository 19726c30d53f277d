import json

from golden import MANIFEST, digests


def test_outputs_match_the_pinned_manifest():
    # meshes and reports (without timings) written through the CLI are
    # byte-identical to the pinned ones; a deliberate output change
    # rewrites tests/golden.json with tests/golden.py
    want = json.loads(MANIFEST.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, "digests moved: " + " ".join(moved)
