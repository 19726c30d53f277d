import json

from golden import MANIFEST, manifest


def test_outputs_match_the_pinned_manifest():
    # meshes and reports (without timings) written through the CLI are
    # byte-identical to the pinned ones, and so are the invariants read
    # from the reports; a deliberate output change rewrites
    # tests/golden.json with tests/golden.py
    want = json.loads(MANIFEST.read_text())
    got = manifest()
    for part in ("digests", "invariants"):
        assert sorted(got[part]) == sorted(want[part]), part
    moved = {part: {name for name in want[part]
                    if got[part][name] != want[part][name]}
             for part in ("digests", "invariants")}
    assert not moved["invariants"] | moved["digests"], (
        "invariants moved: %s; bytes only moved: %s"
        % (" ".join(sorted(moved["invariants"])) or "none",
           " ".join(sorted(moved["digests"] - moved["invariants"]))
           or "none"))
