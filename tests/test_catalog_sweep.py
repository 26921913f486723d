"""The whole catalog against one golden: every constructible kind with
parameters 0..8 (684 kinds), one short digest each.

A digest covers everything the library answers about the kind: the ``repr``
of its model (the class table in its order included), its chambers, its
positivity, its comparison dictionary and its effective, nef and moving
cones; a query that is refused contributes the typed error's name and
message instead.  A change meant to keep every output (a refactor) keeps
``tests/goldens/catalog_sweep.json`` byte-identical.  A change meant to move
some outputs rewrites it with

    PYTHONPATH=src python tests/test_catalog_sweep.py > tests/goldens/catalog_sweep.json

and names in its record which kinds moved and why.
"""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

from completeforms import spaces

GOLDEN = Path(__file__).parent / "goldens" / "catalog_sweep.json"


def _answer(query) -> str:
    try:
        return repr(query())
    except (ValueError, LookupError, RuntimeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _kinds():
    for cls in spaces._KINDS:
        letters = [field.name for field in dataclasses.fields(cls)]
        for values in itertools.product(range(9), repeat=len(letters)):
            try:
                yield cls(**dict(zip(letters, values)))
            except ValueError:
                continue


def sweep() -> dict:
    """The digest of every constructible kind, keyed by its name."""
    digests = {}
    for kind in _kinds():
        model = spaces.build_model(kind)
        answers = [repr(model)] + [
            _answer(query)
            for query in (
                model.chambers,
                model.positivity,
                lambda: spaces.kontsevich_dictionary(kind),
                model.effective_cone,
                model.nef_cone,
                model.moving_cone,
            )
        ]
        text = "\n".join(answers).encode("utf-8")
        digests[spaces.space_name(kind)] = hashlib.sha256(text).hexdigest()[:16]
    return digests


def test_every_kind_answers_as_the_golden_records():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = sweep()
    assert len(digests) == 684
    assert sorted(name for name in digests if digests[name] != golden.get(name)) == []
    assert digests.keys() == golden.keys()


if __name__ == "__main__":
    print(json.dumps(sweep(), indent=1, sort_keys=True))
