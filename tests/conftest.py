"""Fixtures shared by the test modules.

``cones`` memoises its cones and chamber fans, and ``spaces`` its models,
for the life of the process.  A test that counts or patches the work behind
them starts from empty memos, so what an earlier test asked cannot answer
for it.
"""

import pytest

from completeforms import cones, spaces

MEMOS = (cones._cone, cones._chamber_complex, spaces._model)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty the three memos; the fixture's value empties them again when called."""
    clear_memos()
    return clear_memos
