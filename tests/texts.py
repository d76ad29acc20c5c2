"""Whole-document comparison for the tests.

A bare ``assert got == want`` of two documents of a few hundred kilobytes
has pytest diff them whole, which can take minutes.  This module imports
nothing from the package, so it checks the package's text the same way
whatever the package does.
"""

import os


def assert_same_text(got, want):
    """Fail unless ``got == want``, two strings or two byte strings, naming
    the first differing offset with some context."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        context = slice(max(i - 60, 0), i + 60)
        raise AssertionError(
            f"texts differ at offset {i} of {len(got)} and {len(want)} characters:\n"
            f"  got  {got[context]!r}\n  want {want[context]!r}"
        )
