import types

import t2spline


def test_all_lists_exactly_the_public_names():
    """``__all__`` names every public class, function and constant the
    package imports, and nothing else; submodules are not part of it."""
    public = {
        name
        for name, value in vars(t2spline).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(t2spline.__all__) == sorted(public)
    assert len(t2spline.__all__) == len(set(t2spline.__all__))
