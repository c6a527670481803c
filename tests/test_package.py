"""The package's export list."""

import types

import mmlbn


def test_all_is_the_public_names():
    # every public name but the submodules is exported, once, and resolves
    public = {
        name
        for name, value in vars(mmlbn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(mmlbn.__all__)) == len(mmlbn.__all__)
    assert set(mmlbn.__all__) == public
    for name in mmlbn.__all__:
        assert getattr(mmlbn, name) is not None
