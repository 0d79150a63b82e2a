"""The package namespace: what medsens exports is what it binds."""

import types

import medsens


def test_all_has_no_duplicates():
    assert len(medsens.__all__) == len(set(medsens.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in medsens.__all__ if not hasattr(medsens, name)]
    assert missing == []


def test_every_public_binding_is_listed():
    bound = {name for name, value in vars(medsens).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert sorted(bound - set(medsens.__all__)) == []
