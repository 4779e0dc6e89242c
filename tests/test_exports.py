"""The package's export list: every name resolves, and removed helpers
are not exported."""

import boostcd


def test_every_exported_name_resolves():
    assert len(boostcd.__all__) == len(set(boostcd.__all__))
    for name in boostcd.__all__:
        assert getattr(boostcd, name) is not None, name
    namespace = {}
    exec("from boostcd import *", namespace)
    assert set(boostcd.__all__) <= set(namespace)


def test_removed_helpers_are_not_exported():
    for name in ("select_coordinate", "closed_form_step"):
        assert name not in boostcd.__all__
        assert not hasattr(boostcd, name)
        assert not hasattr(boostcd.boost, name) and not hasattr(boostcd.linesearch, name)
