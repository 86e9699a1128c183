import plconvex as pc


def test_public_names_resolve_once():
    assert len(set(pc.__all__)) == len(pc.__all__)
    for name in pc.__all__:
        getattr(pc, name)


def test_fan_and_exactgeom_keep_only_what_is_read():
    # a fan is its entries, seen from an apex it does not store; a rank is
    # the width less the size of exactgeom.nullspace
    assert pc.Fan3._fields == ("dirs", "kinds", "sources")
    assert not hasattr(pc.exactgeom, "rank") and "rank" not in pc.__all__
