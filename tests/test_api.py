import plconvex as pc


def test_public_names_resolve_once():
    assert len(set(pc.__all__)) == len(pc.__all__)
    for name in pc.__all__:
        getattr(pc, name)
