import dlaplace


def test_every_exported_name_resolves():
    for name in dlaplace.__all__:
        assert hasattr(dlaplace, name), name
