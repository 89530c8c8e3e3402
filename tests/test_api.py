import galpha


def test_every_exported_name_resolves():
    missing = [name for name in galpha.__all__ if not hasattr(galpha, name)]
    assert missing == []
    assert len(set(galpha.__all__)) == len(galpha.__all__)
