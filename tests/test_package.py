import chisearch


def test_every_exported_name_resolves():
    assert [name for name in chisearch.__all__ if not hasattr(chisearch, name)] == []
    assert len(set(chisearch.__all__)) == len(chisearch.__all__)
