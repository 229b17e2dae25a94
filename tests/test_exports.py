import ddfl


def test_every_exported_name_resolves():
    missing = [name for name in ddfl.__all__ if not hasattr(ddfl, name)]
    assert not missing, f"ddfl.__all__ names undefined attributes: {missing}"
    assert len(set(ddfl.__all__)) == len(ddfl.__all__), "ddfl.__all__ repeats a name"
