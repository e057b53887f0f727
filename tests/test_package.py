import motionprim


def test_every_exported_name_resolves():
    for name in motionprim.__all__:
        assert getattr(motionprim, name, None) is not None, name
    assert len(set(motionprim.__all__)) == len(motionprim.__all__)
