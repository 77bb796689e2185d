"""The package's public names."""

import endpoint_rt


def test_every_public_name_resolves():
    missing = [name for name in endpoint_rt.__all__ if not hasattr(endpoint_rt, name)]
    assert missing == []
    assert len(set(endpoint_rt.__all__)) == len(endpoint_rt.__all__)
