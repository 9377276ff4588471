import pytest

from rnnt_lab import ModelConfig, TransducerModel


@pytest.fixture
def tiny_config():
    return ModelConfig(input_dim=3, stack_factor=2, stack_stride=1, encoder_layers=1,
                       prediction_layers=1, hidden=5, projection=4, vocab_size=4)


@pytest.fixture
def tiny_model(tiny_config):
    return TransducerModel(tiny_config, seed=11)


@pytest.fixture
def worked_example():
    """The worked 8-frame example: alignment 'A A A B B s C C', transcript 'A B s C'.

    Token ids: s=0, A=1, B=2, C=3; blank=4.
    """
    space, a, b, c = 0, 1, 2, 3
    return {
        "space": space,
        "blank": 4,
        "fa": [a, a, a, b, b, space, c, c],
        "tokens": [a, b, space, c],
        "names": {space: "s", a: "A", b: "B", c: "C", 4: "Φ"},
    }


def random_logits(rng, t_len, u_len, num_classes, scale=1.0):
    return scale * rng.normal(size=(t_len, u_len + 1, num_classes))
