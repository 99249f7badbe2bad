import numpy as np
import pytest

from cases import sample_lengths
from hytet import DomainError


class TestSampleLengths:
    @pytest.mark.parametrize("kwargs", [
        dict(lo=0.0015, hi=0.0045),
        dict(hi=0.2),
        dict(margin=0.25),
    ])
    def test_unsatisfiable_width_test_rejected_up_front(self, kwargs):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_lengths(rng, **kwargs)
        assert rng.random() == np.random.default_rng(0).random()

    def test_acceptance_draws_are_pinned(self):
        # the acceptance suite, cli_digest.py and layer_times.py share these draws
        rng = np.random.default_rng(20240817)
        draws = [sample_lengths(rng).as_tuple() for _ in range(100)]
        assert draws[0] == (1.0427709237464295, 0.7529864184077171, 0.7809319884322955,
                            0.7716982576902731, 1.4219197956108336, 1.291229831437947)
        assert draws[99] == (1.1248121350174372, 0.8668796607271858, 1.0747092789559516,
                             1.2726166628332785, 0.6309986617494229, 1.3061989636127849)
