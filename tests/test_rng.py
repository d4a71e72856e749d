"""mfjq.rng against numpy's default_rng: the same stream, bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfjq.rng import default_rng
from mfjq.scenarios import ScenarioSpec, _interval_cells, make_initial_measure

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)

# one call of the generator: (method, args); the integer ranges are those of
# the verify suites, 49 values (rejection possible) and 2 values
CALLS = st.one_of(
    st.just(("random", ())),
    st.tuples(st.just("random"), st.tuples(st.integers(0, 6))),
    st.tuples(st.just("uniform"), st.tuples(st.just(-5.0), st.just(4.0))),
    st.tuples(st.just("uniform"), st.tuples(st.just(0.1), st.just(1.0),
                                            st.integers(0, 6))),
    st.tuples(st.just("integers"), st.sampled_from([(2, 51), (0, 2)])),
)


def _same_stream(seed, calls):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for method, args in calls:
        a, b = getattr(ours, method)(*args), getattr(theirs, method)(*args)
        assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes(), \
            (seed, method, args, a, b)


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**130)),
       calls=st.lists(CALLS, max_size=60))
def test_stream_matches_numpy(seed, calls):
    _same_stream(seed, calls)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_ints", [1, 3])
def test_odd_integer_runs_carry_the_high_half(seed, n_ints):
    """An odd run of 32-bit draws leaves half a 64-bit draw in the generator,
    which the next integers call uses and the doubles skip past."""
    block = [("integers", (2, 51))] * n_ints + [("random", ()), ("uniform", (0.1, 1.0, 3))]
    _same_stream(seed, block * 20 + [("integers", (0, 2))] * 41)


@pytest.mark.parametrize("seed", [-1, -2**40, True, False, 1.5, 2.0, "3", None])
def test_bad_seed_raises(seed):
    with pytest.raises(ValueError, match="seed"):
        default_rng(seed)


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("cells", [400, 1600])
def test_initial_measure_matches_numpy_formula(seed, cells):
    spec = ScenarioSpec.builtin("hk_free").apply_overrides(seed=seed, cells=cells)
    mass = np.where(_interval_cells(spec),
                    np.random.default_rng(seed).random(cells), 0.0)
    expected = mass / mass.sum()
    got = make_initial_measure(spec).cell_mass
    assert got.tobytes() == expected.tobytes()
