"""The synthetic room's point count."""

import pytest

from mvrep.synthetic import synthetic_room


@pytest.mark.parametrize("n_points", [1, 10, 42])
def test_too_few_points_raise(n_points):
    with pytest.raises(ValueError, match=f"n_points={n_points} is too few"):
        synthetic_room(n_points)


@pytest.mark.parametrize("n_points", [43, 44, 45, 46, 1_000])
def test_room_holds_the_points_asked_for(n_points):
    assert len(synthetic_room(n_points)) == n_points
