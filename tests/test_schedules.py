import pytest

from paygsim import Schedule
from paygsim.errors import CoverageError


def test_bare_default():
    s = Schedule(default=0.02)
    assert s.value(1999) == 0.02
    assert s.value(2050) == 0.02


def test_overrides_win_then_fall_back():
    s = Schedule(default=0.02, overrides={2006: 0.04, 2007: 0.04})
    assert s.value(2006) == 0.04
    assert s.value(2007) == 0.04
    assert s.value(2008) == 0.02


def test_no_default_requires_override():
    s = Schedule(default=None, overrides={2006: 1.5})
    assert s.value(2006) == 1.5
    with pytest.raises(CoverageError, match="2007"):
        s.value(2007)


def test_a_none_override_is_no_value():
    # only direct construction can hold one; from_config parses every override
    with pytest.raises(CoverageError, match="2006"):
        Schedule(default=0.02, overrides={2006: None}).value(2006)


def test_from_config_bare_number():
    s = Schedule.from_config(0.034)
    assert s.default == 0.034 and s.overrides == {}
    assert Schedule.from_config(3).default == 3.0


def test_from_config_mapping():
    s = Schedule.from_config({"default": 0.02, "overrides": {2006: 0.04}})
    assert s.value(2006) == 0.04
    assert s.value(2010) == 0.02


def test_from_config_rejects_junk():
    with pytest.raises(ValueError, match="unknown keys"):
        Schedule.from_config({"default": 1, "extra": 2})
    with pytest.raises(ValueError, match="expected"):
        Schedule.from_config("fast")
    with pytest.raises(ValueError):
        Schedule.from_config({"default": 1, "overrides": [1, 2]})
    with pytest.raises(ValueError):
        Schedule.from_config(True)
    # the mapping form's values are numbers too
    with pytest.raises(ValueError, match="expected a number, got True"):
        Schedule.from_config({"default": True})
    with pytest.raises(ValueError, match="expected a number, got '0.05'"):
        Schedule.from_config({"default": 0.02, "overrides": {2006: "0.05"}})


@pytest.mark.parametrize("year", [2010.7, True, "2010"])
def test_from_config_override_years_are_integers(year):
    # a fractional year would be truncated and a boolean read as year 1
    with pytest.raises(ValueError, match=f"expected an integer, got {year!r}"):
        Schedule.from_config({"default": 0.02, "overrides": {year: 0.05}})
    assert Schedule.from_config({"overrides": {2010.0: 0.05}}).overrides == {2010: 0.05}
