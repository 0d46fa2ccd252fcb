"""Property tests with shrinking: the double-coset formula against the
orbit oracle on random composable classes, and the memoized mask decode
against a bit scan.  A failing composition is reported with the element
JSON that ``compose --check`` accepts."""

import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from fibredburnside import cli, fibred, sampling
from fibredburnside.groups import (
    group_from_spec, mask_to_elements, small_groups_catalog)

GROUPS = {g.name: g for g in small_groups_catalog(6)}
FIBRES = ("C2", "C3", "C4")


class _Draws:
    """Stands in for ``random.Random`` in ``sampling``: each
    ``randrange(n)`` is drawn by hypothesis, so it shrinks towards 0."""

    def __init__(self, data):
        self._data = data

    def randrange(self, n):
        return self._data.draw(st.integers(0, n - 1))


def _reproduction(*elements):
    return "fibredburnside compose " + " ".join(
        "'" + json.dumps(fibred.element_to_json(e)) + "'"
        for e in elements) + " --check"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_compose_agrees_with_oracle(data):
    G, H, K = (GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]
               for _ in range(3))
    C = group_from_spec(data.draw(st.sampled_from(FIBRES)))
    rng = _Draws(data)
    x = fibred.element_of(sampling.random_transitive_class(rng, G, H, C))
    y = fibred.element_of(sampling.random_transitive_class(rng, H, K, C))
    assert fibred.compose(x, y) == fibred.compose_oracle(x, y), (
        "formula and oracle disagree; reproduce with: "
        + _reproduction(x, y))


def test_property_failure_prints_compose_check_input(monkeypatch, capsys):
    # with a broken oracle every example fails; the shrunk one must name
    # inputs that compose --check accepts
    monkeypatch.setattr(fibred, "compose_oracle",
                        lambda X, Y: fibred.zero_element(X.left, Y.right,
                                                         X.fibre))
    with pytest.raises(AssertionError) as info:
        test_compose_agrees_with_oracle()
    monkeypatch.undo()
    blobs = re.findall(r"'(\{.*?\})'", str(info.value))
    assert len(blobs) == 2
    capsys.readouterr()
    assert cli.main(["--json", "compose", *blobs, "--check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["left"] == json.loads(blobs[0])["left"]
    assert out["right"] == json.loads(blobs[1])["right"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 1 << 256))
@example(0)
def test_mask_to_elements_is_a_bit_scan(mask):
    # twice, so that the second read is a hit of the bounded cache
    ref = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    assert mask_to_elements(mask) == ref
    assert mask_to_elements(mask) == ref
