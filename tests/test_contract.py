"""The input contract, checked on generated configs.

Every config either loads, with beta strictly inside (0, 1) and finite
derived weights, or raises a ScreeningError from ``load_config``.  The
``validate``, ``classify`` and ``tau --theta`` commands exit 0, 1 or 2;
on 1 and 2 the last line of stderr starts with ``error:`` or ``numeric
failure:``.  No other exception and no RuntimeWarning may escape.

The configs are the baseline with one to three fields, or entries of a
mean pair, replaced by extreme finite floats or by values of the wrong
type, and whole documents that are no config at all.  The same contract
holds at the API: ``ModelConfig.from_dict`` returns a config or raises a
ScreeningError, also on values no JSON document holds (ints past float's
range, NaN, numpy scalars, bytes, tuples, complex numbers) and on a
document that is no mapping.  The examples are derandomized, so every run
tries the same configs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from screenlab import InvalidModelError, ModelConfig, ScreeningError
from screenlab.cli import main
from screenlab.model import load_config
from conftest import BASELINE_DOC, EXTREME_CONFIGS, HUGE_INT_TEXT

# a field, or (with an index) one entry of a [theta, gamma] mean pair
SLOTS = [(key, None) for key in BASELINE_DOC] + [
    (key, i) for key in ("mu_q", "mu_u") for i in (0, 1)
]
EXTREMES = [1e-320, -1e-320, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, 0.0, 1.0]
WRONG_TYPES = ["1.0", True, None, [1.0]]
THETAS = ["0", "3", "40", "-40"]
# values a Python caller can pass and a JSON document cannot hold
PYTHON_ONLY = [10**400, -10**400, math.inf, math.nan, np.float64("nan"), np.int64(3),
               b"1", {"theta": 1.0}, (0.5, 0.25), 1 + 2j]
NON_MAPPINGS = [None, 3, [], "x"]

WHOLE_DOCUMENTS = {
    "list": b"[1, 2]",
    "number": b"3",
    "not-utf-8": b"\xff\xfe{}",
    "nan-literal": json.dumps({**BASELINE_DOC, "rho": math.nan}).encode(),
    "huge-int": HUGE_INT_TEXT.encode(),
    "missing-key": json.dumps({k: v for k, v in BASELINE_DOC.items() if k != "pi"}).encode(),
    "unknown-key": json.dumps({**BASELINE_DOC, "speed": 1.0}).encode(),
}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "config.json"


def check_contract(path, theta: str) -> None:
    """load_config and each command keep the contract on the config at ``path``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            config, _ = load_config(path)
        except ScreeningError:
            config = None
        if config is not None:
            assert 0.0 < config.beta < 1.0
            assert np.all(np.isfinite(config.signal.log_ratio_weights))
        for command in (["validate"], ["classify"], ["tau", "--theta", theta]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main([command[0], "--config", str(path), *command[1:]])
            assert status in (0, 1, 2), command
            if status:
                last = err.getvalue().strip().splitlines()[-1]
                assert last.startswith(("error:", "numeric failure:")), (command, last)


def replaced(changes) -> dict:
    """BASELINE_DOC with each (slot, value) of ``changes`` applied in turn."""
    doc = json.loads(json.dumps(BASELINE_DOC))  # a copy whose pairs are its own
    for (key, index), value in changes:
        pair = doc[key] if index is not None else None
        if isinstance(pair, list) and len(pair) == 2:
            pair[index] = value
        else:
            doc[key] = value
    return doc


def pinned(name: str) -> dict:
    """An EXTREME_CONFIGS entry as the (slot, value) changes and theta drawn below."""
    fields, command = EXTREME_CONFIGS[name]
    return {"changes": [((key, None), value) for key, value in fields.items()],
            "theta": command[2] if command[0] == "tau" else "0"}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    changes=st.lists(
        st.tuples(st.sampled_from(SLOTS), st.sampled_from(EXTREMES + WRONG_TYPES)),
        min_size=1, max_size=3,
    ),
    theta=st.sampled_from(THETAS),
)
@example(**pinned("beta-rounds-to-1"))
@example(**pinned("beta-rounds-to-0"))
@example(**pinned("sigma-squared-overflows"))
@example(**pinned("tau-interval-overflows"))
@example(**pinned("theta-mean-overflows"))
def test_replaced_fields_keep_the_contract(config_file, changes, theta):
    config_file.write_text(json.dumps(replaced(changes)))
    check_contract(config_file, theta)


@pytest.mark.parametrize("name", WHOLE_DOCUMENTS)
def test_whole_documents_keep_the_contract(config_file, name):
    config_file.write_bytes(WHOLE_DOCUMENTS[name])
    with pytest.raises(ScreeningError):
        load_config(config_file)
    check_contract(config_file, "0")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(doc=st.lists(
    st.tuples(st.sampled_from(SLOTS), st.sampled_from(EXTREMES + WRONG_TYPES + PYTHON_ONLY)),
    min_size=1, max_size=3,
).map(replaced) | st.sampled_from(NON_MAPPINGS))
@example(doc=None)
@example(doc=3)
@example(doc=[])
@example(doc="x")
def test_from_dict_keeps_the_contract(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            config = ModelConfig.from_dict(doc)
        except ScreeningError:
            return
    assert 0.0 < config.beta < 1.0
    assert np.all(np.isfinite(config.signal.log_ratio_weights))


@pytest.mark.parametrize("doc", NON_MAPPINGS, ids=repr)
def test_from_dict_refuses_a_document_that_is_no_mapping(doc):
    with pytest.raises(InvalidModelError, match="config document must be a JSON object"):
        ModelConfig.from_dict(doc)
