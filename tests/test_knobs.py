"""Knob census: every CLI option and every sampler or estimator parameter, pinned.

Adding or removing a knob takes a deliberate edit here, as a change of
seeded output takes one in ``tests/test_seeded.py``.
"""

import argparse
import importlib
import inspect

import pytest

import croftoncloud
from croftoncloud import cli

OPTIONS = {
    "generate": ["-h", "--help", "--surface", "--r", "--seed", "--res", "--sampler"]
    + ["--n", "-o", "--output", "--format"],
    "area": ["-h", "--help", "--surface", "--r", "--seed", "--res", "--m"],
    "integrate": ["-h", "--help", "--surface", "--r", "--seed", "--res", "--m", "--f"],
    "audit": ["-h", "--help", "--cloud", "--surface", "--records"],
    "bench": ["-h", "--help", "--dims", "--budgets", "--seeds", "--records"],
}

PARAMETERS = {
    "cloud_implicit": ["surface", "src", "n_points"],
    "cloud_axis_aligned": ["surface", "src", "n_points"],
    "estimate_area": ["surface", "src", "lines", "clip_radius"],
    "estimate_surface_integral": ["surface", "fn", "src", "lines", "clip_radius"],
    "estimate_double_integral": ["surface", "fn2", "src", "line_pairs", "clip_radius"],
}


def _subcommands() -> dict:
    parser = cli._build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


def test_subcommands():
    assert list(_subcommands()) == list(OPTIONS)


@pytest.mark.parametrize("command", list(OPTIONS))
def test_options(command):
    parser = _subcommands()[command]
    assert [option for action in parser._actions for option in action.option_strings] == OPTIONS[command]


#: functions reached through their module, named ``module.function``
MODULE_PARAMETERS = {
    "cloudio.write_cloud": ["path", "positions", "normals", "meta", "fmt"],
    "stats.curse_benchmark": ["fn", "n_dims", "truth", "budgets", "n_seeds", "base_seed"],
}


@pytest.mark.parametrize("name", list(PARAMETERS))
def test_parameters(name):
    assert list(inspect.signature(getattr(croftoncloud, name)).parameters) == PARAMETERS[name]


@pytest.mark.parametrize("name", list(MODULE_PARAMETERS))
def test_module_parameters(name):
    module, function = name.split(".")
    function = getattr(importlib.import_module(f"croftoncloud.{module}"), function)
    assert list(inspect.signature(function).parameters) == MODULE_PARAMETERS[name]
