"""The exact routes' Fisher blocks against the mpmath truth (``truth.exact_block``).

A route passes where |q - truth| <= floor / 2 for q11 and q22, and
sqrt(floor11 floor22) / 2 for q12.  The floors are the route's own:
NOISE_FLOOR_MULT eps times each entry's pre-cancellation magnitude, so the
budget is half the margin that decides a singular row.  An entry that is
zero by symmetry and has no pre-cancellation magnitude, as pw's range
entries at one receive element, must come out exactly zero.

The scenes are the first and last point of every direct-route call
of fig3-fig9 (every figure point of fig7-fig9, so fig7's broadside K=2
hybrid blocks, whose q22 is zero, and fig9's ``ua`` and ``dua`` layouts),
the worst scenes of the full figure set, and a few far-range and edge
shapes.
"""

import math
from functools import cache, partial

import pytest
from mpmath import mpf

from conftest import std_wsms
from truth import exact_block
from nearfield_crb import SceneGeometry, bundle_fisher, experiment_cli, make_ua, sums_fisher
from nearfield_crb.geometry import GeometryGrid

ROUTES = {"bundle": bundle_fisher, "direct": partial(sums_fisher, method="direct")}
CASES = [(m, "bundle") for m in ("sw", "hspw", "pw")] + [(m, "direct") for m in ("sw", "hspw")]


@cache
def figure_scenes() -> tuple:
    """(layout, geom, n_r, model) at the first and last point of each
    direct-route call that fig3-fig9 make, without repeats."""
    calls = []
    real = experiment_cli._ROUTES["direct"]

    def record(layout, geom, n_r, *, model):
        if isinstance(geom, GeometryGrid):
            ends = range(0, geom.size, max(1, geom.size - 1))
            calls.extend((layout, geom.scene(p), n_r, model) for p in ends)
        else:
            calls.append((layout, geom, n_r, model))
        return real(layout, geom, n_r, model=model)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(experiment_cli._ROUTES, "direct", record)
        for rows in experiment_cli.FIGURES.values():
            rows()
    return tuple(dict.fromkeys(calls))


def extra_scenes() -> list:
    """(layout, geom, n_r) of the scenes beyond the figures' sweep ends."""
    far = [(std_wsms(k, 128, 3), SceneGeometry(r=r, theta=math.pi / 4.0, big_r=50.0), 1)
           for k in (3, 12) for r in (10.0, 50.0, 200.0, 1000.0)]
    lay = std_wsms(3, 16, 2)
    return far + [
        # fig5's hybrid K=12, I=12 row one step short of theta = 1.5: the
        # direct sums' worst q11 over the figures
        (std_wsms(12, 128, 12), SceneGeometry(r=10.0, theta=1.4500000000000002, big_r=50.0), 1),
        (std_wsms(1, 16, 0), SceneGeometry(r=0.5, theta=0.3, big_r=50.0), 4),
        (std_wsms(4, 1, 5), SceneGeometry(r=2.0, theta=-0.6, big_r=50.0), 1),
        (lay, SceneGeometry(r=1.5, theta=0.8, big_r=20.0), 35),
        (make_ua(3, 16, lay.d, lay.d0, lay.lam), SceneGeometry(r=3.0, theta=0.5, big_r=20.0), 4),
    ]


def scenes(model: str) -> list:
    """The case's (layout, geom, n_r); the hybrid model only on widely spaced layouts."""
    figures = [(lay, g, n_r) for lay, g, n_r, m in figure_scenes() if m == model]
    return [(lay, g, n_r) for lay, g, n_r in figures + extra_scenes()
            if model != "hspw" or lay.kind == "wsms"]


@cache
def truth(layout, geom, n_r, model) -> tuple:
    return exact_block(layout, geom, n_r, model)


def floor_ratios(nf, want) -> tuple:
    """|q - truth| over each entry's budget, for q11, q12 and q22: at most 1 passes."""
    budgets = (nf.q11_floor / 2.0, math.sqrt(nf.q11_floor * nf.q22_floor) / 2.0,
               nf.q22_floor / 2.0)
    ratios = []
    for got, exact, budget in zip((nf.q11, nf.q12, nf.q22), want, budgets):
        miss = float(abs(mpf(got) - exact))
        ratios.append(miss / budget if budget > 0.0 else (0.0 if miss == 0.0 else math.inf))
    return tuple(ratios)


@pytest.mark.parametrize("model, route", CASES)
def test_exact_route_is_within_half_its_floor_of_the_truth(model, route):
    cases = scenes(model)
    assert len(cases) >= len(extra_scenes()) + 10  # the figures' calls were recorded
    for layout, geom, n_r in cases:
        nf = ROUTES[route](layout, geom, n_r, model=model)
        ratios = floor_ratios(nf, truth(layout, geom, n_r, model))
        assert max(ratios) <= 1.0, (ratios, layout, geom, n_r)
