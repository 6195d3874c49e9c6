"""Helpers shared by the test modules."""

import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from spdeg import curvature
from spdeg.catalog import CLASSES
from spdeg.degeneration import borbit_element, random_symplectic


def curve_instances(spec):
    """The curve at its pinned source member, or at each sample of its source family."""
    if spec.param_name is None:
        return [spec.instantiate()]
    return [spec.instantiate(p) for p in CLASSES[spec.source_key].samples]


def rational_symplectic(rng):
    """The symplectic matrix g of random_symplectic's (d, d*g), over Fraction."""
    d, g = random_symplectic(rng)
    return [[Fraction(x, d) for x in row] for row in g]


def rational_borbit(mu, a_params, n_params):
    """The B-orbit point C/c of borbit_element's (c, C), over Fraction."""
    c, big = borbit_element(mu.integer_multiple(), a_params, n_params)
    return big.map_scalars(lambda x: Fraction(x, c))


def bench_launch():
    """The module bench/launch.py, loaded from the checkout (bench/ is no package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "launch.py"
    spec = importlib.util.spec_from_file_location("bench_launch", path)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch


def rank_one_ricci_without_v_terms():
    """curvature._rank_one_ricci with vw^T + wv^T dropped: the Pw^T + wP^T and
    Qw^T + wQ^T coefficients of its matrix C set to 0."""
    source = inspect.getsource(curvature._rank_one_ricci)
    line = "cpw, cqw, cww = qw * pq - pw * qq, pw * pq - qw * pp, pp * qq - pq * pq"
    assert source.count(line) == 1
    namespace = dict(vars(curvature))
    exec(source.replace(line, "cpw, cqw, cww = 0, 0, pp * qq - pq * pq"), namespace)
    return namespace["_rank_one_ricci"]
