"""Self-tests of the benchmark harness (not part of the library's suite).

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

import calibrate  # noqa: E402
import problems  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_once():
    # op [0, 10] > solve [1, 9] > rref [2, 5] and rref [4, 8] (overlapping)
    tree = [
        ["op", 0.0, 10.0, -1, 0],
        ["linsolve.solve", 1.0, 9.0, 0, 0],
        ["linsolve.rref", 2.0, 5.0, 1, 0],
        ["linsolve.rref", 4.0, 8.0, 1, 0],
        ["linalg.to_array", 2.5, 3.0, 2, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 2.5, 4.0, 0.5])


def test_layer_metrics_attribute_rref_to_model_and_forecast():
    tree = [
        ["op", 0.0, 10.0, -1, 0],
        ["leontief.model", 0.0, 4.0, 0, 0],
        ["linsolve.determinant", 0.5, 3.5, 1, 0],
        ["linsolve.rref", 1.0, 3.0, 2, 0],
        ["leontief.forecast", 4.0, 9.0, 0, 0],
        ["linsolve.solve", 4.5, 8.5, 4, 0],
        ["linsolve.rref", 5.0, 8.0, 5, 0],
        ["leontief.forecast", 9.0, 10.0, 0, 0],
    ]
    m = spans.layer_metrics(tree)
    assert m["linsolve.rref.calls"] == 2
    assert m["linsolve.rref.self_ms"] == pytest.approx(5000.0)
    assert m["leontief.rref_per_model"] == 1.0
    assert m["leontief.rref_per_forecast"] == 0.5


def test_speed_factor_uses_the_probes_around_each_op():
    log = calibrate.SpeedLog()
    k = calibrate.REFERENCE_S
    # probes before op 0, after op 1 (2 done), after op 2 and after op 3
    log.marks = [(0, k), (2, 2 * k), (3, 4 * k), (4, 8 * k)]
    assert log.factors(4) == pytest.approx([2 / 3, 2 / 3, 1 / 3, 1 / 6])
    log.window = 2  # medians of (k, 2k, 4k) twice, (k .. 8k), (2k, 4k, 8k)
    assert log.factors(4) == pytest.approx([1 / 2, 1 / 2, 1 / 3, 1 / 4])


def _attributes():
    import importlib

    out = []
    for _, module, attr in spans.TARGETS:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((owner, leaf, owner.__dict__[leaf]))
    return out


def test_wrapped_attributes_are_restored():
    from ecomath import linalg, linsolve

    before = _attributes()
    original_solve = linsolve.solve
    rec = spans.Recorder()
    with rec:
        assert linsolve.solve is not original_solve
        linsolve.solve(linsolve.LinearSystem(
            linalg.Matrix.from_rows([[2.0, 1.0], [1.0, 3.0]]), linalg.Vector((1.0, 2.0))))
    for owner, leaf, original in before:
        assert owner.__dict__[leaf] is original, f"{owner}.{leaf} not restored"
    names = [s[0] for s in rec.spans]
    assert "linsolve.solve" in names and "linsolve.rref" in names
    rref = names.index("linsolve.rref")
    assert rec.spans[rec.spans[rref][3]][0] == "linsolve.solve"


def test_restored_after_an_exception():
    before = _attributes()
    with pytest.raises(ZeroDivisionError):
        with spans.Recorder():
            1 / 0
    assert [a[2] for a in _attributes()] == [a[2] for a in before]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.encode(workloads.generate(name, 7, rounds=2))
        b = workloads.encode(workloads.generate(name, 7, rounds=2))
        c = workloads.encode(workloads.generate(name, 8, rounds=2))
        assert a == b, name
        assert a != c, name


def _perturb(obj):
    if isinstance(obj, bool) or isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return obj * (1.0 + 1e-3) + 1e-3
    if isinstance(obj, list):
        return [_perturb(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(_perturb(v) for v in obj)
    if isinstance(obj, dict):
        return {k: (v + " + 0.001" if k == "derivative" else _perturb(v))
                for k, v in obj.items()}
    return obj


def _cases():
    """Every op of one round of each workload."""
    return [(name, op) for name in workloads.WORKLOADS
            for op in workloads.generate(name, 11, rounds=0)[0]]


@pytest.mark.parametrize("case", _cases(), ids=lambda c: f"{c[0]}-{c[1].kind.__name__}")
def test_oracle_accepts_output_and_rejects_perturbed(case, tmp_path):
    name, op = case
    want = op.kind.oracle(op.inp)
    if name == "cli-oneshot":
        from ecomath import cli

        def write(fname, text):
            path = tmp_path / fname
            path.write_text(text, encoding="utf-8")
            return str(path)

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.dispatch(["--format", "json"] + op.kind.argv(op.inp, write)) == 0
        got = json.loads(buf.getvalue())
    else:
        got = op.kind.out(op.kind.run(op.inp))
    op.kind.check(op.inp, want, got)
    with pytest.raises(problems.Mismatch):
        op.kind.check(op.inp, want, _perturb(got))
