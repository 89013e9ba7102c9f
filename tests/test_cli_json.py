"""The `--json` reports of the command line, byte for byte.

The fixture ``data/cli_json.txt`` holds, for each named command below, its
exit code and the text `cli.main` prints under ``--json``.  The commands are
the README examples, the seven kinds of the ``cli`` benchmark workload
(``perfbench/workloads.py``) at fixed parameters, and the other subcommands:
drift, first-integrals, instantiate, hamiltonian-check and tangent-lift,
plus parameter reductions, a negative verdict of each kind, the identity
map on P6 and a domain error.  Regenerate it with

    PYTHONPATH=src python tests/test_cli_json.py > tests/data/cli_json.txt

only when a change is meant to alter what the command line reports.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from painlevekit import cli

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_json.txt"

_S2_PARABOLA = ("--family", "S2", "--param", "alpha=1/2")
_S2_LINE = ("--family", "S2", "--param", "alpha=-1/2")

CASES = {
    # README, "Command line"
    "readme-classify": ("classify", "--family", "P2", "--param", "alpha=3/2"),
    "readme-darboux": ("darboux", *_S2_PARABOLA, "--deg-xy", "2", "--deg-t", "1"),
    "readme-transform-check": ("transform-check", "--map", "p2-to-s2",
                               "--param", "alpha=sym:alpha"),
    "readme-probe": ("probe", *_S2_LINE, "--initial", "1,0.3,0", "--path", "1,2",
                     "--tol", "1e-10", "--basis", "1,t,y,y^2,y'"),
    # the cli workload's kinds
    "cli-classify-exceptional": ("classify", "--family", "P2",
                                 "--param", "alpha=-5/2"),
    "cli-classify-generic": ("classify", "--family", "P2",
                             "--param", "alpha=2/5"),
    "cli-darboux": ("darboux", *_S2_LINE, "--deg-xy", "2", "--deg-t", "1",
                    "--cofactor-box", "2", "--cofactor-deg", "1"),
    "cli-verify-invariant-line": ("verify-invariant", *_S2_LINE, "--poly", "x"),
    "cli-verify-invariant-parabola": ("verify-invariant", *_S2_PARABOLA,
                                      "--poly", "x - 2*y^2 - t"),
    "cli-probe": ("probe", *_S2_LINE, "--initial", "1,0.21,0",
                  "--path", "1+0i,1.5+0.5i,2+0i", "--tol", "1e-10",
                  "--basis", "1,t,y,y^2,y'"),
    "cli-integrate": ("integrate", *_S2_PARABOLA, "--initial", "1,-0.17,1.0578",
                      "--path", "1+0i,1.3+0.6i,1.9+0.2i,2.3+0i",
                      "--tol", "1e-10"),
    # the other subcommands, and other verdicts
    "classify-reduced": ("classify", "--family", "P3prime", "--param", "alpha=1",
                         "--param", "beta=2", "--param", "gamma=4",
                         "--param", "delta=-4"),
    "verify-invariant-negative": ("verify-invariant", *_S2_PARABOLA,
                                  "--poly", "x + y"),
    "darboux-none": ("darboux", "--family", "S2", "--param", "alpha=1/3",
                     "--deg-xy", "1", "--deg-t", "1", "--cofactor-box", "1"),
    "transform-check-scaling-printed": (
        "transform-check", "--map", "p3prime-scaling",
        "--param", "alpha=sym:alpha", "--param", "beta=sym:beta",
        "--param", "gamma=sym:gamma", "--param", "delta=sym:delta"),
    "transform-check-identity-p6": (
        "transform-check", "--map", "identity", "--family", "P6",
        "--param", "alpha=1/2", "--param", "beta=2/5", "--param", "gamma=-3",
        "--param", "delta=1/3"),
    "drift": ("drift", *_S2_LINE, "--initial", "1,0.3,0", "--path", "1,2+1i,3",
              "--tol", "1e-10", "--poly", "x"),
    "first-integrals": ("first-integrals", "--family", "P1", "--deg-xy", "2",
                        "--deg-t", "1"),
    "instantiate": ("instantiate", "--family", "P3prime", "--param", "alpha=1",
                    "--param", "beta=sym:b", "--param", "gamma=4",
                    "--param", "delta=-4"),
    "hamiltonian-check": ("hamiltonian-check", "--family", "S3prime",
                          "--param", "v1=1/3", "--param", "v2=1/5"),
    "tangent-lift": ("tangent-lift", "--family", "S2", "--param", "alpha=sym:a",
                     "--poly", "x - 2*y^2 - t", "--poly", "a*x*y + 1"),
    "integrate-pole": ("integrate", "--family", "P1", "--initial", "0,1,0",
                       "--path", "0,3", "--tol", "1e-8"),
    "probe-no-relation": ("probe", "--family", "P1", "--initial", "0,0.1,0.1",
                          "--path", "0,0.8", "--tol", "1e-10", "--degree", "1"),
    "domain-error": ("darboux", "--family", "S2", "--param", "alpha=sym:a",
                     "--deg-xy", "1", "--deg-t", "0"),
    # parameter reductions that declare radicals: one new root, and a root
    # that is a rational multiple of a product of earlier ones (s3 = s1*s2/2)
    "classify-reduced-radical": ("classify", "--family", "P4",
                                 "--param", "alpha=1/3", "--param", "beta=-1"),
    "classify-reduced-product-root": (
        "classify", "--family", "P6", "--param", "alpha=1", "--param", "beta=-3",
        "--param", "gamma=3/2", "--param", "delta=5/2"),
}


def report(name: str) -> str:
    """The fixture block of one command: a header, the exit code and the
    text printed under --json."""
    argv = list(CASES[name]) + ["--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"### {name}\n$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}"


def _fixture_blocks() -> dict:
    blocks = {}
    for block in FIXTURE.read_text(encoding="utf-8").split("### ")[1:]:
        blocks[block.partition("\n")[0]] = "### " + block
    return blocks


def test_fixture_names_the_cases():
    assert list(_fixture_blocks()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_json_report_matches_the_fixture(name):
    assert report(name) == _fixture_blocks()[name]


if __name__ == "__main__":
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stdout.write("".join(report(name) for name in CASES))
