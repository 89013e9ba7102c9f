"""The command line fuzzed in process.

Each example draws a subcommand and an argv over its flags, with valid
values and hostile ones (nan, inf, empty text, huge numbers and exponents,
unknown names, non-ASCII text), and runs it through ``cli.main``.  Every
example must end in exit code 0, 1 or 2, with no exception escaping and
no warning (warnings are raised as errors here, as tier-1 does for
RuntimeWarning), and a report under --json must be strict JSON.

The values keep each example cheap: searches get degrees, cofactor degrees
and boxes of at most 1, and integrations short paths.  A huge probe degree
and the identity map on P6 are drawn like any other input, since each must
end quickly.  The choices come from one drawn seed, so shrinking a failing
example does not simplify its argv, which hypothesis prints in full.
"""

import contextlib
import io
import json
import random
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from painlevekit import cli
from painlevekit.catalog import FAMILIES, parameter_names

HOSTILE = ("nan", "inf", "-inf", "", " ", "1e999", "-1",
           "99999999999999999999", "é", "∞", "x")

# (valid, hostile) values of each flag; HOSTILE adds to every hostile set
RATIONALS = (("1/2", "-1/2", "1/3", "0", "3/2", "2/5", "-3", "١/٢", "sym:a"),
             ("sym:", "1/0", "9" * 5000))
SMALL_INTS = (("0", "1", "١"), ())
POLYS = (("x", "x - 2*y^2 - t", "y^2 - 1/2*x + 1/2*t", "x*y + 1", "a*x + y",
          "t", "1", "0", "x^100*y^100"),
         ("x^99999999", "x^-1", "1/x", "x +", "x^1e999", "9" * 5000, "z",
          "é + x"))
# the first waypoint of a valid path starts the valid initial values
PATHS = (("1,2", "1,1.5+0.5i,2", "0,0.8", "1,3+2i,6", "-1,1", "2,1-1i"),
         ("1,nan", "1,inf", "1", "1,,2", "1,1e999", "1,2,é"))
STATES = (("0.3,0", "0.1,0.1", "0.1,0.2", "0.3+0.1i,0", "1e300,0"),
          ("nan,0", "inf,0", "0.3", "é,0", "0.3,0,4"))
TOLS = (("1e-9", "1e-6", "1e-12", "1e-300"), ("0",))

# the family each map starts from
MAP_FAMILY = {"p2-to-s2": "P2", "p3prime-scaling": "P3prime",
              "p3prime-scaling-corrected": "P3prime",
              "p3prime-scaling-general": "P3prime", "p3-to-p3prime": "P3",
              "p3-to-p3prime-alt": "P3"}
NUMERIC = ("integrate", "drift", "probe")
SEARCH = ("darboux", "verify-invariant", "first-integrals")
# the families that store a first-order system, which SEARCH and NUMERIC need
SYSTEMS = ("P1", "S2", "S3prime", "S4", "S5", "S6")

# flags beyond --family, --param, --json, --map, --initial and --path
REQUIRED = {
    "classify": {},
    "instantiate": {},
    "hamiltonian-check": {},
    "darboux": {"--deg-xy": SMALL_INTS, "--deg-t": SMALL_INTS},
    "verify-invariant": {"--poly": POLYS},
    "first-integrals": {"--deg-xy": SMALL_INTS, "--deg-t": SMALL_INTS},
    "tangent-lift": {"--poly": POLYS},
    "transform-check": {},
    "integrate": {},
    "drift": {"--poly": POLYS},
    "probe": {},
}
OPTIONAL = {
    "integrate": {"--tol": TOLS},
    "drift": {"--tol": TOLS},
    "probe": {"--tol": TOLS, "--degree": (("1", "2", "3"), ("0", "40")),
              "--threshold": (("1e-6", "1e-3", "0.5"), ("0",)),
              "--basis": (("1,t,y,y^2,y'", "1,y", "1*y*y'", "dy"),
                          ("1,z^2", "y^x", "1,y^99999999999999999999",
                           "1,y^2000", "1,t^2000", "1,,y", "y^-1"))},
}


@st.composite
def argvs(draw):
    # hypothesis draws the seed; the choices are then uniform, where
    # hypothesis's own draws would favour the first and last entries
    rnd = random.Random(draw(st.integers(0, 2**64 - 1)))

    def mostly():
        return rnd.random() < 15 / 16

    def value(flag_values):
        valid, hostile = flag_values
        return rnd.choice(valid) if mostly() else rnd.choice(hostile + HOSTILE)

    command = rnd.choice(sorted(REQUIRED)) if mostly() else "frobnicate"
    pairs = []
    family = value((FAMILIES, ("P9", "p2", "Ｐ2")))
    if command in SEARCH + NUMERIC and mostly():
        family = rnd.choice(SYSTEMS)
    if command == "transform-check":
        map_name = value((tuple(cli._MAPS), ("p2-to-p9",)))
        if mostly():
            pairs.append(("--map", map_name))
        if map_name in MAP_FAMILY and mostly():
            family = MAP_FAMILY[map_name]
    if mostly():
        pairs.append(("--family", family))
    names = list(parameter_names(family) if family in FAMILIES else ("alpha",))
    if not mostly():
        names.append(rnd.choice(("alpha", "v1", "bogus", "é")))
    for name in names:
        if mostly():
            val = value(RATIONALS) if rnd.random() < 3 / 4 else f"sym:{name}"
            pairs.append(("--param", f"{name}={val}"))
    if command in NUMERIC:
        path = value(PATHS)
        initial = f"{path.partition(',')[0]},{value(STATES)}"
        for flag, val in (("--path", path), ("--initial", initial)):
            if mostly():
                pairs.append((flag, val if mostly() else rnd.choice(HOSTILE)))
    for flag, flag_values in REQUIRED.get(command, {}).items():
        if mostly():
            pairs.append((flag, value(flag_values)))
    for flag, flag_values in OPTIONAL.get(command, {}).items():
        if rnd.random() < 1 / 2:
            pairs.append((flag, value(flag_values)))
    if command == "darboux":
        # always: the default box of 3, or the default cofactor degree on
        # a family of high degree, makes a search take seconds
        pairs.append(("--cofactor-box", value(SMALL_INTS)))
        pairs.append(("--cofactor-deg", value(SMALL_INTS)))
    if command == "integrate" and rnd.random() < 1 / 2:
        pairs.append(("--csv", rnd.choice(
            ("{tmp}/out.csv", "{tmp}", "{tmp}/missing/out.csv"))))
    if not mostly():
        pairs.append(("--bogus", "1"))
    rnd.shuffle(pairs)
    # glued with = so that a value starting with - stays a value
    argv = [command] + [f"{flag}={val}" for flag, val in pairs]
    if rnd.random() < 1 / 2:
        argv.append("--json")
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code != 2 and "--json" in argv:
        json.loads(out.getvalue(), parse_constant=_refuse)


def _refuse(name):
    raise AssertionError(f"{name} is not valid JSON")
