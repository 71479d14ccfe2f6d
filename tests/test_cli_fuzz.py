"""A standing guard on the CLI's exit-code contract, over schema-biased input.

Hypothesis writes documents that are mostly well formed (weight families,
elements, points, closed sets, index lists) with a share of wrong types,
missing fields, bad rationals and bad runs, and runs every subcommand in
process with its formats and flags.  Whatever the input:

- `main` returns 0, 1 or 2, and no exception escapes it;
- 1 (a failed verification) comes only from `repro-paper`;
- a 2 writes exactly one short line to stderr and nothing to stdout;
- a 0 or a 1 writes nothing to stderr.

The strategies stay inside the input budgets (small moduli, short lists,
counts near the cap only where they are rejected), so no example builds
anything large.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ditkin.cli import COMMANDS, main

MAX_STDERR_CHARS = 240

BAD_SCALARS = st.sampled_from([None, True, 2.5, "0.5", "1e5", "1/0", "x", "", [], {}, "1" + "0" * 5000])


def _mostly(good, bad=BAD_SCALARS, one_in=10):
    """`good`, except one draw in `one_in` from `bad`: a wrong type, form or value."""
    return st.integers(1, one_in).flatmap(lambda i: bad if i == one_in else good)  # the simplest draw is good


def _ratios(lo):
    return st.one_of(
        st.integers(lo, 40),
        st.integers(lo, 40).map(str),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(lo, 40), st.integers(1, 12)),
    )


# one value in 30 is bad: a family or an element holds a dozen of them
nonnegative = _mostly(_ratios(0), st.one_of(BAD_SCALARS, st.sampled_from([-1, "-1/2"])), 30)
positive = _mostly(_ratios(1), st.one_of(BAD_SCALARS, st.sampled_from([0, "0", "-3"])), 30)
signed = _mostly(_ratios(-40), one_in=30)


@st.composite
def _drop_some(draw, obj_strategy):
    """A dict, one draw in 30 with one key removed."""
    obj = draw(obj_strategy)
    if obj and draw(st.integers(1, 30)) == 30:
        obj = dict(obj)
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj


leaf_families = _drop_some(
    st.one_of(
        st.fixed_dictionaries({"family": st.just("constant"), "value": positive}),
        st.fixed_dictionaries({"family": st.just("linear"), "offset": nonnegative, "slope": nonnegative}),
    )
)


def _extend(children):
    moduli = _mostly(st.just({}), st.builds(lambda m: {"modulus": m}, st.one_of(st.integers(0, 5), BAD_SCALARS)))
    interleaves = st.builds(
        lambda parts, modulus: {"family": "interleave", "parts": parts, **modulus},
        st.lists(children, min_size=2, max_size=4),
        moduli,
    )
    prefixes = st.fixed_dictionaries(
        {"family": st.just("prefix"), "prefix": st.lists(positive, max_size=4), "tail": children}
    )
    return _drop_some(st.one_of(interleaves, prefixes))


families = _mostly(
    st.recursive(leaf_families, _extend, max_leaves=6),
    st.one_of(st.just({"family": "warped", "value": "1"}), st.just({"family": "interleave", "parts": []}), BAD_SCALARS),
)

lengths = _mostly(st.one_of(st.integers(1, 12), st.integers(10**6, 10**9)), st.one_of(st.integers(-1, 0), BAD_SCALARS), 30)
runs = st.lists(_mostly(st.tuples(signed, lengths).map(list), one_in=30), max_size=4)
tails = _mostly(st.just("0"), signed, 5)
elements = _mostly(
    _drop_some(
        st.one_of(
            st.fixed_dictionaries({"kind": st.just("eventually_constant"), "prefix": st.lists(signed, max_size=6)},
                                  optional={"tail": tails}),
            st.fixed_dictionaries({"kind": st.just("eventually_constant"), "runs": runs}, optional={"tail": tails}),
        )
    )
    | st.just({"kind": "dyadic_decay"}),
    st.one_of(st.just({"kind": "spiral"}), st.just({"kind": "eventually_constant", "prefix": [], "runs": []}),
              BAD_SCALARS),
)
points = _mostly(
    st.one_of(st.integers(1, 40), st.integers(10**6, 10**9), st.sampled_from(["inf", "∞", " INF "])),
    st.one_of(st.integers(-2, 0), st.just("x"), BAD_SCALARS),
)
closed_sets = _mostly(
    st.fixed_dictionaries(
        {},
        optional={"points": _mostly(st.lists(st.integers(1, 40), max_size=4), st.one_of(
                      st.lists(st.integers(-1, 0), min_size=1, max_size=2), BAD_SCALARS)),
                  "with_infinity": _mostly(st.booleans())},
    ),
)
indices = _mostly(
    st.lists(st.one_of(st.integers(1, 60), st.integers(10**5, 10**6)), max_size=4),
    st.one_of(st.lists(st.one_of(st.integers(-1, 0), BAD_SCALARS), min_size=1, max_size=2), BAD_SCALARS),
)

FIELDS = {"element": elements, "indices": indices, "point": points, "excluded": closed_sets}
# the fields of each subcommand's document beyond its weights; None: the document is a family
DOCUMENT_FIELDS = {"classify": None, "select-ai": None, "norm": ("element",),
                   "residuals": ("element", "indices"), "witness": ("point", "excluded"), "repro-paper": None}


@st.composite
def documents(draw, command):
    """The text of an input file for `command`: JSON, mostly of the right shape."""
    fields = DOCUMENT_FIELDS[command]
    if fields is None:
        family = draw(families)
        doc = {"weights": family} if draw(st.booleans()) else family
    else:
        doc = {"weights": draw(families), **{k: draw(FIELDS[k]) for k in fields}}
        doc = draw(_drop_some(st.just(doc)))
    roll = draw(st.integers(1, 30))
    return "{not json" if roll == 29 else "[" * 3000 if roll == 30 else json.dumps(doc)


@st.composite
def invocations(draw, workdir):
    """(command, argv) with the documents written under `workdir`."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    path = str(workdir / f"{command}.json")
    with open(path, "w", encoding="utf-8") as out:
        out.write(draw(documents(command)))
    if command == "repro-paper":
        if draw(st.booleans()):
            argv += ["--weights", path]
        if draw(st.booleans()):
            argv.append("--json")
    else:
        argv.append(path if draw(st.integers(1, 20)) < 20 else str(workdir / "missing.json"))
    if command == "select-ai":
        count = draw(st.one_of(st.integers(1, 40), st.sampled_from([0, -3, 65537, 10**9])))
        argv += ["--count", str(count)]
        slack = draw(st.one_of(st.none(), st.sampled_from(["0", "1/3", "2", "-1/3", "abc", "1e5"])))
        if slack is not None:
            argv += ["--slack", slack]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(list(COMMANDS[command].renderers)))]
    target = draw(st.integers(1, 10))
    if target == 9:
        argv += ["--output", str(workdir / "out.txt")]
    elif target == 10:
        argv += ["--output", str(workdir)]  # a directory: not writable as a file
    return command, argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_contract(workdir, data):
    command, argv = data.draw(invocations(workdir), label="invocation")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert code != 1 or command == "repro-paper"
    if code == 2:
        assert stdout == ""
        assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
        assert len(stderr) <= MAX_STDERR_CHARS, stderr
    else:
        assert stderr == ""
