"""Byte-identity pin of the plate path: sha256 of ``metrics`` and ``hits`` stdout.

Two plate files (a training plate set and its replicate) are generated
here from a fixed numpy seed, with every value written by ``repr``. Plate
``p1`` has disjoint controls with the positives higher, ``p2`` disjoint
controls with the positives lower, and ``p3`` overlapping controls; every
plate has a few empty wells. The hashes were recorded with numpy 2.4, so
the test skips on any other numpy major.minor, as the simulation golden
test does. A refactor of plate loading, hit selection or report writing
must keep every hash.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from assayqc.cli import main

RECORDED_NUMPY = "2.4"
ROWS, COLS = 16, 24
NEG_COLS, POS_COLS = (1, 2), (23, 24)
EMPTY = {(16, c) for c in range(3, 7)}
# plate id -> (negative, positive, planted hit) as (mean, sd)
PLATES = {
    "p1": ((10.0, 1.0), (30.0, 2.0), (30.0, 2.0)),
    "p2": ((10.0, 1.0), (2.0, 0.3), (2.0, 0.3)),
    "p3": ((10.0, 2.0), (14.0, 2.0), (16.0, 2.0)),
}
PLANTED = 10

COMMANDS = {
    "metrics.json": ["metrics", "{train}"],
    "metrics.csv": ["metrics", "{train}", "--format", "csv"],
    **{f"hits/{pid}/{rule}.json": ["hits", "{train}", "--plate-id", pid, "--test", "{test}",
                                   "--rule", rule]
       for pid in PLATES for rule in ("gssmd", "sigma", "ssmd", "logistic")},
    "hits/p2/sigma_lower_log.csv": ["hits", "{train}", "--plate-id", "p2", "--test", "{test}",
                                    "--rule", "sigma", "--direction", "lower",
                                    "--log-transform", "--format", "csv"],
    "hits/p1/ssmd_lower.json": ["hits", "{train}", "--rule", "ssmd", "--beta", "1.5",
                                "--direction", "lower"],
    "hits/p1/gssmd_log.csv": ["hits", "{train}", "--test", "{test}", "--log-transform",
                              "--format", "csv"],
}

GOLDEN = {
    "metrics.json": "f0c2a68b5a6a81e85c3470f179c4900aacb6920f973f43b80e923162e33fa336",
    "metrics.csv": "be2f51dad2a05739804f365266cdda59a2717c742fb6c219db452441c0477e7f",
    "hits/p1/gssmd.json": "f1efea1b82078dcbf57f174d53274dc1d1a57bdc7ebd52d61b81f91deb30f4e1",
    "hits/p1/sigma.json": "cbbacc2e964acc933755275ef79dfc5ac4dc1e238b79b04d78e6f143758b2d3c",
    "hits/p1/ssmd.json": "5942f2c61f637820197556d82368207257e86c08cf5fc19f520fb8b0c705fc19",
    "hits/p1/logistic.json": "99244f6d0925ebe7a9228bc35e0524a9bca6c05cdb847c82d0812b94266531c3",
    "hits/p2/gssmd.json": "7b49ae0d9f495c6e126ae527fa64973115a8f0c42865ab79540b63058e37792c",
    "hits/p2/sigma.json": "d9495737313f06ce981e3daac919a2b355085ca2ffbc8b940fc4be7ac3cafb99",
    "hits/p2/ssmd.json": "c3c8c2f0c0f078d7f29dba1e535a99c21fe6be471a786bf2e8c38c9f89ba4035",
    "hits/p2/logistic.json": "de2cae29c47c53e9a77fe055a533aab1444afa06972beffac68c8a73f0d71d0c",
    "hits/p3/gssmd.json": "35dabdac5b5af5fdef0d34eefbd53de6c9d991ba95923ff395ac6938cfeb9cca",
    "hits/p3/sigma.json": "e4cf4614423d366ae4bd8e80e9244c92806a148bf8b8f545a53a7a66fed1d69e",
    "hits/p3/ssmd.json": "fef0b31e2b821868da9c7f79ff31aff114bc96d11aac31b5e58c4b073c66e29a",
    "hits/p3/logistic.json": "fcde445b649714d77c1e7acaa43744488a60c0280176c6d2756e277402bfceec",
    "hits/p2/sigma_lower_log.csv":
        "41bd3a4e10f0c92ced573befde3a26ddf092a273259175f7b5d26ff425cbd1fe",
    "hits/p1/ssmd_lower.json": "d84c5f18b99e2b291980928a33244feff4c9cf9c69ecb1c9960b85a94c653ce7",
    "hits/p1/gssmd_log.csv": "18be4568d52229df76ea57a8bd6a825561ba03ffa6c753256c4b1c88ad54148b",
}


def _plate_lines(rng: np.random.Generator) -> list[str]:
    lines = []
    for pid, (neg, pos, hit) in PLATES.items():
        samples = [(r, c) for c in range(1, COLS + 1) for r in range(1, ROWS + 1)
                   if c not in NEG_COLS + POS_COLS and (r, c) not in EMPTY]
        hits = {samples[i] for i in rng.choice(len(samples), PLANTED, replace=False)}
        for c in range(1, COLS + 1):
            for r in range(1, ROWS + 1):
                if (r, c) in EMPTY:
                    lines.append(f"{pid},{r},{c},empty,")
                    continue
                if c in NEG_COLS:
                    role, (mean, sd) = "neg", neg
                elif c in POS_COLS:
                    role, (mean, sd) = "pos", pos
                else:
                    role, (mean, sd) = "sample", hit if (r, c) in hits else neg
                lines.append(f"{pid},{r},{c},{role},{abs(rng.normal(mean, sd))!r}")
    return lines


def _write_plates(tmp_path) -> dict[str, str]:
    rng = np.random.default_rng(20240917)
    paths = {}
    for name in ("train", "test"):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(["plate_id,row,col,role,value", *_plate_lines(rng)]) + "\n",
                        encoding="utf-8", newline="\n")
        paths[name] = str(path)
    return paths


def _stdout_sha256(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_plate_outputs_match_recorded_sha256(tmp_path):
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    if numpy_minor != RECORDED_NUMPY:
        pytest.skip(f"inputs drawn with numpy {RECORDED_NUMPY}, running {numpy_minor}; "
                    "Generator streams may differ across numpy versions (NEP 19)")
    paths = _write_plates(tmp_path)
    actual = {label: _stdout_sha256([a.format(**paths) for a in argv])
              for label, argv in COMMANDS.items()}
    assert actual == GOLDEN
