"""Golden report hashes: the sha256 of ``dumps(report.to_dict())`` for small
fixed-seed runs of every Monte Carlo harness.

A refactor of the harnesses, the weight draws or the normal quantile must
leave these bytes unchanged; a deliberate change of the random-stream
layout shows up here as an explicit diff of the hashes.  The designs are
small enough to include degenerate data and degenerate weights (n = 2),
and table1's weight redraws, so the draw order of its redraw loop is
pinned too.

The same holds for the CLI's own streams (``cli.weights``, ``cli.ci``),
pinned through the stdout of ``pivotboot weights`` and of ``pivotboot ci``
with drawn weights, and for the stream layout itself: the first draws of
``substream`` at zero to four indices, and the first draws of a table2
outer cell's stream (layout 2) and of a harness block's stream (layout 3):
the unit's base variates, then its count rows.

None of these bytes depends on the BLAS kernel or on numpy's CPU dispatch:
every inner product of the package sums through ``weights.dot`` (numpy's
einsum) and no module calls BLAS or LAPACK (``tests/test_imports.py``).
Fresh interpreters, each under another OpenBLAS kernel or with numpy's
AVX-512 loops off, print the digests of the golden reports, of ``ci`` with
every method on 40 values, of ``ydist`` and of a table2 poisson1 cell with
exact ties, and they must equal this process's; the variables act only on
the child.  Run as a script, this file prints those digests as JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pivotboot.cli import main
from pivotboot.jsonio import dumps
from pivotboot.pivots import PivotKind
from pivotboot.rng import substream
from pivotboot.simulation import (
    SimConfig,
    pivot_clt_frequencies,
    refined_ci_coverage,
    resolve_model,
    run_coverage,
    run_table1,
    run_table2,
)
from pivotboot.weights import draw_resample_counts

RECIPES = ("population", "sample", "finitepop", "superpop", "ecdf", "cdf")


def _table(runner, model, n):
    return lambda: runner(SimConfig(model=model, n=n, outer_reps=3, inner_reps=40, seed=11))


def _coverage(recipe, model, n, x):
    return lambda: run_coverage(recipe, model, n, n, 0.1, 150, 12,
                                x=x if recipe in ("ecdf", "cdf") else None)


CASES = {
    **{f"table1/{model}/{n}": _table(run_table1, model, n)
       for model, n in (("poisson1", 10), ("lognormal01", 10), ("exponential1", 10),
                        ("normal01", 2))},
    **{f"table2/{model}/{n}": _table(run_table2, model, n)
       for model, n in (("poisson1", 10), ("lognormal01", 10), ("exponential1", 10),
                        ("normal01", 2))},
    **{f"coverage/{recipe}/{model}": _coverage(recipe, model, n, x)
       for recipe in RECIPES
       for model, n, x in (("normal01", 20, 0.0), ("poisson1", 6, 1.0))},
    "pivot_clt/normal01": lambda: pivot_clt_frequencies(
        list(PivotKind), "normal01", 20, 20, 1.644854, 150, 13, x=0.0),
    "pivot_clt/poisson1": lambda: pivot_clt_frequencies(
        list(PivotKind), "poisson1", 6, 6, 1.281648, 150, 13, x=1.0),
    "refined_ci/lognormal01": lambda: refined_ci_coverage("lognormal01", 20, 20, 9, 0.1, 60, 14),
    "refined_ci/normal01/n2": lambda: refined_ci_coverage("normal01", 2, 2, 4, 0.2, 60, 14),
}

GOLDEN = {
    "coverage/cdf/normal01":
        "e65dbd88c9d98ffc95e2d81d80d55af5baa265a67251f502f758df7753321691",
    "coverage/cdf/poisson1":
        "c9207a4c4b87b6fd1dcfe41ab2df49c6dc67f8f62c40539159c6e58a7035c4b0",
    "coverage/ecdf/normal01":
        "d2e94b02d0edde66bc557e2100b6cef143c094ecf7231bebf2723c7b5b7e1855",
    "coverage/ecdf/poisson1":
        "9db55189d4554a23598974958f07227a75d3b1fa81eb072b4556628d35f3854d",
    "coverage/finitepop/normal01":
        "ed5bbd8d06f9c1add02bf23f76c9e97467a21ceb23cf4d95ab5aa396f95b335c",
    "coverage/finitepop/poisson1":
        "ea169580a40c42f0eaad9325db01774a010dcdd43569e21c9f93e48f6f9ca767",
    "coverage/population/normal01":
        "df5daf15200d26f859e5b6e2becc06f512fe15ca9041c60ca931c50caec8c0f9",
    "coverage/population/poisson1":
        "5591fbee17bebd738dbc90632fa072ea391ab01e6ef8a9a60e3101852892fbcb",
    "coverage/sample/normal01":
        "36ccf6bc6fe509adea7b0b22882943962664300ee206a1dc96795d3b18a1a2f4",
    "coverage/sample/poisson1":
        "5d42e0afa6af8ba9ff833908998bf7808be3fb4cdf023942bfd8e7aeb03d22c2",
    "coverage/superpop/normal01":
        "085df678b6247c7faa2030d1e4f1da6775f21047f94e5d172c7fae4b9e9cce4d",
    "coverage/superpop/poisson1":
        "81968d82db1a089e103113b977b5e39aead80de351e0dae3a9ed56fa1ef9c2b2",
    "pivot_clt/normal01":
        "911cf53daff16dd176c63288b12faad7676198086a432120c17173c09f5f1427",
    "pivot_clt/poisson1":
        "adae78bcae4014aede12ac2506716eee574581d09dbeee5b8f4be8ed85faee13",
    "refined_ci/lognormal01":
        "cefbd3917033807cb0230f393d6270bb872e4ee15a2a640528f8c9973a509037",
    "refined_ci/normal01/n2":
        "a0a43a139f02984d54c2d03e5741bcab6b7efd3fe038eec1b1bce4760e81566e",
    "table1/exponential1/10":
        "658174e0b5a5694f0b78931c2170354b3b43cee818cc08075cec51359d5d1e4c",
    "table1/lognormal01/10":
        "0757d751a05bfe03164d014f4b2a1b5a2c7c53e6cd6710b2b7c2c79c70bfc651",
    "table1/normal01/2":
        "76807907fc56145c0a63b1452da825439a2a50e4bb61b173a515d81af5d4600d",
    "table1/poisson1/10":
        "8977db363693407a648ed09b6a21f43a50920c5fd8837cd0c79181e71bc3b0cd",
    "table2/exponential1/10":
        "b7c16fc0a3e49c3f8dba4f750cc9546f09ada9f88d1b66d7538f6e4e9c6673fd",
    "table2/lognormal01/10":
        "2944a953d10af5b72ea8ec27e36b63af0f0913a699ebd7f5f248dbdc60ddc477",
    "table2/normal01/2":
        "c1ee41d5de5ce9a576c1b40f4d7f0849735d874be1a580526fe90ce83cdee1d0",
    "table2/poisson1/10":
        "7082a1484890eb4a65141a97c92b7e13c3d0a738c69f60ec9e19b7046c511bb5",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    digest = hashlib.sha256(dumps(CASES[case]().to_dict()).encode()).hexdigest()
    assert digest == GOLDEN[case]


CLI_PINNED = ["--seed", "21", "--timestamp", "2000-01-01T00:00:00+00:00"]
CLI_FILES = {
    "data.txt": "9.5\n10.25\n11.0\n8.75\n10.5\n12.0\n9.0\n",
    "two.txt": "1\n0\n",  # --m 2 redraws once at seed 21
}
CLI_CASES = {
    "weights/n10m10": ["weights", "--n", "10", "--m", "10"],
    "weights/n7m30": ["weights", "--n", "7", "--m", "30"],
    "weights/n1m3": ["weights", "--n", "1", "--m", "3"],
    **{f"ci/{recipe}": ["ci", "data.txt", "--method", recipe, "--m", "12",
                        *(["--x", "10.0"] if recipe in ("ecdf", "cdf") else [])]
       for recipe in RECIPES},
    "ci/two/redraws": ["ci", "two.txt", "--method", "population", "--m", "2"],
}
CLI_GOLDEN = {
    "weights/n10m10": "a087b24c5f3fc11cfa1c0bd66c7c164d9793651ceaf55d588b4664ebde454516",
    "weights/n7m30": "cedb779873e171138856971a0b4be61d67e9f99a67499f91a457691f700874ae",
    "weights/n1m3": "b49cc96130ecd9cdf2637b934a400ee5be18244de8fc97de6ca7e551fc001f45",
    "ci/population": "6c193191bb957a41daa8c0d13f1bdcdc38b18496d4da603c53be91adf0c44d55",
    "ci/sample": "9b1856b13b053db9f955360b61adb3ac138bf7c3b7fd11db6b8bb7f05904a11e",
    "ci/finitepop": "81d31a617e6fc0fa9fe4669eb81c3360d776463c1d511f906cfb2d9fca3ee72f",
    "ci/superpop": "ffdc87a808a6ac6350da0dd7231308d3160faeb4316e8d658d888d5f99aabaa5",
    "ci/ecdf": "f9f4ea8fb4182a6baddb5b715c3130bf3675ea0fd4754e34688ee5a639e9430e",
    "ci/cdf": "a898af64736e457022137d4f4a5c7b383e218a6b6881d514f797db915abe6109",
    "ci/two/redraws": "3c43a50a733533f8cd6c62f09e0c1f4f92da0d6a3ae36506855103835c7d98f3",
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_bytes_unchanged(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the manifest records the data file's path
    for name, text in CLI_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(CLI_CASES[case] + CLI_PINNED) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_GOLDEN[case]


# substream(2024, "layout", *indices).random(4), as float.hex.
STREAM_GOLDEN = {
    (): ["0x1.70c02cf961a14p-1", "0x1.94cef4686f800p-7",
         "0x1.ecaa3cbab280cp-1", "0x1.3ab009f9361f0p-3"],
    (3,): ["0x1.29fc2b0146fccp-1", "0x1.3b2d2cfecafc0p-1",
           "0x1.9f71d8b8b0c0ap-1", "0x1.0ad3e38a8fa68p-3"],
    (3, 2**32 - 1): ["0x1.3380b944678ecp-2", "0x1.c0aea7732274cp-2",
                     "0x1.18299d98db2cep-1", "0x1.3b4fbe0a81c8ap-1"],
    (3, 2**32 - 1, 17): ["0x1.a25ea88bcdf74p-2", "0x1.eff1c86a70113p-1",
                         "0x1.d8dd84c2e45fcp-2", "0x1.cdc548f20dd10p-4"],
    (3, 2**32 - 1, 17, 65537): ["0x1.269da9859aba8p-1", "0x1.c673b2ea1e194p-1",
                                "0x1.a194c98916237p-1", "0x1.4e7f820d8547cp-3"],
}


@pytest.mark.parametrize("indices", list(STREAM_GOLDEN), ids=lambda ix: f"{len(ix)}-indices")
def test_stream_layout_unchanged(indices):
    draws = substream(2024, "layout", *indices).random(4)
    assert [float.hex(v) for v in draws] == STREAM_GOLDEN[indices]


def test_table_cell_layout_unchanged():
    # A table2 cell of poisson1, n = m = 5, B = 2, 3 inner replicates, at
    # seed 2024, outer cell 0: the first base variates, then the first count
    # row (index counting, m <= 8n).
    rng = substream(2024, "table2.cell", 0)
    base = resolve_model("poisson1").draw_base(rng, 3 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.e7b0f163e1c9cp-3", "0x1.5454015906e40p-7",
        "0x1.22256c54d93e8p-1", "0x1.19c131fcfdf62p-2"]
    assert draw_resample_counts(5, 5, 3 * 3, rng)[0].tolist() == [1, 2, 2, 0, 0]


def test_harness_block_layout_unchanged():
    # A block of the replicate-cutoff harness on lognormal01, n = m = 5,
    # B = 3, at seed 2024, block 0 of 32 replicates: the first base
    # variates, then the first two count rows (index counting, m <= 8n).
    rng = substream(2024, "refined_ci", 0)
    base = resolve_model("lognormal01").draw_base(rng, 32 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "-0x1.3e33fce9b0d47p-3", "0x1.e4fe145db01f6p-3",
        "0x1.b21ddb6760bfap+0", "-0x1.0dcb27f5b3565p+1"]
    counts = draw_resample_counts(5, 5, 32 * 3, rng)
    assert counts[:2].tolist() == [[2, 2, 1, 0, 0], [1, 0, 1, 1, 2]]


SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ENVIRONMENTS = (
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
)
# At this seed the population and superpop intervals on the 40 values moved
# under the Prescott kernel while the package still called BLAS.
KERNEL_PINNED = ["--seed", "5", "--timestamp", "2000-01-01T00:00:00+00:00"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + KERNEL_PINNED) == 0
    return out.getvalue()


def digests(data: Path) -> dict[str, str]:
    """sha256 of every golden report, of ``ci`` with each method on the data
    file, of ``ydist --B 100`` and of a table2 poisson1/20 cell at 4 x 500."""
    out = {case: _sha(dumps(run().to_dict())) for case, run in CASES.items()}
    for recipe in RECIPES:
        out[f"ci/{recipe}"] = _sha(_cli(["ci", str(data), "--method", recipe, "--m", "40",
                                         *(["--x", "10.0"] if recipe in ("ecdf", "cdf") else [])]))
    out["ydist/100"] = _sha(_cli(["ydist", "--B", "100"]))
    table = run_table2(SimConfig(model="poisson1", n=20, outer_reps=4, inner_reps=500, seed=3))
    out["table2/poisson1/20"] = _sha(dumps(table.to_dict()))
    return out


def test_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    data = tmp_path / "forty.txt"
    values = (10.0 + 3.0 * substream(5, "blas.data").standard_normal(40)).tolist()
    data.write_text("".join(f"{v!r}\n" for v in values))
    expected = digests(data)
    pythonpath = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    children = [subprocess.Popen([sys.executable, __file__, str(data)], stdout=subprocess.PIPE,
                                 env={**os.environ, "PYTHONPATH": pythonpath, **variables})
                for variables in CHILD_ENVIRONMENTS]
    for variables, child in zip(CHILD_ENVIRONMENTS, children):
        stdout, _ = child.communicate(timeout=120)
        assert child.returncode == 0, variables
        assert json.loads(stdout) == expected, variables


if __name__ == "__main__":
    print(json.dumps(digests(Path(sys.argv[1]))))
