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
``substream`` at zero to four indices, and the first draws of a table1 and a
table2 outer cell's stream and of a harness block's stream (layout 5): the
unit's base variates, then its count rows.

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
from pivotboot.weights import draw_multinomial_batch

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
        "376ca6908306cfbb419060abb3f305e87762476b676a65ed97ae6dac8268d783",
    "coverage/cdf/poisson1":
        "78bd4423fe583699fe3fd89a2d220677c6f962a531f76e7ea19015504cb18fc5",
    "coverage/ecdf/normal01":
        "ba565f7843e79934dcf9f6db93fd351cae106eeaf282abc6679bf10fa450e2a1",
    "coverage/ecdf/poisson1":
        "c930678b22507ee20e66d51ff746a118036ff5294fb996f005a227221ebf8b67",
    "coverage/finitepop/normal01":
        "bd740c7adfeba6e9a0d9cbc9f005f2d05f5c32b073d44fd301213377f7dcb01d",
    "coverage/finitepop/poisson1":
        "1d209decd179152535733f431b20fdbf01e0c2d092fea2410a95b68454e08c04",
    "coverage/population/normal01":
        "fac65b0550d05168f61449b568dac9258a53417a8e4cfbc9ada905e8b80ed329",
    "coverage/population/poisson1":
        "fde1535425dc7df8364302bef67f6d626e4378e3d8cea4db87889c75294586b2",
    "coverage/sample/normal01":
        "a2cebc1111774138f157310e13b72184a33edc908577ebb45d9fbeb3b2c33464",
    "coverage/sample/poisson1":
        "c091009cebbacd82f84610639460fb6257c0fa314c03c5aa4fce4a54b7388be5",
    "coverage/superpop/normal01":
        "21ac68f5151607b47e02449eeb835d7511fd9233c738ae14e2e98582cad61b8b",
    "coverage/superpop/poisson1":
        "3595442cfc82f5e3742278e367e308520e7b1f512032d93573cc99db699749dc",
    "pivot_clt/normal01":
        "c1ee08e711fb63f71abb3f31c527490cdbbf5e16509c0a34627b0735ee681abe",
    "pivot_clt/poisson1":
        "a97c8873b4cd047526430cc3cd25336abdf85a2c43b2d634760de7bf2f10e151",
    "refined_ci/lognormal01":
        "8a1893160188fd49a17b297f89031cf8dc1652b4ead6d32ea7984093a9896484",
    "refined_ci/normal01/n2":
        "408dd32669ec557b525dcb4a37c486951d7860146674a97240b1645d52d57466",
    "table1/exponential1/10":
        "aa3fabdcfaa9e480d1e9f4a48d081fa781a60a4c82978be8b8e2f15fc8436a8c",
    "table1/lognormal01/10":
        "499452535b4932b004ffc1abc3e935e73ac2c85e8c70b9e3ec174e1479f0ef03",
    "table1/normal01/2":
        "d25772a9ad1d9ee44a38d3114db16f1ede5dc38021ff2ee759c3860a2a26c950",
    "table1/poisson1/10":
        "cf41f22a32af8669f9a632c0238b8a65ca7faba4eb38cbd3be3b37e87d0e5d2d",
    "table2/exponential1/10":
        "cb76f806d65c226fc0e6d7f37010919088cd7eef294470ace640172e69eaee0d",
    "table2/lognormal01/10":
        "4087952a1f12b58e33895c173768d839205c9aed650433a112ef901df9914337",
    "table2/normal01/2":
        "f386212027952caa100d91d940166f51874b69907712d99a87d80e0a0b91d1f7",
    "table2/poisson1/10":
        "c339c1a25275540e3d3e0954282517138f9fbee090b76d4795c1cf2dee423fc2",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    digest = hashlib.sha256(dumps(CASES[case]().to_dict()).encode()).hexdigest()
    assert digest == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_records_stream_layout(case):
    # every table cell and harness block reads its own PCG64DXSM stream and
    # draws every count row by draw_multinomial_batch
    assert CASES[case]().config["rng_layout"] == 5


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
    "weights/n10m10": "b723722f3f36c16ff4bb619e3d99f1431da8b07d8bc66d381e981d6d2a846b78",
    "weights/n7m30": "83bc59add20c45db4f5030cdd2f686c585cb4bf50f1f99c1a9182faec271bd55",
    "weights/n1m3": "5b335aab78976c78cb20d6246a0d85c10cdbccd0497f29a7fcb2ce433039c829",
    "ci/population": "7615676f8daef67ec87514df14f91a6065e92997b7272fab755c977f069ddcbe",
    "ci/sample": "0d9f57b08374a5522b446ca68d2e66c6bffec9a4b7c982d13e54a65c53ece9f8",
    "ci/finitepop": "8d962491ed133c1162e0fe4b4f4268b95fceb3b3a3e465a5d9a5590496689551",
    "ci/superpop": "e6ae3fc8e21f19735f19d199e3e5f189e4e5e858f7c5cc0e325232e61f2a0fb3",
    "ci/ecdf": "9df3642fb571ac440b3cfb3ffec6dabb4ef78d2c1561f805a03d5e6eea1266b2",
    "ci/cdf": "ac4a909ddd577213bd2283323d66eac9a738b37fc68726d3e56e8b8075fc96dd",
    "ci/two/redraws": "915d61aaa7107c57e6b42dbee67c54f415d1d3656b4bb3c6e999cd9151967f88",
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
    (): ["0x1.2738f8ff4223ap-1", "0x1.a63a5286fb5f6p-1",
         "0x1.9e536cbf68bcep-1", "0x1.a0254d9863200p-5"],
    (3,): ["0x1.753ec87dde958p-3", "0x1.39971899e2010p-3",
           "0x1.2f59188129a40p-1", "0x1.c24817c638ae8p-2"],
    (3, 2**32 - 1): ["0x1.4914127f51aacp-3", "0x1.876ffa70c9e7ap-1",
                     "0x1.4742895b6fa4ep-1", "0x1.fdab21342ab38p-4"],
    (3, 2**32 - 1, 17): ["0x1.d7bd6c3585500p-3", "0x1.a9cadd25e0518p-4",
                         "0x1.89548a5690380p-8", "0x1.b3832e0887fb6p-1"],
    (3, 2**32 - 1, 17, 65537): ["0x1.c7a559ccc3d93p-1", "0x1.4548a79b8aef0p-4",
                                "0x1.b021b8f4ba580p-5", "0x1.7374540f0c04ap-1"],
}


@pytest.mark.parametrize("indices", list(STREAM_GOLDEN), ids=lambda ix: f"{len(ix)}-indices")
def test_stream_layout_unchanged(indices):
    draws = substream(2024, "layout", *indices).random(4)
    assert [float.hex(v) for v in draws] == STREAM_GOLDEN[indices]


def test_table1_cell_layout_unchanged():
    # A table1 cell of poisson1, n = m = 5, 3 inner replicates, at seed 2024,
    # outer cell 0: the first base variates, then the cell's one count row
    # (index counting, m <= 8n, as every other row).
    rng = substream(2024, "table1.cell", 0)
    base = resolve_model("poisson1").draw_base(rng, 3 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.939b3b08d99a8p-2", "0x1.95ffd681b43e4p-1",
        "0x1.4dd9536b771b8p-3", "0x1.1f13095793698p-3"]
    assert draw_multinomial_batch(5, 5, 1, rng)[0].tolist() == [1, 0, 1, 1, 2]


def test_table_cell_layout_unchanged():
    # A table2 cell of poisson1, n = m = 5, B = 2, 3 inner replicates, at
    # seed 2024, outer cell 0: the first base variates, then the first of
    # the 3 g* count rows (index counting, m <= 8n).
    rng = substream(2024, "table2.cell", 0)
    base = resolve_model("poisson1").draw_base(rng, 3 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.72c38201d0fa8p-4", "0x1.32e8b9e62193ep-1",
        "0x1.af15adb606d60p-5", "0x1.bf8aa0fa8cd48p-2"]
    assert draw_multinomial_batch(5, 5, 3, rng)[0].tolist() == [0, 3, 1, 1, 0]


def test_harness_block_layout_unchanged():
    # A block of the replicate-cutoff harness on lognormal01, n = m = 5,
    # B = 3, at seed 2024, block 0 of 32 replicates: the first base
    # variates, then the first two count rows (index counting, m <= 8n).
    rng = substream(2024, "refined_ci", 0)
    base = resolve_model("lognormal01").draw_base(rng, 32 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.00b7dbf3145c2p-1", "0x1.1913ee85110bcp-1",
        "0x1.088ed6532a880p-3", "-0x1.24bbe11c6b372p+0"]
    counts = draw_multinomial_batch(5, 5, 32 * 3, rng)
    assert counts[:2].tolist() == [[1, 1, 2, 0, 1], [2, 1, 0, 1, 1]]


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
