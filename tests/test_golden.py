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
outer cell's stream and of a harness block's stream (layout 4): the unit's
base variates, then its count rows.

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
        "5cb36dc5b89c43afdea4224eefae0a6f95b795ddc9e047c2716f81c3414d4bf5",
    "coverage/cdf/poisson1":
        "49e649ecf9628bf3a42595cf29bce5cdd7d60b1034f9cbf87b3abfd45c463ce3",
    "coverage/ecdf/normal01":
        "11fbdcacc4a851b78982a33300e775cb8fd3404922d8c763da4233c53c40334e",
    "coverage/ecdf/poisson1":
        "79f2a699bc81ae7a876759b916d53587edc8ee86558105fb7d5bcd11d355c774",
    "coverage/finitepop/normal01":
        "04910706038096ee6c080bbbddeaea82cc660c01b9ee973a1b8dba4af204fd5c",
    "coverage/finitepop/poisson1":
        "7c6f592010da32dd12bac42ff1f97bfa5f0207768c470f2cf717686e50133d2b",
    "coverage/population/normal01":
        "27357d354bf8454d90c0d71999d45582069ca241ced26f6e241b15399145e40f",
    "coverage/population/poisson1":
        "8ea1a4637f79bf86f78baf91623d843f0a3319589218004112909c684c56c3ef",
    "coverage/sample/normal01":
        "59e78e0782af47b70cafb589b1113aaefda0ef613274ac6a0b9cfa7c29eb5278",
    "coverage/sample/poisson1":
        "4cb7327aac34116205605affeb41e4df33144a29dfef4c6c6e3f186e1d726231",
    "coverage/superpop/normal01":
        "034f179a7e61b79a6fb7374ed2054c1cd05f99c30df44347eec4e0406804a39a",
    "coverage/superpop/poisson1":
        "1229d59967bbafd35e16a1b170338acc096ada08742249404851d557e73a97aa",
    "pivot_clt/normal01":
        "8137cb4c69fcf2bdf8b6f4bd8b5683045761e84b16b44aadb30397733948027d",
    "pivot_clt/poisson1":
        "94e3ebbc1a56efea4fda501f0a77886a37ee46c937260db0fe9511f92a2491db",
    "refined_ci/lognormal01":
        "8d216650868cb7c24374cbd7c30d72b76a6c8dbce47addcd22921244eb7dcc90",
    "refined_ci/normal01/n2":
        "014d7ce99f1655c0f5267a23bc02953afa1450d8fb3fbebfa5b44f649204ea11",
    "table1/exponential1/10":
        "81baff2e866d34c66bffbf7a0e449738cf975a9fb34dc0020ab43cb3ebc2dd54",
    "table1/lognormal01/10":
        "83f2999f9bc9e10ffc48ac63027a85dbefbb20529df8a502f4d70bfb3a7a1edc",
    "table1/normal01/2":
        "bdfc857ff093d30497307a934544a3bd20929597fbf62dda9ea448833f794f6c",
    "table1/poisson1/10":
        "6f0722ea1cb0a13acc3538b8e2e7514f5f5fd4bab95288c074e47b021fe418ed",
    "table2/exponential1/10":
        "9686512e5d18d5b1ac69abf301a7c5372ecbc9fe1baf72aa86506b486e626ab8",
    "table2/lognormal01/10":
        "0d5aad62cd9568c9aea02d4d8f650e507d490b304f3376739be0d5ce93081084",
    "table2/normal01/2":
        "4aa544878ebac248ac8858d4bcdc1c1f1fdba7e20e08b897c069ae2aaf0103c0",
    "table2/poisson1/10":
        "0f98196a8058cf089a80b90c4d7bdd92dd7c52e91db54ffa6a3c5316f822965d",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    digest = hashlib.sha256(dumps(CASES[case]().to_dict()).encode()).hexdigest()
    assert digest == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_records_stream_layout(case):
    # every table cell and harness block reads its own PCG64DXSM stream
    assert CASES[case]().config["rng_layout"] == 4


CLI_PINNED = ["--seed", "21", "--timestamp", "2000-01-01T00:00:00+00:00"]
CLI_FILES = {
    "data.txt": "9.5\n10.25\n11.0\n8.75\n10.5\n12.0\n9.0\n",
    "two.txt": "1\n0\n",  # --m 2 redraws twice at seed 21
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
    "weights/n10m10": "832599ec05f65dbd73e48ae0775200ca02338f556e013490da59e39a568feff4",
    "weights/n7m30": "dfc6f16975d178675c0c8d79ab54b379118cb5fceb9da1135bd4c99a076b6a39",
    "weights/n1m3": "cb9dec828b76222a60543564317c863b5491d7320ff84ab35aea475041a0b637",
    "ci/population": "f6b7f4e5f370cbafeb0b4afc4b0eb52b413a5c5fb66cd95b83f76b1aaf89b727",
    "ci/sample": "2b50561c30ed283c57d8d48a5ff631b62aca13fd21ceae517bae970ccb0ba1f5",
    "ci/finitepop": "814b9af1893a85f3883d909d5c9339ef5da398ea529b6f0a637bcf29d05860f9",
    "ci/superpop": "2141477ad08fb90998b5f66456e4a2caa4aba3999743cda01765c6d7f0d7964a",
    "ci/ecdf": "2dd676c9a65f0660b9f07ce0737895d447c14c63476503a285fff259dd74cc39",
    "ci/cdf": "faf8cbca1372cd496cfd41adc5470a95a8183fa1785134e1eb258b28d6e372b4",
    "ci/two/redraws": "e6eb3455ad6995a15eef2943fd85c134206bba418d2237922601535685f83947",
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


def test_table_cell_layout_unchanged():
    # A table2 cell of poisson1, n = m = 5, B = 2, 3 inner replicates, at
    # seed 2024, outer cell 0: the first base variates, then the first of
    # the 3 g* count rows (index counting, m <= 8n).
    rng = substream(2024, "table2.cell", 0)
    base = resolve_model("poisson1").draw_base(rng, 3 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.72c38201d0fa8p-4", "0x1.32e8b9e62193ep-1",
        "0x1.af15adb606d60p-5", "0x1.bf8aa0fa8cd48p-2"]
    assert draw_resample_counts(5, 5, 3, rng)[0].tolist() == [0, 3, 1, 1, 0]


def test_harness_block_layout_unchanged():
    # A block of the replicate-cutoff harness on lognormal01, n = m = 5,
    # B = 3, at seed 2024, block 0 of 32 replicates: the first base
    # variates, then the first two count rows (index counting, m <= 8n).
    rng = substream(2024, "refined_ci", 0)
    base = resolve_model("lognormal01").draw_base(rng, 32 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.00b7dbf3145c2p-1", "0x1.1913ee85110bcp-1",
        "0x1.088ed6532a880p-3", "-0x1.24bbe11c6b372p+0"]
    counts = draw_resample_counts(5, 5, 32 * 3, rng)
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
