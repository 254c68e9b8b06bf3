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
table2 outer cell's stream and of a harness block's stream (layout 6): the
unit's base variates, then its count rows.  The stdout of ``pivotboot
ydist`` pins the quadrature of the cutoff calibration.

None of these bytes depends on the BLAS kernel or on the CPU dispatch of
numpy or of glibc's libm: the array kernels take every inner product
through ``simulation._dot`` (numpy's einsum) and the scalar layer through
``weights.dot``, which adds in einsum's order on Python floats; the
calibration's quadrature sums with the correctly rounded ``math.fsum``, and
no module calls BLAS or LAPACK (``tests/test_imports.py``).  Fresh interpreters, each under
another OpenBLAS kernel, with numpy's AVX-512 loops off or with glibc's FMA
and AVX2 variants masked, print the digests of the golden reports, of
``ci`` with every method on 40 values, of ``ydist`` and of a table2
poisson1 cell with exact ties, and they must equal this process's; the
variables act only on the child.  Run as a script, this file prints those
digests as JSON.
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
        "2aacd6b14c64707cfdcf387ec6f90a2836bf02365f516ff93297ea6853d760f2",
    "coverage/cdf/poisson1":
        "1a40dee9e48a032b22310e03892eef24c3f787a51dd076bde1e8d8e6dcb6ac75",
    "coverage/ecdf/normal01":
        "1e3ef837982f71ce46f24def9f6a4aa998b40798838c1f7184267bc1e72d420b",
    "coverage/ecdf/poisson1":
        "a8b9143079071d404bfbe0257dc8f09df94499d86a5542ff60d7afd766ae59ab",
    "coverage/finitepop/normal01":
        "a6b9575a87e1a11eb2e746924f4c1f584041a40d8bf0cb6dc400b81b6545b127",
    "coverage/finitepop/poisson1":
        "2cb846591a80c39ca6d8645d61afb0f0f273908e16a476e9bac3a9c1b63fcfac",
    "coverage/population/normal01":
        "0d409a28d11cc5358fca57b6c10237a1d2de46ec7190933bd1d47f9c06d0e7e9",
    "coverage/population/poisson1":
        "8be0b6be90943f539ede215e7cccbd4c261bc7299900a341c48a591d047d10c6",
    "coverage/sample/normal01":
        "7391aded4d4f145acd0c96fcf845216f912a6f02093e8fbb8cc10c8ab75c0983",
    "coverage/sample/poisson1":
        "07db7d1251ee3b13bcd61f990c05d13ff9f2ad3a2f6b7bee383d24d477c2592f",
    "coverage/superpop/normal01":
        "65dc661bc7161eda4ff154d2301ff93143b3282ce59f42612776681e98f5c541",
    "coverage/superpop/poisson1":
        "911558f9b5562c81bbbe5e137c985558425f7d3533068adfd3f3dfb783067921",
    "pivot_clt/normal01":
        "6a50ff0251dbdd4a58d888439a293839df2169e89b847ac1c6a5b3aaede3ac44",
    "pivot_clt/poisson1":
        "73a7e0bc4fd904eb8bb45972c2533454e976556c97d708bdc7782305f55a8a4c",
    "refined_ci/lognormal01":
        "8c9c73aeb40f499e80e8de6903f2975b164cf23e7481b0f3116265e5692248f4",
    "refined_ci/normal01/n2":
        "f6c9a094a49628bb78b497373a2ece18e35e086d664ca0ba31152c2a1b589402",
    "table1/exponential1/10":
        "35c867e2068c2ff7417692fae9253c96c4072d0d5d4d528a766d7ea2831b9d97",
    "table1/lognormal01/10":
        "212774c95db203642e0b191c3797f131c86ae1ae9a40139b6fd23d9942e23037",
    "table1/normal01/2":
        "a35e8abdddbc2c8e43b7c4ee4c6229d1e6441ee9f9074dd421d0f77586b7ecd0",
    "table1/poisson1/10":
        "7694cabf735c0a778851f8bfbb837ff22c740416809e3f24057301a101491355",
    "table2/exponential1/10":
        "0593bf65accdce31fc13c277a7beaf7e60ed2216e2feb61cacac39e1b06308c1",
    "table2/lognormal01/10":
        "be17da3f2fe76993ce051f8c7012c1a8a7313c056e7e09e140336289a71bdba7",
    "table2/normal01/2":
        "214237fb6901a52510b4867ebfd0562f0b1464ce309c758f9f1f4281e74c08fe",
    "table2/poisson1/10":
        "61e665216d75da8870f91c888107cbf9a0dec7061930e6f2fcf7e06480db5863",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    digest = hashlib.sha256(dumps(CASES[case]().to_dict()).encode()).hexdigest()
    assert digest == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_records_stream_layout(case):
    # every table cell and harness block reads its own PCG64DXSM stream and
    # draws every count row by draw_multinomial_batch
    assert CASES[case]().config["rng_layout"] == 6


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
    "ydist/B9/alpha0.1": ["ydist", "--B", "9", "--alpha", "0.1"],
    "ydist/B100": ["ydist", "--B", "100"],
}
CLI_GOLDEN = {
    "weights/n10m10": "32442deaa0fbc8fa44dbe1b6086e938dfeb0c577fded3477572346b4fb66a762",
    "weights/n7m30": "2e262910ac3acc45bf951ac8d85c4df6aab4a6c58ed512b1477b09f80786de19",
    "weights/n1m3": "3d0ba35a47c60612013d2b8620a666e873462678dbd8b39bdebf664c902a861c",
    "ci/population": "8180da9d687b1752e1a71af090f8f123a696fe0b3d43d81d8e8af7d6ac17b8f2",
    "ci/sample": "8ba1b2319e9cb786fe3f6f5788218d71031a6e7a78188739a84b0ff5ffdf4344",
    "ci/finitepop": "82141f78ab2d120cdcb9190cbe8f38944967a7bcbfcb7152b1bf74829ee43d9c",
    "ci/superpop": "dc79f85a132e6fb6272aa2eb473154b9868d268418e02efb768a02a88f942cba",
    "ci/ecdf": "43eca1bd134d4d47625887c400803979104680031f79b11fcbd9a253c84360a6",
    "ci/cdf": "65e39417dbf8cd95b4b1894c2bbfaa602844f2caa53505859b1833751f7a47ac",
    "ci/two/redraws": "dbce71164e4fa9e4877d4426f735aab16f433bee34d1ba9ed31e222e763a4838",
    "ydist/B9/alpha0.1": "e1145919cb1986cbded90bf3243d19f126e2da8704f4d7928a1b17c1aca128ac",
    "ydist/B100": "71927c48536d6e091b00eda185731a77349a940809e066d2495f62ad768af6cc",
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
    # (index counting, m <= 8n, as every other row), then the stream's next
    # draw, which pins the draws the row consumed: the counts alone read the
    # same at layout 5.
    rng = substream(2024, "table1.cell", 0)
    base = resolve_model("poisson1").draw_base(rng, 3 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.939b3b08d99a8p-2", "0x1.95ffd681b43e4p-1",
        "0x1.4dd9536b771b8p-3", "0x1.1f13095793698p-3"]
    assert draw_multinomial_batch(5, 5, 1, rng)[0].tolist() == [1, 0, 1, 1, 2]
    assert rng.random().hex() == "0x1.b747ab2fe8ab8p-3"


def test_table_cell_layout_unchanged():
    # A table2 cell of poisson1, n = m = 5, B = 2, 3 inner replicates, at
    # seed 2024, outer cell 0: the first base variates, then the first of
    # the 3 g* count rows (index counting, m <= 8n).
    rng = substream(2024, "table2.cell", 0)
    base = resolve_model("poisson1").draw_base(rng, 3 * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.72c38201d0fa8p-4", "0x1.32e8b9e62193ep-1",
        "0x1.af15adb606d60p-5", "0x1.bf8aa0fa8cd48p-2"]
    assert draw_multinomial_batch(5, 5, 3, rng)[0].tolist() == [2, 2, 0, 1, 0]


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
    assert counts[:2].tolist() == [[2, 2, 1, 0, 0], [2, 0, 2, 0, 1]]


SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ENVIRONMENTS = (
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2"},
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
