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
table2 outer cell's stream and of a harness block's stream (layout 7): the
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

from pivotboot import simulation
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
    # blocks of 16, 16 and 8 replicates (2**14 // 1000 = 16)
    "pivot_clt/normal01/n1000": lambda: pivot_clt_frequencies(
        list(PivotKind), "normal01", 1000, 1000, 1.644854, 40, 13, x=0.0),
    "refined_ci/lognormal01": lambda: refined_ci_coverage("lognormal01", 20, 20, 9, 0.1, 60, 14),
    "refined_ci/normal01/n2": lambda: refined_ci_coverage("normal01", 2, 2, 4, 0.2, 60, 14),
}

GOLDEN = {
    "coverage/cdf/normal01":
        "724a0b9fc5af36452302b0c42041310f8781949d1bec379a23ca3873a3164632",
    "coverage/cdf/poisson1":
        "41f1613a7bea0ab6702430ac92df0c64390f87697886b439f0a1edfa4532b127",
    "coverage/ecdf/normal01":
        "b06f1be754b874f0c5db1fdd39fc2b3fe3971703e058da7b50a67f04e9a81530",
    "coverage/ecdf/poisson1":
        "47740dd3a9ffb062e3c3a436525e8cd15af28db2ebb03d2420bb42b2933f0b8f",
    "coverage/finitepop/normal01":
        "1a238b51f01618011f9fa11ea5910e4d6f589f192a6f9bcbf98e362d7262de0f",
    "coverage/finitepop/poisson1":
        "77740dc96444dda9a75a45293342d1db394c3dc25b9ae0e04259fa2917ed64d9",
    "coverage/population/normal01":
        "48611ec66288bcefc8e7303b0f3d06ae05c97fe867eb3ddcba94b50f2353b3e5",
    "coverage/population/poisson1":
        "ba59b04e10afb8cd46ef054675098905bd387e52cad1062b66c6d82f7c15e25c",
    "coverage/sample/normal01":
        "3e1a99e2fb3ae347658873bcd28cf5e2ff2b2163cd561b58bdb989e334337e70",
    "coverage/sample/poisson1":
        "303d6fcaeb008d6ec40181b7e29d81643cf18b72ab36b582c008709f464bbfcb",
    "coverage/superpop/normal01":
        "f080d577d87f3000f099cfb5103da45e97851433ae91c52a8d6677b718d2ed8d",
    "coverage/superpop/poisson1":
        "a2b3f61b1cf77056626f74b11880b7a474dfeebb8001abc1f3c83ead8968f495",
    "pivot_clt/normal01":
        "41bf56013eb77f6ac6637ef91f0687345813eb893991979c8e8d1dc7c863b2c1",
    "pivot_clt/poisson1":
        "8ffdb70e33d49607f1682178f0f9cecfa088191e72f230276773b7ce24c618c9",
    "pivot_clt/normal01/n1000":
        "b3cfaa2f224fb7f50a5e6c760feb668b197cb8a0514a58027afa94427958caa6",
    "refined_ci/lognormal01":
        "1ede3cf3c8d47835873e79142f3f31b8c01adb6b263c874d2a0ce79f8d204b89",
    "refined_ci/normal01/n2":
        "1f8fc0d60776613cc2bfebcc67bc429781122f0a084f4d6c929839514900d378",
    "table1/exponential1/10":
        "95511a8d09f0029bf7972df57b5ce4abc5f8937add1a94780b768057092fdf81",
    "table1/lognormal01/10":
        "022157865189893b0f93992d57f673faf28c3584f514ad7cf8d5f1c8cc675747",
    "table1/normal01/2":
        "e9b97a7e7725600e4f94566d6e4009b734ec03ff5fb38d41df672620df617213",
    "table1/poisson1/10":
        "38a2fc29582283775bceb8f08eaece3043f84bb0a1063b4db42c64ab4a87bf3b",
    "table2/exponential1/10":
        "b6ff9fef3eddc3fda8756e918fa9b1938bcd510929c19bdb4c7670e45e7e22d0",
    "table2/lognormal01/10":
        "290f35943e3851f30104e7f4c62b1254711c43181ebae585dc4ae497961af3c4",
    "table2/normal01/2":
        "d2b1a5a5a274297f30b8874df603e3fafc8b6f8d7cca10e53b47073aff2beb2c",
    "table2/poisson1/10":
        "9ee248399bcc05175e966f175f5a54d60d119de3146a996aa240d5aaf16204b9",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    digest = hashlib.sha256(dumps(CASES[case]().to_dict()).encode()).hexdigest()
    assert digest == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_records_stream_layout(case):
    # every table cell and harness block reads its own PCG64DXSM stream and
    # draws every count row by draw_multinomial_batch
    assert CASES[case]().config["rng_layout"] == 7


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
    "weights/n10m10": "305b8e36a8392a2fb756fa0b6f388140f53d3dd7ba793bf862e6f4e0f7da1e7a",
    "weights/n7m30": "0160143956b3e68be3e5f665e5f45772cf90cb515bb0082d4459e17cd157afa6",
    "weights/n1m3": "7dbc13f3b25d2eafa4449c01a5e0c48114fe3f9dc1e0db500b27613c29a01224",
    "ci/population": "5e0a053ff2ccaada6619b4ff2a0671f867f082ee7cace9a68374909904bfd06a",
    "ci/sample": "4907ce5aa346438609441d2ba6e4de1b938534e954b5515bfedce5db8321d07e",
    "ci/finitepop": "a47f59dc01a091fbd1d3a5894251e36257f12247149dd9a753bc82db55afc70a",
    "ci/superpop": "45d0683bd6edadcc1eaa92d9303d9dc254ab3ace787dc12d2babc84df521c402",
    "ci/ecdf": "8019658722b57ad43e8f8be7c1774232c9d7515dad1a2d4dc66dbe1b964e626f",
    "ci/cdf": "070dc1cf7195cd6692fc3f2af3452cf25fb4332e79280feeb7741b0272f45ac0",
    "ci/two/redraws": "686ae0e6cd9445f7322a68d0a494350d7c58af8b8052e6053c43ec372a694484",
    "ydist/B9/alpha0.1": "7bdfa50220309b461e80f3c5ba042b2d7759938389265068fe3383d016f71616",
    "ydist/B100": "ea16f8749d73e479e1a4c5b331b28eed8a942f746835d54979d15f9930818086",
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_bytes_unchanged(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the manifest records the data file's path
    for name, text in CLI_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(CLI_CASES[case] + CLI_PINNED) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_GOLDEN[case]


def test_block_entries_move_only_the_harnesses(tmp_path, monkeypatch, capsys):
    # Layout 7 changed only how many replicates a harness block holds: the
    # table cells and the CLI's own streams read no harness block.
    monkeypatch.chdir(tmp_path)
    for name, text in CLI_FILES.items():
        (tmp_path / name).write_text(text)

    def outputs():
        tables = [dumps(run().to_dict())
                  for case, run in CASES.items() if case.startswith("table")]
        drawn = []
        for case, argv in CLI_CASES.items():
            if case.startswith(("weights/", "ci/")):  # weights, and ci with drawn weights
                assert main(argv + CLI_PINNED) == 0
                drawn.append(capsys.readouterr().out)
        return tables, drawn, dumps(CASES["pivot_clt/normal01"]().to_dict())

    before = outputs()
    monkeypatch.setattr(simulation, "BLOCK_ENTRIES", 32 * 20)  # layout 6's blocks at n = 20
    after = outputs()
    assert after[:2] == before[:2] and len(after[0]) == 8 and len(after[1]) == 10
    assert after[2] != before[2]


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
    # B = 3, at seed 2024, block 0 of 2**14 // 5 = 3,276 replicates: the
    # first base variates, then the first two count rows (index counting,
    # m <= 8n), then the stream's next draw, which pins the draws they took.
    rng = substream(2024, "refined_ci", 0)
    size = simulation.BLOCK_ENTRIES // 5
    assert size == 3276
    base = resolve_model("lognormal01").draw_base(rng, size * 5)
    assert [float.hex(v) for v in base[:4]] == [
        "0x1.00b7dbf3145c2p-1", "0x1.1913ee85110bcp-1",
        "0x1.088ed6532a880p-3", "-0x1.24bbe11c6b372p+0"]
    counts = draw_multinomial_batch(5, 5, size * 3, rng)
    assert counts[:2].tolist() == [[2, 2, 1, 0, 0], [0, 2, 1, 0, 2]]
    assert rng.random().hex() == "0x1.6ccbb3358af30p-5"


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
