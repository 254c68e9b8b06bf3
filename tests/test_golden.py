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
        "e8af233ed0a8278a1e7d77166afb6c55d02b400d58248de9ec66359b5c78567d",
    "coverage/cdf/poisson1":
        "9083890a50fdecf1d62352bf684d7ef0ea9d94fb2263fb49e63a7718ce9e819c",
    "coverage/ecdf/normal01":
        "61dcbcefff8e56b209de3a63d16ea3b583aa9fda08c503b2d42b38d425d5e364",
    "coverage/ecdf/poisson1":
        "e46a4b604b2ef71474ca073f2ef8667536bc9765194ad5a42cd34dbf2694c5a7",
    "coverage/finitepop/normal01":
        "e33fa4031ef70420a30bb20b952bf7b574ac5d64d3c0270101d2975c575c5c8f",
    "coverage/finitepop/poisson1":
        "470595172ce396de8af6d4cb8673863394dc30ed4856285fb9fd32822932c129",
    "coverage/population/normal01":
        "2b7a5dc12f0961f002331ba6e12f84af953f770cd4d76fbcc80b531adace5118",
    "coverage/population/poisson1":
        "4ce2416d60b01d8d7cf7da9ee8ad15e0387e12aab8ae87e87efee89630426111",
    "coverage/sample/normal01":
        "96725530f38692e1a7aee2f71523b4d0b754971b7b9566a2588583279a9c767f",
    "coverage/sample/poisson1":
        "36057821e3d2d06bc2d39cfe80b576a2bb392bcfff54e52f0eb9611ac38de3b3",
    "coverage/superpop/normal01":
        "ee24f83f8c879d9213af44a6c5453e7afc15b5bdafbeb9b0590a1a92c10cbd99",
    "coverage/superpop/poisson1":
        "c38eb1603497121286092365ef19d1a49002c09fea9d59c10e3a3f96a18cdc0a",
    "pivot_clt/normal01":
        "037e8e4e9781512caf4ff18f9431857ff97fe3534c3a682183240ba5757b3734",
    "pivot_clt/poisson1":
        "e191d646d923582817dfcb4aa763301c0f49a68efe359ae0f15e4085fd134082",
    "refined_ci/lognormal01":
        "9bd483b8a3a27bf51efd81cefebadeabbcbf5dde45688f6b6ff88aa774b015b8",
    "refined_ci/normal01/n2":
        "69d570a9248f91922d9db26f4eee78600200e32a8d11cab8a307a5c99ec4c2e7",
    "table1/exponential1/10":
        "26f98c4b4d33ed17fe80c9e535e29beb1c55cba7ba5ddce27e568d0c9af3fed7",
    "table1/lognormal01/10":
        "7a1c3dcd63f9db6d61ecde60c8cdca8d2561493dfd03b18ed8b786a500b07141",
    "table1/normal01/2":
        "e96d78b964db9b9bec3dee07d215c899dd69003c749dfc9f696bca11f86d3d02",
    "table1/poisson1/10":
        "9a5ab77fb096b16c470437b442b197f4fc926e10b92adc72a8f29a671c9817e1",
    "table2/exponential1/10":
        "4eca4270f393151c655d82c9df5006df3346b3c7291aeed39156a291c98cb65e",
    "table2/lognormal01/10":
        "58676d490cffab587456e7047de4ff0a1465f02a74e9d1c7e37af58c97bbce04",
    "table2/normal01/2":
        "ec94cf0432e8833b523c271acbd22ddee542c438f129c01e91f954978a26e5ca",
    "table2/poisson1/10":
        "596d15106d69d39de25b5b4f2d5c9ea8239fffc1983b81a7bf8600097d11eaa9",
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
    "ci/population": "f1235d824e875664a25bcc972a1109dbb8f21d32ed97b5cb3884ff3b2e222b1d",
    "ci/sample": "0d61caf15f8e795c5317d7fc31659ce4b12d832c09bf703d304270bc69b7108b",
    "ci/finitepop": "dd682df3352623871829a18bffea9464e27924d800e65c8ab892e03e5bdf7829",
    "ci/superpop": "674db45cb0efb40048530a72704e25c90dbc93a42e6d281c5da152f34d1aaea6",
    "ci/ecdf": "ccab9f91a89e53d22b1d091225e8a910b255c57c98c878295fb968e4d5756cd2",
    "ci/cdf": "05b9cbb0526a266c18b5f2dfd8a535e3adb8120eb5d8e64f7a6510abf6921f03",
    "ci/two/redraws": "69cf84f1895bb1e4aad3529b264a02c4350e94bef5a981571417ae55a8e92621",
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
