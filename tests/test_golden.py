"""Golden report hashes: the sha256 of ``dumps(report.to_dict())`` for small
fixed-seed runs of every Monte Carlo harness.

A refactor of the harnesses, the weight draws or the normal quantile must
leave these bytes unchanged; a deliberate change of the random-stream
layout shows up here as an explicit diff of the hashes.  The designs are
small enough to include degenerate data, degenerate weights and weight
redraws (n = 2), so the draw order of the redraw loops is pinned too.

The same holds for the CLI's own streams (``cli.weights``, ``cli.ci``),
pinned through the stdout of ``pivotboot weights`` and of ``pivotboot ci``
with drawn weights, and for the stream layout itself: the first draws of
``substream`` at zero to four indices, and the first draws of a table2
outer cell's stream (layout 2: the cell's base variates, then its count
rows).
"""

import hashlib

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
        "56714e7cd381d5999959068f92d4f76b657a0a09407442b44ffbc43df2d1423f",
    "coverage/cdf/poisson1":
        "309f0f164301e7eef3f65681d7517a7e3d97fe3d3a874e59f3a756f61a8b4f87",
    "coverage/ecdf/normal01":
        "b1a7d7003481b368effa8e2a1333381071ec0f4180a4c1d3573dfceee0b88cfb",
    "coverage/ecdf/poisson1":
        "d29e6f98ab0469cfea225dbae737ab2ba23d639ccfcbb97a4c807c71ac0c01b8",
    "coverage/finitepop/normal01":
        "844a9de37605dde7e60fbbf614d99c20a7e2d8e2f023666854c63b75d2645975",
    "coverage/finitepop/poisson1":
        "b786e864d71580ceb5f994236a9f72091451c5ec52938eaa23161327f829add8",
    "coverage/population/normal01":
        "89ad305e10773bed66a284bd6be9a166ba7ca82f541e70c2761136f17c17d975",
    "coverage/population/poisson1":
        "731c99fb19bfc67458d0ec4082c800747bf559b64b5e2c81d706a5d7548047f4",
    "coverage/sample/normal01":
        "47dd2326ff0a9ad2fbfa8746edcdabdd26c99e32dd33da3d562197da019363fd",
    "coverage/sample/poisson1":
        "df0ff49a1da56f27fa453958218c8fb2e899307e1231e5bd3ce9df937a620cad",
    "coverage/superpop/normal01":
        "10ee6529e060e5a6e5aed6d094e07caee88e4d1c4509aa7becc470b34d93a3c0",
    "coverage/superpop/poisson1":
        "a6210d372786f052c47a18c244372180149b835bdf8a9593b16ceb01fc291b53",
    "pivot_clt/normal01":
        "b12435e2affd8ddf062f23ce41075a68f8a5c1243514f9fa0df6735f75350a38",
    "pivot_clt/poisson1":
        "1934fdb967116caeeb478b9497376c0bb35c4ef8aaf64dc717d4703af4ead1e4",
    "refined_ci/lognormal01":
        "0b084c6a6cf842e3b721b3d3535545d2995e6bd82e10cdb09bdfee788bb7797e",
    "refined_ci/normal01/n2":
        "3c4fec1f0691807bcfeaeed1af18e32b12f08950f58b3a70f6de5708399ba5d0",
    "table1/exponential1/10":
        "a78d2269da6dc2194a64ae56b62aa53848daedf7108cbace3dc007d6cc989115",
    "table1/lognormal01/10":
        "de6fdb10018ee9774fc4ee542aef1d706be9218743037159e8aaf075c46db1fb",
    "table1/normal01/2":
        "e255e7d227e1a3dee0719f5283e949e9e8e6f8f5dd66782b8efcded69c863da0",
    "table1/poisson1/10":
        "bc54cb5f56ed64bc208c09a060728997c174314358cc474d66c7e5002aa9890c",
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
