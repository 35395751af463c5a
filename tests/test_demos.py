import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, headlines", [
    ("elliptic_gallery.py", [
        "degree 1: type (1,), representatives [0]",
        "  unimodular False, injectivity refuted, faithful False",
        "  identified points: x = 3 and x = 9",
        "degree 3: type (3,), representatives [0, 1, 2]",
        "  on [0, 2]  theta_0: 0*x,  theta_1: 1*x + 2,  theta_2: -1*x + 2",
        "  image polygon: vertices (4, 0) (-4, -4) (0, 4)",
        "  edge lattice lengths (3, 3, 3, 3) (period / degree = 3)",
    ]),
    ("lift_roundtrip.py", [
        "tropicalized datum: G = 36, ell = (0)",
        "lift of b = 1: support [-11, -8, -5, -2, 1, 4, 7, 10, 13], "
        "val matches theta: True",
        "  residue multipliers (1, 1), samples 8, verified True",
        "c_1^2 equals the original cocycle value: True",
    ]),
    ("plane_certificates.py", [
        "type (3, 3) with 9 theta functions",
        "16 linearity cells over the fundamental domain",
        "all slope-difference matrices unimodular: True",
        "grid injectivity scan: sampled-ok",
        "good decomposition into 4 pieces",
        "every certificate passed the shared-argmin verification",
    ]),
])
def test_demo_prints_its_headlines(name, headlines, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for line in headlines:
        assert line in lines
