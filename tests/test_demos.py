import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# stdout of each demo, pinned so that a change to any route it prints shows here
DEMOS = {
    "antipode_demo.py": """\
tertispecial: True
Gamma(E, w)      = M(1,3) + M(3,1) + M(1,1,2) + M(1,2,1)
S(Gamma(E, w))   = -M(2,2) - M(3,1) - M(1,2,1) - M(2,1,1)
(-1)^|E| Gamma'  = -M(2,2) - M(3,1) - M(1,2,1) - M(2,1,1)
identity holds: True
""",
    "reciprocity_demo.py": """\
group order: 6
binomial coefficients: ['0', '1', '8', '29', '52', '45', '15']

 q  Omega(q)  orbits  Omega(-q)  coeven'
 1         1       1          0       0
 2        10      10          1       1
 3        56      56         10      10
 4       220     220         56      56
 5       680     680        220     220

reciprocity holds at q=1..5: True
""",
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_stdout(capsys, script):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out == DEMOS[script]
