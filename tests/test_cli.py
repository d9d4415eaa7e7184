import json
import math
import xml.etree.ElementTree as ElementTree

import pytest

from octmoduli.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_gram_equilateral(capsys):
    code, doc = run_json(capsys, "gram", "--deficits", "2pi/3,2pi/3,2pi/3")
    assert code == 0 and doc["status"] == "ok"
    m = doc["payload"]["matrix"]
    for i in range(4):
        assert m[i][i] == 0.0
        for j in range(4):
            if i != j:
                assert m[i][j] == pytest.approx(0.8660254037844386, abs=1e-15)


def test_spectrum_command(capsys):
    code, doc = run_json(capsys, "spectrum", "--deficits", "pi,pi/2,pi/2")
    assert code == 0
    x = doc["payload"]["eigenvalues"]
    r2 = math.sqrt(2)
    assert x == pytest.approx([1 + r2, -1.0, -1.0, 1 - r2], abs=1e-14)
    assert doc["payload"]["signature"] == [1, 3]


def test_dihedral_preset(capsys):
    code, doc = run_json(capsys, "dihedral", "--deficits", "pi,pi/2,pi/2")
    assert code == 0
    angles = doc["payload"]["angles"]
    assert angles["ab"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert angles["cd"] == pytest.approx(math.pi / 2, abs=1e-12)
    for key in ("ac", "bd", "ad", "bc"):
        assert angles[key] == pytest.approx(math.pi / 4, abs=1e-12)


def test_dihedral_near_degenerate_is_half_deficit(capsys):
    # delta = (1e-9, pi, pi - 1e-9); the angle grammar has no "pi-1e-9" form
    deficits = ",".join(repr(x) for x in (1e-9, math.pi, math.pi - 1e-9))
    code, doc = run_json(capsys, "dihedral", "--deficits", deficits)
    assert code == 0
    d1, d2, d3 = doc["payload"]["deficits"]
    angles = doc["payload"]["angles"]
    assert angles["ab"] == angles["cd"] == d1 / 2
    assert angles["ac"] == angles["bd"] == d2 / 2
    assert angles["ad"] == angles["bc"] == d3 / 2


def test_volume_command(capsys):
    code, doc = run_json(capsys, "volume", "--deficits", "2pi/3,2pi/3,2pi/3")
    assert code == 0
    assert doc["payload"]["volume"] == pytest.approx(1.0149416064096536, abs=1e-9)


def test_volume_with_monte_carlo_block(capsys):
    args = ("volume", "--deficits", "2pi/3,2pi/3,2pi/3", "--mc", "20000", "--seed", "3")
    code, doc = run_json(capsys, *args)
    assert code == 0
    mc = doc["payload"]["monte_carlo"]
    assert mc["samples"] == 20000 and mc["seed"] == 3
    assert abs(mc["value"] - doc["payload"]["volume"]) <= 0.2


def test_embed_identity_basis(capsys):
    code, doc = run_json(capsys, "embed", "--vertices", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 0
    p = doc["payload"]
    assert p["chart"] == pytest.approx([0.8164965809277261] * 4, abs=1e-12)
    assert p["residual"] <= 1e-12
    assert p["deficits"] == pytest.approx([2 * math.pi / 3] * 3, abs=1e-12)


def test_embed_scaled_basis_residual(capsys):
    code, doc = run_json(capsys, "embed", "--vertices", "[[2,0,0],[0,1,0],[0,0,1]]")
    assert code == 0
    assert doc["payload"]["residual"] <= 1e-10


def test_embed_coplanar_error(capsys):
    code, doc = run_json(capsys, "embed", "--vertices", "[[1,0,0],[0,1,0],[1,1,0]]")
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["code"] == "DegenerateVertices"


def test_chart_command(capsys, tmp_path):
    svg_path = tmp_path / "net.svg"
    code, doc = run_json(capsys, "chart", "--deficits", "2pi/3,2pi/3,2pi/3",
                         "--chart", "1,1,1,1", "--svg", str(svg_path))
    assert code == 0
    p = doc["payload"]
    assert p["euler_characteristic"] == 2
    assert len(p["parallelograms"]) == 12
    for v in ("v1", "v2", "v3", "v1'", "v2'", "v3'"):
        assert p["cone_angles"][v] == pytest.approx(4 * math.pi / 3, abs=1e-9)
    for o in ("O1", "O2", "O3", "O4"):
        assert p["cone_angles"][o] == pytest.approx(2 * math.pi, abs=1e-9)
    assert p["area"] == pytest.approx(6 * math.sqrt(3), abs=1e-12)
    tree = ElementTree.parse(svg_path)
    ns = "{http://www.w3.org/2000/svg}"
    assert len(tree.getroot().findall(f".//{ns}polygon")) == 12


def test_chart_rejects_zero_coordinate(capsys):
    code, doc = run_json(capsys, "chart", "--deficits", "2pi/3,2pi/3,2pi/3",
                         "--chart", "1,1,0,1")
    assert code == 1
    assert doc["payload"]["code"] == "NonPositiveChart"


def test_distance_presets(capsys):
    code, doc = run_json(capsys, "distance", "--deficits", "2pi/3,2pi/3,2pi/3",
                         "--chart1", "1,1,1,1", "--chart2", "1,1,1,1")
    assert code == 0 and doc["payload"]["distance"] == 0.0
    code, doc = run_json(capsys, "distance", "--deficits", "2pi/3,2pi/3,2pi/3",
                         "--chart1", "1,1,1,1", "--chart2", "2,1,1,1")
    assert code == 0
    assert doc["payload"]["distance"] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)
    assert len(doc["payload"]["klein_points"]) == 2


def test_canon_presets(capsys):
    code, doc = run_json(capsys, "canon", "--deficits", "2pi/3,2pi/3,2pi/3",
                         "--chart", "3,1,2,4")
    assert code == 0
    assert doc["payload"]["group_kind"] == "full_S4"
    assert doc["payload"]["canonical_chart"] == [1.0, 2.0, 3.0, 4.0]

    code, doc = run_json(capsys, "canon", "--deficits", "pi,pi/2,pi/2",
                         "--chart", "2,1,4,3")
    assert code == 0
    assert doc["payload"]["group_kind"] == "dihedral_D2"
    assert doc["payload"]["canonical_chart"] == [1.0, 2.0, 3.0, 4.0]

    code, doc = run_json(capsys, "canon", "--deficits", "1.0,2.0,3.2831853071795862",
                         "--chart", "3,1,2,4")
    assert code == 0
    assert doc["payload"]["group_kind"] == "trivial"
    assert doc["payload"]["canonical_chart"] == [3.0, 1.0, 2.0, 4.0]


def test_sweep_emits_json_lines(capsys):
    code, out = run_cli(capsys, "sweep", "--steps", "6")
    assert code == 0
    lines = out.strip().split("\n")
    # interior grid points (i, j >= 1, i + j <= 5)
    assert len(lines) == 10
    for line in lines:
        doc = json.loads(line)
        assert doc["status"] == "ok"
        assert set(doc["payload"]) == {"deficits", "volume", "dihedral"}


def test_angle_grammar(capsys):
    code, doc = run_json(capsys, "volume", "--deficits", "120,120,120", "--degrees")
    assert code == 0
    assert doc["payload"]["volume"] == pytest.approx(1.0149416064096536, abs=1e-9)
    code, doc = run_json(capsys, "volume", "--deficits",
                         "2.0943951023931953,2pi/3,2pi/3")
    assert code == 0


def test_validation_error_exit_codes(capsys):
    code, doc = run_json(capsys, "volume", "--deficits", "pi,pi,pi")
    assert code == 1
    assert doc["payload"]["code"] == "SumNotTwoPi"
    code, doc = run_json(capsys, "volume", "--deficits", "garbage,pi,pi")
    assert code == 1
    code, doc = run_json(capsys, "nonsense")
    assert code == 1


def test_outputs_byte_stable(capsys):
    presets = [
        ("gram", "--deficits", "2pi/3,2pi/3,2pi/3"),
        ("dihedral", "--deficits", "pi,pi/2,pi/2"),
        ("volume", "--deficits", "2pi/3,2pi/3,2pi/3"),
        ("embed", "--vertices", "[[1,0,0],[0,1,0],[0,0,1]]"),
        ("distance", "--deficits", "2pi/3,2pi/3,2pi/3",
         "--chart1", "1,1,1,1", "--chart2", "2,1,1,1"),
        ("canon", "--deficits", "pi,pi/2,pi/2", "--chart", "2,1,4,3"),
    ]
    for argv in presets:
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("OCTMODULI_SEED", "17")
    args = ("volume", "--deficits", "2pi/3,2pi/3,2pi/3", "--mc", "20000")
    code, doc = run_json(capsys, *args)
    assert code == 0 and doc["payload"]["monte_carlo"]["seed"] == 17
    _, explicit = run_json(capsys, *args, "--seed", "17")
    assert doc == explicit


def test_monte_carlo_worker_count_stable(capsys):
    base = ("volume", "--deficits", "2pi/3,2pi/3,2pi/3",
            "--mc", "130000", "--seed", "11")
    _, one = run_cli(capsys, *base, "--workers", "1")
    _, four = run_cli(capsys, *base, "--workers", "4")
    assert one == four
