"""Every exponential solver refuses against one module constant.

At the limit the solver runs; one over it, it refuses with a message that
names the constant and an overshoot of 1, and its CLI command exits with
code 2 without writing its output file.  Each case lowers its constant to
the need of a small input.
"""

import pytest

from mcsg import cli, collinear, core, exact2, gadgets, oracle

CASES = {
    # constant: (module, input (an instance or a CNF text), its need, solver,
    #            CLI words before the input file, writing out.json)
    "M_LIMIT": (exact2, core.generate_random(5, 2, 1.0, 0), 5,
                lambda inst: exact2.solve_pair(exact2.project_pair(inst, 1, 2)),
                ["exact2", "--output", "out.json", "--input"]),
    "MAX_CANDIDATE_EDGES": (oracle, core.generate_random(5, 1, 0.0, 0), 10, oracle.brute_force,
                            ["solve", "--mode", "oracle", "--output", "out.json", "--input"]),
    "K_GUARD": (collinear, core.generate_collinear(6, 3, 0.3, 1), 3,
                collinear.dp_solve, ["collinear", "--output", "out.json", "--input"]),
    # the r = 2 gadget of one clause on two variables: 917,258 points
    "MAX_CHAIN_STEPS": (gadgets, "p mcnf 2 1\n+ 1 2\n", 917_310,
                        lambda text: gadgets.build_gadget(gadgets.parse_cnf(text)).instance,
                        ["gen", "gadget", "--out", "out.json", "--cnf"]),
}


@pytest.mark.parametrize("name", CASES)
def test_budget_boundary(name, monkeypatch, tmp_path, capsys):
    module, inst, need, solve, command = CASES[name]
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input"
    path.write_text(inst if isinstance(inst, str) else core.instance_to_json(inst))
    out = tmp_path / "out.json"
    monkeypatch.setattr(module, name, need)
    solve(inst)
    assert cli.main([*command, str(path)]) == 0
    assert out.exists()
    out.unlink()
    monkeypatch.setattr(module, name, need - 1)
    constant = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
    with pytest.raises(core.RefusalError) as refused:
        solve(inst)
    assert f"needs {need} " in str(refused.value)
    assert f", 1 over the budget of {need - 1} " in str(refused.value)
    assert str(refused.value).endswith(f"({constant})")
    capsys.readouterr()
    assert cli.main([*command, str(path)]) == 2
    assert f"({constant})" in capsys.readouterr().err
    assert not out.exists()
