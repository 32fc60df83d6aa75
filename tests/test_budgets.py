"""Every exponential solver refuses against one module constant.

At the limit the solver runs; one over it, it refuses with a message that
names the constant and an overshoot of 1, and its CLI command exits with
code 2.  Each case lowers its constant to the need of a small input.
"""

import pytest

from mcsg import cli, collinear, core, exact2, oracle

CASES = {
    # constant: (module, input, its need, solver, CLI words before --input or None)
    "M_LIMIT": (exact2, core.generate_random(5, 2, 1.0, 0), 5,
                lambda inst: exact2.solve_pair(exact2.project_pair(inst, 1, 2)), ["exact2"]),
    "MAX_CANDIDATE_EDGES": (oracle, core.generate_random(5, 1, 0.0, 0), 10,
                            oracle.brute_force, ["solve", "--mode", "oracle"]),
    # the naive enumerator only cross-checks the oracle and has no command
    "NAIVE_MAX_EDGES": (oracle, core.generate_random(4, 1, 0.0, 0), 6,
                        oracle.naive_brute_force, None),
    "K_GUARD": (collinear, core.generate_collinear(6, 3, 0.3, 1), 3,
                collinear.dp_solve, ["collinear"]),
}


@pytest.mark.parametrize("name", CASES)
def test_budget_boundary(name, monkeypatch, tmp_path, capsys):
    module, inst, need, solve, command = CASES[name]
    path = tmp_path / "inst.json"
    path.write_text(core.instance_to_json(inst))
    monkeypatch.setattr(module, name, need)
    solve(inst)
    if command:
        assert cli.main([*command, "--input", str(path)]) == 0
    monkeypatch.setattr(module, name, need - 1)
    constant = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
    with pytest.raises(core.RefusalError) as refused:
        solve(inst)
    assert f"needs {need} " in str(refused.value)
    assert f", 1 over the budget of {need - 1} " in str(refused.value)
    assert str(refused.value).endswith(f"({constant})")
    if command:
        capsys.readouterr()
        assert cli.main([*command, "--input", str(path)]) == 2
        assert f"({constant})" in capsys.readouterr().err
