import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from getk import boxes, catalog, cli, fermion, purity, states
from getk.operators import QuantumState


class TestBuiltins:
    def test_bell_conventions(self):
        s = 1 / np.sqrt(2)
        # one-particle pair states
        assert np.allclose(states.builtin_state("bell:phi+").vector, [0, s, s, 0])
        assert np.allclose(states.builtin_state("bell:phi-").vector, [0, s, -s, 0])
        # number superpositions
        assert np.allclose(states.builtin_state("bell:psi+").vector, [s, 0, 0, s])
        assert np.allclose(states.builtin_state("bell:psi-").vector, [s, 0, 0, -s])

    def test_ghz(self):
        v = states.builtin_state("ghz:3").vector
        assert v[0] == pytest.approx(1 / np.sqrt(2))
        assert v[7] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(v[1:7]) == 0.0

    def test_w(self):
        v = states.builtin_state("w:3").vector
        for idx in (1, 2, 4):
            assert v[idx] == pytest.approx(1 / np.sqrt(3))

    def test_biseparable_layouts(self):
        s = 1 / np.sqrt(2)
        v12 = states.builtin_state("bisep:12").vector
        assert v12[0b000] == pytest.approx(s) and v12[0b110] == pytest.approx(s)
        v13 = states.builtin_state("bisep:13").vector
        assert v13[0b000] == pytest.approx(s) and v13[0b101] == pytest.approx(s)
        v23 = states.builtin_state("bisep:23").vector
        assert v23[0b000] == pytest.approx(s) and v23[0b011] == pytest.approx(s)

    def test_spin_states(self):
        st = states.builtin_state("spin:3,0")
        assert st.dim == 7
        assert st.vector[3] == 1.0
        st = states.builtin_state("spin:3/2,1/2")
        assert st.dim == 4 and st.vector[1] == 1.0

    def test_fock_states(self):
        assert states.builtin_state("fock:m2:10").vector[2] == 1.0

    def test_unknown_names(self):
        for bad in ("bell:chi+", "spin:0.3,0", "fock:m2:02", "nonsense:1"):
            with pytest.raises(states.StateParseError):
                states.builtin_state(bad)


class TestStateFiles:
    @pytest.mark.parametrize("name", states.BUILTIN_EXAMPLES)
    def test_round_trip_fidelity(self, name):
        st = states.builtin_state(name)
        back = states.state_from_json_dict(states.state_to_json_dict(st))
        assert back.fidelity(st) == pytest.approx(1.0, abs=1e-12)

    def test_density_round_trip(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        st = QuantumState(rho=rho)
        back = states.state_from_json_dict(states.state_to_json_dict(st))
        assert np.max(np.abs(back.density() - rho)) < 1e-15

    def test_load_from_file(self, tmp_path):
        st = states.builtin_state("ghz:3")
        path = tmp_path / "state.json"
        path.write_text(json.dumps(states.state_to_json_dict(st)))
        loaded = states.load_state(str(path))
        assert loaded.fidelity(st) == pytest.approx(1.0, abs=1e-12)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(states.StateParseError):
            states.load_state(str(path))
        path.write_text(json.dumps({"dim": 3, "kind": "pure", "amplitudes": [[1, 0]]}))
        with pytest.raises(states.StateParseError):
            states.load_state(str(path))

    def test_missing_file(self):
        with pytest.raises(states.StateParseError):
            states.load_state("/no/such/file.json")


class TestNumberTokens:
    def test_forms(self):
        assert states.parse_number_token("3/2") == 1.5
        assert states.parse_number_token(" 2 ") == 2.0
        assert states.parse_number_token("0.5") == 0.5

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            states.parse_number_token("3/0")

    def test_catalog_uses_the_same_parser(self):
        assert catalog.named_algebra("su2-spin:3/2") is catalog.spin_algebra(1.5)


SRC = str(Path(__file__).resolve().parents[1] / "src")

# Starts a command and prints its peak RSS (KiB) as the last stderr line.  The
# command is a grandchild of the test process: a child's peak RSS counts the
# memory of the process it was forked from, and this small launcher holds little.
_LAUNCHER = ("import os, subprocess, sys\n"
             "child = subprocess.Popen(sys.argv[1:])\n"
             "_, status, usage = os.wait4(child.pid, 0)\n"
             "print(usage.ru_maxrss, file=sys.stderr)\n"
             "sys.exit(os.waitstatus_to_exitcode(status))\n")


def _run_getk(*argv, rss=False):
    """``getk *argv`` in a fresh process; with ``rss`` the last stderr line is its peak RSS."""
    cmd = [sys.executable, "-m", "getk.cli", *argv]
    if rss:
        cmd = [sys.executable, "-c", _LAUNCHER, *cmd]
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPurityCommand:
    def test_ghz_omega1(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "ghz:3", "--algebra", "omega1")
        assert code == 0
        assert "rescaled=0\n" in out

    def test_w_pair_reading_twelve_digits(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "w:3",
                               "--algebra", "omega2-paper-values")
        assert code == 0
        assert "rescaled=0.407407407407\n" in out

    def test_psi_plus_u2(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "bell:psi+", "--algebra", "u2")
        assert code == 0
        assert "rescaled=0\n" in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "ghz:3",
                               "--algebra", "omega1", "--json")
        record = json.loads(out)
        assert record["rescaled"] == 0.0
        assert record["algebra"] == "omega1"

    def test_explicit_rescale_value(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "ghz:3",
                               "--algebra", "omega1", "--rescale", "0.375")
        assert code == 0 and "max_reference=0.375" in out

    @pytest.mark.parametrize("state, algebra, lines", [
        ("bell:phi+", "omega-prime-loc", ["rescaled=1", "max_reference=0.5"]),
        ("w:3", "omega3", ["rescaled=0.666666666667", "max_reference=0.375"]),
        ("w:3", "omega1", ["rescaled=0.111111111111", "max_reference=0.375"]),
    ])
    def test_numerical_reference_is_exact(self, capsys, state, algebra, lines):
        # omega1 has an analytic maximum; --rescale auto forces the numerical one
        extra = ["--rescale", "auto"] if algebra == "omega1" else []
        code, out, _ = run_cli(capsys, "purity", "--state", state, "--algebra", algebra, *extra)
        assert code == 0
        assert all(line in out.splitlines() for line in lines)

    def test_rescale_analytic_unavailable(self, capsys):
        code, _, err = run_cli(capsys, "purity", "--state", "bell:psi+",
                               "--algebra", "omega-prime-loc", "--rescale", "analytic")
        assert code == 2 and "--rescale" in err

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "purity", "--state", "w:3", "--algebra", "omega3")
        _, out2, _ = run_cli(capsys, "purity", "--state", "w:3", "--algebra", "omega3")
        assert out1 == out2

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "purity", "--state", "bell:xx", "--algebra", "omega1")
        assert code == 2 and "state" in err
        code, _, err = run_cli(capsys, "purity", "--state", "ghz:3", "--algebra", "omega9")
        assert code == 2 and "algebra" in err

    def test_dimension_mismatch_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "purity", "--state", "bell:phi+", "--algebra", "omega1")
        assert code == 3 and "dimension" in err.lower()

    @pytest.mark.parametrize("command", ["purity", "classify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_rescale_exit_2(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "--state", "w:3", "--algebra", "omega1",
                                 "--rescale", value)
        assert code == 2 and out == "" and "positive finite" in err

    def test_zero_denominator_in_names_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "purity", "--state", "spin:3/0,0",
                                 "--algebra", "su2-spin:3")
        assert code == 2 and out == "" and "state" in err
        code, out, err = run_cli(capsys, "purity", "--state", "w:3", "--algebra", "su2-spin:1/0")
        assert code == 2 and out == "" and "algebra" in err

    @pytest.mark.parametrize("state, algebra", [
        ("ghz:40", "omega1"), ("w:40", "omega1"),
        ("spin:1e9,0", "su2-spin:1"), ("w:3", "su2-spin:1e9"),
        ("spin:inf,0", "su2-spin:1"), ("w:3", "su2-spin:inf"),
        ("ghz:3", "local:11x2"), ("ghz:3", "local:1000000000x2"),
    ])
    def test_oversized_exit_2_before_allocating(self, capsys, state, algebra):
        # each would ask numpy for gigabytes or more if the cap fired late
        code, out, err = run_cli(capsys, "purity", "--state", state, "--algebra", algebra)
        assert code == 2 and out == "" and f"supported {catalog.MAX_DIM}" in err

    @pytest.mark.parametrize("state, algebra", [("spin:nan,0", "su2-spin:1"),
                                                ("w:3", "su2-spin:nan")])
    def test_nan_spin_exit_2(self, capsys, state, algebra):
        code, out, err = run_cli(capsys, "purity", "--state", state, "--algebra", algebra)
        assert code == 2 and out == "" and "nonnegative half-integer, got nan" in err

    @pytest.mark.parametrize("command", ["purity", "classify"])
    def test_nan_amplitude_exit_2(self, capsys, tmp_path, command):
        # Python's json reads NaN; a nan norm once slipped past the norm check
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "kind": "pure", "amplitudes": [[NaN, 0.0], [1.0, 0.0]]}')
        code, out, err = run_cli(capsys, command, "--state", str(path),
                                 "--algebra", "su2-spin:1/2")
        assert code == 2 and out == "" and "non-finite" in err

    def test_spin_zero_algebra_exit_2_without_warning(self):
        # J = 0 once divided by zero: a numpy warning, then a misleading error
        proc = _run_getk("purity", "--state", "spin:0,0", "--algebra", "su2-spin:0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: algebra: spin 0 has no su(2) observables (all generators vanish); "
            "need J >= 1/2"]

    def test_identity_only_custom_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text("II\n")
        code, out, err = run_cli(capsys, "purity", "--state", "bell:phi+",
                                 "--algebra", f"custom:{path}")
        assert code == 2 and out == ""
        assert err == f"error: algebra 'custom:{path}' has no traceless part\n"

    @pytest.mark.parametrize("state, raw, rescaled", [
        ("w:3", "0.0416666666667", "0.111111111111"),
        ("ghz:3", "0", "0"),
        ("bisep:12", "0.125", "0.333333333333"),
    ])
    def test_local_auto_reference(self, capsys, state, raw, rescaled):
        # --rescale auto needs the matrices, so it builds the dense stack
        code, out, _ = run_cli(capsys, "purity", "--state", state, "--algebra", "local:3x2",
                               "--rescale", "auto")
        assert code == 0
        assert out == (f"state={state}\nalgebra=local:3x2\nraw={raw}\nrescaled={rescaled}\n"
                       "max_reference=0.375\n")

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_local_ghz_prints_exact_zero(self, capsys, n):
        code, out, _ = run_cli(capsys, "purity", "--state", f"ghz:{n}",
                               "--algebra", f"local:{n}x2")
        assert code == 0 and "\nraw=0\nrescaled=0\n" in out

    def test_local_10_qubits_small_process(self):
        # the largest local algebra under MAX_DIM, in a process of its own:
        # reductions need no (30, 1024, 1024) stack (480 MiB)
        proc = _run_getk("purity", "--state", "w:10", "--algebra", "local:10x2", rss=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[2:] == ["raw=0.00625", "rescaled=0.64",
                                                "max_reference=0.009765625"]
        max_rss_kb = int(proc.stderr.splitlines()[-1])
        assert max_rss_kb < 150 * 1024

    def test_ge_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GE_SEED", "12345")
        code, out, _ = run_cli(capsys, "purity", "--state", "bell:psi+", "--algebra", "u2")
        assert code == 0 and "rescaled=0\n" in out
        monkeypatch.setenv("GE_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "purity", "--state", "bell:psi+", "--algebra", "u2")
        assert code == 2 and "GE_SEED" in err


class TestClassifyCommand:
    def test_spin_surface_state(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "spin:3,3",
                               "--algebra", "su2-spin:3")
        assert code == 0
        assert "unentangled=true" in out and "theorem_direction=iff" in out

    def test_spin_center_state(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "spin:3,0",
                               "--algebra", "su2-spin:3")
        assert code == 0 and "unentangled=false" in out

    def test_bell_locally_entangled(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "bell:phi+",
                               "--algebra", "local:2x2")
        assert code == 0 and "unentangled=false" in out

    def test_sufficiency_annotation(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "bell:psi+",
                               "--algebra", "omega-prime-loc")
        assert code == 0 and "theorem_direction=sufficient" in out

    def test_tolerance_flag(self, capsys):
        # rescaled purity of this state is exactly 1/3; a loose tolerance flips it
        code, out, _ = run_cli(capsys, "classify", "--state", "bisep:13",
                               "--algebra", "omega2-paper-values")
        assert code == 0 and "unentangled=false" in out
        code, out, _ = run_cli(capsys, "classify", "--state", "bisep:13",
                               "--algebra", "omega2-paper-values", "--tol", "0.7")
        assert code == 0 and "unentangled=true" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_2(self, capsys, value):
        code, out, err = run_cli(capsys, "classify", "--state", "w:3", "--algebra", "omega1",
                                 "--tol", value)
        assert code == 2 and out == "" and "tolerance" in err

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "ghz:3", "--algebra", "omega1",
                               "--tol", "0")
        assert code == 0 and "unentangled=false" in out

    def test_purity_computed_once(self, capsys, monkeypatch):
        calls = []
        real = purity.rescaled_purity

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(purity, "rescaled_purity", counted)
        monkeypatch.setattr(cli, "rescaled_purity", counted)
        code, out, _ = run_cli(capsys, "classify", "--state", "spin:3,3", "--algebra", "su2-spin:3")
        assert code == 0 and "unentangled=true" in out
        assert len(calls) == 1


class TestBoxesCommands:
    def entangled_file(self, tmp_path):
        from getk.boxes import canonical_entangled_vertex
        path = tmp_path / "ent.json"
        path.write_text(json.dumps(canonical_entangled_vertex().to_json_dict()))
        return str(path)

    def product_file(self, tmp_path):
        from getk.boxes import canonical_product_vertex
        path = tmp_path / "prod.json"
        path.write_text(json.dumps(canonical_product_vertex().to_json_dict()))
        return str(path)

    def test_vertices_summary(self, capsys):
        code, out, _ = run_cli(capsys, "boxes", "vertices", "--size", "2,2,2,2")
        assert code == 0
        assert out.splitlines()[-1] == "product=16 entangled=8 total=24"
        assert out.count("vertex=") == 24

    def test_classify_entangled(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "classify", "--state",
                               self.entangled_file(tmp_path))
        assert code == 0
        assert "extremal=true" in out and "class=entangled" in out
        assert "marginal_alice=(1/2,1/2,1/2,1/2)" in out
        assert "marginal_bob=(1/2,1/2,1/2,1/2)" in out

    def test_separable_product(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "separable", "--state",
                               self.product_file(tmp_path))
        assert code == 0 and "separable=true" in out

    def test_separable_entangled(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "separable", "--state",
                               self.entangled_file(tmp_path))
        assert code == 0 and "separable=false" in out

    def test_orbit(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "orbit", "--state",
                               self.entangled_file(tmp_path))
        assert code == 0
        assert "orbit_size=8" in out and out.count("member=") == 8

    def test_signalling_exit_4(self, capsys, tmp_path):
        table = {
            "n_inputs": [2, 2], "n_outputs": [2, 2],
            "p": [[1, 1], [0, 1], [1, 1], [0, 1],
                  [0, 1], [0, 1], [0, 1], [0, 1],
                  [0, 1], [1, 1], [1, 1], [0, 1],
                  [0, 1], [0, 1], [0, 1], [0, 1]],
        }
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(table))
        code, _, err = run_cli(capsys, "boxes", "classify", "--state", str(path))
        assert code == 4 and "marginal" in err.lower()

    def test_infeasible_exit_4(self, capsys, tmp_path):
        table = {
            "n_inputs": [2, 2], "n_outputs": [2, 2],
            "p": [[1, 1]] * 16,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(table))
        code, _, _ = run_cli(capsys, "boxes", "classify", "--state", str(path))
        assert code == 4

    def test_zero_denominator_exit_2(self, capsys, tmp_path):
        table = {
            "n_inputs": [2, 2], "n_outputs": [2, 2],
            "p": [[1, 0]] + [[0, 1]] * 15,
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "boxes", "separable", "--state", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: state: bad box table")

    def test_bad_size_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "boxes", "vertices", "--size", "2,2,2")
        assert code == 2 and "--size" in err

    def test_vertices_json(self, capsys):
        code, out, _ = run_cli(capsys, "boxes", "vertices", "--size", "1,2,1,2", "--json")
        record = json.loads(out)
        assert record["total"] == 4 and record["product"] == 4


@pytest.fixture(scope="module")
def paper_run():
    """One full ``reproduce --table paper`` run: exit code, stdout, enumerations made."""
    enumerated = []
    real = boxes.enumerate_vertices

    def counted(cone):
        enumerated.append(cone)
        return real(cone)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(boxes, "enumerate_vertices", counted)
        code = cli.main(["reproduce", "--table", "paper"])
    return code, out.getvalue(), len(enumerated)


class TestReproduceCommand:
    def test_list_names(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "paper", "--list")
        assert code == 0
        names = out.strip().splitlines()
        assert "p1/ghz:3" in names and "boxes/vertex-census" in names
        assert len(names) >= 30

    def test_full_run_passes(self, paper_run):
        code, out, _ = paper_run
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 30

    def test_list_matches_run(self, capsys, paper_run):
        code, listed, _ = run_cli(capsys, "reproduce", "--table", "paper", "--list")
        assert code == 0
        run_lines = paper_run[1].splitlines()[:-1]  # the last line is the checked= summary
        assert listed.splitlines() == [line.split(" ")[1] for line in run_lines]

    def test_polytope_enumerated_once(self, paper_run):
        assert paper_run[2] == 1

    def test_list_computes_nothing(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("--list must not compute")

        monkeypatch.setattr(boxes, "enumerate_vertices", forbidden)
        monkeypatch.setattr(fermion, "fock_register", forbidden)
        code, out, _ = run_cli(capsys, "reproduce", "--table", "paper", "--list")
        assert code == 0 and "boxes/vertex-census" in out.splitlines()

    def test_corrupted_builtin_fails(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "paper",
                               "--corrupt", "ghz:3")
        assert code == 1
        assert "FAIL p1/ghz:3" in out

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "--table", "arxiv")
        assert code == 2 and "--table" in err
