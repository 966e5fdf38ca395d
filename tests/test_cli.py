import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlie import build_group, character_table
from skewlie.cli import EXIT_CHECK, EXIT_INPUT, EXIT_OK, main
from skewlie.serialize import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_q8(capsys, tmp_path):
    out_file = tmp_path / "q8.json"
    code, _, _ = run_cli(
        capsys, "decompose", "--group", "dicyclic:2",
        "--involution", "canonical", "--out", str(out_file),
    )
    assert code == EXIT_OK
    report = json.loads(out_file.read_text())
    assert report["totals"] == {"skew_dim": 3, "sum_components": 3}
    assert sorted(c["dim_q"] for c in report["components"]) == [1, 1, 1, 1, 4]
    assert all(report["checks"].values())


def test_decompose_trivial_group(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--group", "cyclic:1", "--involution", "canonical"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["components"]) == 1
    assert report["components"][0]["type"] == "orthogonal"


def test_decompose_s3(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--group", "symmetric:3", "--involution", "canonical"
    )
    assert code == EXIT_OK
    assert json.loads(out)["totals"]["skew_dim"] == 1


def test_decompose_with_inline_involution(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--group", "cyclic:4",
        "--involution", '{"kind": "oriented", "alpha": [1, -1, 1, -1]}',
    )
    assert code == EXIT_OK
    report = json.loads(out)
    pair = [c for c in report["components"] if c["kind"] == "pair"]
    assert len(pair) == 1


def test_form_q8(capsys):
    code, out, _ = run_cli(
        capsys, "form", "--group", "dicyclic:2", "--involution", "canonical"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["checks"]["eq_1_2_matches_skew_span"] is True
    assert all(
        isinstance(x, str) and "." not in x
        for row in report["gram"] for x in row
    )


def test_form_cyclic2(capsys):
    code, out, _ = run_cli(
        capsys, "form", "--group", "cyclic:2", "--involution", "canonical"
    )
    assert code == EXIT_OK
    assert json.loads(out)["checks"]["eq_1_2_matches_skew_span"] is True


def test_chartab_s3(capsys):
    code, out, _ = run_cli(capsys, "chartab", "--group", "symmetric:3")
    assert code == EXIT_OK
    table = json.loads(out)
    assert table["degrees"] == [1, 1, 2]
    assert table["conductor"] == 6


def test_chartab_trivial(capsys):
    code, out, _ = run_cli(capsys, "chartab", "--group", "cyclic:1")
    assert code == EXIT_OK
    table = json.loads(out)
    assert table["characters"] == [[["1"]]]


def test_chartab_q8_degrees(capsys):
    code, out, _ = run_cli(capsys, "chartab", "--group", "dicyclic:2")
    assert code == EXIT_OK
    assert json.loads(out)["degrees"] == [1, 1, 1, 1, 2]


def test_chartab_streams_the_dumps_text(capsys, tmp_path):
    """stdout and --out both get the text of dumps, written in pieces; dicyclic:15
    has cells that share one value."""
    expected = dumps(character_table(build_group("dicyclic:15")).to_json())
    code, out, _ = run_cli(capsys, "chartab", "--group", "dicyclic:15")
    assert code == EXIT_OK
    assert out == expected
    path = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "chartab", "--group", "dicyclic:15", "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert path.read_text() == expected


def test_chartab_at_a_large_dixon_prime_matches_the_default(capsys):
    """Every eigenvalue of C60 is that of a linear character, so no split scans F_p,
    and the Krylov vectors and packed children run with residues near 10^8; the JSON
    and the text table are those of the default prime."""
    for fmt in ("json", "text"):
        default = run_cli(capsys, "chartab", "--group", "cyclic:60", "--format", fmt)
        large = run_cli(capsys, "chartab", "--group", "cyclic:60", "--format", fmt,
                        "--dixon-prime", "99999721")
        assert large == default and default[0] == EXIT_OK


def test_group_info(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--group", "dicyclic:2")
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["order"] == 8
    assert info["square_roots_of_identity"] == 2


def test_group_json_input(capsys, tmp_path):
    spec = {"permutation_generators": [[1, 0, 2], [1, 2, 0]], "degree": 3}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "group-info", "--group", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["order"] == 6


def test_involution_json_input(capsys, tmp_path):
    """An involution is inline JSON or a .json path, read the same way as a group."""
    spec = '{"kind": "oriented", "alpha": [1, -1, 1, -1]}'
    path = tmp_path / "sigma.json"
    path.write_text(spec)
    inline = run_cli(capsys, "decompose", "--group", "cyclic:4", "--involution", spec)
    assert inline[0] == EXIT_OK
    assert run_cli(capsys, "decompose", "--group", "cyclic:4", "--involution", str(path)) == inline
    for bad in ("sideways", str(tmp_path / "missing.json")):
        code, out, err = run_cli(capsys, "decompose", "--group", "cyclic:4", "--involution", bad)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: unrecognized involution spec {bad!r}\n")
    path.write_text("{")
    code, out, err = run_cli(capsys, "decompose", "--group", "cyclic:4", "--involution", str(path))
    assert (code, out) == (EXIT_INPUT, "") and err.startswith("error: ")


def test_verify_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--catalog", "dicyclic:2")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_empty_selection(capsys):
    code, _, err = run_cli(capsys, "verify", "--catalog", "nosuchgroup:9")
    assert code == EXIT_INPUT
    assert "empty selection" in err


def test_input_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "decompose", "--group", "frobnicator:2",
                           "--involution", "canonical")
    assert code == EXIT_INPUT
    code, _, err = run_cli(capsys, "decompose", "--group", "cyclic:4",
                           "--involution", '{"kind": "oriented", "alpha": [1, -1, -1, 1]}')
    assert code == EXIT_INPUT
    code, _, err = run_cli(capsys, "decompose", "--group", "cyclic:100",
                           "--involution", "canonical", "--max-order", "50")
    assert code == EXIT_INPUT


def test_malformed_involution_json_exits_one(capsys):
    cases = [
        ('{"kind": "oriented"}', "'alpha'"),
        ('{"kind": "anti_automorphism", "map": [0.0, 1.0]}', "integers"),
        ('{"kind": "linear", "matrix": [["x", "0"], ["0", "1"]]}', "rationals"),
        ('{"kind": "linear", "matrix": [[Infinity, 0], [0, 1]]}', "rationals"),
        ('{"kind": "linear", "matrix": [[true, false], [false, true]]}', "rationals"),
        ('{"kind": "linear", "matrix": 5}', "|G| x |G|"),
        ('{"kind": "oriented", "alpha": [1.0, -1.0]}', "+1 or -1"),
        ('{"kind": "linear", "matrix": ' + "[" * 10**5 + "]" * 10**5 + "}", "nested too deeply"),
        ('{"kind": ["canonical"]}', "unknown involution kind ['canonical']"),
        ('{"kind": "canonical", "alpha": [1, 1]}', "canonical involution spec has unknown key 'alpha'"),
        ('{"kind": "oriented", "alpha": [1, 1], "map": [0, 1]}', "unknown key 'map'"),
        ('{"kind": "anti_automorphism", "map": [0, 1], "note": ""}', "unknown key 'note'"),
        ('{"kind": "linear", "matrix": [[1, 0], [0, 1]], "d": 1}', "unknown key 'd'"),
    ]
    for spec, message in cases:
        code, out, err = run_cli(capsys, "decompose", "--group", "cyclic:2",
                                 "--involution", spec)
        assert code == EXIT_INPUT, spec
        assert out == ""
        assert err.startswith("error: ") and message in err, err


def test_malformed_group_json_exits_one(capsys):
    cases = [
        ('{"permutation_generators": [[1, 0]]}', "'degree'"),
        ('{"permutation_generators": 5, "degree": 2}', "list of lists of integers"),
        ('{"mult_table": 5}', "list of lists of integers"),
        ('{"mult_table": [[0.0]]}', "list of lists of integers"),
        ('{"mult_table": ' + "[" * 10**5 + "]" * 10**5 + "}", "nested too deeply"),
        ('{"mult_table": [[0, 1], [1, 0]], "name": 5}', "'name' must be a string"),
        ('{"permutation_generators": [[1, 0]], "degree": 2, "name": [1]}', "'name' must be a string"),
        ('{"mult_table": [[0]], "name": null}', "'name' must be a string"),
        ('{"mult_table": [[0]], "order": true}', "'order' must be the table size"),
        ('{"mult_table": [[0]], "order": 1.0}', "'order' must be the table size"),
    ]
    for spec, message in cases:
        code, out, err = run_cli(capsys, "group-info", "--group", spec)
        assert code == EXIT_INPUT, spec
        assert out == ""
        assert err.startswith("error: ") and message in err, err


def test_an_integer_literal_past_the_digit_limit_exits_one(capsys):
    """json reads an integer literal through int(), which refuses more than
    sys.get_int_max_str_digits() digits with a ValueError."""
    huge = "9" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(capsys, "decompose", "--group", "cyclic:2", "--involution",
                             '{"kind": "oriented", "alpha": [1, ' + huge + "]}")
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1, err


def test_a_json_file_not_in_utf8_exits_one(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_bytes(b'\xff\xfe{"mult_table": [[0]]}')
    code, out, err = run_cli(capsys, "group-info", "--group", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1, err


def test_max_order_env(capsys, monkeypatch):
    monkeypatch.setenv("SKEWLIE_MAX_ORDER", "5")
    code, _, _ = run_cli(capsys, "group-info", "--group", "cyclic:10")
    assert code == EXIT_INPUT
    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "group-info", "--group", "cyclic:10",
                         "--max-order", "20")
    assert code == EXIT_OK


def test_verify_reads_max_order_env(capsys, monkeypatch):
    from skewlie import build_group

    monkeypatch.setenv("SKEWLIE_MAX_ORDER", "4")
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == EXIT_OK
    # fixture checks carry "fixture:" in the group or in the check name
    catalog_names = {c["group"] for c in json.loads(out)["checks"]
                     if "fixture:" not in c["group"] + c["name"]}
    assert "cyclic:4" in catalog_names
    assert all(build_group(n).order <= 4 for n in catalog_names)
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "verify", "--catalog", "cyclic", "--max-order", "6",
                           "--format", "json")
    assert code == EXIT_OK
    assert "cyclic:6" in {c["group"] for c in json.loads(out)["checks"]}


def test_exit_code_two_on_check_failure(capsys, monkeypatch):
    import skewlie.cli as cli_mod

    real = cli_mod.decomposition_report

    def sabotage(group, inv, table=None):
        report = real(group, inv, table=table)
        broken = dict(report.checks)
        broken["theorem2_identity"] = False
        object.__setattr__(report, "checks", broken)
        return report

    monkeypatch.setattr(cli_mod, "decomposition_report", sabotage)
    code, _, _ = run_cli(capsys, "decompose", "--group", "cyclic:2",
                         "--involution", "canonical")
    assert code == EXIT_CHECK


def test_json_output_is_deterministic_across_processes(tmp_path):
    cmd = [
        sys.executable, "-m", "skewlie", "decompose",
        "--group", "dicyclic:2", "--involution", "canonical",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout
    form_cmd = [
        sys.executable, "-m", "skewlie", "form",
        "--group", "symmetric:3", "--involution", "canonical", "--seed", "3",
    ]
    a = subprocess.run(form_cmd, capture_output=True, text=True, check=True)
    b = subprocess.run(form_cmd, capture_output=True, text=True, check=True)
    assert a.stdout == b.stdout


def test_seed_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("SKEWLIE_SEED", "4")
    code, out_env, _ = run_cli(capsys, "form", "--group", "symmetric:3",
                               "--involution", "canonical")
    assert code == EXIT_OK
    monkeypatch.delenv("SKEWLIE_SEED")
    code, out_flag, _ = run_cli(capsys, "form", "--group", "symmetric:3",
                                "--involution", "canonical", "--seed", "4")
    assert out_env == out_flag


def test_out_of_memory_exits_two_with_message():
    """A MemoryError ends in exit 2 and one line, not a traceback.  The address-space
    cap acts only on the child.  The form of dihedral:1500 (order 3000, above the
    default cap, so --max-order lifts it) fits its group table and its functional space,
    and runs out drawing the 3000 x 3000 integer gram, in seconds.  At order 2500 the
    gram fits, and only its rank mod p runs out, after more than a minute."""
    cap = 256 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    cmd = [sys.executable, "-m", "skewlie", "form", "--group", "dihedral:1500",
           "--max-order", "3000"]
    proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit, timeout=300)
    assert proc.returncode == EXIT_CHECK
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_form_reads_the_skew_adjoint_system_in_96_mb():
    """The skew-span check of the form of dihedral:96 (order 192) reads one n x n
    block of the system at a time, not n columns of n^2 ints (7 million entries),
    so it fits under a 96 MB address-space cap on the child, with the same output."""
    cap = 96 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    cmd = [sys.executable, "-m", "skewlie", "form", "--group", "dihedral:96"]
    proc = subprocess.run(cmd, capture_output=True, preexec_fn=limit, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "38d695ae996309ac57d867a395d832d1b84a31407d596ec485b7ed58fc5ebaa8")


def test_group_at_the_order_cap_fits_in_96_mb():
    """The table of dihedral:1000 (order 2000, the default cap) holds 4 million
    entries; as one int object per element they fit under a 96 MB address-space
    cap on the child, where one object per entry would not."""
    cap = 96 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    cmd = [sys.executable, "-m", "skewlie", "group-info", "--group", "dihedral:1000"]
    proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["order"] == 2000


@pytest.mark.parametrize("spec", ["cyclic:100000", "dihedral:50000", "dicyclic:25000"])
def test_order_cap_is_read_before_the_table_is_built(spec):
    """A family above the cap exits 1 with the cap message at once; the n^2 table of
    order 100000 would need far more than the child's address-space cap."""
    cap = 256 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    cmd = [sys.executable, "-m", "skewlie", "group-info", "--group", spec]
    proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit, timeout=60)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == f"error: {spec}: order 100000 exceeds the configured cap 2000\n"
    assert proc.stdout == ""


def test_a_huge_permutation_degree_builds_no_list():
    """A generator of another length is refused before list(range(degree)) is built,
    and no generators give the trivial group, so a degree of 10^9 needs no tuple of
    10^9 points under the child's address-space cap."""
    cap = 256 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    for gens, code in (("[]", EXIT_OK), ("[[0]]", EXIT_INPUT)):
        spec = '{"permutation_generators": ' + gens + ', "degree": 1000000000}'
        cmd = [sys.executable, "-m", "skewlie", "group-info", "--group", spec]
        proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count("\n") == (code != EXIT_OK), proc.stderr


def test_usage_errors_exit_one(capsys):
    """argparse's own exit code 2 would read as a failed check."""
    for argv in (["chartab"], ["nosuchcommand"], ["decompose", "--group"],
                 ["chartab", "--group", "cyclic:2", "--format", "xml"], []):
        try:
            main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_INPUT, argv
        else:
            raise AssertionError(f"{argv} parsed")
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chartab", "decompose"])
def test_dixon_prime_above_the_bound_exits_one(capsys, command):
    """A prime of 31 digits is refused by its size, not trial-divided."""
    code, out, err = run_cli(capsys, command, "--group", "cyclic:3",
                             "--dixon-prime", str(10**30 + 57))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {10**30 + 57} exceeds the Dixon prime bound 100000000\n"


def test_commands_take_only_the_flags_they_read(capsys):
    takes = {"decompose": {"--dixon-prime"}, "chartab": {"--dixon-prime"},
             "form": {"--seed"}, "verify": {"--seed"}, "group-info": set()}
    values = {"--dixon-prime": "17", "--seed": "4"}
    for command, own in takes.items():
        where = ["--catalog", "cyclic:2"] if command == "verify" else ["--group", "cyclic:2"]
        for flag, value in values.items():
            argv = [command, *where, flag, value]
            if flag in own:
                assert main(argv) == EXIT_OK, argv
                continue
            try:
                main(argv)
            except SystemExit as exc:
                assert exc.code == EXIT_INPUT, argv
            else:
                raise AssertionError(f"{argv} accepted {flag}")
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    capsys.readouterr()


GROUP_SPECS = [{"mult_table": [[0, 1], [1, 0]], "order": 2, "name": "c2"},
               {"permutation_generators": [[1, 0, 2], [0, 2, 1]], "degree": 3}]
INVOLUTION_SPECS = [{"kind": "canonical"}, {"kind": "oriented", "alpha": [1, -1]},
                    {"kind": "anti_automorphism", "map": [0, 1]},
                    {"kind": "linear", "matrix": [["1", "0"], ["0", "-1/1"]]}]
DIGITS = "9" * (sys.get_int_max_str_digits() + 1)
# JSON texts put in place of one value: type swaps, huge integers, long numeric strings,
# exponents and deep nesting
REPLACEMENTS = ["null", "true", "false", "0", "2", "-1", "1.0", '"x"', '""', "[]", "{}",
                "[[0]]", DIGITS, "-" + DIGITS, "1" + "0" * 40, f'"{DIGITS}"', '"1e16000000"',
                '"-1E-16000000"', '"2.5e4300"', f'"0.{DIGITS}"', "1e16000000", "-1e-400",
                "[" * 10**4 + "]" * 10**4, "[" * 200 + "1" + "]" * 200]
MARK = "\x00raw\x00"
CALL_SECONDS = 0.5


@st.composite
def mutated_specs(draw):
    """A valid group or involution spec with one value replaced or one unknown key added,
    as JSON text, and the command that reads it."""
    group = draw(st.booleans())
    spec = json.loads(json.dumps(draw(st.sampled_from(GROUP_SPECS if group
                                                      else INVOLUTION_SPECS))))
    parent, key = None, None
    node = spec
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                 else range(len(node))))
        node = parent[key]
    raw = draw(st.sampled_from(REPLACEMENTS))
    if isinstance(node, dict) and draw(st.booleans()):
        node["unknown"] = MARK
    elif parent is None:
        spec = MARK
    else:
        parent[key] = MARK
    command = draw(st.sampled_from(["group-info", "decompose", "form"] if group
                                   else ["decompose", "form"]))
    return group, command, json.dumps(spec).replace(json.dumps(MARK), raw)


@settings(max_examples=150, deadline=None)
@given(mutated_specs(), st.sampled_from(["inline", "file", "latin-1"]))
def test_mutated_json_specs_exit_with_a_message(tmp_path_factory, case, carrier):
    """Every mutation of a valid spec, inline or in a .json file, the file in UTF-8 or
    with a byte that is not, exits 0, 1 or 2 in well under a second; on failure stderr
    is one line of message, never a traceback."""
    group, command, text = case
    spec = text
    if carrier != "inline":
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_bytes(text.encode() + ("é".encode(carrier) if carrier == "latin-1"
                                          else b""))
        spec = str(path)
    argv = [command, f"--group={spec}"] if group else [command, "--group=cyclic:2",
                                                        f"--involution={spec}"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CHECK), argv
    assert elapsed < CALL_SECONDS, (argv[:3], elapsed)
    if code != EXIT_OK:
        message = err.getvalue()
        assert message.count("\n") == 1 and message.endswith("\n"), message
        assert message.startswith(("error: ", "check failure: ")), message
        assert "Traceback" not in message
