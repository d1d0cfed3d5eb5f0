import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import alphasched
import alphasched.simplex as simplex
from alphasched.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, name="small.inst.json"):
    doc = {
        "machines": 2,
        "jobs": [
            {"release": 0, "weight": 2.0, "sizes": [2, 3]},
            {"release": 1, "weight": 1.0, "sizes": [1, None]},
            {"release": 0, "weight": 1.5, "sizes": [2, 2]},
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_dist_quadratic(capsys):
    code, out, _ = run(capsys, "analyze-dist", "--dist", "quadratic")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["alpha"]) - 1.8785083215) < 1e-9
    assert abs(float(cols["raw_f1"]) - 1.00000125) < 1e-7
    assert float(cols["beta"]) < 0.468
    assert abs(float(cols["phi_star"]) - 0.5338653) < 1e-5


def test_analyze_dist_uniform_alpha_two(capsys):
    code, out, _ = run(capsys, "analyze-dist", "--dist", "uniform")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["alpha"]) - 2.0) < 1e-9
    assert cols["attained"] == "0"


def test_analyze_dist_clip_peaking_on_a_breakpoint(capsys):
    # rho peaks at phi = 1 - lam, a breakpoint, which the cross-check's grid
    # must hold for the closed form to pass it.
    code, out, _ = run(capsys, "analyze-dist", "--dist", "clipped:0.25")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["phi_star"]) == 0.75


def test_analyze_dist_clip_below_resolution(capsys):
    # 1 - 1e-300 rounds to 1, so the top clip has no width: the law is the
    # uniform one to double precision, and so are its constants.
    code, out, _ = run(capsys, "analyze-dist", "--dist", "clipped:1e-300")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["dist"] == "clipped:1e-300"
    assert abs(float(cols["alpha"]) - 2.0) < 1e-9
    assert cols["attained"] == "0"


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gen.inst.json"
    code, _, _ = run(capsys, "gen", "--n", "4", "--m", "2", "--seed", "5", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["machines"] == 2 and len(doc["jobs"]) == 4
    assert doc["seed"] == 5
    code, out, _ = run(capsys, "oracle", str(out_path), "--mode", "np")
    assert code == 0
    assert out.splitlines()[0] == "job,machine,start"


def test_round_deterministic_and_valid(tmp_path, capsys):
    inst = write_instance(tmp_path)
    args = ("round", inst, "--dist", "quadratic", "--trials", "5", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under the same seed
    lines = out1.strip().splitlines()
    assert lines[0] == "trial,objective,ratio"
    assert len(lines) == 1 + 5 + 1  # header, trials, mean row


def test_round_per_job_columns(tmp_path, capsys):
    inst = write_instance(tmp_path)
    code, out, _ = run(capsys, "round", inst, "--dist", "uniform", "--trials", "3", "--seed", "1", "--per-job")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:3] == ["trial", "objective", "ratio"]
    assert header[3:] == ["c0", "c1", "c2"]


def test_round_preemptive_deterministic(tmp_path, capsys):
    inst = write_instance(tmp_path)
    args = ("round-preemptive", inst, "--trials", "4", "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert out1.splitlines()[0] == "trial,objective,ratio,objective-integral"


def test_solve_interval_and_chain_reports(tmp_path, capsys):
    # Each report opens with the objective and then its certified gap_bound,
    # in CSV and JSON alike.
    inst = write_instance(tmp_path)
    for command, header in (("solve-interval", "machine,job,start,y"), ("solve-chain", "machine,job,z,slots")):
        code, out, _ = run(capsys, command, inst)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == header
        assert lines[1].startswith("objective,")
        label, gap, *rest = lines[2].split(",")
        assert label == "gap_bound" and 0.0 <= float(gap) <= 1e-6 * (1 + float(lines[1].split(",")[1]))
        assert rest == ["", ""]
        code, out, _ = run(capsys, command, inst, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0][0] == "objective" and rows[1][0] == "gap_bound"
        assert float(rows[1][1]) == float(gap)


def test_lowerbound_subcommand(capsys):
    args = ("lowerbound", "--epsilon", "0.5", "--horizon", "24", "--trials", "20", "--seed", "2")
    code, out, _ = run(capsys, *args)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("epsilon,horizon,trials")
    code2, out2, _ = run(capsys, *args)
    assert out2 == out


def test_counts_below_one_exit_one(tmp_path, capsys):
    inst = write_instance(tmp_path)
    for bad in ("0", "-2"):
        for argv, message in [
            (("round", inst, "--trials", bad), "need at least one trial"),
            (("round-preemptive", inst, "--trials", bad), "need at least one trial"),
            (("lowerbound", "--epsilon", "0.5", "--horizon", "8", "--trials", bad), "need at least one trial"),
            (("lowerbound", "--epsilon", "0.5", "--horizon", bad, "--trials", "5"), "T must be positive"),
        ]:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert message in err, argv


def test_malformed_input_exits_one(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    bench_list = write("list.json", [{"n": 2, "m": 1}])
    bench_scalar_gen = write("gen.json", {"generators": [3]})
    poly_no_coeffs = write("nocoeffs.json", {"breakpoints": [0.0, 1.0]})
    poly_list = write("list-poly.json", [[0.0, 1.0], [[1.0]]])
    poly_empty = write("empty.json", {"breakpoints": [0, 1], "coeffs": [[]]})
    poly_nested = write("nested.json", {"breakpoints": [0, 1], "coeffs": [[[1.0]]]})
    poly_nan = write("nan.json", {"breakpoints": [0, 1], "coeffs": [[float("nan")]]})
    poly_inf = write("inf.json", {"breakpoints": [0, 0.5, 1], "coeffs": [[2.0], [float("inf")]]})
    poly_nan_break = write("nan-break.json", {"breakpoints": [0, float("nan"), 1], "coeffs": [[1.0], [1.0]]})
    poly_scalar = write("scalar.json", {"breakpoints": [0, 1], "coeffs": 5})
    inst = write_instance(tmp_path)
    for argv, message in [
        (("lowerbound", "--epsilon", "0", "--horizon", "8", "--trials", "5"), "eps must lie in (0, 1]"),
        (("lowerbound", "--epsilon", "-0.5", "--horizon", "8", "--trials", "5"), "eps must lie in (0, 1]"),
        (("bench", "--config", bench_list), "bench config must be a JSON object"),
        (("bench", "--config", bench_scalar_gen), "each bench generator must be a JSON object"),
        (("analyze-dist", "--dist", f"poly:{poly_no_coeffs}"), "'breakpoints' and 'coeffs'"),
        (("analyze-dist", "--dist", f"poly:{poly_list}"), "'breakpoints' and 'coeffs'"),
        (("analyze-dist", "--dist", f"poly:{poly_empty}"), "non-empty flat list"),
        (("analyze-dist", "--dist", f"poly:{poly_nested}"), "non-empty flat list"),
        (("analyze-dist", "--dist", f"poly:{poly_nan}"), "coefficients must be finite"),
        (("analyze-dist", "--dist", f"poly:{poly_inf}"), "coefficients must be finite"),
        (("analyze-dist", "--dist", f"poly:{poly_nan_break}"), "strictly increasing"),
        (("analyze-dist", "--dist", f"poly:{poly_scalar}"), "one coefficient list per piece"),
        (("round", inst, "--trials", "5", "--dist", f"poly:{poly_empty}"), "non-empty flat list"),
        (("round", inst, "--trials", "5", "--dist", f"poly:{poly_nan}"), "coefficients must be finite"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert message in err and "Traceback" not in err, argv


def test_impossible_generator_settings_exit_one(tmp_path):
    # Each of these once redrew a job's size row forever.  Run in a
    # subprocess with a timeout, so that a hang fails the test.
    config = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(Path(alphasched.__file__).resolve().parents[1]))
    for argv, message in [
        (("gen", "--n", "2", "--m", "0"), "at least one job and one machine"),
        (("gen", "--n", "2", "--m", "2", "--forbid-prob", "1.0"), "forbid_prob must lie in [0, 1)"),
        (("gen", "--n", "2", "--m", "2", "--forbid-prob", "1.5"), "forbid_prob must lie in [0, 1)"),
        ({"n": 2, "m": 0}, "at least one job and one machine"),
        ({"n": 2, "m": 2, "forbid_prob": 1}, "forbid_prob must lie in [0, 1)"),
    ]:
        if isinstance(argv, dict):  # a bench config's generator
            config.write_text(json.dumps({"trials": 5, "generators": [argv]}))
            argv = ("bench", "--config", str(config))
        proc = subprocess.run(
            [sys.executable, "-m", "alphasched.cli", *argv], capture_output=True, text=True, timeout=30, env=env
        )
        assert proc.returncode == 1 and proc.stdout == "", argv
        assert message in proc.stderr and "Traceback" not in proc.stderr, argv


def test_oversized_inputs_exit_one_in_a_capped_process(tmp_path):
    """Each subcommand that takes a count refuses an oversized one before it
    allocates: exit 1, one error line and no traceback.  The child's
    address space is capped at 512 MiB: a missing guard on an input that
    allocates past that (rounding 10^8 trials asks for GiBs at once) fails
    here as a MemoryError traceback and never draws on the machine's
    memory, and one that runs long hits the timeout.  analyze-dist takes
    no count."""
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    small = write_instance(tmp_path)
    wide = write("wide.inst.json", {
        "machines": 20, "jobs": [{"release": r, "weight": 1.0, "sizes": [80] * 20} for r in (0, 0, 360)],
    })
    far = write("far.inst.json", {
        "machines": 2, "jobs": [{"release": r, "weight": 1.0, "sizes": [2, 3]} for r in (0, 10**12)],
    })
    many = write("many.inst.json", {
        "machines": 3, "jobs": [{"release": 0, "weight": 1.0, "sizes": [1, 1, 1]} for _ in range(15)],
    })
    config = write("bench.json", {"trials": 5, "generators": [{"n": 5_000_000, "m": 50}]})
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(alphasched.__file__).resolve().parents[1])
    )
    for argv in [
        ("gen", "--n", "5000000", "--m", "50"),
        ("solve-interval", wide, "--full"),
        ("solve-chain", far),
        ("round", small, "--trials", "100000000"),
        ("round-preemptive", small, "--trials", "100000000"),
        ("oracle", many, "--mode", "np"),
        ("lowerbound", "--epsilon", "0.5", "--horizon", "8", "--trials", "10000000000"),
        ("bench", "--config", config),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "alphasched.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit,
        )
        assert proc.returncode == 1 and proc.stdout == "", (argv, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("alphasched: error: "), (argv, proc.stderr)


def test_bench_seed_flag_overrides_config(tmp_path, capsys):
    def config(name, **seed):
        doc = {"trials": 50, "dists": ["uniform"], "generators": [{"count": 2, "n": 3, "m": 2}], **seed}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    seven, zero = config("seven.json", seed=7), config("zero.json", seed=0)
    reports = {}
    for key, argv in {
        "seven": ("bench", "--config", seven),
        "seven --seed 0": ("bench", "--config", seven, "--seed", "0"),
        "--seed 0 seven": ("--seed", "0", "bench", "--config", seven),
        "zero": ("bench", "--config", zero),
        "seven --seed 7": ("bench", "--config", seven, "--seed", "7"),
    }.items():
        code, reports[key], _ = run(capsys, *argv)
        assert code == 0, key
    assert reports["seven --seed 0"] == reports["--seed 0 seven"] == reports["zero"]
    assert reports["seven --seed 7"] == reports["seven"] != reports["zero"]


def test_oracle_guard_exit_code(tmp_path, capsys):
    # 15 jobs: the 3^15 subset pairs of the machine partition alone exceed
    # the default guard.
    doc = {
        "machines": 3,
        "jobs": [{"release": 0, "weight": 1.0, "sizes": [1, 1, 1]} for _ in range(15)],
    }
    path = tmp_path / "big.inst.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "oracle", str(path), "--mode", "np")
    assert code == 1
    assert "guard" in err


def test_oversized_interval_lp_exit_code(tmp_path, capsys):
    # 20 machines whose list schedule ends at 440: even the LP built to that
    # makespan has 8,803 rows, and its basis inverse would need 591 MiB.
    doc = {
        "machines": 20,
        "jobs": [{"release": r, "weight": 1.0, "sizes": [80] * 20} for r in (0, 0, 360)],
    }
    path = tmp_path / "wide.inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve-interval", str(path), "--full")
    assert code == 1 and out == ""
    assert "too large" in err


def test_far_release_round_exits_one(tmp_path, capsys):
    # A release at 1e12: the full LP that `round` solves is refused by its
    # row count, while `solve-interval` compresses the start times and solves.
    doc = {
        "machines": 2,
        "jobs": [
            {"release": 0, "weight": 1.0, "sizes": [2, 3]},
            {"release": 10**12, "weight": 2.0, "sizes": [1, 4]},
        ],
    }
    path = tmp_path / "far.inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "round", str(path), "--dist", "uniform", "--trials", "2")
    assert code == 1 and out == ""
    assert "too large" in err
    code, out, _ = run(capsys, "solve-interval", str(path))
    assert code == 0 and out.splitlines()[1].startswith("objective,")


def test_far_release_chain_lp_exits_one(tmp_path, capsys):
    # A release at 1e12: the pricer's per-(machine, slot) arrays would pass
    # the basis-inverse budget, exact or compressed (a few dozen blocks),
    # and both solves are refused before anything of the horizon's size is
    # allocated.
    doc = {
        "machines": 2,
        "jobs": [
            {"release": 0, "weight": 1.0, "sizes": [2, 3]},
            {"release": 10**12, "weight": 2.0, "sizes": [1, 4]},
        ],
    }
    path = tmp_path / "far.inst.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--epsilon", "0.5")):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "solve-chain", str(path), *extra)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert "too large" in err
        assert peak < 2**20


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "round", "--trials", "3")[0] == 2  # missing instance
    assert main([]) == 2
    assert run(capsys, "--threads", "2", "analyze-dist", "--dist", "uniform")[0] == 2  # removed flag
    # --full and --epsilon contradict each other: a usage error, not a silent choice.
    code, out, err = run(capsys, "solve-interval", write_instance(tmp_path), "--full", "--epsilon", "0.5")
    assert code == 2 and out == "" and "not allowed with" in err
    # So do --dist and --lambda: the law --dist names has no clip to take.
    argv = ("round-preemptive", write_instance(tmp_path), "--dist", "uniform", "--lambda", "0.1", "--trials", "3")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "not allowed with" in err


def test_missing_instance_file_exit_one(capsys):
    code, _, err = run(capsys, "solve-interval", "/nonexistent/x.inst.json")
    assert code == 1
    assert "error" in err


def test_json_format(tmp_path, capsys):
    inst = write_instance(tmp_path)
    code, out, _ = run(capsys, "round", inst, "--dist", "uniform", "--trials", "2", "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][:3] == ["trial", "objective", "ratio"]
    assert len(doc["rows"]) == 3


def test_bench_subcommand(tmp_path, capsys):
    cfg = {
        "seed": 4,
        "trials": 300,
        "dists": ["quadratic", "uniform"],
        "generators": [{"count": 2, "n": 3, "m": 2, "p_max": 4, "r_max": 4, "w_max": 3}],
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "bench", "--config", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance-id,lp-interval,lp-chain,oracle-np,oracle-p,dist,mean-ratio,stderr"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        cells = line.split(",")
        lp_i, lp_c = float(cells[1]), float(cells[2])
        assert lp_c <= lp_i + 1e-6
        if cells[3]:
            assert lp_i <= float(cells[3]) + 1e-6  # LP below the np optimum
        if cells[3] and cells[4]:
            assert float(cells[4]) <= float(cells[3]) + 1e-9


def test_out_flag_writes_file(tmp_path, capsys):
    inst = write_instance(tmp_path)
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "round", inst, "--dist", "uniform", "--trials", "2", "--seed", "9", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("trial,objective,ratio")


def test_oversized_chain_lp_exit_code(tmp_path, capsys, monkeypatch):
    # A limit below the first master's 3 job rows plus its capacity rows.
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * 4 * 4)
    inst = write_instance(tmp_path)
    for extra in ((), ("--epsilon", "0.5")):
        code, out, err = run(capsys, "solve-chain", inst, *extra)
        assert code == 1 and out == ""
        assert "too large" in err
