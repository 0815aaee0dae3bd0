import ast
import collections
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fillinlab import _bits, cli, graph, reduction, solvers
from fillinlab.graph import Graph, load_dimacs, save_dimacs
from fillinlab.matrix import arrow_pattern, save_matrix_market

from .conftest import all_zero_colors, bridged_cubic, count_degree_steps, grid3d_pattern, traced_peak
from .oracles import clique_tail_brute, min_degree_ordering_brute


def run(argv):
    return cli.main(argv)


@pytest.fixture
def c4_file(tmp_path, graphs):
    path = tmp_path / "c4.col"
    save_dimacs(graphs["c4"], path)
    return str(path)


@pytest.fixture
def c6_file(tmp_path, graphs):
    path = tmp_path / "c6.col"
    save_dimacs(graphs["c6"], path)
    return str(path)


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.col", tmp_path / "b.col"
        assert run(["gen", "gnp", "--n", "8", "--p", "0.5", "--seed", "1", "--out", str(a)]) == 0
        assert run(["gen", "gnp", "--n", "8", "--p", "0.5", "--seed", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cycle(self, tmp_path):
        out = tmp_path / "c6.col"
        assert run(["gen", "cycle", "--n", "6", "--out", str(out)]) == 0
        g = load_dimacs(out)
        assert g.n == 6 and g.m == 6

    def test_regular_verified(self, tmp_path):
        out = tmp_path / "r.col"
        assert run(["gen", "regular", "--n", "10", "--d", "3", "--seed", "7", "--out", str(out)]) == 0
        assert (load_dimacs(out).degrees() == 3).all()

    def test_regular_infeasible(self, tmp_path):
        code = run(["gen", "regular", "--n", "5", "--d", "3", "--out", str(tmp_path / "x.col")])
        assert code == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "argv", [["gnp", "--n", "9", "--p", "0.4", "--seed", "5"], ["grid", "--rows", "3", "--cols", "4"]]
    )
    def test_stdout_is_the_file_without_its_comment(self, tmp_path, capsys, argv):
        out = tmp_path / "g.col"
        assert run(["gen", *argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["gen", *argv]) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert lines[0].startswith("c ")
        assert capsys.readouterr().out == "".join(lines[1:])


class TestReduce:
    def test_primitive_k2(self, tmp_path):
        src = tmp_path / "k2.col"
        save_dimacs(Graph.build(2, [(0, 1)]), src)
        out = tmp_path / "k2.reduced.col"
        rep = tmp_path / "rep.json"
        assert run(["reduce", str(src), "--mode", "primitive", "--graph-out", str(out), "--out", str(rep)]) == 0
        assert load_dimacs(out).n == 10
        sidecar = json.loads((tmp_path / "k2.reduced.col.json").read_text())
        assert sidecar["reduction"] == "primitive" and sidecar["n"] == 2

    def test_colored_prism(self, tmp_path, graphs):
        src = tmp_path / "prism.col"
        save_dimacs(graphs["prism"], src)
        out = tmp_path / "prism.reduced.col"
        assert run(["reduce", str(src), "--mode", "colored", "--b", "1", "--graph-out", str(out), "--out", str(tmp_path / "r.json")]) == 0
        assert load_dimacs(out).n == 24

    def test_k4_exit_2(self, tmp_path, graphs, capsys):
        src = tmp_path / "k4.col"
        save_dimacs(graphs["k4"], src)
        code = run(["reduce", str(src), "--mode", "colored", "--d", "3", "--graph-out", str(tmp_path / "o.col")])
        assert code == cli.EXIT_BAD_INPUT
        assert "clique" in capsys.readouterr().err

    def test_improper_own_coloring_is_a_hard_failure(self, tmp_path, monkeypatch, capsys):
        """A monochromatic edge in ``brooks_coloring``'s own output exits 1, not 2."""
        src = tmp_path / "g.col"
        save_dimacs(bridged_cubic(), src)
        monkeypatch.setattr(reduction, "_greedy_colors", all_zero_colors)
        code = run(["reduce", str(src), "--mode", "colored", "--graph-out", str(tmp_path / "o.col")])
        assert code == cli.EXIT_CHECK_FAILED
        assert "HARD FAILURE" in capsys.readouterr().err

    def test_limit_override_env(self, tmp_path, monkeypatch, graphs):
        src = tmp_path / "c4.col"
        save_dimacs(graphs["c4"], src)
        monkeypatch.setattr(cli, "GADGET_MAX_BYTES", 68 * 2 * 8 - 1)  # one byte short of C4's gadget
        args = ["reduce", str(src), "--mode", "primitive", "--graph-out", str(tmp_path / "o.col"), "--out", str(tmp_path / "r.json")]
        monkeypatch.delenv("FILLIN_LAB_LIMIT_OVERRIDE", raising=False)
        assert run(args) == cli.EXIT_LIMIT
        monkeypatch.setenv("FILLIN_LAB_LIMIT_OVERRIDE", "1")
        assert run(args) == 0


class TestSolve:
    def test_vc_c4(self, c4_file, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["solve", c4_file, "vc", "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["outputs"]["size"] == 2
        assert data["verdict"] == "PASS"

    def test_fillin_c6(self, c6_file, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["solve", c6_file, "fillin", "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["outputs"]["size"] == 3

    def test_fillin_oracle_class_limit_exit_3(self, tmp_path, capsys):
        src = tmp_path / "big.col"
        save_dimacs(Graph.build(17, [(i, i + 1) for i in range(16)]), src)  # 17 classes
        assert run(["solve", str(src), "fillin"]) == cli.EXIT_LIMIT
        assert "limited to 16 true-twin classes" in capsys.readouterr().err

    def test_heuristic(self, c6_file, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["solve", c6_file, "fillin-heuristic", "--strategy", "min-degree", "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["outputs"]["size"] >= 3

    def test_vc_budget_exit_3(self, tmp_path, graphs):
        src = tmp_path / "pet.col"
        save_dimacs(graphs["petersen"], src)
        assert run(["solve", str(src), "vc", "--budget", "1", "--out", str(tmp_path / "r.json")]) == cli.EXIT_LIMIT

    def test_vc_negative_budget_is_bad_input(self, tmp_path, graphs, capsys):
        src = tmp_path / "pet.col"
        save_dimacs(graphs["petersen"], src)
        out = tmp_path / "r.json"
        assert run(["solve", str(src), "vc", "--budget", "-1", "--out", str(out)]) == cli.EXIT_BAD_INPUT
        assert "node_budget must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_timings_opt_in(self, c4_file, tmp_path):
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        assert json.loads(rep.read_text())["timings"] is None
        run(["solve", c4_file, "vc", "--timings", "--out", str(rep)])
        assert json.loads(rep.read_text())["timings"]["seconds"] >= 0


class TestVerify:
    @pytest.mark.parametrize("suite,extra", [
        ("sandwich", ["--nmax", "3", "--trials", "4"]),
        ("theorem4", ["--nmax", "4", "--trials", "3"]),
        ("transfer", ["--trials", "2"]),
        ("matrix", ["--nmax", "8", "--trials", "10"]),
    ])
    def test_suites_pass(self, suite, extra, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["verify", suite, *extra, "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["verdict"] == "PASS" and data["checks"]

    @pytest.mark.parametrize("suite,keys,unread", [
        ("sandwich", ["nmax", "seed", "trials"], ["--eps", "1/3", "--d", "4"]),
        ("theorem4", ["nmax", "seed", "trials"], ["--eps", "1/3", "--d", "4"]),
        ("matrix", ["nmax", "seed", "trials"], ["--eps", "1/3", "--d", "4"]),
        ("transfer", ["d", "eps", "seed", "trials"], ["--nmax", "3"]),
    ])
    def test_params_hold_the_flags_the_suite_reads(self, suite, keys, unread, tmp_path):
        """A flag the suite does not read is not recorded and changes nothing."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", suite, "--trials", "2"]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, *unread, "--out", str(b)]) == 0
        assert sorted(json.loads(a.read_text())["params"]) == keys
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "matrix", "--trials", "5", "--seed", "11"]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "suite, trials",
        [("matrix", 4), ("sandwich", 4), ("theorem4", 3), ("transfer", 2)],
        ids=["matrix", "sandwich", "theorem4", "transfer"],
    )
    def test_jobs_match_serial(self, tmp_path, suite, trials):
        """Payloads (graphs, orders, ``TransferConfig``s) and records cross process boundaries intact."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", suite, "--trials", str(trials)]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, "--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_edgeless_transfer_draw_is_drawn_again(self, tmp_path, monkeypatch):
        """A trial whose subcubic graph comes out edgeless draws again, so it
        keeps its three transfer records."""
        draws = []

        def first_edgeless(n, rng):
            draws.append(n)
            return Graph.build(n) if len(draws) == 1 else subcubic(n, rng)

        subcubic = cli.generate.random_subcubic
        monkeypatch.setattr(cli.generate, "random_subcubic", first_edgeless)
        rep = tmp_path / "rep.json"
        assert run(["verify", "transfer", "--trials", "1", "--out", str(rep)]) == 0
        names = [check["name"] for check in json.loads(rep.read_text())["checks"]]
        assert len(draws) == 2 and draws[0] == draws[1]
        labels = [name.split("[")[0] for name in names]
        assert labels == ["transfer-fillin", "transfer-completion", "transfer-heuristic"]

    def test_serial_import_loads_no_process_pool(self):
        """``import fillinlab.cli`` leaves ``concurrent.futures.process`` unloaded:
        only ``--jobs`` above 1 imports the pool, in ``_run_tasks``."""
        code = "import sys, fillinlab.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    def test_each_trial_computes_each_fact_once(self, monkeypatch):
        """A transfer trial (three runs on one G) searches G's cover, colors G, builds
        its gadget and certifies a split completion once each; a theorem4 trial (three
        decision checks on one G) searches the cover and completes it once.  Counted
        through the uncached bodies."""
        calls = collections.Counter()
        for module, name in [
            (solvers, "_search_cover"), (reduction, "_brooks_coloring"),
            (reduction, "_gadget"), (reduction, "is_split"),
        ]:
            def counted(*args, _body=getattr(module, name), _name=name):
                calls[_name] += 1
                return _body(*args)

            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(39)
        for suite, task, draw in [
            ("transfer", cli._transfer_task, cli._draw_transfer),
            ("theorem4", cli._theorem4_task, cli._draw_theorem4),
        ]:
            args = cli.build_parser().parse_args(["verify", suite])
            for t in range(4):
                calls.clear()
                payload = draw(rng, args)
                assert all(rec.passed for rec in task((t, *payload)))
                if suite == "transfer":
                    assert calls == {"_search_cover": 1, "_brooks_coloring": 1, "_gadget": 1, "is_split": 1}
                else:
                    g, c = payload[:2]
                    completes = int(solvers.exact_vertex_cover(g).size <= c)
                    assert calls == collections.Counter(_search_cover=1, _gadget=1, is_split=completes)

    def test_at_most_one_worker_per_trial(self, tmp_path, monkeypatch):
        """``--jobs`` beyond the trial count starts one worker per trial; no process starts here."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, payloads):
                return map(func, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "sandwich", "--trials", "2", "--nmax", "3", "--out", str(a)]) == 0
        assert run(["verify", "sandwich", "--trials", "2", "--nmax", "3", "--jobs", "500", "--out", str(b)]) == 0
        assert started == [2]
        assert a.read_bytes() == b.read_bytes()


#: SHA-256 over the report, then the stderr, of each default-flag ``verify`` suite in
#: turn, recorded while ``cmd_verify`` built each suite's payloads in its own branch
#: and turned the tasks' (name, ok, note) tuples into records.
VERIFY_DIGEST = "8290b9d07b18008dd18af922a30adab17038f358e6e3fd5f5be0775edb4bdabd"


def test_verify_report_digest(capsys):
    digest = hashlib.sha256()
    for suite in ("matrix", "sandwich", "theorem4", "transfer"):
        assert run(["verify", suite]) == 0
        out, err = capsys.readouterr()
        digest.update(out.encode())
        digest.update(err.encode())
    assert digest.hexdigest() == VERIFY_DIGEST


def test_verify_suites_are_one_table():
    """Each suite is one ``_SUITES`` row: no payload builder with a branch per suite,
    and no comparison of ``args.suite`` with a suite name."""
    tree = ast.parse(Path(cli.__file__).read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    branches = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Attribute) and side.attr == "suite" for side in (node.left, *node.comparators))
    ]
    assert "_build_payloads" not in defined
    assert not branches


def test_cli_holds_no_report_reader():
    """``report`` is the one reader of the report format: ``cli`` binds none of the
    id readers, relation table or certificate checkers a re-check is built on, keeps
    no certificate table or JSON reader, and ``cmd_report`` calls ``recheck``."""
    tree = ast.parse(Path(cli.__file__).read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    tables = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict) and {"cover", "fillin", "peo", "hole"} & {
            key.value for key in node.keys if isinstance(key, ast.Constant)
        }
    ]
    readers = {"_OPS", "_id_pairs", "_vertex_ids", "check_peo", "check_hole", "codes_hash"}
    assert not bound & (readers | {"_parse_num", "_read_ids", "_read_pairs", "_CERTIFICATES"})
    assert not tables
    cmd_report = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "cmd_report")
    called = {node.func.id for node in ast.walk(cmd_report) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "recheck" in called


def test_only_cli_reads_the_clock():
    """Wall-clock numbers appear only behind ``--timings``: ``cli`` is the one
    module of the package that imports ``time``."""
    readers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "time" in names or (isinstance(node, ast.ImportFrom) and node.module == "time"):
                readers.add(path.stem)
    assert readers == {"cli"}


class TestEliminate:
    def test_natural_on_cycle(self, c6_file, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["eliminate", c6_file, "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["outputs"]["fill_size"] == 3

    def test_matrix_market_input(self, tmp_path):
        from fillinlab.matrix import save_matrix_market, tridiagonal_pattern

        mtx = tmp_path / "tri.mtx"
        save_matrix_market(tridiagonal_pattern(5), mtx)
        rep = tmp_path / "rep.json"
        assert run(["eliminate", str(mtx), "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["outputs"]["fill_size"] == 0
        assert data["outputs"]["total_nonzeros"] == 13

    def test_grid_12_cubed_natural_order_peak(self, tmp_path):
        """Parse, the fill and the report: the factorization's fill is the one
        1.7 MiB code array, the game's side is checked against it block by block."""
        mtx, rep = tmp_path / "grid.mtx", tmp_path / "rep.json"
        save_matrix_market(grid3d_pattern(12), mtx)
        argv = ["eliminate", str(mtx), "--strategy", "natural", "--out", str(rep)]
        code, peak = traced_peak(run, argv)
        assert code == 0 and json.loads(rep.read_text())["outputs"]["fill_size"] == 224_939
        assert peak < 6.5 * 2**20

    def test_arrow_natural_order_peak(self, tmp_path):
        """Centre first, every pair of the other rows fills: the run holds one fill
        array, so a bound of two fill arrays plus two extraction blocks leaves room
        for the parse."""
        n = 1000
        fill_bytes = 8 * (n - 1) * (n - 2) // 2
        mtx, rep = tmp_path / "arrow.mtx", tmp_path / "rep.json"
        save_matrix_market(arrow_pattern(n), mtx)
        argv = ["eliminate", str(mtx), "--strategy", "natural", "--out", str(rep)]
        code, peak = traced_peak(run, argv)
        assert code == 0 and 8 * json.loads(rep.read_text())["outputs"]["fill_size"] == fill_bytes
        assert peak < 2 * fill_bytes + 2 * _bits.UNPACK_BLOCK_BYTES

    def test_arrow_natural_order_holds_one_fill_array(self, tmp_path):
        """Centre first on 1,500 rows: the game is checked against the
        factorization's 1,122,751 fill codes block by block, so the run peaks at
        one fill array (8.57 MiB) plus the parse, the rows and a block."""
        n = 1500
        fill_bytes = 8 * (n - 1) * (n - 2) // 2
        mtx, rep = tmp_path / "arrow.mtx", tmp_path / "rep.json"
        save_matrix_market(arrow_pattern(n), mtx)
        argv = ["eliminate", str(mtx), "--strategy", "natural", "--out", str(rep)]
        code, peak = traced_peak(run, argv)
        assert code == 0 and 8 * json.loads(rep.read_text())["outputs"]["fill_size"] == fill_bytes
        assert peak <= fill_bytes + 3 * 2**20

    @pytest.mark.parametrize("block_bytes", [None, 64], ids=["one-block", "64-byte-blocks"])
    @pytest.mark.parametrize("fault", ["drop", "add", "shift"])
    def test_a_wrong_factorization_fails_the_cross_check(self, tmp_path, monkeypatch, fault, block_bytes):
        """With one code of the factorization's fill dropped, added or moved to a
        free position, ``matrix_graph_fill_agree`` fails under the natural order,
        ``--ordering`` and min-degree, and ``fill_equivalence_check`` fails, with
        the fill read in one block or in blocks of about one row."""
        from fillinlab import matrix
        from fillinlab.generate import grid

        if block_bytes:
            monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)

        symbolic = matrix.symbolic_fill_codes

        def wrong(pattern, order):
            fill, total = symbolic(pattern, order)
            n = pattern.n
            u, w = np.triu_indices(n, 1)
            free = np.setdiff1d(u * n + w, np.union1d(fill, pattern.codes))[0]
            if fault == "drop":
                return np.delete(fill, fill.size // 2), total
            if fault == "add":
                return np.union1d(fill, [free]), total
            return np.sort(np.append(np.delete(fill, fill.size // 2), free)), total

        k = 9
        pattern = matrix.pattern_from_graph(grid(k, k))
        mtx, rep = tmp_path / "grid.mtx", tmp_path / "rep.json"
        save_matrix_market(pattern, mtx)
        monkeypatch.setattr(matrix, "symbolic_fill_codes", wrong)
        reverse = ",".join(map(str, range(k * k - 1, -1, -1)))
        for extra in (["--strategy", "natural"], ["--ordering", reverse], ["--strategy", "min-degree"]):
            assert run(["eliminate", str(mtx), *extra, "--out", str(rep)]) == cli.EXIT_CHECK_FAILED
            checks = {rec["name"]: rec["pass"] for rec in json.loads(rep.read_text())["checks"]}
            assert checks["matrix_graph_fill_agree"] is False
        rng = np.random.default_rng(5)
        for order in (np.arange(k * k), rng.permutation(k * k)):
            assert not matrix.fill_equivalence_check(pattern, order)

    def test_fixed_orders_build_no_graph_side_codes(self, tmp_path, monkeypatch):
        """The natural order, ``--ordering`` and ``fill_equivalence_check`` pass with
        ``_bits.upper_codes``, which builds a code array, refusing every call."""
        from fillinlab import matrix
        from fillinlab.generate import grid

        def refuse(*args):
            raise AssertionError("a second fill array was built")

        k = 9
        pattern = matrix.pattern_from_graph(grid(k, k))
        mtx, rep = tmp_path / "grid.mtx", tmp_path / "rep.json"
        save_matrix_market(pattern, mtx)
        monkeypatch.setattr(_bits, "upper_codes", refuse)
        reverse = ",".join(map(str, range(k * k - 1, -1, -1)))
        for extra in (["--strategy", "natural"], ["--ordering", reverse]):
            assert run(["eliminate", str(mtx), *extra, "--out", str(rep)]) == 0
            data = json.loads(rep.read_text())
            assert data["verdict"] == "PASS" and data["outputs"]["fill_size"] > 0
        assert matrix.fill_equivalence_check(pattern, np.random.default_rng(6).permutation(k * k))

    def test_explicit_ordering(self, tmp_path, graphs):
        src = tmp_path / "star.col"
        save_dimacs(graphs["star5"], src)
        rep = tmp_path / "rep.json"
        assert run(["eliminate", str(src), "--ordering", "0,1,2,3,4,5", "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["outputs"]["fill_size"] == 10

    def test_ordering_is_a_json_list(self, tmp_path, graphs):
        from fillinlab.solvers import greedy_game

        src = tmp_path / "petersen.col"
        save_dimacs(graphs["petersen"], src)
        rep = tmp_path / "rep.json"
        assert run(["eliminate", str(src), "--strategy", "min-degree", "--out", str(rep)]) == 0
        with open(rep) as fh:
            ordering = json.load(fh)["outputs"]["ordering"]
        assert ordering == greedy_game(graphs["petersen"], "min-degree")[0].tolist()

    @pytest.mark.parametrize("strategy", ["natural", "min-degree", "min-fill", "ordering"])
    def test_one_game_per_run(self, tmp_path, monkeypatch, strategy):
        """Counted, not timed: every run plays one elimination game, and no
        game clears diagonal bits.  Min-degree plays each step up to the first
        whose vertex sees every live vertex, as the dict-of-sets game finds
        it, as an opening step, an ``_eliminate_vertex`` call or a
        mass-eliminated twin, and with ``OPENING_DEGREE`` lowered to 5 the 9 x 9
        grid takes all three; the fixed orderings play those steps as
        ``_eliminate_vertex`` calls plus the steps of ``_eliminate_chain``
        batches, so a batch too stops at that step, and check that game
        against the factorization (``elimination_fill_matches``); min-fill
        inlines its steps."""
        from fillinlab import _bits, chordal, solvers
        from fillinlab.generate import grid
        from fillinlab.matrix import pattern_from_graph, save_matrix_market

        calls = dict.fromkeys(
            ("step", "batched", "opening", "twins", "clear_bits", "greedy_game", "elimination_fill_matches"), 0
        )

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def batch(*args):
            played = chain(*args)
            calls["batched"] += played[0]
            return played

        chain = chordal._eliminate_chain
        monkeypatch.setattr(chordal, "_eliminate_chain", batch)
        step = counted("step", chordal._eliminate_vertex)
        for mod in (chordal, solvers):
            monkeypatch.setattr(mod, "_eliminate_vertex", step)
        count_degree_steps(monkeypatch, calls)
        monkeypatch.setattr(solvers, "OPENING_DEGREE", 5)
        monkeypatch.setattr(_bits, "clear_bits", counted("clear_bits", _bits.clear_bits))
        for name in ("greedy_game", "elimination_fill_matches"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        k = 9
        g = grid(k, k)
        mtx = tmp_path / "grid.mtx"
        save_matrix_market(pattern_from_graph(g), mtx)
        order = list(range(k * k))
        if strategy == "ordering":
            order.reverse()
            extra = ["--ordering", ",".join(map(str, order))]
        else:
            extra = ["--strategy", strategy]
        if strategy == "min-degree":
            order = min_degree_ordering_brute(g.n, g.edge_list())
        assert run(["eliminate", str(mtx), *extra, "--out", str(tmp_path / "rep.json")]) == 0
        greedy = strategy in ("min-degree", "min-fill")
        assert calls["greedy_game"] == int(greedy)
        assert calls["elimination_fill_matches"] == int(not greedy)
        tail = clique_tail_brute(g.n, g.edge_list(), order)
        assert tail < k * k - 1
        if strategy == "min-degree":
            assert calls["opening"] + calls["step"] + calls["twins"] == tail + 1
            assert min(calls["opening"], calls["step"], calls["twins"]) > 0
        if strategy == "min-fill":
            assert calls["step"] == 0
        if greedy:
            assert calls["batched"] == 0
        else:  # every link of both orders holds: the game batches
            assert calls["step"] + calls["batched"] == tail + 1
            assert 0 < calls["step"] < calls["batched"]
        assert calls["clear_bits"] == 0


def _digest_patterns():
    """A 12x12 grid, a 5x5x5 grid and a seeded random pattern on 150 rows."""
    from fillinlab.generate import grid
    from fillinlab.matrix import SparsePattern, pattern_from_graph

    k = 5
    cube = [
        (v, v + step)
        for v in range(k**3)
        for step, axis in ((1, v % k), (k, v // k % k), (k * k, v // (k * k)))
        if axis + 1 < k
    ]
    rng = np.random.default_rng(4242)
    rand = {(int(i), int(j)) for i, j in rng.integers(0, 150, size=(450, 2)) if i < j}
    return [
        ("grid2d.mtx", pattern_from_graph(grid(12, 12))),
        ("grid3d.mtx", SparsePattern(k**3, frozenset(cube))),
        ("random.mtx", SparsePattern(150, frozenset(rand))),
    ]


# Recorded with a second elimination game after every greedy ordering; one
# game per run must reproduce every report byte for byte.
ELIMINATE_DIGEST = "d3f7e07a57913ca801f53d7010f1bd229b9bf2a603e5ca2a755996a39d445810"


def test_eliminate_report_digest(tmp_path, monkeypatch):
    from fillinlab.matrix import save_matrix_market

    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    runs = 0
    for name, pattern in _digest_patterns():
        save_matrix_market(pattern, name)
        argvs = [["--strategy", s] for s in ("natural", "min-degree", "min-fill")]
        if name == "random.mtx":
            order = np.random.default_rng(17).permutation(pattern.n)
            argvs.append(["--ordering", ",".join(map(str, order))])
        for extra in argvs:
            assert run(["eliminate", name, *extra, "--out", "rep.json"]) == 0
            digest.update((tmp_path / "rep.json").read_bytes())
            runs += 1
    assert runs == 3 * 3 + 1
    assert digest.hexdigest() == ELIMINATE_DIGEST


#: SHA-256 of each ``eliminate`` report on two of the digest patterns, recorded
#: before orderings stayed int64 arrays and reports were written array by array.
ELIMINATE_REPORT_SHA256 = {
    ("grid2d.mtx", "natural"): "f7c0eb343555750b02beb6edcfee983db35f47baa879912a0d5621515d6ad786",
    ("grid2d.mtx", "min-degree"): "9a47e43e70a8275548f8abdb6cd7fdd2c7de5b6b6fcf0ea5544d0c9de6c35b7d",
    ("grid2d.mtx", "min-fill"): "7cb3fe37bd2e3850b1c903a4b3fe37abdcfca6750bf863f670f3b93c0da7998a",
    ("grid2d.mtx", "ordering"): "853acf3a851ef9bf2e455ad123c8e374ccbbd81c8cef777412765dae2ed37d92",
    ("random.mtx", "natural"): "93e50b39deaee7562cd21e660629005269b9c87e59c9d92ebaac18a3a7f70301",
    ("random.mtx", "min-degree"): "d60013d8c35cbd4492c5666348f8a00423ef6e885c3506506cc88b24401b8bd2",
    ("random.mtx", "min-fill"): "75eee9880e3bde25bc2510c8f5bb850c2e144d431f161b12a994148a9beb38d9",
    ("random.mtx", "ordering"): "2e1b6fdfd83456d542c2fa09b26d4f30ad4a17dc47551108bac11e19665bb2ff",
}


#: SHA-256 over ``solve`` reports on seeded graphs, recorded while reports were
#: written from nested lists of the instance edges and certificates.
SOLVE_DIGEST = "2889aefcb20928d7ce028623d93fc0c2e01da4108f8856e019e4ddfbd61a18ad"


def test_solve_report_digest(tmp_path, monkeypatch):
    """``vc``, ``fillin`` and ``fillin-heuristic`` under both strategies on an
    edgeless graph (empty edge and fill arrays), a 7-cycle, a 3x4 grid and seeded
    G(n, p) graphs; the exact fill only where the oracle is quick."""
    from fillinlab.generate import cycle, gnp, grid

    monkeypatch.chdir(tmp_path)
    graphs = [Graph.build(5, []), cycle(7), grid(3, 4), gnp(10, 0.4, 31), gnp(60, 0.15, 32)]
    digest = hashlib.sha256()
    runs = 0
    for g in graphs:
        save_dimacs(g, "g.col")
        argvs = [["vc"], *(["fillin-heuristic", "--strategy", s] for s in ("min-fill", "min-degree"))]
        if g.n <= 12:
            argvs.append(["fillin"])
        for extra in argvs:
            assert run(["solve", "g.col", *extra, "--out", "rep.json"]) == 0
            digest.update((tmp_path / "rep.json").read_bytes())
            runs += 1
    assert runs == 5 * 3 + 4
    assert digest.hexdigest() == SOLVE_DIGEST


@pytest.mark.parametrize("name, source", sorted(ELIMINATE_REPORT_SHA256), ids="-".join)
def test_eliminate_report_sha256(tmp_path, monkeypatch, name, source):
    """One pin per report: a grid and a random pattern under each strategy and
    under ``--ordering`` (a seeded permutation)."""
    monkeypatch.chdir(tmp_path)
    pattern = dict(_digest_patterns())[name]
    save_matrix_market(pattern, name)
    if source == "ordering":
        order = np.random.default_rng(17).permutation(pattern.n)
        extra = ["--ordering", ",".join(map(str, order))]
    else:
        extra = ["--strategy", source]
    assert run(["eliminate", name, *extra, "--out", "rep.json"]) == 0
    assert hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest() == ELIMINATE_REPORT_SHA256[name, source]


@pytest.mark.parametrize("argv", [["solve", "g.col", "vc"], ["solve", "g.col", "fillin-heuristic"],
                                  ["eliminate", "g.col"], ["eliminate", "g.mtx"]], ids=" ".join)
def test_instance_descriptor_from_codes_in_hand(tmp_path, monkeypatch, argv):
    """``solve`` and ``eliminate`` hash the instance from the codes they hold; the
    descriptor is ``instance_descriptor`` of the graph read back from the file."""
    from fillinlab.generate import gnp
    from fillinlab.matrix import pattern_from_graph
    from fillinlab.report import instance_descriptor

    monkeypatch.chdir(tmp_path)
    g = gnp(40, 0.2, 41)
    save_dimacs(g, "g.col")
    save_matrix_market(pattern_from_graph(g), "g.mtx")
    assert run([*argv, "--out", "rep.json"]) in (0, 3)
    instance = json.loads((tmp_path / "rep.json").read_text())["instance"]
    instance.pop("edges", None)
    assert instance == instance_descriptor(load_dimacs("g.col"), argv[1])


@pytest.mark.parametrize("strategy", ["natural", "min-degree", "min-fill"])
def test_eliminate_reads_no_id_of_a_strategy_ordering(tmp_path, monkeypatch, strategy):
    """The ordering stays the int64 array from the strategy to both fills and the
    report: the ``_vertex_id`` calls (the size line and ``Graph.build``'s vertex
    count) do not grow with the grid."""
    from fillinlab.generate import grid
    from fillinlab.matrix import pattern_from_graph

    counts = []
    read = graph._vertex_id
    calls = []
    monkeypatch.setattr(graph, "_vertex_id", lambda x: calls.append(x) or read(x))
    for k in (20, 40):
        mtx = tmp_path / f"grid{k}.mtx"
        save_matrix_market(pattern_from_graph(grid(k, k)), mtx)
        calls.clear()
        assert run(["eliminate", str(mtx), "--strategy", strategy, "--out", str(tmp_path / "rep.json")]) == 0
        counts.append(len(calls))
    assert counts == [2, 2]


def test_parser_is_built_once(tmp_path, c4_file):
    """``main`` builds the argparse tree once per process and parses each call afresh."""
    cli.build_parser.cache_clear()
    try:
        for seed in ("1", "2"):
            out = tmp_path / f"g{seed}.col"
            assert run(["gen", "gnp", "--n", "6", "--seed", seed, "--out", str(out)]) == 0
        assert run(["solve", c4_file, "vc", "--out", str(tmp_path / "rep.json")]) == 0
        assert cli.build_parser.cache_info()[:2] == (2, 1)  # hits, misses
        assert (tmp_path / "g1.col").read_text() != (tmp_path / "g2.col").read_text()
        assert json.loads((tmp_path / "rep.json").read_text())["outputs"]["size"] == 2
    finally:
        cli.build_parser.cache_clear()


#: A 4-cycle 0-1-2-3; its first three edges are a path.
C4_EDGES = [[0, 1], [1, 2], [2, 3], [0, 3]]


class TestReportRecheck:
    def test_ok(self, c4_file, tmp_path):
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        assert run(["report", str(rep)]) == 0

    def test_tampered_cover_detected(self, c4_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        data = json.loads(rep.read_text())
        data["certificates"]["cover"] = [0]  # C4 needs two vertices
        rep.write_text(json.dumps(data))
        assert run(["report", str(rep)]) == cli.EXIT_CHECK_FAILED
        assert "cover" in capsys.readouterr().err

    @pytest.mark.parametrize("name, cert", [
        ("cover", [5]), ("fillin", [[0, 2]]), ("peo", [0, 1]), ("hole", [0, 1, 2, 3]),
    ])
    def test_certificate_without_edges_exit_2(self, tmp_path, capsys, name, cert):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"instance": {"n": 4}, "certificates": {name: cert}}))
        assert run(["report", str(rep)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"certificate {name} cannot be re-checked" in err and "recheck OK" not in err

    def test_solve_embeds_edges_at_every_size(self, tmp_path):
        """A star on 1201 vertices: its report carries every edge, so the
        cover is re-checked, and a tampered cover is caught."""
        src = tmp_path / "star.col"
        save_dimacs(Graph.build(1201, [(0, v) for v in range(1, 1201)]), src)
        rep = tmp_path / "rep.json"
        assert run(["solve", str(src), "vc", "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert len(data["instance"]["edges"]) == 1200
        assert run(["report", str(rep)]) == 0
        data["certificates"]["cover"] = [1]
        rep.write_text(json.dumps(data))
        assert run(["report", str(rep)]) == cli.EXIT_CHECK_FAILED

    @pytest.mark.parametrize("pair, code", [
        ([0, 9], cli.EXIT_CHECK_FAILED), ([2, 2], cli.EXIT_CHECK_FAILED), ([3, 0], cli.EXIT_CHECK_FAILED),
        ([0, True], cli.EXIT_BAD_INPUT), ([0, 2.0], cli.EXIT_BAD_INPUT), ([0], cli.EXIT_BAD_INPUT),
    ], ids=["out-of-range", "self-loop", "existing-edge", "true", "float", "one-element"])
    def test_fill_certificate_pair_exit_codes(self, tmp_path, capsys, pair, code):
        """A pair of ids that is no fill pair fails the re-check (exit 1); an
        entry that is no pair of ids is invalid input (exit 2)."""
        rep = tmp_path / "rep.json"
        instance = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
        rep.write_text(json.dumps({"instance": instance, "certificates": {"fillin": [[0, 2], pair]}}))
        assert run(["report", str(rep)]) == code
        err = capsys.readouterr().err
        if code == cli.EXIT_CHECK_FAILED:
            assert "RECHECK FAIL: embedded fill-in certificate is not a valid fill-in" in err
        else:
            assert f"{rep}: certificate fillin is not a JSON array of vertex pairs" in err

    @pytest.mark.parametrize("edges, name, good, bad, failure", [
        (C4_EDGES, "cover", [1, 3], [0], "embedded cover certificate does not cover the instance"),
        (C4_EDGES, "fillin", [[1, 3]], [[0, 1]], "embedded fill-in certificate is not a valid fill-in"),
        (C4_EDGES[:3], "peo", [0, 1, 2, 3], [1, 0, 2, 3], "embedded PEO certificate fails the definition"),
        (C4_EDGES, "hole", [0, 1, 2, 3], [0, 1, 2], "embedded hole certificate fails the definition"),
        (C4_EDGES, "notes", ["any", 1.5, None], None, None),
        (C4_EDGES[:3], "peo", None, [0, 1, 2, 2**64], "embedded PEO certificate fails the definition"),
        (C4_EDGES, "hole", None, [0, 1, 2, 2**64], "embedded hole certificate fails the definition"),
    ])
    def test_each_certificate_kind_is_rechecked(self, tmp_path, capsys, edges, name, good, bad, failure):
        """Each kind is checked against the instance by its own checker, with its own
        failure line; a kind with no checker need only be a JSON array.  An id past
        int64 is an integer but no vertex, so it fails the check (exit 1)."""
        rep = tmp_path / "rep.json"
        for cert, code in ((good, 0), (bad, cli.EXIT_CHECK_FAILED)):
            if cert is None:
                continue
            rep.write_text(json.dumps({"instance": {"n": 4, "edges": edges}, "certificates": {name: cert}}))
            assert run(["report", str(rep)]) == code
            err = capsys.readouterr().err
            assert (f"RECHECK FAIL: {failure}" in err) == bool(code) and ("recheck OK" in err) != bool(code)

    def test_report_reads_each_id_once(self, tmp_path, monkeypatch):
        """n twice (its check and ``Graph.build``), then each id of the m edges and
        of the k fill pairs once: the fill is tested as the array its read made."""
        src, rep = tmp_path / "g.col", tmp_path / "rep.json"
        run(["gen", "gnp", "--n", "30", "--p", "0.2", "--seed", "5", "--out", str(src)])
        assert run(["solve", str(src), "fillin-heuristic", "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        m, k = len(data["instance"]["edges"]), len(data["certificates"]["fillin"])
        assert m > 0 and k > 0
        calls = []
        read = graph._vertex_id
        monkeypatch.setattr(graph, "_vertex_id", lambda x: calls.append(x) or read(x))
        assert run(["report", str(rep)]) == 0
        assert len(calls) == 2 * m + 2 * k + 2

    def test_report_reads_each_cover_id_once(self, tmp_path, monkeypatch):
        """n twice, each id of the m edges once and each of the k cover ids once:
        the cover is tested as the ids its read made, with no second read."""
        from fillinlab import solvers

        src, rep = tmp_path / "g.col", tmp_path / "rep.json"
        run(["gen", "gnp", "--n", "30", "--p", "0.2", "--seed", "5", "--out", str(src)])
        assert run(["solve", str(src), "vc", "--out", str(rep)]) == 0
        data = json.loads(rep.read_text())
        m, k = len(data["instance"]["edges"]), len(data["certificates"]["cover"])
        assert (m, k) == (89, 20)
        calls = []
        read = graph._vertex_id
        for module in (graph, solvers):
            monkeypatch.setattr(module, "_vertex_id", lambda x: calls.append(x) or read(x))
        assert run(["report", str(rep)]) == 0
        assert len(calls) == 2 * m + k + 2

    @pytest.mark.parametrize("kind", ["peo", "hole"])
    def test_report_reads_each_peo_and_hole_id_once(self, tmp_path, monkeypatch, kind):
        """n twice, each id of the m edges once and each of the k certificate ids
        once: a 40-vertex path with its natural order as ``peo``, and a 40-cycle
        with itself as ``hole``, each tested as the array its read made."""
        n = 40
        edges = [[v, (v + 1) % n] for v in range(n if kind == "hole" else n - 1)]
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"instance": {"n": n, "edges": edges}, "certificates": {kind: list(range(n))}}))
        calls = []
        read = graph._vertex_id
        monkeypatch.setattr(graph, "_vertex_id", lambda x: calls.append(x) or read(x))
        assert run(["report", str(rep)]) == 0
        assert len(calls) == 2 * len(edges) + n + 2 == {"peo": 120, "hole": 122}[kind]

    @pytest.mark.parametrize("edges, cover, m, failures", [
        ([[0, 1], [1, 2], [2, 3]], [1, 2], 4, ["instance m is 4, but its edges give 3", "instance hash is '"]),
        ([[0, 1], [1, 2], [2, 3], [0, 2]], [0, 2], 4, ["instance hash is '"]),
        (C4_EDGES, [0, 2], 4.0, ["instance m is 4.0, but its edges give 4"]),
    ], ids=["edge-dropped", "edge-swapped", "float-m"])
    def test_instance_is_recounted_from_its_edges(self, c4_file, tmp_path, capsys, edges, cover, m, failures):
        """Certificates are checked against the embedded edges, so the edges must be
        the instance the report names: its ``m`` (an integer) and ``hash`` are
        recomputed, and a report without them is checked against its edges alone."""
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        data = json.loads(rep.read_text())
        data["instance"]["edges"], data["certificates"]["cover"], data["instance"]["m"] = edges, cover, m
        rep.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["report", str(rep)]) == cli.EXIT_CHECK_FAILED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(failures)
        assert all(line.startswith(f"RECHECK FAIL: {failure}") for line, failure in zip(err, failures))
        del data["instance"]["m"], data["instance"]["hash"]
        rep.write_text(json.dumps(data))
        assert run(["report", str(rep)]) == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "g.col", "vc"], ["solve", "g.col", "fillin"],
        ["solve", "g.col", "fillin-heuristic", "--strategy", "min-fill"],
        ["solve", "g.col", "fillin-heuristic", "--strategy", "min-degree"],
        ["eliminate", "g.col"], ["eliminate", "g.col", "--strategy", "min-degree"],
        ["eliminate", "g.col", "--ordering", "7,6,5,4,3,2,1,0"],
        ["reduce", "g.col", "--mode", "primitive", "--graph-out", "gadget.col"],
        ["reduce", "g.col", "--mode", "colored", "--b", "2", "--d", "5", "--graph-out", "gadget.col"],
        *(["verify", suite, "--trials", "3"] for suite in ("matrix", "sandwich", "theorem4", "transfer")),
    ], ids=" ".join)
    def test_every_command_report_rechecks(self, tmp_path, monkeypatch, argv):
        """Each report a command writes passes the re-check: its numbers are written
        as the re-check reads them, and its instance matches its edges."""
        from fillinlab.generate import gnp

        monkeypatch.chdir(tmp_path)
        save_dimacs(gnp(8, 0.4, 3), "g.col")
        assert run([*argv, "--out", "rep.json"]) == 0
        assert run(["report", "rep.json"]) == 0

    def test_tampered_inequality_detected(self, c4_file, tmp_path):
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        data = json.loads(rep.read_text())
        data["checks"][0]["lhs"] = 99
        rep.write_text(json.dumps(data))
        assert run(["report", str(rep)]) == cli.EXIT_CHECK_FAILED


class TestErrors:
    def test_missing_file(self):
        assert run(["solve", "/nonexistent.col", "vc"]) == cli.EXIT_BAD_INPUT

    def test_header_too_large_to_allocate_exit_3(self, tmp_path, capsys):
        """1e8 vertices would take 1.11 PiB of packed rows; NumPy refuses the
        allocation before it touches any memory."""
        src = tmp_path / "huge.col"
        src.write_text("p edge 100000000 0\n")
        assert run(["solve", str(src), "vc"]) == cli.EXIT_LIMIT
        err = capsys.readouterr().err
        assert err.startswith("limit: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "{}", "vc"],
            ["reduce", "{}", "--mode", "primitive", "--graph-out", "{}/g.col"],
            ["eliminate", "{}"],
            ["report", "{}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_directory_input_exit_2(self, tmp_path, capsys, command):
        assert run([arg.format(tmp_path) for arg in command]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize(
        "name, command",
        [
            ("bad.col", ["solve", "{}", "vc"]),
            ("bad.col", ["reduce", "{}", "--mode", "primitive", "--graph-out", "{}.out"]),
            ("bad.col", ["eliminate", "{}"]),
            ("bad.mtx", ["eliminate", "{}"]),
        ],
        ids=["solve", "reduce", "eliminate-dimacs", "eliminate-mm"],
    )
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, name, command):
        bad = tmp_path / name
        bad.write_bytes(b"p edge 2 1\ne 1 2\nc caf\xe9\n")
        assert run([arg.format(bad) for arg in command]) == cli.EXIT_BAD_INPUT
        assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("hello world\n")
        assert run(["solve", str(bad), "vc"]) == cli.EXIT_BAD_INPUT

    def test_non_integer_dimacs_header_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 3 x\n")
        assert run(["solve", str(bad), "vc"]) == cli.EXIT_BAD_INPUT
        assert f"{bad}:1: expected integers, got '3 x'" in capsys.readouterr().err

    def test_non_integer_dimacs_edge_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("c two vertices\np edge 2 1\ne 1 two\n")
        assert run(["eliminate", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_non_integer_matrix_market_entry_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 x 1.0\n")
        assert run(["eliminate", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}:3: malformed entry" in capsys.readouterr().err

    def test_short_matrix_market_entry_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "short.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 1\n2 1\n")
        assert run(["eliminate", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}:4: malformed entry '2 1'" in capsys.readouterr().err

    def test_non_integer_matrix_market_size_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "size.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 one\n")
        assert run(["eliminate", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}:2: expected integers, got '3 3 one'" in capsys.readouterr().err

    def test_non_integer_ordering_exit_2(self, c4_file, capsys):
        assert run(["eliminate", c4_file, "--ordering", "0,1,x"]) == cli.EXIT_BAD_INPUT
        assert "--ordering: expected integers, got '0 1 x'" in capsys.readouterr().err

    def test_empty_ordering_exit_2(self, c4_file, capsys):
        assert run(["eliminate", c4_file, "--ordering", ""]) == cli.EXIT_BAD_INPUT
        assert "--ordering: expected integers, got ''" in capsys.readouterr().err

    def test_non_fraction_eps_exit_2(self, capsys):
        assert run(["verify", "transfer", "--eps", "abc", "--trials", "1"]) == cli.EXIT_BAD_INPUT
        assert "--eps: expected a fraction, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "0"], "--trials must be at least 1, got 0"),
            (["--nmax", "0"], "--nmax must be at least 2, got 0"),
            (["--nmax", "1"], "--nmax must be at least 2, got 1"),
            (["--jobs", "0"], "--jobs must be at least 1, got 0"),
        ],
    )
    def test_bad_verify_counts_exit_2(self, capsys, flags, message):
        assert run(["verify", "sandwich", "--trials", "1", *flags]) == cli.EXIT_BAD_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps", "0"], "epsilon must lie strictly between 0 and 1"),
            (["--eps", "3/2"], "epsilon must lie strictly between 0 and 1"),
            (["--d", "2"], "d must be at least 3"),
        ],
        ids=["eps-0", "eps-3/2", "d-2"],
    )
    def test_bad_transfer_config_exit_2(self, capsys, monkeypatch, flags, message):
        """A bad ``--eps`` or ``--d`` is refused before any trial runs, even when no
        drawn graph has an edge to run a transfer on."""
        monkeypatch.setattr(cli.generate, "random_subcubic", lambda n, rng: Graph.build(n))
        assert run(["verify", "transfer", "--trials", "2", *flags]) == cli.EXIT_BAD_INPUT
        assert message in capsys.readouterr().err

    def test_nmax_is_not_checked_where_unread(self, capsys):
        assert run(["verify", "transfer", "--trials", "1", "--nmax", "0"]) == cli.EXIT_OK

    def test_report_not_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        bad.write_text("PASS\n")
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}: not a JSON report" in capsys.readouterr().err

    def test_report_unknown_op_exit_2(self, c4_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        data = json.loads(rep.read_text())
        for op in ("~", ["<"]):
            data["checks"][0]["op"] = op
            rep.write_text(json.dumps(data))
            assert run(["report", str(rep)]) == cli.EXIT_BAD_INPUT
            assert f"{rep}: check cover_is_valid has unknown op {op!r}" in capsys.readouterr().err

    def test_report_top_level_array_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        bad.write_text("[1, 2]\n")
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}: a report is a JSON object, not list" in capsys.readouterr().err

    def test_report_checks_not_array_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        bad.write_text(json.dumps({"checks": 5}))
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}: checks is not a JSON array" in capsys.readouterr().err

    def test_report_check_not_object_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        bad.write_text(json.dumps({"checks": ["x < 1"]}))
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}: check 'x < 1' is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lhs", "rhs", "pass"])
    def test_report_check_missing_field_exit_2(self, key, c4_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        data = json.loads(rep.read_text())
        del data["checks"][0][key]
        rep.write_text(json.dumps(data))
        assert run(["report", str(rep)]) == cli.EXIT_BAD_INPUT
        assert f"{rep}: check cover_is_valid lacks {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("lhs, op, rhs", [
        ("abc", "<", 1), ("1/0", "<", 1), ("abc", "<", "abd"), ("5", "==", "5"), (1.5, "<", 2),
        ([1], "<", [2]), (None, "==", None), ({"a": 1}, "==", {"a": 1}),
    ], ids=["abc", "1/0", "strings", "plain-string", "float", "arrays", "nulls", "objects"])
    def test_report_check_non_number_exit_2(self, lhs, op, rhs, tmp_path, capsys):
        """A side is a number only as a report writes one: an int, a bool (0/1) or a
        ``"p/q"`` string; strings, arrays, nulls and objects do not compare as numbers."""
        bad = tmp_path / "rep.json"
        check = {"name": "x", "op": op, "lhs": lhs, "rhs": rhs, "pass": True}
        bad.write_text(json.dumps({"checks": [check]}))
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"{bad}: check x relates {lhs!r} and {rhs!r}, which are not both numbers" in err

    @pytest.mark.parametrize("passed", [1, 0, "true", None])
    def test_report_check_pass_not_bool_exit_2(self, passed, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        check = {"name": "x", "op": "<", "lhs": True, "rhs": "3/2", "pass": passed}
        bad.write_text(json.dumps({"checks": [check]}))
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}: check x records pass={passed!r}, not a JSON bool" in capsys.readouterr().err

    def test_report_instance_not_object_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        bad.write_text(json.dumps({"instance": [1], "checks": []}))
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}: instance is not a JSON object" in capsys.readouterr().err

    def test_report_instance_without_n_exit_2(self, c4_file, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run(["solve", c4_file, "vc", "--out", str(rep)])
        data = json.loads(rep.read_text())
        assert data["certificates"] and data["instance"]["edges"]
        del data["instance"]["n"]
        rep.write_text(json.dumps(data))
        assert run(["report", str(rep)]) == cli.EXIT_BAD_INPUT
        assert f"{rep}: instance has edges but no vertex count n" in capsys.readouterr().err

    @pytest.mark.parametrize("instance, certs, message", [
        ({"n": 2, "edges": [[0, 1]]}, ["cover"], "certificates is not a JSON object"),
        ({"n": 2, "edges": [[0, 1]]}, {"cover": 5}, "certificate cover is not a JSON array"),
        ({"n": "2", "edges": [[0, 1]]}, {"cover": [0]}, "instance needs an integer n"),
        ({"n": 2, "edges": 5}, {"cover": [0]}, "instance needs an integer n and an edge array"),
        ({"n": 2, "edges": [[0, 1]]}, {"cover": ["a"]}, "certificate cover is not a JSON array of vertex ids"),
        ({"n": 2, "edges": [[0, 1]]}, {"fillin": [5]}, "certificate fillin is not a JSON array of vertex pairs"),
        ({"n": 2, "edges": [[0, 1]]}, {"hole": [True]}, "certificate hole is not a JSON array of vertex ids"),
        ({"n": True, "edges": [[0, 1]]}, {"cover": [0]}, "instance needs an integer n and an edge array"),
        ({"n": 2.5, "edges": [[0, 1]]}, {"cover": [0]}, "instance needs an integer n and an edge array"),
        ({"n": 2, "edges": [[0, 1]]}, {"cover": {}}, "certificate cover is not a JSON array of vertex ids"),
        ({"n": 2, "edges": [[0, 1]]}, {"notes": "x"}, "certificate notes is not a JSON array of vertex ids"),
    ])
    def test_report_malformed_certificate_input_exit_2(self, instance, certs, message, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        bad.write_text(json.dumps({"instance": instance, "certificates": certs}))
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"{bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edge", [[0], [0, 1, 1]])
    def test_report_instance_edge_not_pair_exit_2(self, edge, tmp_path, capsys):
        bad = tmp_path / "rep.json"
        bad.write_text(json.dumps({"instance": {"n": 2, "edges": [edge]}, "certificates": {"cover": [0]}}))
        assert run(["report", str(bad)]) == cli.EXIT_BAD_INPUT
        assert f"edge {edge!r} is not a pair" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "cycle", "--jobs", "9"],
        ["reduce", "GRAPH", "--mode", "primitive", "--graph-out", "o.col", "--seed", "3"],
        ["solve", "GRAPH", "vc", "--jobs", "2"],
        ["eliminate", "GRAPH", "--timings"],
        ["report", "GRAPH", "--out", "x.json"],
    ])
    def test_unread_flag_exit_2(self, argv, c4_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run([c4_file if a == "GRAPH" else a for a in argv])
        assert exc.value.code == cli.EXIT_BAD_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err
