"""Mutation probe: does the test suite notice each small change to ``src/fpsearch``?

    python3 tools/mutprobe.py [module.py ...]   # default: all modules, about an hour

A module is named as ``verify.py`` or by its path, ``src/fpsearch/verify.py``.

Mutants: an operator swap (``+ -``, ``* /``, ``< <=``, ``> >=``, ``== !=``), a number
plus one, a statement (not a docstring or import) made ``pass``. Each runs the suite
with ``-x`` from a copy of the package, its module's tests first and criterion 4 (a
known failure) deselected, two at a time. The unmutated suite runs first: it must
pass, and a mutant still running after ``TIMEOUT_FACTOR`` times its time (printed)
is killed with its process group. Prints survivors, then counts.
"""

import ast, contextlib, os, re, shutil, signal, subprocess, sys, tempfile, time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fpsearch"
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
        ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
IMPORT = (ast.Import, ast.ImportFrom)
# Some mutants loop forever (``gamma -= np.pi`` deleted) or fork a chain of suites.
TIMEOUT_FACTOR = 3  # a mutant's run may take this many times the unmutated run


def sites(tree):
    """Yield ``(line, kind, mutate)`` for every site of ``tree``, in a fixed order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            yield node.lineno, "swap", lambda n=node: setattr(n, "op", SWAP[type(n.op)]())
        for i, op in enumerate(getattr(node, "ops", [])):
            if type(op) in SWAP:
                yield node.lineno, "swap", lambda s=node.ops, i=i: s.__setitem__(
                    i, SWAP[type(s[i])]())
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            yield node.lineno, "const+1", lambda n=node: setattr(n, "value", n.value + 1)
        for body in (b for _, b in ast.iter_fields(node) if isinstance(b, list)):
            for i, st in enumerate(body):
                doc = isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant)
                if isinstance(st, ast.stmt) and not (doc or isinstance(st, IMPORT)):
                    yield st.lineno, "pass", lambda b=body, i=i: b.__setitem__(i, ast.Pass())


def survives(module, source, timeout=None):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(SRC, Path(tmp, "fpsearch"), ignore=shutil.ignore_patterns("*.pyc"))
        Path(tmp, "fpsearch", module).write_text(source)
        first = [p for p in (f"tests/test_{module}", "tests/test_default_outputs.py")
                 if (ROOT / p).exists()]
        with open(Path(tmp, "log"), "w+") as log:  # own session: forks die with it
            proc = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 f"--basetemp={tmp}/t", "--deselect",
                 "tests/test_acceptance.py::test_criterion[4]", *first, "tests"],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
                env={**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"})
            try:
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.wait(timeout=timeout)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait()  # -9 if it was still running
            log.seek(0)  # exit 0 alone is not enough: a mutant may os._exit(0) early
            return code == 0 and re.search(r"^\d+ passed", log.read(), re.M) is not None


def main(modules):
    jobs = []
    for module in modules:
        text = (SRC / module).read_text()
        for i, (line, kind, _) in enumerate(sites(ast.parse(text))):
            tree = ast.parse(text)
            next(s for j, s in enumerate(sites(tree)) if j == i)[2]()
            where = f"{module}:{line} {kind}: {text.splitlines()[line - 1].strip()}"
            jobs.append((module, where, ast.unparse(tree)))
    start = time.monotonic()
    if not survives(modules[0], (SRC / modules[0]).read_text()):
        sys.exit("the unmutated suite fails; every mutant would count as killed")
    took = time.monotonic() - start
    timeout = TIMEOUT_FACTOR * took
    print(f"unmutated suite {took:.1f} s; per-mutant timeout {timeout:.1f} s "
          f"({TIMEOUT_FACTOR}x)", flush=True)
    total, alive = Counter(m for m, _, _ in jobs), Counter()
    with ThreadPoolExecutor(2) as pool:
        for (module, where, _), left in zip(
                jobs, pool.map(lambda j: survives(j[0], j[2], timeout), jobs)):
            alive[module] += left
            if left:
                print(where, flush=True)
    for module in modules:
        print(f"{module}: {total[module]} mutants, {alive[module]} survived")
    print(f"all: {len(jobs)} mutants, {alive.total()} survived")


if __name__ == "__main__":
    main([Path(m).name for m in sys.argv[1:]] or sorted(p.name for p in SRC.glob("*.py")))
