import importlib.util
import json
import os
import subprocess
import sys

import pytest

from hurwitz import cli, nielsen, reduced
from hurwitz.groups import ConsistencyError, GroupHandle, make_group
from hurwitz.nielsen import NielsenSpec
from hurwitz.braid import all_orbits
from oracles import cache_data, di_detect, hm_detect, spec_sha256

A4_SPEC = {"group": {"family": "affine2", "ell": 2, "k": 0, "order": 3},
           "classes": ["C+", "C+", "C-", "C-"],
           "equivalence": "inner"}


@pytest.fixture()
def a4_file(tmp_path):
    p = tmp_path / "a4.json"
    p.write_text(json.dumps(A4_SPEC))
    return str(p)


def run_to_file(tmp_path, a4_file, *extra):
    out = tmp_path / "out"
    code = cli.run(["--spec", a4_file, "--out", str(out), *extra])
    return code, out


def read_report(out, cmd="report", fmt="json"):
    with open(os.path.join(str(out), "%s.%s" % (cmd, fmt)), "rb") as fh:
        return fh.read()


def test_report_a4_contents(tmp_path, a4_file):
    code, out = run_to_file(tmp_path, a4_file, "--cmd", "report")
    assert code == cli.EXIT_OK
    rep = json.loads(read_report(out))
    comps = sorted(((c["degree"], c["genus"], c["lift"])
                    for c in rep["components"]))
    assert comps == [(6, 0, 1), (9, 0, 0)]
    assert rep["enumerate"]["count"] == 30
    assert sorted(rep["orbits"]["lattice"]["inner_sizes"]) == [12, 18]
    assert rep["orbits"]["lattice"]["v"] == {"0": 1, "1": 1}
    verdicts = sorted(w["verdict"] for w in rep["wohlfahrt"])
    assert verdicts == ["inconclusive", "not a modular curve"]
    assert rep["bcl"]["rational_union"] is True
    lifts = {o["lift"]: o for o in rep["lift"]["orbits"]}
    assert lifts[1]["obstructed"] and not lifts[0]["obstructed"]
    assert lifts[0]["hm"] and not lifts[1]["hm"]


def test_dihedral_report_with_noncyclic_units(tmp_path):
    # (Z/15)^x is not cyclic, so the absolute lattice acts through two
    # unit generators instead of a primitive root
    spec = tmp_path / "d15.json"
    spec.write_text(json.dumps({"group": {"family": "dihedral", "m": 15},
                                "classes": ["2"] * 4,
                                "equivalence": "inner"}))
    out = tmp_path / "out"
    code = cli.run(["--spec", str(spec), "--cmd", "report",
                    "--out", str(out)])
    assert code == cli.EXIT_OK
    lattice = json.loads(read_report(out))["orbits"]["lattice"]
    assert lattice["inner_sizes"] == [96]
    assert lattice["absolute_sizes"] == [24]
    assert lattice["v"] == {"0": 1}


def test_deterministic_across_cache(tmp_path, a4_file):
    # without a cache, filling the cache, and reading it back
    cache = tmp_path / "cache"
    outs = []
    for i, extra in enumerate(([], ["--cache", str(cache)],
                               ["--cache", str(cache)])):
        out = tmp_path / ("out%d" % i)
        code = cli.run(["--spec", a4_file, "--cmd", "report",
                        "--out", str(out), *extra])
        assert code == cli.EXIT_OK
        outs.append(read_report(out))
    assert outs[0] == outs[1] == outs[2]
    assert any(f.startswith("orbits-") for f in os.listdir(str(cache)))


def test_cache_roundtrip(tmp_path):
    spec = NielsenSpec.from_json(A4_SPEC)
    orbits = all_orbits(spec)
    cli.store_cached_orbits(str(tmp_path), spec, orbits)
    back = cli.load_cached_orbits(str(tmp_path), spec)
    assert back is not None
    assert [o.members for o in back] == [o.members for o in orbits]
    # cache is keyed by spec hash: a different spec misses
    other = NielsenSpec.from_json({**A4_SPEC, "equivalence": "absolute"})
    assert cli.load_cached_orbits(str(tmp_path), other) is None


def test_exit_codes(tmp_path, a4_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"classes": ["C+"]}))
    assert cli.run(["--spec", str(bad)]) == cli.EXIT_CONFIG
    bad.write_text(json.dumps({**A4_SPEC, "group": ["affine2"]}))
    assert cli.run(["--spec", str(bad)]) == cli.EXIT_CONFIG
    notjson = tmp_path / "nope.json"
    notjson.write_text("{")
    assert cli.run(["--spec", str(notjson)]) == cli.EXIT_CONFIG
    assert cli.run(["--spec", str(tmp_path / "missing.json")]) == \
        cli.EXIT_CONFIG
    assert cli.run(["--spec", a4_file, "--budget", "3"]) == cli.EXIT_BUDGET
    assert cli.run(["--spec", a4_file, "--budget", "-1"]) == cli.EXIT_CONFIG
    assert cli.run(["--spec", a4_file, "--cmd", "bogus"]) == cli.EXIT_CONFIG
    # a composite ell, on which the lift invariant is no invariant
    bad.write_text(json.dumps({**A4_SPEC, "group": {**A4_SPEC["group"],
                                                    "ell": 4}}))
    assert cli.run(["--spec", str(bad), "--cmd", "lift"]) == cli.EXIT_CONFIG
    # the trivial dihedral group, whose unit group (Z/1)^x has no
    # generators: an empty class, not a config error
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({"group": {"family": "dihedral", "m": 1},
                                   "classes": ["1", "1", "1"]}))
    assert cli.run(["--spec", str(trivial), "--cmd", "report", "--out",
                    str(tmp_path / "trivial")]) == cli.EXIT_OK
    # a class multiset that the dihedral unit generator moves: the
    # absolute classes are those of its stabilizer, {1, 6}
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps({"group": {"family": "dihedral", "m": 7},
                                 "classes": ["2", "2", "rot1", "rot1"]}))
    assert cli.run(["--spec", str(moved), "--cmd", "orbits", "--out",
                    str(tmp_path / "moved")]) == cli.EXIT_OK
    # removed options are rejected by the parser
    assert cli.run(["--spec", a4_file, "--jobs", "2"]) == cli.EXIT_CONFIG
    assert cli.run(["--spec", a4_file, "--format", "text"]) == \
        cli.EXIT_CONFIG
    # an output or cache directory that names an existing regular file
    afile = tmp_path / "afile"
    afile.write_text("")
    for flag in ("--out", "--cache"):
        assert cli.run(["--spec", a4_file, "--cmd", "enumerate",
                        flag, str(afile)]) == cli.EXIT_CONFIG, flag


@pytest.mark.parametrize("family,field,value,rest", [
    ("affine2", "ell", 0, {"k": 0, "order": 3}),
    ("affine2", "k", -1, {"ell": 3, "order": 2}),
    ("dihedral", "m", -3, {}), ("dihedral", "m", 0, {}),
    ("alternating", "n", 0, {}), ("alternating", "n", 1, {}),
    ("symmetric", "n", 0, {})])
def test_out_of_range_family_parameter_is_a_config_error(
        tmp_path, capsys, family, field, value, rest):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"group": {"family": family,
                                               field: value, **rest},
                                     "classes": ["1"] * 3}))
    assert cli.run(["--spec", str(spec_file), "--cmd", "enumerate"]) == \
        cli.EXIT_CONFIG
    assert "%s needs %s >=" % (family, field) in capsys.readouterr().err


def test_inconsistency_while_loading_is_internal(a4_file, monkeypatch,
                                                 capsys):
    def broken(gspec):
        raise ConsistencyError("group tables disagree")
    monkeypatch.setattr(nielsen, "make_group", broken)
    assert cli.run(["--spec", a4_file]) == cli.EXIT_INTERNAL
    assert "internal inconsistency: group tables disagree" in \
        capsys.readouterr().err


def test_all_commands_run(tmp_path, a4_file):
    for cmd in cli.COMMANDS:
        out = tmp_path / cmd
        code = cli.run(["--spec", a4_file, "--cmd", cmd, "--out", str(out)])
        assert code == cli.EXIT_OK, cmd
        assert os.path.exists(os.path.join(str(out), "%s.json" % cmd))


def test_tsv_and_dot_formats(tmp_path, a4_file):
    code, out = run_to_file(tmp_path, a4_file, "--cmd", "enumerate",
                            "--format", "tsv")
    assert code == cli.EXIT_OK
    tsv = read_report(out, "enumerate", "tsv").decode()
    assert "count\t30" in tsv

    code, out2 = cli.run(["--spec", a4_file, "--cmd", "orbits",
                          "--out", str(tmp_path / "d"), "--format",
                          "dot"]), tmp_path / "d"
    assert code == cli.EXIT_OK
    dot = read_report(out2, "orbits", "dot").decode()
    assert dot.startswith("digraph")
    assert "inn0 -> abs" in dot


def test_tower_command(tmp_path, a4_file):
    code, out = run_to_file(tmp_path, a4_file, "--cmd", "tower")
    assert code == cli.EXIT_OK
    rep = json.loads(read_report(out, "tower"))
    # both level-0 orbits carry two level-1 orbits above them
    assert [len(o["level_up_orbits"]) for o in rep["orbits"]] == [2, 2]


def test_tower_child_inherits_the_budget(tmp_path, a4_file):
    # A4 C+-3^2 has 6 label orderings and two free classes of 4 elements
    # (raw count 96); its level-1 child has classes of 16 (raw count 1 536)
    def run(cmd, budget):
        return cli.run(["--spec", a4_file, "--cmd", cmd, "--budget", budget,
                        "--out", str(tmp_path / cmd / budget)])
    assert run("orbits", "1535") == cli.EXIT_OK
    assert run("tower", "1535") == cli.EXIT_BUDGET
    assert run("tower", "1536") == cli.EXIT_OK


def test_spec_faults_come_before_the_budget(tmp_path, a4_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**A4_SPEC, "classes": ["C+", "bogus", "C-"]}))
    for spec_file, message in ((bad, "no class labelled"),
                               (a4_file, "budget must be positive")):
        assert cli.run(["--spec", str(spec_file), "--budget", "0"]) == \
            cli.EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_env_overrides(tmp_path, a4_file, monkeypatch):
    # the budget and the cache are flags only: the environment sets
    # neither, and a budget that is no integer is a usage error
    cache = tmp_path / "envcache"
    monkeypatch.setenv("HURWITZ_BUDGET", "3")
    monkeypatch.setenv("HURWITZ_CACHE", str(cache))
    assert cli.run(["--spec", a4_file, "--cmd", "enumerate",
                    "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert not cache.exists()
    assert cli.run(["--spec", a4_file, "--budget", "abc"]) == cli.EXIT_CONFIG


def test_benchmark_tracer_names_resolve():
    # perfbench/tracer.py looks these names up with getattr in its traced
    # runs, so a rename here would break the benchmark's --trace mode
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "tracer.py")
    mspec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(mspec)
    mspec.loader.exec_module(tracer)
    for mod, name in tracer.FUNCTIONS:
        assert callable(getattr(tracer.MODULES[mod], name, None)), (mod, name)
    for meth in tracer.METHODS:
        assert callable(getattr(GroupHandle, meth, None)), meth
    assert callable(cli._cache_path)
    assert set(cli.BUILDERS) == set(cli.COMMANDS)


def test_spec_hash_loads_no_openssl():
    # the spec hash is CPython's own SHA-256, so importing the driver
    # leaves OpenSSL unloaded, and the digest is hashlib's
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import sys, hurwitz.cli; "
              "print(sorted(m for m in ('_hashlib', 'hashlib') "
              "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
    spec = NielsenSpec.from_json(A4_SPEC)
    assert cli.spec_hash(spec) == spec_sha256(spec)


# the top-level modules a fresh `python -S` holds once it has imported
# hurwitz.cli, on CPython 3.11; 3.10 also loads the old regex modules and
# _locale, 3.12 has _sha2 for _sha256, 3.13 adds linecache, and its later
# releases errno, which `import os` itself loads there
CLI_IMPORTS = set("""
    __main__ _abc _bisect _codecs _collections _collections_abc
    _frozen_importlib _frozen_importlib_external _functools _imp _io _json
    _operator _sha256 _signal _sre _stat _thread _typing _warnings _weakref
    abc argparse array bisect builtins codecs collections contextlib copyreg
    encodings enum functools genericpath gettext hurwitz io itertools json
    keyword marshal math operator os posix posixpath re reprlib stat sys
    time types typing warnings zipimport
    _locale sre_compile sre_constants sre_parse _sha2 linecache errno
    """.split())


def test_cli_import_loads_no_new_module():
    # every module the driver's import loads is start-up time of every
    # report, so the set may shrink but not grow
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import sys, hurwitz.cli; "
              "print(*sorted({m.partition('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "hurwitz" in proc.stdout.split()
    assert set(proc.stdout.split()) - CLI_IMPORTS == set()


def test_spec_hash_stability():
    s1 = NielsenSpec.from_json(A4_SPEC)
    s2 = NielsenSpec.from_json(json.loads(json.dumps(A4_SPEC)))
    assert cli.spec_hash(s1) == cli.spec_hash(s2)
    # the budget bounds the work, not the answer: it is not hashed
    for budget in (3, 10 ** 12):
        s3 = NielsenSpec.from_json(A4_SPEC, budget)
        assert cli.spec_hash(s3) == cli.spec_hash(s1)
        assert s3.to_json() == s1.to_json()


DI5_SPEC = {"group": {"family": "affine2", "ell": 5, "k": 0, "order": 3},
            "classes": ["C+", "C+", "C-", "C-"],
            "equivalence": "inner"}


def _affine(ell, order, classes):
    return {"group": {"family": "affine2", "ell": ell, "k": 0,
                      "order": order},
            "classes": classes, "equivalence": "absolute"}


@pytest.mark.parametrize("spec_json", [
    dict(DI5_SPEC, equivalence="absolute"),
    _affine(7, 2, ["2"] * 4),
    _affine(7, 3, ["C-"] * 3)], ids=["di5", "serre7", "di7-c3"])
def test_absolute_lift_is_a_config_error(tmp_path, spec_json):
    # an absolute component carries one lift value per inner component
    # above it (DI l=7 with C-^3: six inner orbits with values 1..6 over
    # one absolute orbit), so no single value is reported
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_json))
    assert cli.run(["--spec", str(spec_file), "--cmd", "lift",
                    "--out", str(tmp_path / "lift")]) == cli.EXIT_CONFIG
    if len(spec_json["classes"]) == 3:
        # r = 3 has no reduction, so the report runs without its lift
        out = tmp_path / "report"
        assert cli.run(["--spec", str(spec_file), "--cmd", "report",
                        "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(read_report(out))
        assert "lift" not in rep and rep["orbits"]["orbits"]


@pytest.mark.parametrize("spec_json", [A4_SPEC, DI5_SPEC],
                         ids=["a4", "di5"])
@pytest.mark.parametrize("first", [None, 0], ids=["all", "none"])
def test_cache_file_is_one_canonical_dump(tmp_path, spec_json, first):
    # the writer, streaming off the packed forms, gives the bytes of one
    # sorted, compact json.dumps of the data read off the NielsenTuples
    spec = NielsenSpec.from_json(spec_json)
    orbits = all_orbits(spec)[:first]
    cli.store_cached_orbits(str(tmp_path), spec, orbits)
    with open(cli._cache_path(str(tmp_path), spec), "rb") as fh:
        written = fh.read()
    assert written == json.dumps(cache_data(spec, orbits), sort_keys=True,
                                 separators=(",", ":")).encode()


def _truncate(data):
    return json.dumps(data)[:200]


def _without_orbits(data):
    return json.dumps({"spec_hash": data["spec_hash"]})


def _drop_largest_orbit(data):
    orbits = sorted(data["orbits"], key=len)[:-1]
    return json.dumps({**data, "orbits": orbits})


def _split_largest_orbit(data):
    # disjoint pieces that still cover the class, but are not braid orbits
    orbits = sorted(data["orbits"], key=len)
    big = orbits.pop()
    half = len(big) // 2
    return json.dumps({**data, "orbits": orbits + [big[:half], big[half:]]})


@pytest.mark.parametrize("corrupt", [_truncate, _without_orbits,
                                     _drop_largest_orbit,
                                     _split_largest_orbit])
def test_corrupt_cache_falls_back_to_cold_report(tmp_path, a4_file,
                                                 corrupt):
    code, cold = run_to_file(tmp_path, a4_file, "--cmd", "report")
    assert code == cli.EXIT_OK
    cache = tmp_path / "cache"
    assert cli.run(["--spec", a4_file, "--cmd", "enumerate",
                    "--cache", str(cache), "--out", str(tmp_path / "e")]) \
        == cli.EXIT_OK
    [name] = os.listdir(str(cache))
    path = cache / name
    path.write_text(corrupt(json.loads(path.read_text())))
    spec = NielsenSpec.from_json(A4_SPEC)
    assert cli.load_cached_orbits(str(cache), spec) is None

    out = tmp_path / "warm"
    assert cli.run(["--spec", a4_file, "--cmd", "report", "--out", str(out),
                    "--cache", str(cache)]) == cli.EXIT_OK
    assert read_report(out) == read_report(cold)
    # the bad file was replaced by a valid one, and no temp file is left
    assert os.listdir(str(cache)) == [name]
    back = cli.load_cached_orbits(str(cache), spec)
    assert [o.members for o in back] == \
        [o.members for o in all_orbits(spec)]


def test_cold_report_work_counts(tmp_path, a4_file, monkeypatch):
    from hurwitz import lift, nielsen

    calls = {}

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in [(nielsen, "nielsen_class"),
                      (cli, "reduce_orbit"), (cli, "orbit_lift_invariant"),
                      (lift, "orbit_lift_invariant")]:
        monkeypatch.setattr(mod, name, counted(mod, name))
    monkeypatch.setattr(GroupHandle, "generates",
                        counted(GroupHandle, "generates"))
    code, out = run_to_file(tmp_path, a4_file, "--cmd", "report",
                            "--cache", str(tmp_path / "cache"))
    assert code == cli.EXIT_OK
    norbits = len(json.loads(read_report(out))["orbits"]["orbits"])
    assert norbits == 2
    # generation is tested once per braid orbit of the 36 product-one
    # forms: the 2 orbits of the Nielsen class and 1 that does not generate
    assert calls == {"nielsen_class": 1, "generates": 3,
                     "reduce_orbit": norbits,
                     "orbit_lift_invariant": norbits}


def _cold_report(tmp_path, a4_file):
    return lambda: run_to_file(tmp_path, a4_file, "--cmd", "report",
                               "--cache", str(tmp_path / "cache"))[0]


def _absolute_orbits_cmd(tmp_path, a4_file):
    p = tmp_path / "abs.json"
    p.write_text(json.dumps({**A4_SPEC, "equivalence": "absolute"}))
    return lambda: cli.run(["--spec", str(p), "--cmd", "orbits",
                            "--out", str(tmp_path / "out")])


def _tower_over_all_orbits(tmp_path, a4_file):
    from hurwitz.lift import tower_lift

    def act():
        spec = NielsenSpec.from_json(A4_SPEC)
        for o in all_orbits(spec):
            tower_lift(spec, o)
        return cli.EXIT_OK
    return act


def _enumerate_one_orbit_cache(tmp_path, a4_file):
    cache = str(tmp_path / "cache")
    spec = NielsenSpec.from_json(A4_SPEC)
    cli.store_cached_orbits(cache, spec, all_orbits(spec)[:1])
    return lambda: run_to_file(tmp_path, a4_file, "--cmd", "enumerate",
                               "--cache", cache)[0]


@pytest.mark.parametrize("case, enumerations, class_maps", [
    (_cold_report, 1, 1), (_absolute_orbits_cmd, 1, 1),
    (_tower_over_all_orbits, 2, 0), (_enumerate_one_orbit_cache, 1, 0)],
    ids=["cold-report", "absolute-orbits", "tower", "one-orbit-cache"])
def test_orbit_work_counts(tmp_path, a4_file, monkeypatch, case,
                           enumerations, class_maps):
    # each Nielsen class is enumerated into its inner braid orbits, and
    # its absolute class map derived, once per spec
    from hurwitz import nielsen

    act = case(tmp_path, a4_file)
    calls = {"nielsen_class": 0, "absolute_class_map": 0}
    for name in calls:
        fn = getattr(nielsen, name)

        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(nielsen, name, counted)
    assert act() == cli.EXIT_OK
    assert calls == {"nielsen_class": enumerations,
                     "absolute_class_map": class_maps}


def test_report_without_numpy(tmp_path, a4_file):
    # the program imports no third-party module: a report run where
    # numpy cannot be imported gives the same bytes
    code, out = run_to_file(tmp_path, a4_file, "--cmd", "report")
    assert code == cli.EXIT_OK
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys; sys.modules['numpy'] = None; "
              "from hurwitz import cli; sys.exit(cli.run(sys.argv[1:]))")
    bare = tmp_path / "bare"
    proc = subprocess.run([sys.executable, "-c", script, "--spec", a4_file,
                           "--cmd", "report", "--out", str(bare)],
                          env=env, capture_output=True)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert read_report(bare) == read_report(out)


@pytest.mark.parametrize("spec_json", [A4_SPEC, DI5_SPEC],
                         ids=["a4", "di5"])
def test_commands_match_report_sections(tmp_path, spec_json):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_json))
    sections = {}
    for cmd in ("report", "enumerate", "orbits", "cusps", "genus",
                "shmatrix", "lift"):
        out = tmp_path / cmd
        assert cli.run(["--spec", str(spec_file), "--cmd", cmd,
                        "--out", str(out)]) == cli.EXIT_OK
        sections[cmd] = json.loads(read_report(out, cmd))
    report = sections.pop("report")
    for cmd, section in sections.items():
        assert section == report[cmd], cmd


A5_T_SPEC = {"group": {"family": "alternating", "n": 5},
             "classes": ["3"] * 4, "T": "natural"}


def _keys(x):
    """Every dict key in the report x."""
    if isinstance(x, dict):
        yield from x
        for v in x.values():
            yield from _keys(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _keys(v)


def _jsonable(x):
    # the report copied into lists and str keys, then encoded by json
    if isinstance(x, (set, frozenset)):
        return [_jsonable(v) for v in sorted(x)]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


@pytest.mark.parametrize("spec_json", [A4_SPEC, DI5_SPEC, A5_T_SPEC],
                         ids=["a4", "di5", "a5-natural"])
def test_reports_are_encoded_as_they_stand(spec_json):
    # the formatters encode the report itself: its keys are strs, so
    # sort_keys orders them as text, and the JSON is that of the report
    # copied into lists
    spec = NielsenSpec.from_json(spec_json)
    for cmd, build in sorted(cli.BUILDERS.items()):
        if cmd == "tower" and spec_json is not A4_SPEC:
            continue        # none above A_n, and a slow one above DI5
        report = build(spec)
        assert all(isinstance(k, str) for k in _keys(report)), cmd
        assert "".join(cli.to_json(report)) == json.dumps(
            _jsonable(report), sort_keys=True, indent=1,
            separators=(",", ": ")) + "\n", cmd
    with pytest.raises(TypeError, match="not a str"):
        "".join(cli.to_tsv({"orbits": {1: 2}}))
    assert "".join(cli.to_json({"s": {(2, 1), (1, 3)}})) == \
        '{\n "s": [\n  [\n   1,\n   3\n  ],\n  [\n   2,\n   1\n  ]\n ]\n}\n'
    assert "".join(cli.to_tsv({"s": {(2, 1), (1, 3)}, "t": (4,)})) == \
        "s.0.0\t1\ns.0.1\t3\ns.1.0\t2\ns.1.1\t1\nt.0\t4\n"


@pytest.mark.parametrize("spec_json", [A4_SPEC, DI5_SPEC],
                         ids=["a4", "di5"])
def test_report_builds_no_members(tmp_path, monkeypatch, spec_json):
    # a report reads every orbit off its index forms: without --cache,
    # and with it, both when it writes the cache and on a hit
    spec = NielsenSpec.from_json(spec_json)
    cli.cmd_report(spec)
    specs = [spec]
    hits = []
    load = cli.load_cached_orbits

    def loaded(cache_dir, run_spec):
        specs.append(run_spec)
        hits.append(load(cache_dir, run_spec))
        return hits[-1]
    monkeypatch.setattr(cli, "load_cached_orbits", loaded)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_json))
    for _ in range(2):
        assert cli.run(["--spec", str(spec_file), "--cache",
                        str(tmp_path / "cache"), "--out",
                        str(tmp_path / "out")]) == cli.EXIT_OK
    assert hits[0] is None and hits[1] is all_orbits(specs[2])
    for run_spec in specs:
        for s in (run_spec, run_spec.as_absolute()):
            for o in all_orbits(s):
                assert "members" not in vars(o)


@pytest.mark.parametrize("spec_json", [A4_SPEC, DI5_SPEC],
                         ids=["a4", "di5"])
@pytest.mark.parametrize("fmt", ["json", "tsv", "dot"])
def test_stdout_and_file_give_the_same_bytes(tmp_path, capsysbinary,
                                             spec_json, fmt):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_json))
    argv = ["--spec", str(spec_file), "--format", fmt]
    assert cli.run(argv) == cli.EXIT_OK
    printed = capsysbinary.readouterr().out
    out = tmp_path / "out"
    assert cli.run(argv + ["--out", str(out)]) == cli.EXIT_OK
    assert printed and printed == read_report(out, fmt=fmt)


def _alt5(labels):
    return {"group": {"family": "alternating", "n": 5}, "classes": labels,
            "equivalence": "inner", "T": "natural"}


@pytest.mark.parametrize("spec_json", [
    A4_SPEC, DI5_SPEC,
    {**DI5_SPEC, "group": {**DI5_SPEC["group"], "ell": 7}},
    {"group": {"family": "affine2", "ell": 7, "k": 0, "order": 2},
     "classes": ["2"] * 4, "equivalence": "inner"},
    {"group": {"family": "dihedral", "m": 49}, "classes": ["2"] * 4,
     "equivalence": "inner"},
    _alt5(["3"] * 4), _alt5(["3"] * 5), _alt5(["5+", "5-", "3"])],
    ids=["a4", "di5", "di7", "serre7", "dih49", "a5-c34", "a5-c35",
         "a5-553"])
def test_index_form_shapes_are_the_tuple_shapes(spec_json):
    spec = NielsenSpec.from_json(spec_json)
    for o in all_orbits(spec):
        assert cli._shapes(o) == {
            "hm": any(hm_detect(spec, t) for t in o.members),
            "di": any(di_detect(spec, t) for t in o.members)}


def _run_spec(tmp_path, spec_json, cmd):
    """Runs cmd on spec_json; (exit code, the JSON report or None)."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_json))
    out = tmp_path / cmd
    code = cli.run(["--spec", str(spec_file), "--cmd", cmd,
                    "--out", str(out)])
    path = out / ("%s.json" % cmd)
    return code, json.loads(path.read_text()) if path.exists() else None


@pytest.mark.parametrize("gspec, labels, T", [
    ({"family": "alternating", "n": 6}, ["3"] * 4, "natural"),
    ({"family": "alternating", "n": 5}, ["3"] * 3, "natural"),
    ({"family": "symmetric", "n": 4}, ["2", "2", "2", "3"], "natural"),
    ({"family": "alternating", "n": 3}, ["3+"] * 4, "regular")],
    ids=["a6-3333", "a5-333", "s4-2223", "a3-regular"])
def test_empty_class_has_no_cover_genus(tmp_path, capsys, gspec, labels, T):
    # Riemann-Hurwitz needs a generating tuple: on a class with none,
    # genus and report leave cover_genus out, where they exited 4 on a
    # negative genus or an odd index sum, or printed a genus of nothing
    spec_json = {"group": gspec, "classes": labels, "equivalence": "inner",
                 "T": T}
    code, rep = _run_spec(tmp_path, spec_json, "genus")
    assert code == cli.EXIT_OK and rep == {"components": []}
    code, rep = _run_spec(tmp_path, spec_json, "report")
    assert code == cli.EXIT_OK
    assert rep["enumerate"]["count"] == 0 and rep["orbits"]["orbits"] == []
    assert rep.get("genus", {"components": []}) == {"components": []}
    assert capsys.readouterr().err == ""
    # cover_genus itself stays a hard gate
    spec = NielsenSpec.from_json(spec_json)
    if gspec["n"] > 3:
        with pytest.raises(ConsistencyError,
                           match="negative genus|odd index sum"):
            nielsen.cover_genus(spec)


def test_inconsistency_while_running_is_internal(tmp_path, a4_file,
                                                 monkeypatch, capsys):
    # a wrong middle-product prediction fails the cusp gate mid-command:
    # exit 4, and no report file
    monkeypatch.setattr(reduced, "_middle_product_uv",
                        lambda h, g2, g3: (1, 0))
    code, out = run_to_file(tmp_path, a4_file, "--cmd", "cusps")
    assert code == cli.EXIT_INTERNAL
    assert "internal inconsistency: cusp prediction v=0" in \
        capsys.readouterr().err
    assert not (out / "cusps.json").exists()


@pytest.mark.parametrize("cmd", ["genus", "report"])
def test_absolute_reduction_is_a_config_error(tmp_path, capsys, cmd):
    code, rep = _run_spec(tmp_path, dict(A4_SPEC, equivalence="absolute"),
                          cmd)
    assert code == cli.EXIT_CONFIG and rep is None
    assert "config error: reduction acts on inner classes" in \
        capsys.readouterr().err


def test_lift_through_an_entry_of_order_ell(tmp_path, capsys):
    # c0|0,1 is a translation, of order 5 = ell: it has no same-order lift
    spec_json = {"group": {"family": "affine2", "ell": 5, "k": 0,
                           "order": 3},
                 "classes": ["C+", "C+", "C+", "c0|0,1"],
                 "equivalence": "inner"}
    code, rep = _run_spec(tmp_path, spec_json, "lift")
    assert code == cli.EXIT_CONFIG and rep is None
    assert "config error: order 5 not coprime to 5" in \
        capsys.readouterr().err
    code, rep = _run_spec(tmp_path, spec_json, "report")
    assert code == cli.EXIT_OK
    assert "lift" not in rep
    assert [o["size"] for o in rep["orbits"]["orbits"]] == [100]
    assert all("lift" not in c for c in rep["components"])
