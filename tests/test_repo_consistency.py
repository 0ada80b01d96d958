"""Repository-level consistency: docs, benchmarks, and registry agree."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestFigureRegistry:
    def test_every_registered_figure_has_a_benchmark(self):
        from repro.eval.figures import ALL_FIGURES

        bench_sources = "\n".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("bench_*.py")
        )
        for name, fn in ALL_FIGURES.items():
            assert fn.__name__ in bench_sources, (
                f"figure {name} ({fn.__name__}) has no benchmark invoking it"
            )

    def test_registry_names_are_cli_safe(self):
        from repro.eval.figures import ALL_FIGURES

        for name in ALL_FIGURES:
            assert re.fullmatch(r"[a-z0-9-]+", name), name


class TestDocs:
    def test_readme_lists_every_benchmark(self):
        readme = (ROOT / "README.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in readme, f"{bench.name} missing from README"

    def test_readme_lists_every_example(self):
        readme = (ROOT / "README.md").read_text()
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in readme, f"{example.name} missing from README"

    def test_readme_names_only_existing_benchmarks_and_examples(self):
        """The other direction: a file README names must exist, whether as
        ``bench_*.py``, ``examples/*.py`` or a bullet of the examples list."""
        readme = (ROOT / "README.md").read_text()
        named = [
            *(ROOT / "benchmarks" / name for name in re.findall(r"\bbench_\w+\.py", readme)),
            *(ROOT / "examples" / name for name in re.findall(r"examples/(\w+\.py)", readme)),
            *(ROOT / "examples" / name for name in re.findall(r"^\* `(\w+\.py)`", readme, re.M)),
        ]
        assert len(named) > 20  # the patterns still match README's layout
        for path in named:
            assert path.is_file(), f"README names {path.relative_to(ROOT)}, which does not exist"

    def test_design_md_mentions_every_subpackage(self):
        design = (ROOT / "DESIGN.md").read_text()
        src = ROOT / "src" / "repro"
        for package in sorted(p.name for p in src.iterdir() if p.is_dir()):
            if package.startswith("__"):
                continue
            assert f"repro.{package}" in design, (
                f"subpackage repro.{package} missing from DESIGN.md inventory"
            )

    def test_experiments_md_covers_every_paper_figure(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in (
            "Figure 9",
            "Figure 10",
            "Figure 11",
            "Figure 12-I",
            "Figure 12-III",
            "Figure 12-IV",
            "Figure 12-V",
            "Figure 12-VI",
            "Figure 3(d)",
        ):
            assert heading in experiments, f"{heading} missing from EXPERIMENTS.md"


class TestPackageHygiene:
    def test_all_subpackages_importable(self):
        import importlib

        src = ROOT / "src" / "repro"
        for package in sorted(p.name for p in src.iterdir() if p.is_dir()):
            if package.startswith("__"):
                continue
            importlib.import_module(f"repro.{package}")

    def test_public_all_exports_resolve(self):
        import importlib

        for module_name in (
            "repro",
            "repro.geo",
            "repro.grid",
            "repro.mlm",
            "repro.nn",
            "repro.core",
            "repro.eval",
            "repro.baselines",
            "repro.roadnet",
            "repro.preprocess",
            "repro.mapinference",
            "repro.io",
            "repro.viz",
            "repro.cluster",
            "repro.obs",
            "repro.serve",
            "repro.resilience",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_examples_compile(self):
        import py_compile

        for example in sorted((ROOT / "examples").glob("*.py")):
            py_compile.compile(str(example), doraise=True)

    def test_version_consistent(self):
        import repro

        pyproject = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


class TestPaperMapping:
    def test_every_referenced_module_exists(self):
        import importlib

        mapping = (ROOT / "docs" / "paper_mapping.md").read_text()
        modules = set(re.findall(r"(repro(?:\.[A-Za-z_]+)+)", mapping))
        assert len(modules) >= 20
        for dotted in sorted(modules):
            # Resolve as module, or as attribute of the parent module.
            try:
                importlib.import_module(dotted)
                continue
            except ImportError:
                pass
            parent, _, attr = dotted.rpartition(".")
            module = importlib.import_module(parent)
            assert hasattr(module, attr), f"{dotted} referenced but missing"

    def test_every_referenced_bench_exists(self):
        mapping = (ROOT / "docs" / "paper_mapping.md").read_text()
        for bench in set(re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", mapping)):
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_every_referenced_example_exists(self):
        mapping = (ROOT / "docs" / "paper_mapping.md").read_text()
        for example in set(re.findall(r"examples/([a-z0-9_]+\.py)", mapping)):
            assert (ROOT / "examples" / example).exists(), example


class TestConfigLiveness:
    """A setting is something a caller varies: every field of the four
    pipeline configs is read somewhere in ``src/repro`` outside a
    ``__post_init__``. A field nothing reads is a constant beside its
    code, or dead."""

    def test_every_pipeline_config_field_is_read(self):
        import ast
        import dataclasses

        from repro.core.config import KamelConfig
        from repro.core.streaming import StreamingConfig
        from repro.mlm.bert import BertConfig, TrainingConfig

        read = set()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            validation = {
                id(node)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                for node in ast.walk(fn)
            }
            read.update(
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in validation
            )
        for cls in (KamelConfig, TrainingConfig, BertConfig, StreamingConfig):
            unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
            assert not unread, f"{cls.__name__}: nothing in src/repro reads {unread}"


class TestNoDeadPublicNames:
    """A public name of a ``src/repro`` module is used by code besides its
    own definition: its module, another module, the benchmark harness, a
    benchmark or an example. That holds for top-level names and for the
    public methods and properties of public top-level classes. Only code
    counts — a ``Name``, an attribute or an imported name — so a
    docstring, a comment or an ``__all__`` string keeps nothing alive, and
    neither does a member's use of itself inside its own body. Tests do not
    count, and neither do the re-exports of a package ``__init__``: a name
    only tests reach is dead code."""

    EXEMPT = {
        "haversine_m": "the test oracle LocalProjection's distances are checked against",
        "set_registry": "test seam: a test swaps in a fresh MetricsRegistry and restores the old one",
        "disable_tracing": "test seam: a test that turned tracing on turns it back off",
        "SegmentImputer.impute_segment": "test seam: the one-segment runner through which tier-1 drives each search strategy",
        "Detokenizer.cell_info": "test seam: the detokenization tests read a cell's fitted clusters (Fig. 8a) through it",
        "BoundingBox.area": "test oracle: the partitioning tests compare model regions by it",
        "Trajectory.max_gap": "test oracle: the tests that imputed output is spaced at most maxgap apart",
        "Grid.cell_distance_m": "test oracle: token distances are checked against it",
        "ModelStore.file_names": "test seam: the model-store tests pick a saved model file by it",
        "InferredMap.visit_count": "test seam: the map-inference tests read the raster's per-cell counts",
        "Vocabulary.real_token_ids": "test seam: property tests draw real tokens from it",
        "RoadNetwork.total_length": "test oracle: the generator tests compare two cities by it",
        "RoadNetwork.project": "test oracle: the tests that imputed points lie on the road network",
    }

    @staticmethod
    def _uses(tree):
        """The identifiers the AST ``tree`` uses in code."""
        import ast

        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield from node.name.split(".")

    @classmethod
    def _dead(cls, modules, readers, exempt=()):
        """``(module, name)`` for each public top-level name of ``modules``
        that no code in ``modules`` or ``readers`` uses, and for each public
        method or property (``Class.name``) of their public top-level
        classes that none uses outside the member's own body."""
        import ast
        from collections import Counter

        trees = {module: ast.parse(source) for module, source in modules.items()}
        used = Counter()
        for tree in [*trees.values(), *(ast.parse(source) for source in readers)]:
            used.update(cls._uses(tree))
        dead = []
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                dead += [
                    (module, name)
                    for name in names
                    if not name.startswith("_") and name not in exempt and not used[name]
                ]
                if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                    continue
                for member in node.body:
                    if (
                        isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")
                        and f"{node.name}.{member.name}" not in exempt
                        and used[member.name] == Counter(cls._uses(member))[member.name]
                    ):
                        dead.append((module, f"{node.name}.{member.name}"))
        return dead

    @staticmethod
    def _program():
        """``src/repro`` modules but package ``__init__`` files, and the
        sources of the harness, the benchmarks and the examples."""
        src = ROOT / "src" / "repro"
        modules = {
            str(p.relative_to(ROOT)): p.read_text()
            for p in sorted(src.rglob("*.py"))
            if p.name != "__init__.py"
        }
        readers = [
            p.read_text()
            for top in ("perf", "benchmarks", "examples")
            for p in (ROOT / top).rglob("*.py")
        ]
        return modules, readers

    def test_every_public_name_has_a_user(self):
        dead = self._dead(*self._program(), self.EXEMPT)
        assert not dead, f"public names nothing uses: {dead}"

    def test_every_exemption_is_needed(self):
        modules, readers = self._program()
        needed = {name for _, name in self._dead(modules, readers)}
        assert set(self.EXEMPT) <= needed, set(self.EXEMPT) - needed

    def test_a_mention_outside_code_keeps_nothing_alive(self):
        modules = {
            "lib.py": (
                '"""Call ``helper`` for the answer."""\n'
                '__all__ = ["helper"]\n'
                "def helper():  # helper: see above\n"
                "    return 1\n"
                "def used():\n"
                "    return 2\n"
            ),
        }
        readers = ['"""helper"""\nimport lib\nprint(lib.used())\n']
        assert self._dead(modules, readers) == [("lib.py", "helper")]
        readers.append("from lib import helper\n")
        assert self._dead(modules, readers) == []

    def test_a_member_calling_itself_keeps_nothing_alive(self):
        modules = {
            "lib.py": (
                "class Box:\n"
                "    def run(self, again=True):\n"
                "        return self.run(False) if again else 1\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 2\n"
            ),
        }
        readers = ["from lib import Box\nprint(Box().size)\n"]
        assert self._dead(modules, readers) == [("lib.py", "Box.run")]
        readers.append("Box().run()\n")
        assert self._dead(modules, readers) == []


class TestConfigFieldsAreSet:
    """A field of a config class (a ``@dataclass`` in ``src/repro`` whose
    name ends in ``Config``) is a setting some program varies: code in
    ``src/repro``, the benchmark harness, a benchmark or an example sets
    it — an argument of that class, a keyword of ``dataclasses.replace``,
    or a key of a ``perf/workloads.py`` config dict. A value only tests
    set is a constant beside its reader, unless the map below says why it
    stays a field."""

    TIER1_BERT = "tier-1 trains BERTs small enough to finish in seconds, and a saved model restores its architecture through BertConfig(**header)"
    TIER1_TRAINING = "tier-1 trains BERTs small enough to finish in seconds"
    CHAOS = "a fault scenario the chaos tests drive"
    CHAOS_SPAWNED = "a fault scenario the chaos tests drive inside spawned workers"
    EXEMPT = {
        "KamelConfig.pyramid_height": "tier-1's multi-leaf world and the planned bulk_city workload need other heights",
        "KamelConfig.pyramid_levels": "tier-1's multi-leaf world and the planned bulk_city workload need other level counts",
        "KamelConfig.pyramid_root_extent_m": "tier-1's multi-leaf world and the planned bulk_city workload need other roots",
        "KamelConfig.model_threshold_k": "tier-1's multi-leaf world and the planned bulk_city workload need other thresholds",
        "KamelConfig.cell_size_candidates": "the tuner's rework (ROADMAP item 2) varies the candidates",
        "ServeConfig.metrics_every": "read inside spawned workers, where no test can patch a constant",
        "ServeConfig.span_batch": "read inside spawned workers, where no test can patch a constant",
        "BertConfig.hidden_size": TIER1_BERT,
        "BertConfig.num_layers": TIER1_BERT,
        "BertConfig.num_heads": TIER1_BERT,
        "BertConfig.max_seq_len": TIER1_BERT,
        "BertConfig.seed": TIER1_BERT,
        "TrainingConfig.batch_size": TIER1_TRAINING,
        "TrainingConfig.lr": TIER1_TRAINING,
        "TrainingConfig.seed": TIER1_TRAINING,
        "TrainingConfig.max_steps": TIER1_TRAINING,
        "ChaosConfig.corruption_rate": CHAOS,
        "ChaosConfig.failure_sites": CHAOS,
        "ChaosConfig.stall_after": CHAOS_SPAWNED,
        "ChaosConfig.stall_s": CHAOS_SPAWNED,
        "ChaosConfig.ipc_delay_rate": CHAOS_SPAWNED,
        "ChaosConfig.ipc_delay_s": CHAOS_SPAWNED,
        "ChaosConfig.ipc_sites": CHAOS_SPAWNED,
    }

    @staticmethod
    def _config_classes() -> dict[str, list[str]]:
        """Field names of every config class under ``src/repro``, found by
        scanning the source for ``@dataclass`` classes named ``*Config``."""
        import ast
        import dataclasses
        import importlib

        classes = {}
        for path in sorted((ROOT / "src/repro").rglob("*.py")):
            module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                    cls = getattr(importlib.import_module(module), node.name)
                    if dataclasses.is_dataclass(cls):
                        classes[node.name] = [f.name for f in dataclasses.fields(cls)]
        return classes

    @staticmethod
    def _set_by_program(classes: dict[str, list[str]]) -> dict[str, set[str]]:
        """Field names each config class is given by non-test code."""
        import ast

        given = {name: set() for name in classes}
        replaced: set[str] = set()
        for top in ("src/repro", "perf", "benchmarks", "examples"):
            for path in sorted((ROOT / top).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    keywords = {k.arg for k in node.keywords if k.arg}
                    if name in given:
                        given[name] |= keywords
                        given[name].update(classes[name][: len(node.args)])
                    elif name == "replace":
                        replaced |= keywords
                    if path.name == "workloads.py" and path.parent.name == "perf":
                        for k in node.keywords:
                            if k.arg == "config" and isinstance(k.value, ast.Dict):
                                given["KamelConfig"].update(
                                    key.value for key in k.value.keys
                                    if isinstance(key, ast.Constant)
                                )
        return {name: fields | replaced for name, fields in given.items()}

    def test_every_field_is_set_by_a_program(self):
        classes = self._config_classes()
        set_by = self._set_by_program(classes)
        unset, needless = [], []
        for cls, fields in classes.items():
            for field in fields:
                key = f"{cls}.{field}"
                if field not in set_by[cls] and key not in self.EXEMPT:
                    unset.append(key)
                if field in set_by[cls] and key in self.EXEMPT:
                    needless.append(key)
        stale = set(self.EXEMPT) - {f"{cls}.{f}" for cls, fields in classes.items() for f in fields}
        assert not unset, f"config fields only tests set (make them constants): {unset}"
        assert not needless, f"exempt fields a program sets: {needless}"
        assert not stale, f"exempt fields that do not exist: {sorted(stale)}"


class TestKeywordParametersAreSet:
    """A defaulted parameter of a public function, method or constructor
    in ``src/repro`` is one some program passes: a call in the program
    sources of :class:`TestNoDeadPublicNames` to a callable of that name
    passes it by keyword or by position, or forwards ``*args`` /
    ``**kwargs``. A constructor is also called through a subclass's name
    and through ``super().__init__``. Names are matched, not resolved — the
    approximation :class:`TestConfigFieldsAreSet` makes. A value only tests
    pass is a constant beside its reader, unless the map below says why it
    stays a parameter."""

    SEAM = "test seam: "
    ITEM_2A = "varied by the tuner's rework (ROADMAP item 2 (a))"
    ITEM_18A = "varied by the Jakarta-scale workload (ROADMAP item 18 (a))"
    DURABLE = "durability: an fsync per append is the crash-safe default; tests relax it"
    EXEMPT = {
        "main.argv": SEAM + "tests drive the CLI in-process with an argument list",
        "ServingPool.stop.timeout": SEAM + "tests bound how long a stop waits on a stalled worker",
        "MetricsRegistry.reset.prefix": SEAM + "tests zero the repro.serve metrics before a pool run",
        "counter.registry": SEAM + "tests count into a private registry",
        "gauge.registry": SEAM + "tests set gauges in a private registry",
        "ObservabilityServer.registry": SEAM + "tests serve a private registry",
        "configure_logging.stream": SEAM + "tests capture log records in a buffer",
        "configure_logging.force": SEAM + "tests replace a handler already installed",
        "ChaosMonkey.sleep": SEAM + "tests record injected stalls instead of sleeping",
        "SegmentImputer.impute_segment.deadline": SEAM + "tier-1 drives one segment's search under a deadline",
        "SegmentImputer.impute_segment.search": SEAM + "tier-1 drives one segment's search with its own state",
        "fig9_sparseness.methods": SEAM + "tier-1 runs a subset of methods to stay fast",
        "fig10_threshold.methods": SEAM + "tier-1 runs a subset of methods to stay fast",
        "Tensor.backward.grad": "test oracle: vector-Jacobian checks seed the backward pass",
        "dbscan_labels.metric": "test oracle: the blockwise path is checked against the linear scan",
        "chaos_scope.grid": "a fault scenario: the chaos tests corrupt the cells of a given grid",
        "StreamJournal.sync": DURABLE,
        "QuarantineStore.sync": DURABLE,
        "ObservabilityServer.host": "deployment: an endpoint bound beyond localhost",
        "tune_cell_size.sample_size": ITEM_2A,
        "tune_cell_size.sparse_distance_m": ITEM_2A,
        "tune_cell_size.seed": ITEM_2A,
        "make_jakarta_like.scale": ITEM_18A,
        "make_jakarta_like.seed": ITEM_18A,
    }

    @staticmethod
    def _name(node) -> str:
        """The name a call or a base class is written with (``""`` if none)."""
        node = getattr(node, "func", node)
        return getattr(node, "id", None) or getattr(node, "attr", "")

    @classmethod
    def _parameters(cls, modules: dict[str, str], subclasses: dict[str, set[str]]):
        """``(key, parameter, names, position)`` for each defaulted parameter
        of a public callable of ``modules``: ``key`` is ``func.param``,
        ``Class.param`` (a constructor's) or ``Class.method.param``; a call
        to one of ``names`` reaches it; ``position`` is its index among the
        call's positional arguments (None if keyword-only)."""
        import ast

        def params(key, fn, names, bound):
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            for index in range(len(positional) - len(args.defaults), len(positional)):
                yield f"{key}.{positional[index]}", positional[index], names, index - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{key}.{arg.arg}", arg.arg, names, None

        def lineage(name):
            names, todo = set(), [name]
            while todo:
                if (current := todo.pop()) not in names:
                    names.add(current)
                    todo.extend(subclasses.get(current, ()))
            return names

        for source in modules.values():
            for node in ast.parse(source).body:
                if getattr(node, "name", "_").startswith("_"):
                    continue
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from params(node.name, node, {node.name}, 0)
                elif isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            continue
                        if member.name == "__init__":
                            yield from params(node.name, member, lineage(node.name), 1)
                        elif not member.name.startswith("_"):
                            static = "staticmethod" in map(cls._name, member.decorator_list)
                            key = f"{node.name}.{member.name}"
                            yield from params(key, member, {member.name}, 0 if static else 1)

    @classmethod
    def _scan(cls, modules: dict[str, str], readers: list[str]) -> tuple[set[str], list[str]]:
        """Every parameter key, and those no call in ``modules`` or
        ``readers`` passes."""
        import ast
        from collections import defaultdict

        keywords, positions = defaultdict(set), defaultdict(int)
        forwarded, subclasses = set(), defaultdict(set)

        def record(name, call):
            keywords[name].update(k.arg for k in call.keywords)
            positions[name] = max(positions[name], len(call.args))
            if None in keywords[name] or any(isinstance(a, ast.Starred) for a in call.args):
                forwarded.add(name)

        for source in [*modules.values(), *readers]:
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ClassDef):
                    bases = [cls._name(base) for base in node.bases]
                    for base in bases:
                        subclasses[base].add(node.name)
                    for call in ast.walk(node):
                        if (
                            isinstance(call, ast.Call)
                            and cls._name(call) == "__init__"
                            and cls._name(getattr(call.func, "value", None)) == "super"
                        ):
                            for base in bases:
                                record(base, call)
                elif isinstance(node, ast.Call):
                    record(cls._name(node), node)
        keys, unset = set(), []
        for key, param, names, position in cls._parameters(modules, subclasses):
            keys.add(key)
            if not any(
                name in forwarded
                or param in keywords[name]
                or (position is not None and position < positions[name])
                for name in names
            ):
                unset.append(key)
        return keys, unset

    def test_every_parameter_is_passed_by_a_program(self):
        _, unset = self._scan(*TestNoDeadPublicNames._program())
        unset = [key for key in unset if key not in self.EXEMPT]
        assert not unset, f"parameters only tests pass (make them constants): {unset}"

    def test_every_exemption_is_needed(self):
        keys, unset = self._scan(*TestNoDeadPublicNames._program())
        stale = set(self.EXEMPT) - keys
        needless = set(self.EXEMPT) & keys - set(unset)
        assert not stale, f"exempt parameters that do not exist: {sorted(stale)}"
        assert not needless, f"exempt parameters a program passes: {sorted(needless)}"

    def test_a_parameter_only_a_test_passes_is_flagged(self):
        modules = {"lib.py": "def scale(x, factor=2.0):\n    return x * factor\n"}
        program = ["from lib import scale\nprint(scale(1.0))\n"]
        a_test = "from lib import scale\nassert scale(1.0, factor=3.0) == 3.0\n"
        assert self._scan(modules, program)[1] == ["scale.factor"]
        assert self._scan(modules, [*program, a_test])[1] == []  # were it a program

    def test_a_positional_program_call_keeps_a_parameter(self):
        modules = {
            "lib.py": (
                "class Box:\n"
                "    def __init__(self, size=1, label=''):\n"
                "        self.size, self.label = size, label\n"
                "    def grow(self, by=1):\n"
                "        return Box(self.size + by)\n"
                "class Crate(Box):\n"
                "    def __init__(self, **kwargs):\n"
                "        super().__init__(**kwargs)\n"
            ),
        }
        program = ["from lib import Box\nBox(2).grow()\n"]
        assert self._scan(modules, program)[1] == ["Box.grow.by"]
        assert self._scan(modules, [*program, "Box(2).grow(3)\n"])[1] == []


class TestServeKnobs:
    """Knob-creep guard for the pool↔worker contract: a field nobody
    reads, or a documented knob that does not exist, fails here."""

    @staticmethod
    def _fields(cls) -> list[str]:
        import dataclasses

        return [f.name for f in dataclasses.fields(cls)]

    def test_every_contract_field_is_read_by_the_serve_tier(self):
        from repro.serve.protocol import ServeConfig, WorkerSpec

        source = "\n".join(
            p.read_text() for p in sorted((ROOT / "src/repro/serve").glob("*.py"))
        )
        for cls in (ServeConfig, WorkerSpec):
            for name in self._fields(cls):
                assert re.search(rf"\.{name}\b", source), (
                    f"{cls.__name__}.{name} is declared but never read under "
                    "src/repro/serve/ — use it or delete it"
                )

    def test_worker_spec_copies_no_serve_config_field(self):
        from repro.serve.protocol import ServeConfig, WorkerSpec

        assert not set(self._fields(ServeConfig)) & set(self._fields(WorkerSpec))

    def test_serving_doc_reference_table_lists_every_knob(self):
        from repro.serve.protocol import ServeConfig

        serving = (ROOT / "docs" / "serving.md").read_text()
        table = serving.split("### `ServeConfig` reference", 1)[1].split("\n\n", 2)[1]
        documented = re.findall(r"^\| `([a-z_]+)` \|", table, flags=re.MULTILINE)
        assert documented == self._fields(ServeConfig)

    def test_docs_name_only_existing_knobs(self):
        """Every `ServeConfig.x`, `StreamingConfig.x` and `ChaosConfig.x`
        a doc names is a field of that config today."""
        from repro.core.streaming import StreamingConfig
        from repro.resilience.chaos import ChaosConfig
        from repro.serve.protocol import ServeConfig

        docs = {doc.name: doc.read_text() for doc in sorted((ROOT / "docs").glob("*.md"))}
        for cls in (ServeConfig, StreamingConfig, ChaosConfig):
            config, known = cls.__name__, set(self._fields(cls))
            for name, text in docs.items():
                for field in re.findall(rf"`{config}\.([A-Za-z_]+)`", text):
                    assert field in known, f"{name} names {config}.{field}"


class TestOneBenchmarkHarness:
    """``perf/`` is the only harness and the only load generator: the
    verbs and baselines it replaced stay gone, and every documented
    command still parses — its verb and each of its flags."""

    DOCUMENTS = [
        ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        ROOT / ".github" / "workflows" / "ci.yml",
    ]

    def test_every_documented_verb_is_a_registered_subcommand(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        takes_value = {
            option: action.nargs != 0
            for action in parser._actions
            for option in action.option_strings
        }
        (subparsers,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        invocation = re.compile(r"(?:\bkamel|python3? -m repro(?:\.cli)?)((?:\s+\S+){1,8})")
        seen = set()
        for document in self.DOCUMENTS:
            for match in invocation.finditer(document.read_text()):
                tokens = match.group(1).split()
                while tokens and tokens[0] in takes_value:  # global flags
                    del tokens[: 2 if takes_value[tokens[0]] else 1]
                verb = re.match(r"[a-z][a-z-]*", tokens[0]) if tokens else None
                if verb is None:  # `kamel <args>`, a flag we do not know
                    continue
                seen.add(verb.group())
                assert verb.group() in subparsers.choices, (
                    f"{document.name}: `{' '.join(match.group().split())}` names "
                    f"{verb.group()!r}, which is not a kamel subcommand"
                )
        assert {"serve", "tail", "stats", "trace", "compare"} <= seen

    @staticmethod
    def _command_lines(text: str) -> list[str]:
        """``text`` as a shell reads it: ``\\``-continued lines joined,
        and each YAML ``>`` block folded into one line."""
        text = re.sub(r"\\\n\s*", " ", text)
        lines: list[str] = []
        folded, indent = None, 0
        for line in text.splitlines():
            depth = len(line) - len(line.lstrip())
            if folded is not None:
                if line.strip() and depth > indent:
                    folded.append(line.strip())
                    continue
                lines.append(" ".join(folded))
                folded = None
            if re.search(r":\s*>-?\s*$", line):
                folded, indent = [], depth
            else:
                lines.append(line)
        if folded is not None:
            lines.append(" ".join(folded))
        return lines

    def test_every_documented_flag_is_an_option_of_its_verb(self):
        """A flag retired from a verb must leave the docs with it: every
        ``--flag`` in a documented ``kamel <verb>`` / ``python -m repro
        <verb>`` command is an option of that verb's subparser."""
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        takes_value = {
            option: action.nargs != 0
            for action in parser._actions
            for option in action.option_strings
        }
        (subparsers,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        invocation = re.compile(r"(?:\bkamel|python3? -m repro(?:\.cli)?)\s+(.*)")
        checked = 0
        for document in self.DOCUMENTS:
            for line in self._command_lines(document.read_text()):
                for match in invocation.finditer(line):
                    tokens = match.group(1).split()
                    while tokens and tokens[0] in takes_value:  # global flags
                        del tokens[: 2 if takes_value[tokens[0]] else 1]
                    verb = re.match(r"[a-z][a-z-]*", tokens[0]) if tokens else None
                    if verb is None or verb.group() not in subparsers.choices:
                        continue
                    options = subparsers.choices[verb.group()]._option_string_actions
                    for token in tokens:
                        if token == "--" or token[0] in "|&;#<>(":
                            break  # a nested command, a pipe, a comment
                        flag = token.strip("`'\".,:)").split("=")[0]
                        if flag.startswith("--"):
                            checked += 1
                            assert flag in options, (
                                f"{document.name}: `{' '.join(match.group().split())}` "
                                f"passes {flag}, which `{verb.group()}` does not take"
                            )
                        if "`" in token:
                            break  # the end of an inline code span
        assert checked >= 40

    def test_nothing_names_the_retired_harness(self):
        retired = [
            "repro" + ".bench",
            "kamel " + "bench",
            "repro " + "bench",
            "BENCH_" + "observability",
            "BENCH_" + "serve",
            "kamel " + "loadtest",
            "repro " + "loadtest",
            "repro.serve" + ".loadtest",
            "kamel " + "chaos",
            "Circuit" + "Breaker",
            "Retry" + "Policy",
            "Guarded" + "Model",
            "CircuitOpen" + "Error",
            "resilience" + ".breaker",
            "retries" + "_total",
            "breaker_open" + "_total",
            "circuit" + "_open",
        ]
        sources = [
            *self.DOCUMENTS,
            ROOT / "DESIGN.md",
            ROOT / "EXPERIMENTS.md",
            *(
                path
                for top in ("src", "tests", "benchmarks", "examples")
                for path in sorted((ROOT / top).rglob("*.py"))
            ),
        ]
        for source in sources:
            text = source.read_text()
            for name in retired:
                assert name not in text, f"{source.relative_to(ROOT)} names {name}"
        assert not (ROOT / "src" / "repro" / "bench").exists()
        assert not (ROOT / "src" / "repro" / "serve" / "loadtest.py").exists()
        assert not (ROOT / "src" / "repro" / "resilience" / "breaker.py").exists()
        assert not list(ROOT.glob("BENCH_*.json"))
