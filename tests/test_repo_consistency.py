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
        from repro.serve.protocol import ServeConfig

        known = set(self._fields(ServeConfig))
        for doc in sorted((ROOT / "docs").glob("*.md")):
            for name in re.findall(r"`ServeConfig\.([A-Za-z_]+)`", doc.read_text()):
                assert name in known, f"{doc.name} names ServeConfig.{name}"


class TestOneBenchmarkHarness:
    """``perf/`` is the only harness: the verbs and baselines of the one it
    replaced stay gone, and every documented command still parses."""

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
        assert {"loadtest", "stats", "trace", "compare"} <= seen

    def test_nothing_names_the_retired_harness(self):
        retired = [
            "repro" + ".bench",
            "kamel " + "bench",
            "repro " + "bench",
            "BENCH_" + "observability",
            "BENCH_" + "serve",
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
        assert not list(ROOT.glob("BENCH_*.json"))
