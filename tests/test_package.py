"""The package's public names: the set `from kgraphwave import *` binds, each
served from its defining module on first use, and the modules a fresh
interpreter loads for a graph load and for the CLI."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kgraphwave

SRC = Path(kgraphwave.__file__).resolve().parents[1]

# the names each layer exports, as the package bound them eagerly before it
# served them on first use
EXPORTS = {
    "errors": """AsymmetricInput BadShape BadWeights CompositionError ConvergenceFailure DegenerateVertexCount
        DegreeRangeError DimensionMismatch DivergentIntegral EmptyDv GridTooCoarse HasSources KGraphWaveError
        LevelTooSmall NegativeArgument NonConstantDerivative NonFiniteResult NoWaveletDegree NotStronglyConnected
        NotZeroOne ParseError ResidualTooLarge ShapeMismatch TooLarge ValidationError""",
    "kgraph": """Edge FactorizationSquare KGraph Path bouquet_graph compose enumerate_paths fixture_path load_kgraph
        load_kgraph_file normal_form path_counts segment vertex_matrices vertex_path""",
    "measure": """CylinderFn MeasureSpec cylinder_measure embed_to_interval extensions inner_product integral mce
        norm refine""",
    "perron": "RATIONAL_PF_CELL_LIMIT PFData hausdorff_dimension is_strongly_connected pf_data rational_pf_data",
    "sbfs": """CK_ENTRY_LIMIT CK_TABLE_LIMIT CKReport LevelSpace OperatorMatrix check_ck_relations ck_table_count
        ck_table_entries level_space s_apply s_matrix s_star_matrix""",
    "spectral": """EIGEN_ENTRY_LIMIT LAPLACIAN_ENTRY_LIMIT KernelPiece KernelSpec SpectralData cg_constant
        check_eigendata check_laplacian_listing default_kernel default_tgrid eig_sym gft incidence_entries
        kernel_eval kgraph_laplacian laplacian_entries localization_probe reconstruct spectral_wavelet""",
    "traffic": "PreferredPaths TrafficWaveletFamily least_degrees traffic_wavelet_family",
    "wavelets": """MARKOV_MEMBER_LIMIT WAVELET_ENTRY_LIMIT MarkovWaveletSystem SubspaceComparison WaveletBasis
        WaveletFamily analyze build_wavelet_family check_wavelet_level markov_wavelets subspace_compare
        synthesize synthesize_vector wavelet_basis""",
}
SUBMODULES = {*EXPORTS, "jsonl", "orthobasis"}
STAR = {name for names in EXPORTS.values() for name in names.split()} | SUBMODULES
# the exported names that no module of src/ reads: objects of the paper that
# the CLI does not print, each documented in README.md
PAPER_OBJECTS = ("enumerate_paths", "fixture_path", "normal_form", "segment", "vertex_path", "embed_to_interval",
                 "extensions", "integral", "refine", "s_apply", "s_star_matrix", "PreferredPaths")
# the layers the benchmark's tracer wraps, which it finds in sys.modules
TRACED_LAYERS = {"kgraph", "perron", "measure", "sbfs", "wavelets", "orthobasis", "traffic", "spectral"}


def fresh(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter: in this one,
    other tests have imported the CLI and with it every layer."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return json.loads(done.stdout)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from kgraphwave import *", namespace)
    assert len(STAR) == 115
    assert set(namespace) - {"__builtins__"} == STAR == set(kgraphwave.__all__)


def readers(path: Path):
    """Each top-level statement of a module as (module, the name it defines
    or None, the names it reads: those it imports, and every name and
    attribute of its code)."""
    for top in ast.parse(path.read_text()).body:
        defined = getattr(top, "name", None)
        if isinstance(top, ast.Assign) and len(top.targets) == 1 and isinstance(top.targets[0], ast.Name):
            defined = top.targets[0].id
        read = set()
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
            elif isinstance(node, (ast.Name, ast.Attribute)):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
        yield path.stem, defined, read


def test_every_export_has_a_reader_or_is_a_documented_paper_object():
    """No name is exported for the tests alone: each is read by a module of
    src/ outside its own definition, or is one of the documented
    `PAPER_OBJECTS`. Dense views and numeric cross-checks live in
    tests/helpers.py."""
    statements = [s for path in (SRC / "kgraphwave").glob("*.py") if path.name != "__init__.py"
                  for s in readers(path)]
    home = {name: module for module, names in kgraphwave._EXPORTS.items() for name in names}
    unread = sorted(name for name, module in home.items()
                    if not any(name in read and (where, defined) != (module, name)
                               for where, defined, read in statements))
    assert unread == sorted(PAPER_OBJECTS)
    readme = (SRC.parent / "README.md").read_text()
    assert [name for name in PAPER_OBJECTS if not re.search(rf"\b{name}\b", readme)] == []


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_defining_modules_object(module):
    home = importlib.import_module(f"kgraphwave.{module}")
    for name in EXPORTS[module].split():
        assert getattr(kgraphwave, name) is getattr(home, name), name


def test_submodules_load_on_access():
    loaded = fresh("import json, sys, kgraphwave\n"
                   "before = sorted(m for m in sys.modules if m.startswith('kgraphwave.'))\n"
                   "eig_sym = kgraphwave.spectral.eig_sym\n"
                   "print(json.dumps([before, 'kgraphwave.spectral' in sys.modules,\n"
                   "                  eig_sym is sys.modules['kgraphwave.spectral'].eig_sym]))")
    assert loaded == [[], True, True]


def test_unknown_name_and_dir():
    with pytest.raises(AttributeError, match="module 'kgraphwave' has no attribute 'no_such_name'"):
        kgraphwave.no_such_name
    with pytest.raises(ImportError):
        exec("from kgraphwave import no_such_name", {})
    assert STAR | {"__version__"} <= set(dir(kgraphwave))
    assert dir(kgraphwave) == sorted(dir(kgraphwave))


def test_a_name_patched_in_its_module_is_the_packages(monkeypatch):
    def patched(graph):
        raise AssertionError("not called")

    monkeypatch.setattr(kgraphwave.perron, "pf_data", patched)
    assert kgraphwave.pf_data is patched
    monkeypatch.undo()
    assert kgraphwave.pf_data is kgraphwave.perron.pf_data is not patched


def test_a_graph_load_imports_the_core_alone():
    loaded = fresh("import json, sys, kgraphwave\n"
                   "from pathlib import Path\n"
                   "for path in sorted(Path(kgraphwave.__file__).parent.joinpath('data').glob('*.kg')):\n"
                   "    kgraphwave.load_kgraph(path)\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kgraphwave'))))")
    assert loaded == ["kgraphwave", "kgraphwave.errors", "kgraphwave.jsonl", "kgraphwave.kgraph"]


def test_the_cli_imports_every_traced_layer():
    loaded = fresh("import json, sys, kgraphwave.cli\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kgraphwave.'))))")
    assert {f"kgraphwave.{layer}" for layer in TRACED_LAYERS} <= set(loaded)
