"""The package's export surface, and what an import or a command loads.

Every exported name resolves lazily from its module, so `import
alphaspectral` loads no submodule and no numpy, and a run loads only the
modules it uses, never hashlib and the OpenSSL library it maps. Each load
check runs in a fresh interpreter, since this one has long since loaded
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphaspectral

SRC = Path(__file__).resolve().parent.parent / "src"

# the names the package exported when it imported every module eagerly,
# less lambda_alpha_many, which had no caller in the package
EXPORTS = {
    "graphs": [
        "Graph", "MAX_VERTICES", "SizeCapError", "blow_up", "book", "complete", "complete_bipartite",
        "components", "cycle", "delete_vertex", "disjoint_union", "empty_graph", "generate",
        "induced_subgraph", "is_connected", "join", "make_graph", "matching", "path", "remove_edge", "split",
        "split_plus", "star", "turan", "wheel",
    ],
    "graph6": ["decode_graph6", "encode_graph6", "parse_graph6_lines", "write_graph6_lines"],
    "structure": [
        "ForbiddenFamily", "as_family", "chromatic_number", "contains_subgraph", "forbidden_family",
        "is_color_critical", "is_free",
    ],
    "spectral": [
        "ConvergenceError", "SpectralResult", "alpha_matrix", "check_alpha", "lambda_alpha", "spectral_radius",
    ],
    "enumeration": ["EnumFilter", "EnumerationCapError", "canonical_form", "count_classes", "enumerate_graphs"],
    "extremal": [
        "ExtremalRecord", "NoCandidatesError", "SequenceDiagnostic", "pi_sequence", "spectral_extremal",
        "stability_condition_check", "turan_number",
    ],
    "verifier": [
        "BatteryReport", "CheckReport", "check_degree_stability", "check_edge_count_turan", "check_graph",
        "check_log_inequalities", "check_turan_bound", "run_battery",
    ],
}
ALL = [name for names in EXPORTS.values() for name in names]


def loaded_after(code: str, cache_dir=None) -> set[str]:
    """The modules a fresh interpreter holds after running code, with the
    class cache in cache_dir or, by default, off."""
    env = {k: v for k, v in os.environ.items() if k != "ALPHASPECTRAL_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["ALPHASPECTRAL_CACHE_DIR"] = str(cache_dir)
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


class TestExportSurface:
    def test_all_is_pinned(self):
        assert len(ALL) == 62
        assert sorted(alphaspectral.__all__) == sorted(ALL)

    @pytest.mark.parametrize("module", EXPORTS)
    def test_each_name_is_its_module_object(self, module):
        home = getattr(alphaspectral, module)
        assert home.__name__ == f"alphaspectral.{module}"
        for name in EXPORTS[module]:
            assert getattr(alphaspectral, name) is getattr(home, name), name

    def test_dir_lists_every_name(self):
        assert set(ALL) <= set(dir(alphaspectral))

    def test_star_import_binds_all(self):
        scope = {}
        exec("from alphaspectral import *", scope)
        assert set(scope) - {"__builtins__"} == set(alphaspectral.__all__)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="'alphaspectral'.*'no_such_name'"):
            alphaspectral.no_such_name


class TestWhatLoads:
    def test_bare_import_loads_nothing(self):
        loaded = loaded_after("import alphaspectral")
        assert "alphaspectral" in loaded
        assert not [m for m in loaded if m.startswith("alphaspectral.")]
        assert "numpy" not in loaded

    def test_submodule_name_resolves_after_bare_import(self):
        loaded = loaded_after("import alphaspectral\nassert alphaspectral.spectral.spectral_radius")
        assert "alphaspectral.spectral" in loaded and "alphaspectral.verifier" not in loaded

    def test_search_skips_verifier_cli_and_fractions(self):
        loaded = loaded_after("from alphaspectral import spectral_extremal")
        assert "alphaspectral.extremal" in loaded
        assert not {"alphaspectral.verifier", "alphaspectral.cli", "fractions"} & loaded

    def test_extremal_command_skips_verifier(self):
        argv = ["extremal", "-n", "5", "-a", "0.3", "-F", "complete:3"]
        loaded = loaded_after(f"from alphaspectral import cli\nassert cli.main({argv!r}) == 0")
        assert "alphaspectral.extremal" in loaded and "alphaspectral.verifier" not in loaded

    def test_verify_command_loads_verifier(self):
        argv = ["verify", "--n-max", "3", "--alphas", "0"]
        loaded = loaded_after(f"from alphaspectral import cli\nassert cli.main({argv!r}) == 0")
        assert "alphaspectral.verifier" in loaded


# hashlib loads OpenSSL's libcrypto, 3.7 MB of resident memory, on import
OPENSSL = {"hashlib", "_hashlib"}


class TestNoOpenSSL:
    def test_extremal_command_filling_the_cache(self, tmp_path):
        argv = ["extremal", "-n", "5", "-a", "0.3", "-F", "complete:3"]
        loaded = loaded_after(f"from alphaspectral import cli\nassert cli.main({argv!r}) == 0", tmp_path)
        assert len(list(tmp_path.glob("classes_n*.g6"))) == 5
        assert not OPENSSL & loaded

    def test_search_from_a_filled_cache(self, tmp_path):
        code = (
            "from alphaspectral import complete, forbidden_family, spectral_extremal\n"
            "spectral_extremal(6, 0.3, forbidden_family([complete(4)]))"
        )
        loaded_after(code, tmp_path)
        files = sorted(tmp_path.glob("classes_n*.g6"))
        written = [(p.read_bytes(), p.stat().st_mtime_ns) for p in files]
        loaded = loaded_after(code, tmp_path)
        assert len(files) == 6 and [(p.read_bytes(), p.stat().st_mtime_ns) for p in files] == written
        assert not OPENSSL & loaded

    def test_verify_command_without_cache(self):
        argv = ["verify", "--n-max", "4", "--alphas", "0,0.5"]
        assert not OPENSSL & loaded_after(f"from alphaspectral import cli\nassert cli.main({argv!r}) == 0")
