"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import complete_graph
from repro.graph.io import write_edge_list


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "livejournal" in out and "Friendster" in out


def test_count_dataset(capsys):
    assert main(["count", "--dataset", "baidu", "-k", "4"]) == 0
    out = capsys.readouterr().out
    assert "4-cliques:" in out
    assert "ordering:" in out


def test_count_edge_list(tmp_path, capsys):
    path = tmp_path / "k6.el"
    write_edge_list(complete_graph(6), path)
    assert main(["count", "--edge-list", str(path), "-k", "3"]) == 0
    assert "3-cliques: 20" in capsys.readouterr().out


def test_count_per_vertex(tmp_path, capsys):
    path = tmp_path / "k5.el"
    write_edge_list(complete_graph(5), path)
    assert main(["count", "--edge-list", str(path), "-k", "3",
                 "--per-vertex"]) == 0
    assert "top per-vertex counts" in capsys.readouterr().out


def test_count_forced_ordering(tmp_path, capsys):
    path = tmp_path / "k5.el"
    write_edge_list(complete_graph(5), path)
    assert main(["count", "--edge-list", str(path), "-k", "2",
                 "--ordering", "core", "--structure", "dense"]) == 0
    assert "3-cliques" not in capsys.readouterr().out


def test_dist_command(tmp_path, capsys):
    path = tmp_path / "k5.el"
    write_edge_list(complete_graph(5), path)
    assert main(["dist", "--edge-list", str(path), "--max-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "k=  2: 10" in out
    assert "k=  3: 10" in out


def test_count_forest_build_then_use(tmp_path, capsys):
    path = tmp_path / "k6.el"
    forest = tmp_path / "k6.forest.npz"
    write_edge_list(complete_graph(6), path)
    assert main(["count", "--edge-list", str(path), "-k", "3",
                 "--per-vertex", "--forest", "build",
                 "--forest-path", str(forest)]) == 0
    built = capsys.readouterr().out
    assert "3-cliques: 20" in built
    assert forest.exists()
    assert main(["count", "--edge-list", str(path), "-k", "3",
                 "--per-vertex", "--forest", "use",
                 "--forest-path", str(forest)]) == 0
    used = capsys.readouterr().out
    assert "3-cliques: 20" in used
    # The loaded forest serves the same per-vertex attribution.
    assert used[used.index("top per-vertex"):] == \
        built[built.index("top per-vertex"):]


def test_dist_forest_build(tmp_path, capsys):
    path = tmp_path / "k5.el"
    write_edge_list(complete_graph(5), path)
    assert main(["dist", "--edge-list", str(path), "--max-k", "3",
                 "--forest", "build"]) == 0
    out = capsys.readouterr().out
    assert "k=  2: 10" in out
    assert "k=  3: 10" in out


@pytest.mark.parametrize("command", (["count", "-k", "3"], ["dist"]))
def test_forest_use_requires_a_path(tmp_path, capsys, monkeypatch, command):
    """``--forest use`` without ``--forest-path`` exits 2 before any
    counting; the pipeline config no longer carries forest knobs."""
    from repro import core
    from repro.core import PivotScaleConfig

    with pytest.raises(TypeError):
        PivotScaleConfig(forest="use")

    def no_count(*args, **kwargs):
        raise AssertionError("counted before checking the flags")

    monkeypatch.setattr(core, "count_cliques", no_count)
    monkeypatch.setattr(core, "count_cliques_all_sizes", no_count)
    path = tmp_path / "k5.el"
    write_edge_list(complete_graph(5), path)
    argv = [command[0], "--edge-list", str(path), *command[1:],
            "--forest", "use"]
    assert main(argv) == 2
    assert "--forest use requires --forest-path" in capsys.readouterr().err


def test_orderings_command(tmp_path, capsys):
    path = tmp_path / "g.el"
    write_edge_list(complete_graph(8), path)
    assert main(["orderings", "--edge-list", str(path), "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "barenboim-elkin" in out and "goodrich-pszona" in out


def test_unknown_dataset_is_clean_error(capsys):
    assert main(["count", "--dataset", "twitter", "-k", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_k_is_clean_error(tmp_path, capsys):
    path = tmp_path / "g.el"
    write_edge_list(complete_graph(3), path)
    assert main(["count", "--edge-list", str(path), "-k", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
