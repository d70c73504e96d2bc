"""The ``repro`` subcommands: ``bench`` is not one of them, and ``run``
rejects the deleted inference-engine options.

The repository's one benchmark is ``perfbench/run.py``, outside the
package.
"""

import pytest

from repro.cli import build_parser, main


class TestArgumentParsing:
    def test_subcommands_are_list_run_replay_lint(self):
        assert build_parser().format_help().startswith(
            "usage: repro [-h] {list,run,replay,lint} ...\n"
        )

    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--engine", "dynamic"],
        ["--storage-dtype", "float16"],
        ["--blas-threads", "2"],
    ], ids=lambda flag: flag[0])
    def test_unknown_engine_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig5", *flag])
