"""The forked case worker of `report.run_theorem`: the same report bytes as
the inline path, errors carried to the parent, and no process left behind."""

import os
import signal
import threading

import pytest

from wresidue import cli, pipeline, report
from wresidue.scalars import EngineError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def deadline():
    """Fail a test that blocks for 60 s instead of hanging the run."""
    def on_alarm(_signum, _frame):
        raise RuntimeError("blocked for 60 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _report_bytes(tmp_path, monkeypatch, fork, args):
    monkeypatch.setattr(report, "_fork_helps", lambda: fork)
    out = tmp_path / ("forked" if fork else "inline")
    assert cli.main(["run", *args, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("args", [
    ["--theorem", "T4.6", "--format", "json"],
    ["--theorem", "T5.4", "--format", "json"],
    ["--theorem", "all", "--format", "json"],
    ["--theorem", "T5.4", "--case", "b", "--format", "json"],
    ["--theorem", "T5.4", "--case", "a1", "--format", "json"],
    ["--theorem", "T5.4", "--no-torsion", "--format", "json"],
    ["--theorem", "T4.6", "--subst-omega3", "--format", "json"],
    ["--theorem", "T4.6", "--sigma3-variant", "xik", "--format", "latex"],
], ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_worker_and_inline_reports_are_byte_identical(tmp_path, monkeypatch, deadline, args):
    forked = _report_bytes(tmp_path, monkeypatch, True, args)
    inline = _report_bytes(tmp_path, monkeypatch, False, args)
    assert forked == inline
    assert _no_child_left()


def _fail_in_worker(monkeypatch, failure):
    """Make `compute_case_term` call `failure()` in a forked process only;
    this process keeps the real function."""
    parent = os.getpid()
    real = pipeline.compute_case_term

    def compute(ctx, case):
        if os.getpid() != parent:
            failure()
        return real(ctx, case)

    monkeypatch.setattr(pipeline, "compute_case_term", compute)
    monkeypatch.setattr(report, "_fork_helps", lambda: True)


def test_an_engine_error_in_the_worker_ends_the_cli_with_its_diagnostic(
        monkeypatch, capsys, deadline):
    """The worker's exception is raised in the parent, so the exit code and
    the one-line diagnostic are those of the same error raised inline: 2,
    as for every engine error that is not a usage error."""
    def failure():
        raise EngineError("inexact polynomial division in the worker")

    _fail_in_worker(monkeypatch, failure)
    assert cli.main(["run", "--theorem", "T5.4", "--format", "json", "--out", os.devnull]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: inexact polynomial division in the worker"]
    assert _no_child_left()


def test_a_worker_that_ends_without_its_result_raises(monkeypatch, deadline):
    _fail_in_worker(monkeypatch, lambda: os._exit(3))
    with pytest.raises(EngineError, match=r"ended without a result \(exit status 3\)"):
        report.run_theorem("T5.4", report.RunConfig(theorem="T5.4"))
    assert _no_child_left()


def test_a_failure_in_the_parent_reaps_the_worker(monkeypatch, deadline):
    def failing(theorem, cfg):
        raise EngineError("symbol diff failed")

    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    monkeypatch.setattr(report, "_symbol_diff_rows", failing)
    with pytest.raises(EngineError, match="symbol diff failed"):
        report.run_theorem("T5.4", report.RunConfig(theorem="T5.4"))
    assert _no_child_left()


def test_a_result_larger_than_the_pipe_buffer_arrives_whole(monkeypatch, deadline):
    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    big = "x" * (4 << 20)
    with report._beside(lambda: big, fork=True) as result:
        assert result() == big
    assert _no_child_left()


def test_an_exception_of_the_task_is_raised_in_the_parent(monkeypatch, deadline):
    parent = os.getpid()

    def task():
        raise ValueError(f"raised in {'the worker' if os.getpid() != parent else 'the parent'}")

    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    with pytest.raises(ValueError, match="raised in the worker"):
        with report._beside(task, fork=True) as result:
            result()
    assert _no_child_left()


def test_a_single_cpu_a_second_thread_or_no_split_runs_the_task_inline(monkeypatch):
    def task():
        return os.getpid()

    with report._beside(task, fork=False) as result:
        assert result is task
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not report._fork_helps()
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    monkeypatch.setattr(report.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with report._beside(task, fork=True) as result:
        assert result is task and result() == os.getpid()
